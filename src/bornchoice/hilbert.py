"""Finite-dimensional complex Hilbert space primitives.

Kets, Hermitian operators, orthogonal projectors, spectral families,
Born-rule probabilities, and post-measurement collapse, on dense
matrices of arbitrary finite dimension. Complex scalars are plain
Python/numpy ``complex`` values (``Complex = complex``); their polar
and cartesian forms round-trip within 1e-12.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
Construction enforces structural properties (hermiticity, idempotency)
at tolerance 1e-12; validation reports use 1e-9.

This is the numpy layer: importing it loads numpy. ``CheckLine`` and
``ValidationReport`` are defined in :mod:`bornchoice.report`, which does
not, and are re-exported here.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from . import _value_class
from .report import CheckLine, ValidationReport

Complex = complex

CONSTRUCTION_TOL = 1e-12
VALIDATION_TOL = 1e-9

# Unit-norm checks accept this much slack so that states ingested from
# 3-decimal printed vectors (after constraint projection) and states a
# numerical search produced are both usable.
UNIT_TOL = 1e-6


class HilbertError(ValueError):
    """Raised for invalid Hilbert-space values or operations."""


def _as_vector(values: Union["Ket", Sequence[complex], np.ndarray]) -> np.ndarray:
    if isinstance(values, Ket):
        return values.amplitudes
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise HilbertError(f"a ket needs a non-empty 1-d amplitude list, got shape {arr.shape}")
    return arr


def _as_matrix(values: Union["HermitianOp", Sequence[Sequence[complex]], np.ndarray]) -> np.ndarray:
    if isinstance(values, HermitianOp):
        return values.entries
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise HilbertError(f"an operator needs a non-empty square matrix, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@_value_class(eq=False)
class Ket:
    """Vector of complex amplitudes in C^dim.

    Parameters
    ----------
    amplitudes : sequence of complex
        The coordinates in the canonical basis.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _frozen(_as_vector(self.amplitudes)))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        """Euclidean norm sqrt(<v|v>); real and non-negative."""
        return float(np.linalg.norm(self.amplitudes))

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def __repr__(self) -> str:
        amps = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"Ket([{amps}])"


def ket(values: Iterable[complex]) -> Ket:
    """Build a Ket from any amplitude iterable."""
    return Ket(np.asarray(list(values), dtype=np.complex128))


def basis_ket(dim: int, index: int) -> Ket:
    """Canonical basis vector |index> in C^dim."""
    if not 0 <= index < dim:
        raise HilbertError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return Ket(amps)


@_value_class(eq=False)
class HermitianOp:
    """Dense Hermitian operator on C^dim.

    Construction rejects matrices whose entries deviate from their
    conjugate transpose by more than 1e-12.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_matrix(self.entries)
        dev = float(np.max(np.abs(arr - arr.conj().T)))
        if dev > CONSTRUCTION_TOL:
            raise HilbertError(f"matrix is not Hermitian: max |M - M*| = {dev:.3e} > {CONSTRUCTION_TOL:.0e}")
        object.__setattr__(self, "entries", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def apply(self, v: Ket) -> np.ndarray:
        if v.dim != self.dim:
            raise HilbertError(f"dimension mismatch: operator is {self.dim}-dimensional, ket is {v.dim}-dimensional")
        return self.entries @ v.amplitudes

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projector(HermitianOp):
    """Orthogonal projector: Hermitian and idempotent (M M = M within 1e-12)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        arr = self.entries
        dev = float(np.max(np.abs(arr @ arr - arr)))
        if dev > CONSTRUCTION_TOL:
            raise HilbertError(f"matrix is not idempotent: max |MM - M| = {dev:.3e} > {CONSTRUCTION_TOL:.0e}")


def identity_op(dim: int) -> HermitianOp:
    """Identity operator on C^dim."""
    return HermitianOp(np.eye(dim, dtype=np.complex128))


def basis_projector(dim: int, indices: Iterable[int]) -> Projector:
    """Projector onto the span of the given canonical basis vectors."""
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if not 0 <= i < dim:
            raise HilbertError(f"basis index {i} out of range for dimension {dim}")
    diag = np.zeros(dim, dtype=np.complex128)
    diag[idx] = 1.0
    return Projector(np.diag(diag))


def rank_one_projector(v: Ket) -> Projector:
    """Projector |v><v| / <v|v> onto the line spanned by v."""
    n2 = v.norm() ** 2
    if n2 <= CONSTRUCTION_TOL:
        raise HilbertError("cannot project onto a zero vector")
    return Projector(np.outer(v.amplitudes, v.amplitudes.conj()) / n2)


@_value_class(eq=False)
class SpectralFamily:
    """Collection of projectors intended to be mutually orthogonal and complete.

    Construction only enforces a shared dimension; use
    :func:`validate_spectral_family` for the orthogonality and
    completeness report, so that defective families can be diagnosed
    rather than rejected unseen.
    """

    projectors: tuple[Projector, ...]

    def __post_init__(self) -> None:
        projs = tuple(self.projectors)
        if not projs:
            raise HilbertError("a spectral family needs at least one projector")
        dims = {p.dim for p in projs}
        if len(dims) != 1:
            raise HilbertError(f"projectors of a spectral family must share a dimension, got {sorted(dims)}")
        object.__setattr__(self, "projectors", projs)

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    def __len__(self) -> int:
        return len(self.projectors)


def canonical_family(dim: int) -> SpectralFamily:
    """The rank-1 family {|i><i|} of the canonical basis."""
    return SpectralFamily(tuple(basis_projector(dim, [i]) for i in range(dim)))


def inner_product(bra: Ket, ket_: Ket) -> complex:
    """Bra-ket inner product <bra|ket>, anti-linear in the bra and linear in the ket.

    Raises
    ------
    HilbertError
        If the dimensions differ.
    """
    if bra.dim != ket_.dim:
        raise HilbertError(f"dimension mismatch: bra is {bra.dim}-dimensional, ket is {ket_.dim}-dimensional")
    return complex(np.vdot(bra.amplitudes, ket_.amplitudes))


def expectation(op: Union[HermitianOp, np.ndarray], v: Ket, unit_tol: float = UNIT_TOL) -> float:
    """Expectation value <v|op|v> of a Hermitian operator in a unit state.

    Parameters
    ----------
    op : HermitianOp or array
        Raw arrays are checked for hermiticity at 1e-9.
    v : Ket
        Must have unit norm within ``unit_tol``.

    Returns
    -------
    float
        The real part; an imaginary part at or above 1e-9 is an error.
    """
    if not isinstance(op, HermitianOp):
        arr = _as_matrix(op)
        dev = float(np.max(np.abs(arr - arr.conj().T)))
        if dev > VALIDATION_TOL:
            raise HilbertError(f"expectation needs a Hermitian operator: max |M - M*| = {dev:.3e}")
        # symmetrize roundoff-level asymmetry so construction succeeds
        op = HermitianOp((arr + arr.conj().T) / 2.0)
    if not v.is_unit(unit_tol):
        raise HilbertError(f"expectation needs a unit vector: norm = {v.norm():.12g}")
    value = complex(np.vdot(v.amplitudes, op.apply(v)))
    if abs(value.imag) >= VALIDATION_TOL:
        raise HilbertError(f"expectation came out non-real (imaginary part {value.imag:.3e})")
    return float(value.real)


def born_probability(proj: Union[Projector, np.ndarray], v: Ket, unit_tol: float = UNIT_TOL) -> float:
    """Born-rule probability <v|M|v> = ||M v||^2 of the outcome projected by M.

    A :class:`Projector` is used as constructed; raw arrays are checked
    for hermiticity and idempotency at 1e-9. The result must land in
    [0, 1] within 1e-9 and is clipped onto the interval to absorb roundoff.
    """
    if not isinstance(proj, Projector):
        arr = _as_matrix(proj)
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        idem = float(np.max(np.abs(arr @ arr - arr)))
        if herm > VALIDATION_TOL or idem > VALIDATION_TOL:
            raise HilbertError(
                f"born_probability needs an orthogonal projector: max |M - M*| = {herm:.3e}, max |MM - M| = {idem:.3e}"
            )
        proj = (arr + arr.conj().T) / 2.0
    p = expectation(proj, v, unit_tol=unit_tol)
    if p < -VALIDATION_TOL or p > 1.0 + VALIDATION_TOL:
        raise HilbertError(f"Born probability {p!r} is outside [0, 1] beyond tolerance")
    return float(min(1.0, max(0.0, p)))


def collapse(proj: Projector, v: Ket) -> Ket:
    """Post-measurement state M|v> / ||M|v>||.

    Raises
    ------
    HilbertError
        For a zero-probability outcome (||M v|| = 0 up to 1e-12).
    """
    image = proj.apply(v)
    nrm = float(np.linalg.norm(image))
    if nrm <= CONSTRUCTION_TOL:
        raise HilbertError("cannot collapse onto a zero-probability outcome (||M v|| = 0)")
    return Ket(image / nrm)


def validate_spectral_family(family: SpectralFamily, tol: float = VALIDATION_TOL) -> ValidationReport:
    """Report hermiticity, idempotency, mutual orthogonality, and completeness.

    Each property is reported with its maximum deviation; failures are
    carried in the report instead of raised.
    """
    mats = [p.entries for p in family.projectors]
    herm = max(float(np.max(np.abs(m - m.conj().T))) for m in mats)
    idem = max(float(np.max(np.abs(m @ m - m))) for m in mats)
    ortho = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ortho = max(ortho, float(np.max(np.abs(mats[i] @ mats[j]))))
    total = sum(mats)
    comp = float(np.max(np.abs(total - np.eye(family.dim))))
    return ValidationReport(
        subject=f"spectral family ({len(family)} projectors, dim {family.dim})",
        checks=(
            CheckLine("hermiticity", herm, tol),
            CheckLine("idempotency", idem, tol),
            CheckLine("mutual orthogonality", ortho, tol),
            CheckLine("completeness", comp, tol),
        ),
    )


def check_generalized_measure(v: Ket, family: SpectralFamily, tol: float = VALIDATION_TOL) -> ValidationReport:
    """Check that outcome probabilities in state v form a generalized probability measure.

    Verifies mu_v(identity) = 1 and additivity over the family,
    mu_v(sum of M_k) = sum of mu_v(M_k), both within 1e-9.
    """
    if v.dim != family.dim:
        raise HilbertError(f"dimension mismatch: ket is {v.dim}-dimensional, family is {family.dim}-dimensional")
    probs = [born_probability(p, v) for p in family.projectors]
    ident = abs(expectation(identity_op(family.dim), v) - 1.0)
    total = sum(p.entries for p in family.projectors)
    additivity = abs(float(np.real(np.vdot(v.amplitudes, total @ v.amplitudes))) - sum(probs))
    return ValidationReport(
        subject=f"generalized measure over {len(family)} projectors",
        checks=(
            CheckLine("identity has measure 1", ident, tol),
            CheckLine("additivity over the family", additivity, tol),
        ),
    )
