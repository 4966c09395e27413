"""Finite-dimensional complex Hilbert space primitives, on the standard library.

Kets, Hermitian operators, orthogonal projectors, spectral families,
Born-rule probabilities, and post-measurement collapse, on dense
matrices of arbitrary finite dimension. A ket's amplitudes are a tuple
of ``complex`` (``Complex = complex``) and an operator's entries a tuple
of row tuples. Inputs may be any sequence of finite numbers, numpy
arrays included, read by iteration.

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
Construction enforces structural properties (hermiticity, idempotency)
at tolerance 1e-12; validation reports use 1e-9; a NaN deviation fails
every tolerance test. ``CheckLine`` and ``ValidationReport`` are defined
in :mod:`bornchoice.report` and re-exported here.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence, Union

from . import _value_class
from .report import CheckLine, ValidationReport

Complex = complex
Vector = tuple[complex, ...]
Matrix = tuple[Vector, ...]

CONSTRUCTION_TOL = 1e-12
VALIDATION_TOL = 1e-9

# Unit-norm checks accept this much slack so that states ingested from
# 3-decimal printed vectors (after constraint projection) and states a
# numerical search produced are both usable.
UNIT_TOL = 1e-6


class HilbertError(ValueError):
    """Raised for invalid Hilbert-space values or operations."""


def _number(x) -> complex:
    """A finite complex number; TypeError for a sequence, an array or a string, ValueError for NaN or inf."""
    if isinstance(x, (str, bytes)) or getattr(x, "ndim", 0):
        raise TypeError(x)
    z = complex(x)
    if not cmath.isfinite(z):
        raise ValueError(x)
    return z


def _as_vector(values: Union["Ket", Sequence[complex]]) -> Vector:
    if isinstance(values, Ket):
        return values.amplitudes
    try:
        amps = tuple(map(_number, values))
    except (TypeError, ValueError):
        amps = ()
    if not amps:
        raise HilbertError(f"a ket needs a non-empty 1-d list of finite amplitudes, got {values!r}")
    return amps


def _as_matrix(values: Union["HermitianOp", Sequence[Sequence[complex]]]) -> Matrix:
    if isinstance(values, HermitianOp):
        return values.entries
    try:
        rows = tuple(tuple(map(_number, row)) for row in values)
    except (TypeError, ValueError):
        rows = ()
    if not rows or any(len(row) != len(rows) for row in rows):
        raise HilbertError(f"an operator needs a non-empty square matrix of finite entries, got {values!r}")
    return rows


def _norm(v: Vector) -> float:
    return math.hypot(*(part for z in v for part in (z.real, z.imag)))


def _vdot(a: Vector, b: Vector) -> complex:
    """<a|b>, conjugating a."""
    return sum(x.conjugate() * y for x, y in zip(a, b))


def _matvec(m: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _apply(m: Matrix, v: Ket) -> Vector:
    if v.dim != len(m):
        raise HilbertError(f"dimension mismatch: operator is {len(m)}-dimensional, ket is {v.dim}-dimensional")
    return _matvec(m, v.amplitudes)


def _adjoint(m: Matrix) -> Matrix:
    return tuple(tuple(z.conjugate() for z in col) for col in zip(*m))


def _diagonal(values: Sequence[complex]) -> Matrix:
    return tuple(tuple(v if i == j else 0.0 for j in range(len(values))) for i, v in enumerate(values))


def _entrywise_sum(mats: Iterable[Matrix]) -> Matrix:
    return tuple(tuple(sum(zs) for zs in zip(*rows)) for rows in zip(*mats))


def _max_dev(a: Matrix, b: Matrix) -> float:
    """Largest entrywise |a - b|; NaN if any difference is NaN, which ``max`` alone can skip."""
    devs = [abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)]
    return math.nan if any(map(math.isnan, devs)) else max(devs)


@_value_class(eq=False)
class Ket:
    """Vector of complex amplitudes in C^dim: the coordinates in the canonical basis, as a tuple."""

    amplitudes: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _as_vector(self.amplitudes))

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        """Euclidean norm sqrt(<v|v>); real and non-negative."""
        return _norm(self.amplitudes)

    def is_unit(self, tol: float = UNIT_TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def __repr__(self) -> str:
        amps = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"Ket([{amps}])"


def ket(values: Iterable[complex]) -> Ket:
    """Build a Ket from any amplitude iterable."""
    return Ket(values)


def basis_ket(dim: int, index: int) -> Ket:
    """Canonical basis vector |index> in C^dim."""
    if not 0 <= index < dim:
        raise HilbertError(f"basis index {index} out of range for dimension {dim}")
    return Ket(tuple(1.0 if i == index else 0.0 for i in range(dim)))


@_value_class(eq=False)
class HermitianOp:
    """Dense Hermitian operator on C^dim, its entries a tuple of row tuples.

    Construction rejects matrices whose entries deviate from their
    conjugate transpose by more than 1e-12.
    """

    entries: Matrix

    def __post_init__(self) -> None:
        arr = _as_matrix(self.entries)
        dev = _max_dev(arr, _adjoint(arr))
        if not dev <= CONSTRUCTION_TOL:
            raise HilbertError(f"matrix is not Hermitian: max |M - M*| = {dev:.3e} > {CONSTRUCTION_TOL:.0e}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def apply(self, v: Ket) -> Vector:
        return _apply(self.entries, v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projector(HermitianOp):
    """Orthogonal projector: Hermitian and idempotent (M M = M within 1e-12)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        arr = self.entries
        dev = _max_dev(_matmul(arr, arr), arr)
        if not dev <= CONSTRUCTION_TOL:
            raise HilbertError(f"matrix is not idempotent: max |MM - M| = {dev:.3e} > {CONSTRUCTION_TOL:.0e}")


def identity_op(dim: int) -> HermitianOp:
    """Identity operator on C^dim."""
    return HermitianOp(_diagonal((1.0,) * dim))


def basis_projector(dim: int, indices: Iterable[int]) -> Projector:
    """Projector onto the span of the given canonical basis vectors."""
    idx = sorted(set(int(i) for i in indices))
    for i in idx:
        if not 0 <= i < dim:
            raise HilbertError(f"basis index {i} out of range for dimension {dim}")
    return Projector(_diagonal([1.0 if i in idx else 0.0 for i in range(dim)]))


def rank_one_projector(v: Ket) -> Projector:
    """Projector |v><v| / <v|v> onto the line spanned by v."""
    n2 = v.norm() ** 2
    if not n2 > CONSTRUCTION_TOL:
        raise HilbertError("cannot project onto a zero vector")
    return Projector(tuple(tuple(x * y.conjugate() / n2 for y in v.amplitudes) for x in v.amplitudes))


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
    """Bra-ket inner product <bra|ket>, anti-linear in the bra and linear in the ket; the dimensions must agree."""
    if bra.dim != ket_.dim:
        raise HilbertError(f"dimension mismatch: bra is {bra.dim}-dimensional, ket is {ket_.dim}-dimensional")
    return complex(_vdot(bra.amplitudes, ket_.amplitudes))


def expectation(op: Union[HermitianOp, Sequence[Sequence[complex]]], v: Ket, unit_tol: float = UNIT_TOL) -> float:
    """Expectation value <v|op|v> of a Hermitian operator in a unit state.

    A raw matrix is checked for hermiticity at 1e-9 and evaluated as
    given, and v must have unit norm within ``unit_tol``. Returns the
    real part; an imaginary part at or above 1e-9, or a NaN one, is an
    error.
    """
    arr = _as_matrix(op)
    if not isinstance(op, HermitianOp):
        dev = _max_dev(arr, _adjoint(arr))
        if not dev <= VALIDATION_TOL:
            raise HilbertError(f"expectation needs a Hermitian operator: max |M - M*| = {dev:.3e}")
    return _expectation(arr, v, unit_tol)


def _expectation(m: Matrix, v: Ket, unit_tol: float) -> float:
    """``expectation`` on a matrix whose hermiticity is already checked."""
    if not v.is_unit(unit_tol):
        raise HilbertError(f"expectation needs a unit vector: norm = {v.norm():.12g}")
    value = complex(_vdot(v.amplitudes, _apply(m, v)))
    if not abs(value.imag) < VALIDATION_TOL:
        raise HilbertError(f"expectation came out non-real (imaginary part {value.imag:.3e})")
    return value.real


def born_probability(proj: Union[Projector, Sequence[Sequence[complex]]], v: Ket, unit_tol: float = UNIT_TOL) -> float:
    """Born-rule probability <v|M|v> = ||M v||^2 of the outcome projected by M.

    A :class:`Projector` is used as constructed; raw matrices are checked
    for hermiticity and idempotency at 1e-9. The result must land in
    [0, 1] within 1e-9 and is clipped onto the interval to absorb roundoff.
    """
    arr = _as_matrix(proj)
    if not isinstance(proj, Projector):
        herm = _max_dev(arr, _adjoint(arr))
        idem = _max_dev(_matmul(arr, arr), arr)
        if not (herm <= VALIDATION_TOL and idem <= VALIDATION_TOL):
            raise HilbertError(
                f"born_probability needs an orthogonal projector: max |M - M*| = {herm:.3e}, max |MM - M| = {idem:.3e}"
            )
    p = _expectation(arr, v, unit_tol)
    if not -VALIDATION_TOL <= p <= 1.0 + VALIDATION_TOL:
        raise HilbertError(f"Born probability {p!r} is outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def collapse(proj: Projector, v: Ket) -> Ket:
    """Post-measurement state M|v> / ||M|v>||; an error for a zero-probability outcome (||M v|| <= 1e-12)."""
    image = proj.apply(v)
    nrm = _norm(image)
    if not nrm > CONSTRUCTION_TOL:
        raise HilbertError("cannot collapse onto a zero-probability outcome (||M v|| = 0)")
    return Ket(tuple(z / nrm for z in image))


def validate_spectral_family(family: SpectralFamily, tol: float = VALIDATION_TOL) -> ValidationReport:
    """Report hermiticity, idempotency, mutual orthogonality, and completeness.

    Each property is reported with its maximum deviation; failures are
    carried in the report instead of raised.
    """
    mats = [p.entries for p in family.projectors]
    zero = _diagonal((0.0,) * family.dim)
    herm = max(_max_dev(m, _adjoint(m)) for m in mats)
    idem = max(_max_dev(_matmul(m, m), m) for m in mats)
    ortho = max((_max_dev(_matmul(a, b), zero) for i, a in enumerate(mats) for b in mats[i + 1 :]), default=0.0)
    comp = _max_dev(_entrywise_sum(mats), _diagonal((1.0,) * family.dim))
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
    total = _entrywise_sum(p.entries for p in family.projectors)
    additivity = abs(_vdot(v.amplitudes, _matvec(total, v.amplitudes)).real - sum(probs))
    return ValidationReport(
        subject=f"generalized measure over {len(family)} projectors",
        checks=(
            CheckLine("identity has measure 1", ident, tol),
            CheckLine("additivity over the family", additivity, tol),
        ),
    )
