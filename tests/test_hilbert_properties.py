"""Randomized property suites for the Hilbert-space axioms.

Each property runs 1000 generated cases. Random draws are derived from
a hypothesis-supplied seed through numpy's Generator so the vectors and
spectral families stay well-conditioned.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bornchoice import hilbert

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIMS = st.integers(min_value=2, max_value=6)

CASES = settings(max_examples=1000, deadline=None)


def _vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def _unit_ket(rng: np.random.Generator, dim: int) -> hilbert.Ket:
    v = _vector(rng, dim)
    while np.linalg.norm(v) < 1e-6:
        v = _vector(rng, dim)
    return hilbert.Ket(v / np.linalg.norm(v))


def _random_family(rng: np.random.Generator, dim: int) -> hilbert.SpectralFamily:
    # QR of a complex Ginibre matrix gives a Haar-ish orthonormal basis
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return hilbert.SpectralFamily(tuple(hilbert.rank_one_projector(hilbert.Ket(q[:, i])) for i in range(dim)))


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_inner_product_linear_in_ket(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (hilbert.Ket(_vector(rng, dim)) for _ in range(3))
    z = complex(rng.normal(), rng.normal())
    t = complex(rng.normal(), rng.normal())
    combo = hilbert.Ket(z * np.asarray(b.amplitudes) + t * np.asarray(c.amplitudes))
    lhs = hilbert.inner_product(a, combo)
    rhs = z * hilbert.inner_product(a, b) + t * hilbert.inner_product(a, c)
    assert abs(lhs - rhs) <= 1e-10


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_inner_product_antilinear_in_bra(seed, dim):
    rng = np.random.default_rng(seed)
    a, b, c = (hilbert.Ket(_vector(rng, dim)) for _ in range(3))
    z = complex(rng.normal(), rng.normal())
    t = complex(rng.normal(), rng.normal())
    combo = hilbert.Ket(z * np.asarray(a.amplitudes) + t * np.asarray(b.amplitudes))
    lhs = hilbert.inner_product(combo, c)
    rhs = z.conjugate() * hilbert.inner_product(a, c) + t.conjugate() * hilbert.inner_product(b, c)
    assert abs(lhs - rhs) <= 1e-10


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_born_range_and_complement(seed, dim):
    rng = np.random.default_rng(seed)
    v = _unit_ket(rng, dim)
    fam = _random_family(rng, dim)
    mask = rng.integers(0, 2, size=dim).astype(bool)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for proj, keep in zip(fam.projectors, mask):
        if keep:
            mat = mat + np.asarray(proj.entries)
    p = hilbert.born_probability(mat, v)
    q = hilbert.born_probability(np.eye(dim) - mat, v)
    assert 0.0 <= p <= 1.0
    assert 0.0 <= q <= 1.0
    assert abs(p + q - 1.0) <= 1e-9


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_born_normalization_over_family(seed, dim):
    rng = np.random.default_rng(seed)
    v = _unit_ket(rng, dim)
    fam = _random_family(rng, dim)
    assert hilbert.validate_spectral_family(fam).passed
    probs = [hilbert.born_probability(proj, v) for proj in fam.projectors]
    assert abs(sum(probs) - 1.0) <= 1e-9
    assert hilbert.check_generalized_measure(v, fam).passed


@CASES
@given(seed=SEEDS, dim=st.integers(min_value=3, max_value=6))
def test_measure_additive_over_orthogonal_projectors(seed, dim):
    rng = np.random.default_rng(seed)
    v = _unit_ket(rng, dim)
    fam = _random_family(rng, dim)
    m1 = np.asarray(fam.projectors[0].entries) + np.asarray(fam.projectors[1].entries)
    m2 = np.asarray(fam.projectors[2].entries)
    lhs = hilbert.born_probability(m1 + m2, v)
    rhs = hilbert.born_probability(m1, v) + hilbert.born_probability(m2, v)
    assert abs(lhs - rhs) <= 1e-9


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_spectral_decomposition_consistency(seed, dim):
    rng = np.random.default_rng(seed)
    v = _unit_ket(rng, dim)
    fam = _random_family(rng, dim)
    outcomes = rng.normal(size=dim) * 10.0
    op = np.zeros((dim, dim), dtype=np.complex128)
    for o, proj in zip(outcomes, fam.projectors):
        op = op + o * np.asarray(proj.entries)
    lhs = hilbert.expectation(op, v)
    rhs = sum(o * hilbert.born_probability(proj, v) for o, proj in zip(outcomes, fam.projectors))
    assert abs(lhs - rhs) <= 1e-9


@CASES
@given(seed=SEEDS, dim=DIMS)
def test_collapse_unit_norm_and_idempotent(seed, dim):
    rng = np.random.default_rng(seed)
    v = _unit_ket(rng, dim)
    fam = _random_family(rng, dim)
    probs = [hilbert.born_probability(proj, v) for proj in fam.projectors]
    proj = fam.projectors[int(np.argmax(probs))]
    w = hilbert.collapse(proj, v)
    assert abs(w.norm() - 1.0) <= 1e-12
    again = hilbert.collapse(proj, w)
    assert float(np.max(np.abs(np.asarray(again.amplitudes) - np.asarray(w.amplitudes)))) <= 1e-10
    assert abs(hilbert.born_probability(proj, w) - 1.0) <= 1e-10
