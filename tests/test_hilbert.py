"""Unit tests for the finite-dimensional Hilbert-space layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bornchoice import hilbert
from bornchoice.hilbert import (
    HermitianOp,
    HilbertError,
    Ket,
    Projector,
    SpectralFamily,
    basis_ket,
    basis_projector,
    born_probability,
    canonical_family,
    check_generalized_measure,
    collapse,
    expectation,
    identity_op,
    inner_product,
    ket,
    rank_one_projector,
    validate_spectral_family,
)


def test_ket_basics():
    v = ket([1 + 0j, 1j])
    assert v.dim == 2
    assert v.norm() == pytest.approx(math.sqrt(2.0))
    assert not v.is_unit()
    u = ket([1 / math.sqrt(2), 1j / math.sqrt(2)])
    assert u.is_unit()


def test_ket_amplitudes_read_only():
    v = ket([1.0, 0.0])
    with pytest.raises(ValueError):
        v.amplitudes[0] = 5.0


def test_ket_rejects_bad_shapes():
    with pytest.raises(HilbertError):
        ket([])
    with pytest.raises(HilbertError):
        Ket(np.zeros((2, 2), dtype=complex))


def test_basis_ket_bounds():
    assert np.allclose(basis_ket(3, 1).amplitudes, [0, 1, 0])
    with pytest.raises(HilbertError):
        basis_ket(3, 3)


def test_hermitian_op_rejects_non_hermitian():
    with pytest.raises(HilbertError, match="not Hermitian"):
        HermitianOp([[0, 1], [0, 0]])
    # asymmetry below the construction tolerance is accepted
    eps = 1e-14
    op = HermitianOp([[1, eps * 1j], [0, 2]])
    assert op.dim == 2


def test_hermitian_apply_dimension_mismatch():
    op = identity_op(2)
    with pytest.raises(HilbertError, match="dimension mismatch"):
        op.apply(ket([1, 0, 0]))


def test_projector_rejects_non_idempotent():
    with pytest.raises(HilbertError, match="not idempotent"):
        Projector([[0.5, 0], [0, 0.5]])
    p = basis_projector(3, [0, 2])
    assert np.allclose(p.entries, np.diag([1.0, 0.0, 1.0]))


def test_basis_projector_bad_index():
    with pytest.raises(HilbertError):
        basis_projector(2, [2])


def test_rank_one_projector_normalizes():
    p = rank_one_projector(ket([2.0, 0.0]))
    assert np.allclose(p.entries, [[1, 0], [0, 0]])
    with pytest.raises(HilbertError, match="zero vector"):
        rank_one_projector(ket([0.0, 0.0]))


def test_spectral_family_container_checks():
    with pytest.raises(HilbertError, match="at least one"):
        SpectralFamily(())
    with pytest.raises(HilbertError, match="share a dimension"):
        SpectralFamily((basis_projector(2, [0]), basis_projector(3, [0])))
    fam = canonical_family(4)
    assert len(fam) == 4 and fam.dim == 4


def test_inner_product_conjugates_the_bra():
    a = ket([1.0, 1j])
    b = ket([1j, 1.0])
    # <a|b> = conj(1)*1j + conj(1j)*1 = 1j - 1j = 0
    assert inner_product(a, b) == pytest.approx(0.0)
    assert inner_product(b, a) == pytest.approx(0.0)
    assert inner_product(a, a) == pytest.approx(2.0)
    with pytest.raises(HilbertError, match="dimension mismatch"):
        inner_product(a, ket([1, 0, 0]))


def test_expectation_values():
    op = HermitianOp(np.diag([1.0, 3.0]))
    plus = ket([1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert expectation(op, plus) == pytest.approx(2.0, abs=1e-12)
    assert expectation(np.diag([1.0, 3.0]), plus) == pytest.approx(2.0, abs=1e-12)


def test_expectation_rejects_non_unit_vector():
    op = identity_op(2)
    with pytest.raises(HilbertError, match="unit vector"):
        expectation(op, ket([1.0, 1.0]))
    # within the unit slack is fine
    expectation(op, ket([1.0 + 5e-7, 0.0]))


def test_expectation_rejects_non_hermitian_array():
    with pytest.raises(HilbertError, match="Hermitian"):
        expectation(np.array([[0, 1], [0, 0]], dtype=complex), basis_ket(2, 0))


def test_born_probability_range_and_clipping():
    v = basis_ket(2, 0)
    assert born_probability(basis_projector(2, [0]), v) == 1.0
    assert born_probability(basis_projector(2, [1]), v) == 0.0
    p = born_probability(basis_projector(2, [0]), ket([math.sqrt(0.3), math.sqrt(0.7)]))
    assert p == pytest.approx(0.3, abs=1e-12)


def test_born_probability_rejects_non_projector_array():
    with pytest.raises(HilbertError):
        born_probability(np.diag([2.0, 0.0]), basis_ket(2, 0))


def test_collapse_renormalizes_and_is_idempotent():
    v = ket([math.sqrt(0.25), math.sqrt(0.75)])
    p = basis_projector(2, [1])
    w = collapse(p, v)
    assert w.norm() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(w.amplitudes, [0, 1])
    again = collapse(p, w)
    assert np.allclose(again.amplitudes, w.amplitudes, atol=1e-12)


def test_collapse_zero_probability_is_an_error():
    with pytest.raises(HilbertError, match="zero-probability"):
        collapse(basis_projector(2, [1]), basis_ket(2, 0))


def test_validate_spectral_family_reports_pass():
    report = validate_spectral_family(canonical_family(3))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["hermiticity", "idempotency", "mutual orthogonality", "completeness"]
    assert report.check("completeness").deviation <= 1e-12


def test_validate_spectral_family_reports_incompleteness():
    fam = SpectralFamily((basis_projector(3, [0]), basis_projector(3, [1])))
    report = validate_spectral_family(fam)
    assert not report.passed
    assert not report.check("completeness").passed
    assert report.check("mutual orthogonality").passed
    assert "FAIL" in report.summary()


def test_validate_spectral_family_reports_overlap():
    fam = SpectralFamily((basis_projector(2, [0]), basis_projector(2, [0, 1])))
    report = validate_spectral_family(fam)
    assert not report.check("mutual orthogonality").passed


def test_check_generalized_measure_on_canonical_family():
    v = ket([0.5, 0.5, 0.5, 0.5])
    report = check_generalized_measure(v, canonical_family(4))
    assert report.passed
    with pytest.raises(HilbertError, match="dimension mismatch"):
        check_generalized_measure(ket([1, 0]), canonical_family(3))


def test_report_round_trip_dict():
    report = validate_spectral_family(canonical_family(2))
    data = report.to_dict()
    assert data["passed"] is True
    assert all(set(c) == {"name", "deviation", "tolerance", "passed"} for c in data["checks"])


def test_operator_values_keep_identity_equality():
    # numpy entries have no single truth value, so equality is identity
    made = {
        "Ket": lambda: ket([1, 0]),
        "HermitianOp": lambda: identity_op(2),
        "Projector": lambda: basis_projector(2, [0]),
        "SpectralFamily": lambda: canonical_family(2),
    }
    for name, make in made.items():
        first, second = make(), make()
        assert type(first).__name__ == name
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2


def test_operator_values_are_read_only_and_named_by_their_own_class():
    projector = basis_projector(2, [0])
    assert repr(projector) == "Projector(dim=2)"
    assert repr(identity_op(2)) == "HermitianOp(dim=2)"
    with pytest.raises(AttributeError, match="entries"):
        projector.entries = np.eye(2)
    with pytest.raises(AttributeError, match="projectors"):
        del canonical_family(2).projectors
    with pytest.raises(TypeError, match="missing required argument 'entries'"):
        Projector()
