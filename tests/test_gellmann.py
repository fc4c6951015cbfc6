import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones.gellmann import build_basis, diag_expectations, expand


def test_orthonormal_and_complete():
    for n in (2, 3, 4):
        basis = build_basis(n)
        flat = basis.elements.reshape(n * n, n * n)
        gram = flat.conj() @ flat.T
        assert_allclose(gram, np.eye(n * n), atol=1e-13)


def test_hermitian_and_traceless():
    basis = build_basis(4)
    for label, f in zip(basis.labels, basis.elements):
        assert_allclose(f, f.conj().T, atol=1e-15)
        if label != ("identity",):
            assert abs(np.trace(f)) < 1e-14


def test_ordering_and_index():
    basis = build_basis(4)
    assert basis.labels[0] == ("identity",)
    assert basis.labels[1:4] == (("diagonal", 1), ("diagonal", 2), ("diagonal", 3))
    sym = basis.elements[basis.labels.index(("symmetric", 1, 2))]
    assert sym[0, 1] == pytest.approx(1 / np.sqrt(2))
    anti = basis.elements[basis.labels.index(("antisymmetric", 3, 4))]
    assert anti[2, 3] == pytest.approx(-1j / np.sqrt(2))
    # symmetric block precedes antisymmetric block
    kinds = [lab[0] for lab in basis.labels]
    assert kinds.index("antisymmetric") > kinds.index("symmetric")


def test_diag_expectations_values():
    basis = build_basis(4)
    mu = diag_expectations(basis)
    expected = np.array([
        [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
        [-1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(12)],
        [0.0, -2 / np.sqrt(6), 1 / np.sqrt(12)],
        [0.0, 0.0, -3 / np.sqrt(12)],
    ])
    assert_allclose(mu, expected, atol=1e-15)


def test_diag_expectations_geometry():
    # ket coordinate vectors: norm^2 (n-1)/n, pairwise dot -1/n
    for n in (3, 4):
        mu = diag_expectations(build_basis(n))
        assert_allclose(mu @ mu.T, np.eye(n) - 1.0 / n, atol=1e-14)


def test_expand_reconstructs():
    rng = np.random.default_rng(10)
    basis = build_basis(4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = x + x.conj().T
    coeffs = expand(x, basis)
    assert np.max(np.abs(coeffs.imag)) < 1e-12
    rebuilt = np.einsum("a,aij->ij", coeffs, basis.elements)
    assert_allclose(rebuilt, x, atol=1e-12)


def test_expand_shape_check():
    basis = build_basis(4)
    with pytest.raises(ValueError):
        expand(np.eye(3), basis)


def test_build_basis_rejects_small_n():
    with pytest.raises(ValueError):
        build_basis(1)
