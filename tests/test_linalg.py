import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ewcones import linalg
from ewcones.linalg import hermitian_eig, partial_transpose, psd_proved


def random_hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_hermitian_eig_matches_lapack():
    rng = np.random.default_rng(1)
    for n in (2, 3, 4, 8, 16):
        for _ in range(5):
            m = random_hermitian(rng, n)
            res = hermitian_eig(m)
            assert_allclose(res.values, np.linalg.eigvalsh(m), atol=1e-10)


def test_hermitian_eig_sorted_and_real_input():
    # real symmetric input stays on the real path
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    m = m + m.T
    res = hermitian_eig(m)
    assert np.all(np.diff(res.values) >= 0)
    assert_allclose(res.values, np.linalg.eigvalsh(m), atol=1e-11)


def test_hermitian_eig_signals_unconverged_sweeps(monkeypatch):
    m = random_hermitian(np.random.default_rng(7), 16)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1 sweeps"):
            hermitian_eig(m)
    # a ValueError, so the command line reports it as a validation failure
    assert issubclass(np.linalg.LinAlgError, ValueError)
    assert_allclose(hermitian_eig(m).values, np.linalg.eigvalsh(m), atol=1e-11)


def test_hermitian_eig_extreme_magnitudes():
    # the squared Frobenius norm of these overflows (or underflows); the solver
    # must still rotate, and power-of-two scaling keeps the values exact
    for big in (1e200, 1.7e308):
        with np.errstate(all="raise"):
            assert_allclose(hermitian_eig([[0.0, big], [big, 0.0]]).values, [-big, big], rtol=1e-15)
    rng = np.random.default_rng(8)
    m = random_hermitian(rng, 16)
    base = hermitian_eig(m)
    for power in (-900, -600, 600, 1000):
        scaled = hermitian_eig(m * 2.0**power)
        assert np.array_equal(scaled.values, base.values * 2.0**power)


def test_hermitian_eig_scales_by_parts_whose_modulus_overflows():
    # |z| overflows although its parts do not; the scaling must still apply,
    # and the eigenvalues +-|z|, beyond the float range, come back infinite
    z = 1.5e308 * (1 + 1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = hermitian_eig(np.array([[0.0, z], [np.conj(z), 0.0]])).values
    assert np.array_equal(values, [-np.inf, np.inf])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            hermitian_eig(m)


def random_unitary(rng, n, complex_entries):
    g = rng.standard_normal((n, n))
    if complex_entries:
        g = g + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_lowest_eigenvalue(rng, n, low, complex_entries):
    """A Hermitian (or real symmetric) matrix of norm about 1 with lambda_min about low."""
    u = random_unitary(rng, n, complex_entries)
    spectrum = np.concatenate(([low], rng.uniform(0.05, 1.0, n - 1)))
    m = (u * spectrum) @ u.conj().T
    return (m + m.conj().T) / 2


def boundary_corpus():
    """(m, tol) of orders 1 to 16, real and complex, with lambda_min(m) at
    -tol + k ulp for k from -4096 to 4096, each scaled by five powers of two."""
    rng = np.random.default_rng(80)
    tol = 2.0**-10
    ulp = np.finfo(float).eps
    for n in range(1, 17):
        for complex_entries in (False, True):
            for k in (-4096, -256, -16, -1, 0, 1, 16, 256, 4096):
                base = with_lowest_eigenvalue(rng, n, -tol + k * ulp, complex_entries)
                for power in (-900, -300, 0, 300, 1000):
                    yield base * 2.0**power, tol * 2.0**power


def test_psd_proved_is_sound_at_the_boundary():
    # every True must hold against LAPACK, and both answers must occur, so
    # the test bites
    answers = set()
    for m, tol in boundary_corpus():
        proved = psd_proved(m, tol)
        answers.add(proved)
        if proved:
            assert np.linalg.eigvalsh(m)[0] >= -tol, (m.shape, tol)
    assert answers == {True, False}


def test_psd_proved_counts_the_skew_it_does_not_read():
    # the strictly upper triangle is never read, yet it moves the Hermitian
    # part, whose lambda_min is the claim; here it lowers it below -tol
    rng = np.random.default_rng(81)
    tol = 1e-9
    h = with_lowest_eigenvalue(rng, 8, -tol + 1e-12, True)
    assert psd_proved(h, tol)
    _, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    skewed = h - 1e-11 * np.triu(np.outer(v, v.conj()), 1)
    assert np.linalg.eigvalsh((skewed + skewed.conj().T) / 2)[0] < -tol
    assert not psd_proved(skewed, tol)


def test_psd_proved_is_complete_away_from_the_boundary():
    rng = np.random.default_rng(82)
    for n in range(1, 17):
        for complex_entries in (False, True):
            for tol in (1e-9, 0.0625):
                base = with_lowest_eigenvalue(rng, n, -tol + 2.0**-20, complex_entries)
                assert psd_proved(base, tol)
                for power in (-900, 1000):
                    assert psd_proved(base * 2.0**power, tol * 2.0**power)
                assert not psd_proved(with_lowest_eigenvalue(rng, n, -tol - 2.0**-20, complex_entries), tol)
    # a tol far above the scaled norm is capped, not overflowed
    with np.errstate(all="raise"):
        assert psd_proved(np.eye(3) * 2.0**-1000, 1e300)
        assert psd_proved([[0.0, 1.7e308], [1.7e308, 0.0]], 1.75e308)
        assert not psd_proved([[0.0, 1.7e308], [1.7e308, 0.0]], 1e308)
    assert psd_proved(np.zeros((3, 3)), 1e-9)
    for tol in (0.0, -1.0, np.nan):
        assert not psd_proved(np.eye(3), tol)


def test_psd_proved_rejects_bad_input():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.eye(4, dtype=complex)
        m[3, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            psd_proved(m, 1e-9)
    for shape in ((4,), (3, 4), (2, 2, 2)):
        with pytest.raises(ValueError, match="square"):
            psd_proved(np.zeros(shape), 1e-9)


def test_partial_transpose_on_products():
    # (A x B)^Gamma = A x B^T for the split (3, 4)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert_allclose(partial_transpose(np.kron(a, b), 3, 4), np.kron(a, b.T), atol=1e-13)


def test_partial_transpose_involution():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert_allclose(partial_transpose(partial_transpose(m, 4, 4), 4, 4), m)


def test_partial_transpose_rejects_bad_shapes():
    with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(4, 3\)$"):
        partial_transpose(np.zeros((4, 3)), 2, 2)
    with pytest.raises(ValueError, match=r"^dimension mismatch: 2 \* 2 != 6$"):
        partial_transpose(np.eye(6), 2, 2)


def test_partial_transpose_flags_bell_state():
    bell = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    vals = np.linalg.eigvalsh(partial_transpose(bell, 2, 2))
    assert vals[0] == pytest.approx(-0.5, abs=1e-13)
