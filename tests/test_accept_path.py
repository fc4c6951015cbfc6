"""The accept path of `detect` and its proof, against the algorithm they replaced.

`ref_psd_proved` is the former proof: it embeds the whole symmetric
[[X, -Y], [Y, X]] and measures the skew on the scaled copy. `ref_detect` is
the former `detect`: the entrywise Hermitian check, then that proof, then
the Jacobi fallback, then Tr(W rho) as the one dot product `detect` now
reads (`test_certify.dot_trace`). The rewrite measures the state's
largest part and skew once and gathers the embedding from a cached table, so
every outcome must agree bit for bit.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ewcones import linalg
from ewcones.certify import DECISION_TOL, detect, probe_state
from ewcones.family import WitnessParams, witness_from_params
from ewcones.linalg import hermitian_eig, psd_proved
from ewcones.maps import max_entangled_projector
from test_assembly import assert_bitwise, ref_real_embedding, with_signed_zeros
from test_certify import dot_trace, outcome, seeded_states
from test_linalg import boundary_corpus, random_unitary, with_lowest_eigenvalue

DETECT_MESSAGES = ("state entries must be finite", "state is not Hermitian", "state is not positive semidefinite")


def ref_psd_proved(m, tol):
    a, exponent = linalg._scaled_to_unit(linalg._require_square_finite(m))
    n = a.shape[0]
    size = 2 * n
    e = ref_real_embedding(a)
    mantissa, tol_exponent = math.frexp(tol)
    scaled_tol = math.ldexp(mantissa, min(tol_exponent - exponent, size.bit_length()))
    gamma = (size + 2) * linalg._UNIT_ROUNDOFF / (1 - (size + 2) * linalg._UNIT_ROUNDOFF)
    skew = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    c = 2.0 * (
        gamma / (1 - gamma) * (float(np.abs(e.diagonal()).sum()) + size * scaled_tol)
        + n * skew
        + (2 * size * size + size + 1) * linalg._ETA
    )
    shift = scaled_tol - c
    if not shift > 0:
        return False
    e.flat[:: size + 1] += shift
    try:
        np.linalg.cholesky(e)
    except np.linalg.LinAlgError:
        return False
    return True


def ref_detect(w, rho, tol=DECISION_TOL):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"expected shape {w.operator.shape}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    if not np.max(np.abs(rho - rho.conj().T)) <= tol:  # the former is_hermitian
        raise ValueError("state is not Hermitian")
    if not ref_psd_proved(rho, tol):
        low = hermitian_eig(rho + (rho.conj().T - rho) / 2).values[0]
        if low < -tol:
            raise ValueError(f"state is not positive semidefinite: eigenvalue {low:.6e}")
    return dot_trace(w.operator, rho)


def same_outcome(fn, ref, *args):
    """Both outcomes, after checking that they agree bit for bit (repr keeps -0.0)."""
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert repr(got) == repr(want), args[-1]
    return got


def skewed_at(m, i, j, delta):
    """m with delta added at (i, j), and the skew that the Hermitian check measures on it."""
    m = np.array(m, dtype=complex)
    m[i, j] += delta
    return m, float(np.max(np.abs(m - m.conj().T)))


def near(x):
    """x and its two float neighbours."""
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


def psd_corpus():
    """(m, tol): subnormal and near-overflow scalings, skews beside tol, signed zeros."""
    rng = np.random.default_rng(86)
    for n in range(1, 17):
        for complex_entries in (False, True):
            for low in (0.25, -2.0**-10 + 2.0**-30, -2.0**-10 - 2.0**-30):
                base = with_lowest_eigenvalue(rng, n, low, complex_entries)
                for power in (-1074, -1064, -1050, -1030, -1022, -1000, 1000, 1020, 1023):
                    yield base * 2.0**power, 2.0**-10 * 2.0**power
                    yield base * 2.0**power, 2.0**-10
            if n > 1:
                for delta in (1e-12, 3e-10, 1e-3j):
                    m, skew = skewed_at(with_lowest_eigenvalue(rng, n, 0.01, complex_entries), n - 1, 0, delta)
                    for tol in near(skew):
                        yield m, tol
            m = with_signed_zeros(rng, (n, n), complex if complex_entries else float)
            for shifted in (m, m + m.conj().T, m + m.conj().T + 2 * n * np.eye(n)):
                yield shifted, 1e-9


def test_psd_proved_matches_the_former_algorithm():
    answers = set()
    for corpus in (boundary_corpus(), psd_corpus()):
        for m, tol in corpus:
            answers.add(same_outcome(psd_proved, ref_psd_proved, m, tol))
    assert answers == {True, False}
    for bad in (np.full((3, 3), np.nan), np.zeros((2, 3)), np.zeros(4)):
        assert isinstance(same_outcome(psd_proved, ref_psd_proved, bad, 1e-9), str)


def detect_corpus(rng):
    """(rho, tol) for 16 x 16 states: dense, scaled by powers of two, skewed beside tol, signed zeros, real."""
    states = list(seeded_states(rng))
    for rho in states:
        yield rho, DECISION_TOL
    # two states of each kind, out to the subnormal and near-overflow ranges
    for rho in states[:5] + states[20:25]:
        for power in (-1074, -1060, -1040, -1022, -1000, 1000, 1020):
            yield rho * 2.0**power, DECISION_TOL
            yield rho * 2.0**power, DECISION_TOL * 2.0**power
    for rho in states[:5]:
        for delta in (1e-12, 4e-10, 2e-9j):
            skewed, skew = skewed_at(rho, 15, 0, delta)
            for tol in near(skew):
                yield skewed, tol
    # a skew within tol above the diagonal, where the proof does not read,
    # that puts lambda_min of the Hermitian part below -tol: only a skew term
    # scaled with the state keeps the proof from accepting it
    u = random_unitary(rng, 16, True)
    h = (u * np.concatenate(([-DECISION_TOL + 1e-12], rng.uniform(0.01, 0.1, 15)))) @ u.conj().T
    unread = (h + h.conj().T) / 2 - 1e-11 * np.triu(np.outer(u[:, 0], u[:, 0].conj()), 1)
    for power in (-1000, -500, 0, 500, 1000):
        yield unread * 2.0**power, DECISION_TOL * 2.0**power
    for rho in (max_entangled_projector(4), probe_state(0.5).state, np.eye(16) / 16):
        rho = np.array(rho, dtype=complex)
        zeros = rho == 0
        flips = zeros & (rng.random(rho.shape) < 0.5)
        rho[flips] = complex(-0.0, -0.0)
        rho[zeros & ~flips & (rng.random(rho.shape) < 0.5)] = complex(0.0, -0.0)
        yield rho, DECISION_TOL
        yield rho.real.copy(), DECISION_TOL
    for _ in range(4):
        g = rng.standard_normal((16, 6))
        yield g @ g.T / 16, DECISION_TOL
        yield g @ g.T / 16 - 0.5 * np.eye(16), DECISION_TOL
    for n in range(1, 17):
        yield np.eye(n) / n, DECISION_TOL


def test_detect_matches_the_former_algorithm():
    rng = np.random.default_rng(87)
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    kinds = set()
    for rho, tol in detect_corpus(rng):
        got = same_outcome(detect, ref_detect, w, rho, tol)
        kinds.add(got.split(":")[0] if isinstance(got, str) else "value")
    assert {"value", "state is not Hermitian", "state is not positive semidefinite"} <= kinds
    for bad in (math.nan, math.inf):
        rho = np.eye(16, dtype=complex) / 16
        rho[3, 4] = bad
        assert same_outcome(detect, ref_detect, w, rho, DECISION_TOL) == DETECT_MESSAGES[0]


def test_cholesky_reads_only_the_lower_triangle():
    # the proof writes only the lower triangle of its embedding, relying on
    # numpy's documented use of the lower triangle alone (LAPACK UPLO='L')
    rng = np.random.default_rng(88)
    outcomes = set()
    for n in range(1, 17):
        for complex_entries in (False, True):
            for low in (0.01, -0.01):
                e = ref_real_embedding(with_lowest_eigenvalue(rng, n, low, complex_entries))
                want = outcome(np.linalg.cholesky, e)
                outcomes.add(isinstance(want, str))
                upper = np.triu(np.ones(e.shape, dtype=bool), 1)
                for garbage in (rng.standard_normal(e.shape) * 1e10, 1e300, -1e300, np.nan, np.inf):
                    overwritten = np.where(upper, garbage, e)
                    got = outcome(np.linalg.cholesky, overwritten)
                    if isinstance(want, str):
                        assert got == want
                    else:
                        assert_bitwise(got, want)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-4.0, 4.0),
    st.floats(0.0, 0.9),
    st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    st.booleans(),
)
def test_detect_accepts_only_states_eigvalsh_confirms(seed, offset, skew_share, tol, complex_entries):
    # random finite states, Hermitian within tol, with lambda_min within
    # 4 * 2**-40 of -tol on either side and a skew on one random entry
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 16, complex_entries)
    low = -tol + offset * 2.0**-40
    rho = (u * np.concatenate(([low], rng.uniform(0.0, 0.2, 15)))) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    i, j = rng.permutation(16)[:2]
    rho[i, j] += skew_share * tol
    w = witness_from_params(WitnessParams(1.0, 1.0, 1.0, 0.0))
    got = outcome(detect, w, rho, tol)
    if isinstance(got, str):
        assert got.startswith(DETECT_MESSAGES), got
        return
    assert repr(got) == repr(dot_trace(w.operator, rho))
    h = (rho + rho.conj().T) / 2
    # LAPACK's eigvalsh is backward stable: its error is at most p(n) u ||h||_2;
    # n^2 u ||h||_F is a generous form of that bound for n = 16
    margin = 16 * 16 * np.finfo(float).eps * np.linalg.norm(h)
    assert np.linalg.eigvalsh(h)[0] >= -tol - margin


def test_carried_skew_scales_up_in_the_subnormal_range():
    # the skew detect carries is scaled by ldexp; below the normal range that
    # rounds, and the proof rounds it up so its constant never shrinks
    for skew in (2.0**-1074, 3 * 2.0**-1074, 1e-300, 0.7, 1e-9):
        for exponent in (-60, 0, 60, 1000, 1030, 1074, 1100):
            scaled = linalg._scaled_up(skew, exponent)
            assert math.ldexp(scaled, exponent) >= skew
            assert scaled == math.ldexp(skew, -exponent) or scaled < 2.0**-1022
