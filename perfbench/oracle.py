"""Independent correctness oracle for the benchmark.

Everything here is rebuilt from closed forms and checked with numpy.linalg
only; nothing is imported from ewcones, so a fast but wrong program result
cannot also make the check pass. Each check raises Miss with a reason.
"""
from __future__ import annotations

import math

import numpy as np

PAIRING_MAX = -1e-10  # an indecomposable certificate must pair below this
PSD_TOL = 1e-10
MATCH_TOL = 1e-9
SEESAW_FLOOR = -1e-9
REDUCTION = (0.0, 1.0, 1.0, 1.0)

# diagonal Gell-Mann elements of M_4: diag(1,-1,0,0)/sqrt2, diag(1,1,-2,0)/sqrt6,
# diag(1,1,1,-3)/sqrt12; column l-1 holds the entries of d_l
_MU = np.array(
    [
        [1 / math.sqrt(2), 1 / math.sqrt(6), 1 / math.sqrt(12)],
        [-1 / math.sqrt(2), 1 / math.sqrt(6), 1 / math.sqrt(12)],
        [0.0, -2 / math.sqrt(6), 1 / math.sqrt(12)],
        [0.0, 0.0, -3 / math.sqrt(12)],
    ]
)


class Miss(Exception):
    """A program output that disagrees with the oracle."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Miss(reason)


def euler_block(alpha: float, beta: float, gamma: float, parity: str) -> np.ndarray:
    """3 x 3 Euler rotation (z-x-z), negated for the improper parity."""
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    r = np.array(
        [
            [ca * cg - cb * sa * sg, cg * sa + ca * cb * sg, sb * sg],
            [-cb * cg * sa - ca * sg, ca * cb * cg - sa * sg, cg * sb],
            [sa * sb, -ca * sb, cb],
        ]
    )
    return -r if parity == "improper" else r


def params_from_euler(alpha: float, beta: float, gamma: float, parity: str) -> tuple:
    """(a, b, c, d) of the twirled rotation witness.

    The witness's diagonal blocks carry 3 phi with phi = 1/4 + mu B mu^T / 3;
    twirling averages phi's cyclic diagonals, so parameter s is the mean of
    3 phi[i, i + s].
    """
    phi = 0.25 + _MU @ euler_block(alpha, beta, gamma, parity) @ _MU.T / 3.0
    return tuple(
        float(3.0 * np.mean([phi[i, (i + s) % 4] for i in range(4)])) for s in range(4)
    )


def witness(params) -> np.ndarray:
    """Circulant family witness: diagonal block i holds the parameters shifted
    by i, and entry (ii, jj) is -1 for i != j."""
    vals = np.asarray(params, dtype=float)
    w = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            w[4 * i + j, 4 * i + j] = vals[(j - i) % 4]
            if i != j:
                w[4 * i + i, 4 * j + j] = -1.0
    return w


def partial_transpose(m: np.ndarray) -> np.ndarray:
    return m.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(16, 16)


def min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(m)[0])


def probe(epsilon: float) -> np.ndarray:
    """PPT probe with weights (1, eps, 1, 1/eps) along each row cycle."""
    rho = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for s, w in enumerate((1.0, epsilon, 1.0, 1.0 / epsilon)):
            rho[4 * i + (i + s) % 4, 4 * i + (i + s) % 4] = w
        for j in range(4):
            if i != j:
                rho[4 * i + i, 4 * j + j] = 1.0
    return rho


def gram_spectrum(a: float, b: float, c: float) -> np.ndarray:
    """Eigenvalues of the circulant with first row (a, b-1, c-1, b-1)."""
    return np.sort([a + 2 * (b - 1) + (c - 1), a - (c - 1), a - 2 * (b - 1) + (c - 1), a - (c - 1)])


def critical_p(a: float) -> float:
    return 4.0 * (3.0 - a) / (15.0 - 4.0 * a)


def cone_residuals(b: float, c: float, d: float) -> tuple[float, float]:
    cross = 4 * b * c + 4 * c * d - 2 * b * d
    return (
        (b - 2) ** 2 + (2 * c - 3) ** 2 + (d - 2) ** 2 + cross - 9.0,
        (b - 1) ** 2 + (2 * c - 3) ** 2 + (d - 1) ** 2 + cross - 6.0,
    )


def close(x: float, y: float, tol: float = MATCH_TOL) -> bool:
    return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(y)))


def decomposable(params, tol: float) -> bool:
    """The b = d rule."""
    return abs(params[1] - params[3]) <= tol


# ---- per-workload checks ---------------------------------------------------


def check_certificate(params: tuple, cert, tol: float) -> None:
    """Verdict by the b = d rule and the evidence that backs it."""
    a, b, c, d = params
    w = witness(params)
    if not decomposable(params, tol):
        expect(cert.verdict == "indecomposable", f"verdict {cert.verdict} with b != d")
        eps = float(cert.epsilon)
        rho = probe(eps)
        expect(min_eig(rho) >= -PSD_TOL, "probe is not PSD")
        expect(min_eig(partial_transpose(rho)) >= -PSD_TOL, "probe is not PPT")
        value = float(np.trace(w @ rho).real)
        expect(value <= PAIRING_MAX, f"pairing {value:.3e} is not below {PAIRING_MAX}")
        expect(close(cert.pairing_value, value), "reported pairing differs from Tr(W rho)")
        return
    expect(cert.verdict == "decomposable", f"verdict {cert.verdict} with b = d")
    p, q = np.asarray(cert.p_op), np.asarray(cert.q_op)
    expect(np.max(np.abs(w - p - partial_transpose(q))) <= MATCH_TOL, "split does not rebuild W")
    expect(min_eig(p) >= -PSD_TOL, "P is not PSD")
    expect(min_eig(q) >= -PSD_TOL, "Q is not PSD")
    expect(cert.p_psd and cert.q_psd, "certificate reports a non-PSD part")
    expect(
        np.allclose(np.sort(cert.a_eigenvalues), gram_spectrum(a, b, c), atol=MATCH_TOL),
        "Gram spectrum differs from its closed form",
    )


def check_spa(params: tuple, p_crit: float, spa) -> None:
    """p* by closed form, the critical mixture on the PSD boundary, and the split."""
    a = params[0]
    p_star = critical_p(a)
    expect(close(p_crit, p_star), f"critical_p {p_crit} != 4(3-a)/(15-4a) = {p_star}")
    expect(close(spa.p_star, p_star), "spa p* differs from its closed form")
    w = witness(params)
    mixed = (1 - p_star) * w / np.trace(w).real + p_star * np.eye(16) / 16
    expect(abs(min_eig(mixed)) <= PSD_TOL, "critical mixture is not on the PSD boundary")
    expect(np.max(np.abs(np.asarray(spa.mixed_operator) - mixed)) <= MATCH_TOL, "mixture differs")
    expect(spa.reconstruction_error <= MATCH_TOL, "separable split does not rebuild the mixture")
    expect(spa.pairs_separable and spa.spa3_satisfied, "separable split reported as failing")


def check_cones(params: tuple, report) -> None:
    r1, r2 = cone_residuals(*params[1:])
    expect(close(report.residual_one, r1) and close(report.residual_two, r2), "cone residuals differ")
    expect(min(abs(r1), abs(r2)) <= MATCH_TOL, "member lies on neither cone")


def check_seesaw(params: tuple, value: float) -> None:
    expect(value >= SEESAW_FLOOR, f"see-saw value {value:.3e} below {SEESAW_FLOOR}")
    # every product basis state |i>|j> is a candidate, so the minimum is at most min(a..d)
    expect(value <= min(params) + MATCH_TOL, "see-saw value above a product basis expectation")
    if tuple(params) == REDUCTION:
        expect(abs(value) <= 1e-8, f"reduction witness floor {value:.3e} is not 0")


def check_detect(w: np.ndarray, rho: np.ndarray, result) -> None:
    if min_eig(rho) < 0:
        expect(isinstance(result, ValueError), "non-PSD state was not rejected")
        expect("positive semidefinite" in str(result), f"wrong rejection: {result}")
        return
    expect(not isinstance(result, BaseException), f"PSD state raised {result!r}")
    expect(close(result, np.trace(w @ rho).real), "detect differs from Tr(W rho)")
