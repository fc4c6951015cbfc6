"""Decomposability certificates, block positivity evidence, and detection.

A circulant family witness is decomposable exactly when b = d. The
indecomposable side is certified by a fixed PPT probe state whose pairing
with the witness is negative; the decomposable side by an explicit split
W = P + Q^Gamma with P and Q positive semidefinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import ConeReport, cone_residuals
from .family import WitnessParams, witness_from_params
from .linalg import hermitian_eig, is_hermitian, partial_transpose, psd_proved
from .maps import Witness, _circulant, _ii_operator

__all__ = [
    "Certificate",
    "PptProbe",
    "block_positivity_min",
    "certify_decomposability",
    "detect",
    "pairing",
    "probe_state",
]

DECISION_TOL = 1e-9
EVIDENCE_TOL = 1e-10
SEESAW_MAX_ITER = 500
SEESAW_FTOL = 1e-12


@dataclass(frozen=True, eq=False)
class PptProbe:
    """PPT state on C^4 x C^4 used to expose indecomposability."""

    epsilon: float
    state: np.ndarray


def probe_state(epsilon: float) -> PptProbe:
    """Unnormalized PPT probe with weights (1, eps, 1, 1/eps) per row cycle.

    Positivity and positivity of the partial transpose are checked at
    construction for every epsilon, each to within EVIDENCE_TOL: a shifted
    Cholesky proves the check where it can (`psd_proved`), and where it
    cannot, as for eps far from 1, the Jacobi spectrum decides it and its
    lowest eigenvalue is quoted if the check fails.
    """
    if not (epsilon > 0 and math.isfinite(epsilon) and math.isfinite(1.0 / epsilon)):
        raise ValueError(f"epsilon must be positive, with epsilon and 1/epsilon finite, got {epsilon}")
    weights = (1.0, float(epsilon), 1.0, 1.0 / float(epsilon))
    rho = _ii_operator(_circulant(weights).ravel(), np.ones((4, 4)))
    for m, name in ((rho, "probe"), (partial_transpose(rho, 4, 4), "partial transpose")):
        if psd_proved(m, EVIDENCE_TOL):
            continue
        low = hermitian_eig(m).values[0]
        if low < -EVIDENCE_TOL:
            raise ValueError(f"{name} failed positivity at eps={epsilon}: {low:.3e}")
    return PptProbe(epsilon=float(epsilon), state=rho)


def pairing(w: Witness, probe: PptProbe) -> float:
    """Trace pairing of the witness with the probe state."""
    return float(np.trace(w.operator @ probe.state).real)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Decomposability verdict with machine-checkable evidence.

    Indecomposable certificates carry the probe state and its parameter, the
    negative pairing value, and the full interval of violating probe parameters.
    Decomposable certificates carry the split W = P + Q^Gamma, the spectrum
    of the Gram-type matrix controlling P, and the reconstruction error.
    Both carry the cone membership report, taken at the same tolerance.
    """

    verdict: str
    params: WitnessParams
    tolerance: float
    cones: ConeReport
    epsilon: float | None = None
    pairing_value: float | None = None
    epsilon_interval: tuple[float, float] | None = None
    probe: PptProbe | None = None
    p_op: np.ndarray | None = None
    q_op: np.ndarray | None = None
    p_psd: bool | None = None
    q_psd: bool | None = None
    a_eigenvalues: np.ndarray | None = None
    reconstruction_error: float | None = None

    @property
    def on_cone(self) -> bool:
        """True when the parameters satisfy either cone equation."""
        return self.cones.on_cone_one or self.cones.on_cone_two

    @property
    def warning(self) -> str | None:
        """Set for points off both cone surfaces, None on them."""
        if self.on_cone:
            return None
        return (
            "parameters do not satisfy either cone equation; "
            "verdict applies to the assembled circulant witness"
        )


def _require_tol(tol: float) -> None:
    # a NaN tol fails every comparison, which would read as "within tolerance"
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _choose_epsilon(b: float, d: float) -> tuple[float, tuple[float, float]]:
    if b > 0 and d > 0:
        eps = math.sqrt(d / b)
    elif b > 0:
        # d = 0: midpoint of the violation interval
        eps = (b + d) / (2.0 * b)
    else:
        # b = 0: every eps > 1 violates and the pairing 4 (d / eps - d) falls as eps grows
        eps = 2.0**20
    if b > 0:
        gap = abs(b - d)
        interval = ((b + d - gap) / (2.0 * b), (b + d + gap) / (2.0 * b))
    else:
        interval = (1.0, math.inf)
    return float(eps), interval


def _decomposition_parts(a: float, b: float, c: float) -> tuple[np.ndarray, ...]:
    """Gram circulant, P and Q of the split W = P + Q^Gamma on the b = d line."""
    gram = _circulant([a, b - 1.0, c - 1.0, b - 1.0])
    p = _ii_operator(np.zeros(16), gram)
    q_gamma = _ii_operator(_circulant([0.0, b, c, b]).ravel(), _circulant([0.0, -b, -c, -b]))
    return gram, p, partial_transpose(q_gamma, 4, 4)


def certify_decomposability(params: WitnessParams, tol: float = DECISION_TOL) -> Certificate:
    """Decide decomposability of the circulant witness and certify it.

    The verdict is driven by |b - d| against tol. Points off the cone
    surfaces are still processed (the circulant algebra does not need the
    cone law) but the certificate carries a warning. Raises ValueError
    unless tol is finite and non-negative.
    """
    _require_tol(tol)
    params.validate()
    cones = cone_residuals(params, tol=tol)
    a, b, c, d = params.a, params.b, params.c, params.d
    w = witness_from_params(params)
    if abs(b - d) > tol:
        eps, interval = _choose_epsilon(b, d)
        probe = probe_state(eps)
        value = pairing(w, probe)
        return Certificate(
            verdict="indecomposable",
            params=params,
            tolerance=tol,
            cones=cones,
            epsilon=eps,
            pairing_value=value,
            epsilon_interval=interval,
            probe=probe,
        )
    gram, p, q = _decomposition_parts(a, b, c)
    a_eigs = hermitian_eig(gram).values
    recon = w.operator - p - partial_transpose(q, 4, 4)
    p_low = hermitian_eig(p).values[0]
    q_low = hermitian_eig(q).values[0]
    return Certificate(
        verdict="decomposable",
        params=params,
        tolerance=tol,
        cones=cones,
        p_op=p,
        q_op=q,
        p_psd=bool(p_low >= -EVIDENCE_TOL),
        q_psd=bool(q_low >= -EVIDENCE_TOL),
        a_eigenvalues=a_eigs,
        reconstruction_error=float(np.max(np.abs(recon))),
    )


def block_positivity_min(w: Witness, restarts: int = 64, seed: int = 0) -> float:
    """See-saw lower estimate of min <psi x phi| W |psi x phi>.

    Alternates exact minimization over each tensor factor (bottom eigenvector
    of the contracted 4 x 4 matrix) from seeded random product starts. The
    result is numerical evidence of block positivity, not a proof; it never
    increases when restarts grow under the same seed.
    All restarts run as one batch (memory is O(restarts)); restart r draws its
    start from the stream [seed, r] and stops on its own rule.
    """
    n = w.n
    w4 = w.operator.reshape(n, n, n, n)
    psi = np.empty((restarts, n), dtype=complex)
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi[r] = start / np.linalg.norm(start)
    value = np.full(restarts, math.inf)
    active = np.arange(restarts)
    for _ in range(SEESAW_MAX_ITER):
        if active.size == 0:
            break
        p = psi[active]
        # LAPACK here: heuristic search only, certificates use hermitian_eig
        _, vecs = np.linalg.eigh(np.einsum("ri,ikjl,rj->rkl", p.conj(), w4, p))
        phi = vecs[:, :, 0]
        vals, vecs = np.linalg.eigh(np.einsum("rk,ikjl,rl->rij", phi.conj(), w4, phi))
        psi[active] = vecs[:, :, 0]
        old, new = value[active], vals[:, 0]
        done = old - new < SEESAW_FTOL
        # a converged restart keeps min(old, new); ties keep old, as min() does
        value[active] = np.where(done & (old <= new), old, new)
        active = active[~done]
    return float(min(value, default=math.inf))  # first of equal values, as a running min


def detect(w: Witness, rho: np.ndarray, tol: float = DECISION_TOL) -> float:
    """Trace of W rho for a positive semidefinite state rho.

    A negative value certifies entanglement of rho; when rho is PPT it
    certifies PPT entanglement. The state is accepted when a shifted Cholesky
    proves that its Hermitian part has no eigenvalue below -tol
    (`psd_proved`). Only when that proof fails does the Jacobi spectrum
    decide, and a rejection quotes its lowest eigenvalue. Raises ValueError
    unless tol is finite and non-negative.
    """
    _require_tol(tol)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"expected shape {w.operator.shape}, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    if not is_hermitian(rho, tol):
        raise ValueError("state is not Hermitian")
    if not psd_proved(rho, tol):
        # the Hermitian part: the solver's own, tighter check must not reject
        # a skew that tol accepted. Written as rho plus half the skew, it
        # equals rho exactly when rho is exactly Hermitian and moves each
        # entry by at most tol / 2, so it does not overflow where
        # rho + rho^dagger would
        low = hermitian_eig(rho + (rho.conj().T - rho) / 2).values[0]
        if low < -tol:
            raise ValueError(f"state is not positive semidefinite: eigenvalue {low:.6e}")
    return float(np.trace(w.operator @ rho).real)
