"""Decomposability certificates, block positivity evidence, and detection.

A circulant family witness is decomposable only when b = d. The
indecomposable side is certified by a fixed PPT probe state whose pairing
with the witness is negative; the decomposable side by an explicit split
W = P + Q^Gamma with P and Q positive semidefinite. On b = d a split whose
P or Q is not PSD gives the third verdict, not-block-positive, certified by
a product vector with a negative expectation.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .cones import ConeReport, cone_residuals
from .family import DECISION_TOL, WitnessParams, _require_tol
from .linalg import _largest_part, _psd_proved_checked, hermitian_eig, partial_transpose
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

EVIDENCE_TOL = 1e-10
SEESAW_MAX_ITER = 500
SEESAW_FTOL = 1e-12
_LATTICE_POINTS = 1000
_POLISH_COLUMNS = 8
_SPREAD_COLUMNS = 8
_CHECK_EVERY = 10
# one `_certified_limits` call, in polish iterations: timed inside the floor
# over seesaw-floor's 32-member corpus (2-vCPU KVM guest, one BLAS thread), a
# call takes a median 0.56 ms and an iteration 0.10 ms, 5.6 iterations
_CERTIFICATE_COST = 6
_NEWTON_STEPS = 12
_NEWTON_TOL = 1e-12
_NORMAL_MIN = float(np.finfo(float).tiny)
# below it a difference of two parts, at most 2**1022, and its modulus, at
# most 2**1022.5, stay finite
_SKEW_SAFE = 2.0**1021


@dataclass(frozen=True, eq=False)
class PptProbe:
    """PPT state on C^4 x C^4 used to expose indecomposability."""

    epsilon: float
    state: np.ndarray


def _require_psd_block(epsilon: float, w: float, w_t: float) -> None:
    """Raise unless [[w, 1], [1, w_t]] is PSD to within EVIDENCE_TOL.

    For positive w and w_t that holds iff (w + tol)(w_t + tol) >= 1. The
    inequality is decided exactly, on the integer ratios of the three
    floats, as the float product 49 * (1/49) rounds to 0.9999999999999999.
    """
    p, q = w.as_integer_ratio()
    p_t, q_t = w_t.as_integer_ratio()
    t, u = EVIDENCE_TOL.as_integer_ratio()
    # (p/q + t/u)(p_t/q_t + t/u) >= 1, times the positive q q_t u^2
    if (p * u + t * q) * (p_t * u + t * q_t) < q * q_t * u * u:
        raise ValueError(
            f"partial transpose failed positivity at eps={epsilon}: "
            f"block [[{w!r}, 1], [1, {w_t!r}]]"
        )


def probe_state(epsilon: float) -> PptProbe:
    """Unnormalized PPT probe with weights (1, eps, 1, 1/eps) per row cycle.

    The state is an all-ones block on span{|ii>} plus a positive diagonal,
    so it is PSD. Its partial transpose is the |ii> diagonal of ones plus
    2 x 2 blocks [[w, 1], [1, w']] on {|ij>, |ji>}, with w and w' the weights
    j - i and i - j (mod 4). A block is PSD to within EVIDENCE_TOL iff
    (w + tol)(w' + tol) >= 1, decided exactly in Python integers; only
    (eps, 1/eps) needs it, as (1 + tol)^2 >= 1 for the shift-2 blocks.
    """
    if not (epsilon > 0 and math.isfinite(epsilon) and math.isfinite(1.0 / epsilon)):
        raise ValueError(f"epsilon must be positive, with epsilon and 1/epsilon finite, got {epsilon}")
    weights = (1.0, float(epsilon), 1.0, 1.0 / float(epsilon))
    rho = _ii_operator(_circulant(weights).ravel(), np.ones((4, 4)))
    _require_psd_block(epsilon, weights[1], weights[3])
    return PptProbe(epsilon=float(epsilon), state=rho)


def pairing(w: Witness, probe: PptProbe) -> float:
    """Trace pairing of the witness with the probe state, which lives on C^4 x C^4."""
    if w.n != 4:
        raise ValueError(f"expected n=4 to pair with a probe state, got n={w.n}")
    # the diagonal of W rho, not detect's one dot product: near b = d the
    # terms cancel, so another summation order moves the value far past its last ulp
    return float(np.trace(w.operator @ probe.state).real)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Decomposability verdict with machine-checkable evidence.

    Indecomposable certificates carry the probe state and its parameter, the
    negative pairing value, and the full interval of violating probe parameters.
    Decomposable certificates carry the split W = P + Q^Gamma, the spectrum
    of the Gram-type matrix controlling P, and the reconstruction error.
    Not-block-positive certificates carry the same split, with P or Q not
    PSD, and the real product vector x (x) y whose expectation
    product_value = <x y|W|x y> is negative. All carry the cone membership
    report, taken at the same tolerance.
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
    product_vector: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    product_value: float | None = None

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
            "verdict applies to the assembled circulant witness, "
            "which need not be block positive (on b = d: not-block-positive)"
        )


def _choose_epsilon(b: float, d: float) -> tuple[float, tuple[float, float]]:
    # the pairing 4 (d / eps + b eps - b - d) = 4 (eps - 1)(b eps - d) / eps is
    # negative strictly between its roots 1 and d / b, the interval's endpoints
    ratio = d / b if b > 0 else math.inf
    if ratio <= 0:
        # d = 0, or d / b underflows: midpoint of the violation interval
        eps = (b + d) / (2.0 * b)
    elif math.isinf(ratio):
        # b = 0, or d / b overflows: every eps > 1 violates and the pairing falls as eps grows
        eps = 2.0**20
    else:
        eps = math.sqrt(ratio)
    return float(eps), (min(1.0, ratio), max(1.0, ratio))


def _decomposition_parts(a: float, b: float, c: float) -> tuple[np.ndarray, ...]:
    """Gram circulant, P, Q and Q^Gamma of the split W = P + Q^Gamma on the b = d line."""
    gram = _circulant([a, b - 1.0, c - 1.0, b - 1.0])
    p = _ii_operator(np.zeros(16), gram)
    q_gamma = _ii_operator(_circulant([0.0, b, c, b]).ravel(), _circulant([0.0, -b, -c, -b]))
    return gram, p, partial_transpose(q_gamma, 4, 4), q_gamma


def _product_evidence(a: float, b: float, c: float, d: float) -> tuple[float, tuple, tuple]:
    """The lowest of four closed-form product expectations <x y|W|x y>, with x and y.

    x = y = (|0> + |2>)/sqrt 2 gives (a + c - 1)/2, which is 1 - b on b = d;
    x = y = (|0> + |1>)/sqrt 2 gives (2a + b + d - 2)/4, which is (a - c + 1)/4
    there; x = |0> with y = |1> or |2> gives b or c. On b = d the first two
    are a quarter of the Gram eigenvalues 4(1 - b) and a - c + 1 of the split's
    P, and b and c are half of Q's, so a failed P or Q makes one negative.
    """
    h = math.sqrt(0.5)
    e0, x02, x01 = (1.0, 0.0, 0.0, 0.0), (h, 0.0, h, 0.0), (h, h, 0.0, 0.0)
    candidates = (
        ((a + c - 1.0) / 2.0, x02, x02),
        ((2.0 * a + b + d - 2.0) / 4.0, x01, x01),
        (b, e0, (0.0, 1.0, 0.0, 0.0)),
        (c, e0, (0.0, 0.0, 1.0, 0.0)),
    )
    return min(candidates, key=lambda t: t[0])


def certify_decomposability(params: WitnessParams, tol: float = DECISION_TOL) -> Certificate:
    """Decide decomposability of the circulant witness and certify it.

    The verdict is driven by |b - d| against tol. Within tol the split
    W = P + Q^Gamma decides: decomposable when P and Q are PSD, otherwise
    not-block-positive with a negative product expectation as evidence. The
    Gram matrix of P has b - d as an exact eigenvalue, which tol admits, so
    P is PSD to within EVIDENCE_TOL + |b - d| and Q to within EVIDENCE_TOL.
    Points off the cone surfaces are still processed (the circulant algebra
    does not need the cone law) but the certificate carries a warning.
    Raises ValueError unless tol is finite and non-negative.
    """
    cones = cone_residuals(params, tol=tol)  # checks tol first
    a, b, c, d = params.a, params.b, params.c, params.d
    w = params.witness
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
    gram, p, q, q_gamma = _decomposition_parts(a, b, c)
    a_eigs = hermitian_eig(gram).values
    recon = w.operator - p - q_gamma
    p_psd = bool(hermitian_eig(p).values[0] >= -(EVIDENCE_TOL + abs(b - d)))
    q_psd = bool(hermitian_eig(q).values[0] >= -EVIDENCE_TOL)
    split = dict(
        params=params,
        tolerance=tol,
        cones=cones,
        p_op=p,
        q_op=q,
        p_psd=p_psd,
        q_psd=q_psd,
        a_eigenvalues=a_eigs,
        reconstruction_error=float(np.max(np.abs(recon))),
    )
    if p_psd and q_psd:
        return Certificate(verdict="decomposable", **split)
    value, x, y = _product_evidence(a, b, c, d)
    return Certificate(verdict="not-block-positive", product_vector=(x, y), product_value=value, **split)


def _seesaw_starts(n: int, restarts: int, seed: int) -> np.ndarray:
    """Unit start vectors in C^n, one row per restart, from one seeded draw.

    The generator fills the draw in order, so the first k rows do not depend
    on restarts, and the see-saw's result is prefix-stable in restarts.
    """
    z = np.random.default_rng(seed).standard_normal((restarts, 2, n))
    psi = z[:, 0] + 1j * z[:, 1]
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _phi_structure(op: np.ndarray, n: int) -> tuple[float, np.ndarray] | None:
    """(s, D) when op = sum_ik D[i, k] |ik><ik| - s |Phi><Phi| exactly, else None.

    Phi = sum_i |ii>, s = -<00|op|11> must be real and D real. Every family
    witness has this form, with s = 1. For such a witness a see-saw half-step
    depends on the running factor's weights |x|^2 alone, and so does the
    next factor's (`_secular_half_step`). s must be at least 2n times the
    least normal float, so that some s w_k of unit weights stays normal.
    """
    if n < 2:
        return None
    s = -op[0, n + 1]
    if not (s.real >= 2 * n * _NORMAL_MIN and s.imag == 0):
        return None
    shifted = op.copy()
    ii = np.arange(n) * (n + 1)
    shifted[np.ix_(ii, ii)] += s
    diagonal = shifted.diagonal().copy()
    np.fill_diagonal(shifted, 0.0)
    if shifted.any() or diagonal.imag.any():
        return None
    return float(s.real), diagonal.real.reshape(n, n)


def _secular_half_step(table: np.ndarray, s: float, w: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenvalue and eigenvector weights of diag(e) - s z z^dagger, for each column of w.

    Each column of w holds the weights |x|^2 of one running factor x,
    z = conj(x) and e = table^T w: the see-saw half-step matrix of
    W = diag - s|Phi><Phi|. The eigenvalue and the weights |v|^2 of the
    bottom eigenvector v depend on w alone. An entry whose s w_k is below
    the normal float range leaves the secular equation; that moves lambda by
    less than 2 sqrt(s w_k), under 3e-154 sqrt(s). With m the least e that
    stays, gaps g = e - m and tau = m - lambda > 0, the eigenvalue solves
    s sum_k w_k / (g_k + tau) = 1, and v = z / (g + tau), normalized, so
    |v|^2 = w u^2 / sum(w u^2) with u = tau / (g + tau). Newton steps on
    1/S, concave and increasing in tau, move right from a start left of the
    root: the larger of max_k (s w_k - g_k), where one term alone reaches
    1/s, and m - bound, as bound is a value some unit vector attains. Each
    column stops at its first step that does not increase tau, so no column
    depends on the others. The sums run in units of tau and stay in the
    normal range. An entry that left is an eigenvector of its own, and
    replaces the root when its e_k is not above it.
    """
    sw = s * w
    heavy = sw >= _NORMAL_MIN
    # ufunc reductions rather than ndarray methods, which add a Python call each
    e = np.add.reduce(table[:, :, None] * w[:, None, :], axis=0)
    weighted = np.where(heavy, e, np.inf)
    low = np.minimum.reduce(weighted, axis=0)
    g = weighted - low
    tau = np.fmax(np.maximum.reduce(sw - g, axis=0), low - bound)
    while True:
        u = tau / (g + tau)
        q = w * u
        qu = q * u
        s1 = np.add.reduce(q, axis=0)
        s2 = np.add.reduce(qu, axis=0)
        # tau + S (s S - 1) / T for S = s1 / tau and T = -S' = s2 / tau^2
        new = tau + (s * s1 - tau) * s1 / s2
        if not np.count_nonzero(new > tau):
            break
        # a stopped column recomputes the same step, so it does not move again
        tau = np.fmax(tau, new)
    value, weights = low - tau, qu / s2
    if not heavy.all():
        bare = np.where(heavy, np.inf, e)
        least = bare.min(axis=0)
        # the root lies below low, and above least iff s S(least) <= 1
        cols = np.flatnonzero(least < low)
        # a gap low - least near the float minimum overflows a term to inf,
        # which is right: S(least) is then above 1 / s
        with np.errstate(over="ignore"):
            ratio = np.add.reduce(w[:, cols] / (weighted[:, cols] - least[cols]), axis=0)
        cols = cols[s * ratio <= 1]
        value[cols] = least[cols]
        weights[:, cols] = np.arange(len(w))[:, None] == bare[:, cols].argmin(axis=0)
    return value, weights


@cache
def _simplex_points(n: int) -> np.ndarray:
    """Read-only weight columns: the simplex lattice, then _SPREAD_COLUMNS spread points.

    The lattice holds every k / m with k integer, k >= 0 and sum(k) = m, m
    the finest resolution with at most _LATTICE_POINTS points,
    C(m + n - 1, n - 1): 16 steps and 969 points for n = 4. The uniform
    weights, where every witness whose table is n times a doubly stochastic
    matrix attains 0, are added when n does not divide m. The spread points
    are the weights |psi|^2 of the first see-saw starts of seed 0: interior
    points without ties between coordinates.
    """
    m = 1
    while math.comb(m + n, n - 1) <= _LATTICE_POINTS:
        m += 1
    k = np.zeros((1, 0), dtype=np.intp)
    for _ in range(n - 1):
        # each row takes every next entry from 0 up to what its sum leaves
        room = m + 1 - k.sum(axis=1)
        ramp = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
        k = np.column_stack([np.repeat(k, room, axis=0), ramp])
    columns = [np.column_stack([k, m - k.sum(axis=1)]).T / m]
    if m % n:
        columns.append(np.full((n, 1), 1.0 / n))
    spread = _seesaw_starts(n, _SPREAD_COLUMNS, 0)
    columns.append((spread.conj() * spread).real.T)
    points = np.ascontiguousarray(np.hstack(columns))
    points.flags.writeable = False
    return points


def _hessian_map(s: float, table: np.ndarray) -> np.ndarray:
    """Q with (w w^T).ravel() @ Q = (H / 2).ravel(), H the Hessian of G at w = (u, v).

    G(u, v) = sum_ik D_ik u_i^2 v_k^2 - s (u.v)^2 is a quartic form in w, so
    its Hessian is linear in the entries O = w w^T: with T = [[0, D], [D^T, 0]]
    and sigma the map that swaps the u and v halves of an index,
    H_ij / 2 = 2 T_ij O_ij - s O_sigma(i)sigma(j) - s (u.v) [j = sigma(i)]
    + [i = j] sum_k T_ik O_kk, where u.v = sum_a O_a,sigma(a) / 2.
    """
    n = len(table)
    size = 2 * n
    t = np.zeros((size, size))
    t[:n, n:] = table
    t[n:, :n] = table.T
    swap = np.roll(np.arange(size), n)
    flat = np.arange(size * size)
    rows, cols = np.divmod(flat, size)
    diagonal = np.arange(size) * (size + 1)
    pairs = np.arange(size) * size + swap
    q = np.zeros((size * size, size * size))
    q[flat, flat] = 2.0 * t.ravel()
    q[swap[rows] * size + swap[cols], flat] -= s
    q[pairs[:, None], pairs] -= 0.5 * s
    q[diagonal[:, None], diagonal] += t.T
    return q


def _certified_limits(
    s: float, table: np.ndarray, hessian: np.ndarray, p: np.ndarray, q: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """See-saw limits that Newton's method certifies, one per column, inf where it does not; with their weights.

    Column j is a see-saw column at weights p[:, j], q[:, j], whose value is
    values[j]. With u = sqrt(p) and v = sqrt(q) that value is G(u, v) =
    sum_ik D_ik u_i^2 v_k^2 - s (u.v)^2, and a limit of the see-saw is a
    critical point of G on the two unit spheres, where both multipliers equal
    G. Newton's method runs on that KKT system, of size 2n + 2, from the
    column's weights, restricted to their support, one batched solve per
    step, with hessian = `_hessian_map(s, table)`: a see-saw column leaves
    its support only by a jump to a basis vector whose entry undercuts the
    root, which the last condition below rules out at the point. The
    support masks run only when some weight is 0, and the inertia only on
    the columns whose steps converged. A column is certified when
    - the steps converge quadratically: the last below _NEWTON_TOL, the one
      before it at most its square root;
    - the bordered matrix has exactly two negative eigenvalues, so the
      Hessian projected on the tangent space is positive definite and the
      point is a strict local minimum on the support;
    - the point's value is not above values[j], as the see-saw never
      increases, and one secular half-step from its weights p* finds nothing
      lower by SEESAW_FTOL, so no weight outside the support undercuts it.
    The limit returned is that half-step's value, attained by the weights
    returned: p* and the half-step's. The certificate shows a strict local
    minimum next to the column, not above its value, whose value is
    attained; it does not prove that the column's see-saw would end there.
    """
    n, m = p.shape
    size = 2 * n
    halves = np.repeat(np.eye(2), n, axis=0)
    # -halves^T with +0.0 off its ones, so that the border holds no -0.0
    border = np.where(halves.T > 0.0, -1.0, 0.0)
    w = np.sqrt(np.concatenate([p, q]).T)
    ell = np.repeat(values, 2).reshape(m, 2)
    free = np.ones((m, size + 2), dtype=bool)
    free[:, :size] = w > 0
    full = free.all()
    if not full:
        # off the support a row and column of the identity keep that weight at 0
        keep, pin = free[:, :, None] & free[:, None, :], ~free[:, :, None] * np.eye(size + 2)
    k = np.zeros((m, size + 2, size + 2))
    f = np.empty((m, size + 2, 1))
    diagonal = np.arange(size)
    before = after = np.full(m, math.inf)
    for _ in range(_NEWTON_STEPS):
        h = ((w[:, :, None] * w[:, None, :]).reshape(m, -1) @ hessian).reshape(m, size, size)
        lam = ell @ halves.T
        # G is quartic, so H w / 2 = 3 grad G / 2: the gradient without a second product
        f[:, :size] = h @ w[:, :, None] / 3.0 - (lam * w)[:, :, None]
        f[:, size:, 0] = 0.5 - 0.5 * (w * w) @ halves
        k[:, :size, :size] = h
        k[:, diagonal, diagonal] -= lam
        k[:, size:, :size] = w[:, None, :] * border
        k[:, :size, size:] = k[:, size:, :size].transpose(0, 2, 1)
        if not full:
            k *= keep
            k += pin
            f *= free[:, :, None]
        try:
            step = np.linalg.solve(k, f)[:, :, 0]
        except np.linalg.LinAlgError:
            return np.full(m, math.inf), p, q
        w = w - step[:, :size]
        ell = ell - step[:, size:]
        before, after = after, np.abs(step[:, :size]).max(axis=1)
        if after.max() <= _NEWTON_TOL:
            break
    certified = (after <= _NEWTON_TOL) & (before <= math.sqrt(_NEWTON_TOL)) & (ell[:, 0] <= values)
    # the inertia only where the steps converged: eigvalsh takes each matrix on its own
    converged = np.flatnonzero(certified)
    certified[converged] = np.count_nonzero(np.linalg.eigvalsh(k[converged]) < 0.0, axis=1) == 2
    weights = w[:, :n].T ** 2
    weights /= weights.sum(axis=0)
    limit, q_limit = _secular_half_step(table, s, weights, np.full(m, math.inf))
    certified &= limit >= ell[:, 0] - SEESAW_FTOL
    return np.where(certified, limit, math.inf), weights, q_limit


def _lattice_floor(s: float, table: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Least <x y|W|x y> found for W = diag(table) - s|Phi><Phi|, with the weights p = |x|^2, q = |y|^2.

    With the phases aligned, the least value at fixed weights p is
    f(p) = lambda_min(diag(table^T p) - s sqrt(p) sqrt(p)^T), one secular
    half-step from p. One call evaluates f on every point of
    `_simplex_points`. The _POLISH_COLUMNS best lattice points and all
    spread points then run the weight see-saw together until every column
    meets the SEESAW_FTOL stop rule, or for SEESAW_MAX_ITER iterations. The
    floor is the least value the points, the polish or a certified limit
    attained; it depends on the witness alone. Lattice points alone miss
    narrow basins next to a face, such as the minimum -0.0039 of
    (1.8, 1.2, 0, 0) at p = (0, 0.021, 0.131, 0.848), where every lattice
    point gives 0 or more and the see-saw from the best of them stays at 0;
    the spread points reach it, some of them only after 30 or more
    iterations.

    Columns that creep towards their limit are retired early, once a
    certificate costs less than the polish it would save. Every _CHECK_EVERY
    iterations, if a column's steps shrink so slowly that its rate would keep
    it above SEESAW_FTOL for more than _CERTIFICATE_COST further iterations,
    what one `_certified_limits` call costs (a median 0.56 ms against 0.10 ms
    per iteration on the benchmark's seesaw-floor corpus), every column still
    decreasing goes to it. A certified limit lowers the floor and its column
    stops; the polish ends there if every column left meets the stop rule,
    else the others run on, and after a check that certified no column the
    next comes twice as late. The certificate proves a strict local minimum
    next to the column, with its value attained; it does not prove that the
    column would have ended there, and a column that would have crept past it
    into a lower basin is lost. A column's state is never replaced by the
    Newton point: the point may lie in another basin than the one the column
    creeps into (near the vertex (2, 1, 0, 0) a column that creeps into a
    narrow face basin starts next to the uniform minimum). So the columns that
    run keep their see-saw path bit for bit, as the secular half-step treats
    its columns independently; one column alone would sum in another order, so
    it runs twice.
    """
    points = _simplex_points(len(table))
    values, q = _secular_half_step(table, s, points, np.full(points.shape[1], math.inf))
    k = values.argmin()
    best = values[k], points[:, k], q[:, k]
    lattice = points.shape[1] - _SPREAD_COLUMNS
    top = np.argpartition(values[:lattice], _POLISH_COLUMNS)[:_POLISH_COLUMNS]
    cols = np.concatenate([top, np.arange(lattice, points.shape[1])])
    last, q = values[cols], q[:, cols]
    table_t = np.ascontiguousarray(table.T)
    hessian = None
    check = interval = _CHECK_EVERY
    for it in range(1, SEESAW_MAX_ITER + 1):
        # the polished factor with the previous q attains last, with the new q new
        half, p = _secular_half_step(table_t, s, q, last)
        new, q = _secular_half_step(table, s, p, half)
        k = new.argmin()
        if new[k] < best[0]:
            best = new[k], p[:, k], q[:, k]
        step = last - new
        if (step < SEESAW_FTOL).all():
            break
        if it == check:
            moving = np.flatnonzero((step >= SEESAW_FTOL) & (step < previous))
            rate = step[moving] / previous[moving]
            if (step[moving] * rate**_CERTIFICATE_COST > SEESAW_FTOL).any():
                if hessian is None:
                    hessian = _hessian_map(s, table)
                limit, p_limit, q_limit = _certified_limits(s, table, hessian, p[:, moving], q[:, moving], new[moving])
                j = limit.argmin()
                if limit[j] < best[0]:
                    best = limit[j], p_limit[:, j], q_limit[:, j]
                done = np.isfinite(limit)
                if not done.any():
                    interval *= 2
                running = np.delete(np.arange(new.size), moving[done])
                # the stop rule, on the columns left: retirement moves none of them
                if (step[running] < SEESAW_FTOL).all():
                    break
                if running.size == 1:
                    running = np.repeat(running, 2)
                new, q, step = new[running], q[:, running], step[running]
            check += interval
        previous = step
        last = new
    return float(best[0]), best[1], best[2]


def block_positivity_min(w: Witness, restarts: int = 64, seed: int = 0) -> float:
    """See-saw lower estimate of min <psi x phi| W |psi x phi>.

    The result is numerical evidence of block positivity, not a proof. When
    W = diag - s|Phi><Phi| (`_phi_structure`), as every family witness is,
    it is the lattice floor (`_lattice_floor`): f(p), the least value at
    weights |psi|^2 = p, on a fixed simplex lattice and a few spread points,
    polished by the weight see-saw, whose creeping columns stop once Newton's
    method certifies a strict local minimum next to them (`_certified_limits`);
    that minimum's value is attained and enters the floor, but the
    certificate does not prove that the column would have ended there. It
    reads neither restarts nor seed, though both must be integers. Any
    other witness alternates exact minimization over each tensor factor
    (bottom eigenvector of the contracted n x n matrix) from seeded random
    product starts, and the value never increases when restarts grow under
    the same seed. All restarts run as one batch (memory is O(restarts)),
    one column per running restart, and each stops on its own rule; restart
    r starts from row r of `_seesaw_starts`. A half-step contracts the outer
    products of the running factors with the realigned witness, whose row
    (k, l) and column (i, j) hold <ik|W|jl>, in one stacked matmul, and
    takes a stacked eigh. Raises ValueError unless restarts and seed are
    integers (`operator.index` accepts them), restarts >= 1 and seed >= 0.
    """
    for name, value in (("restarts", restarts), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            # the lattice path reads neither, and numpy's messages name neither
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if restarts < 1:
        # 0 restarts would return inf, and numpy's message for a negative
        # count names neither the argument nor its value
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if seed < 0:
        # numpy's own message names neither the seed nor its value
        raise ValueError(f"seed must be non-negative, got {seed}")
    n, op = w.n, w.operator
    structure = _phi_structure(op, n)
    if structure is not None:
        return _lattice_floor(*structure)[0]
    w2 = op.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)
    w2t = np.ascontiguousarray(w2.T)
    x = np.ascontiguousarray(_seesaw_starts(n, restarts, seed).T)
    # x and last hold the running restarts only, in restart order, and index
    # their positions; a restart's value is written once, when it stops
    value = np.full(restarts, math.inf)
    index = np.arange(restarts)
    last = value.copy()
    for _ in range(SEESAW_MAX_ITER):
        if index.size == 0:
            break
        # LAPACK here: heuristic search only, certificates use hermitian_eig.
        # Outer products shaped (B, 1, n^2), so matmul makes one BLAS call of
        # the same shape per restart: a 2-D (B, n^2) product would let BLAS
        # pick its kernel by batch size, and a restart's value must not
        # depend on how many others run beside it
        rows = x.T
        pp = (rows.conj()[:, :, None] * rows[:, None, :]).reshape(-1, 1, n * n)
        _, vecs = np.linalg.eigh(np.matmul(pp, w2t).reshape(-1, n, n))
        phi = vecs[:, :, 0]
        pp = (phi.conj()[:, :, None] * phi[:, None, :]).reshape(-1, 1, n * n)
        vals, vecs = np.linalg.eigh(np.matmul(pp, w2).reshape(-1, n, n))
        new, x = vals[:, 0], vecs[:, :, 0].T
        done = last - new < SEESAW_FTOL
        # a converged restart keeps min(last, new); ties keep last, as min() does
        value[index[done]] = np.where(last <= new, last, new)[done]
        keep = ~done
        index, last, x = index[keep], new[keep], x[:, keep]
    else:
        value[index] = last  # restarts stopped by the iteration cap
    return float(min(value))  # first of equal values, as a running min


def detect(w: Witness, rho: np.ndarray, tol: float = DECISION_TOL) -> float:
    """Trace of W rho for a positive semidefinite state rho.

    A negative value certifies entanglement of rho; when rho is PPT it
    certifies PPT entanglement. The state is accepted when a shifted Cholesky
    proves that its Hermitian part has no eigenvalue below -tol
    (`psd_proved`, handed what the checks measured: the largest |re| or |im|
    of rho, which is finite only when every entry is, and the skew
    max|rho - rho^dagger| <= tol). Only when that proof fails does the Jacobi
    spectrum decide, and a rejection quotes its lowest eigenvalue. Raises
    ValueError unless tol is finite and non-negative.
    """
    _require_tol(tol)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != w.operator.shape:
        raise ValueError(f"expected shape {w.operator.shape}, got {rho.shape}")
    largest = _largest_part(rho)
    if not math.isfinite(largest):
        raise ValueError("state entries must be finite")
    if largest < _SKEW_SAFE:
        skew = float(np.abs(rho - rho.conj().T).max())
    else:
        # a difference can overflow only here, to inf, which is above every finite tol
        with np.errstate(over="ignore"):
            skew = float(np.abs(rho - rho.conj().T).max())
    if not skew <= tol:
        raise ValueError("state is not Hermitian")
    if not _psd_proved_checked(rho, largest, skew, tol):
        # the Hermitian part: the solver's own, tighter check must not reject
        # a skew that tol accepted. Written as rho plus half the skew, it
        # equals rho exactly when rho is exactly Hermitian and moves each
        # entry by at most tol / 2, so it does not overflow where
        # rho + rho^dagger would
        low = hermitian_eig(rho + (rho.conj().T - rho) / 2).values[0]
        if low < -tol:
            raise ValueError(f"state is not positive semidefinite: eigenvalue {low:.6e}")
    # Tr(W rho) = sum_ij W_ji rho_ij, one dot product that never forms W rho
    return float(np.vdot(w.operator.conj().T, rho).real)
