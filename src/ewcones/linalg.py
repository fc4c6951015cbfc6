"""Dense linear algebra kernels for small complex matrices.

Everything here operates on numpy arrays of modest size (16 x 16 at most in
this package), so clarity wins over asymptotics. The Hermitian eigensolver
returns the spectrum only, which is all a certificate reads; it is a Jacobi
iteration with two-sided unitary rotations in round-robin order: each
round rotates n/2 disjoint index pairs at once as array operations, and n - 1
rounds make a sweep over all pairs (Brent & Luk 1985; Luk & Park 1989 show
this ordering equivalent to the cyclic-by-rows one, so its convergence
guarantee carries over).

A yes/no positivity question needs no spectrum: `psd_proved` settles it by
one shifted Cholesky factorization whose completion is a proof (Rump 2006).
"""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenResult",
    "hermitian_eig",
    "is_hermitian",
    "partial_transpose",
    "psd_proved",
]

HERMITIAN_TOL = 1e-12
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
_UNIT_ROUNDOFF = 2.0**-53
_ETA = math.ulp(0.0)  # smallest subnormal


class EigenResult(NamedTuple):
    """Eigenvalues in ascending order."""

    values: np.ndarray


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True when m equals its conjugate transpose entrywise within tol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def _require_square_finite(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _scaled_to_unit(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a times 2**-e, with e the power of two that puts its largest entry in [1/4, 1).

    e comes from the largest real or imaginary part, as a modulus can overflow.
    The scaled norm cannot overflow or underflow, and away from subnormals
    every rounding step scales exactly with 2**e, so results scale back
    exactly. Returns the scaled array and e.
    """
    parts = np.ascontiguousarray(a).view(float)
    exponent = math.frexp(float(np.max(np.abs(parts), initial=0.0)))[1] + 1
    return np.ldexp(parts, -exponent).view(complex), exponent


def _off_diagonal_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


class _Round(NamedTuple):
    """One round of the Jacobi schedule: disjoint pairs (p[k], q[k]), p < q."""

    p: np.ndarray
    q: np.ndarray
    partner: np.ndarray  # partner[i] pairs with i; an index left out pairs with itself
    pq: np.ndarray  # flat offsets of a[p, q] in an n x n array
    qp: np.ndarray  # flat offsets of a[q, p]


@cache
def _round_robin(n: int) -> tuple[_Round, ...]:
    """The round-robin (circle-method) ordering of all index pairs of 0..n-1.

    Index 0 stays seated while the others move one seat per round, so n - 1
    rounds of n/2 disjoint pairs cover every pair exactly once. Odd n adds a
    bye index n: each round drops the pair that holds it, giving n rounds of
    (n - 1)/2 pairs.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((seats[i], seats[m - 1 - i])) for i in range(m // 2)]
        p, q = np.array([pair for pair in pairs if pair[1] < n], dtype=np.intp).T
        partner = np.arange(n)
        partner[p] = q
        partner[q] = p
        arrays = _Round(p, q, partner, p * n + q, q * n + p)
        for array in arrays:
            array.setflags(write=False)
        rounds.append(arrays)
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return tuple(rounds)


def hermitian_eig(m: np.ndarray) -> EigenResult:
    """Diagonalize a Hermitian matrix by Jacobi rotations in round-robin order.

    Each sweep visits every index pair once, in the rounds of `_round_robin`:
    a round rotates its n/2 disjoint pairs together, as array operations, by
    two-sided unitary plane rotations that zero each pair's off-diagonal
    entry. Sweeps run until the off-diagonal Frobenius mass drops below
    JACOBI_TOL times the Frobenius norm of the input. Returns the eigenvalues
    in ascending order, without eigenvectors; raises
    numpy.linalg.LinAlgError (a ValueError) when JACOBI_MAX_SWEEPS sweeps
    leave the mass above that threshold.
    """
    a = _require_square_finite(m)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e}")
    n = a.shape[0]
    if n <= 1:
        return EigenResult(np.diag(a).real.copy())
    a, exponent = _scaled_to_unit(a)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return EigenResult(np.zeros(n))
    threshold = JACOBI_TOL * scale
    # negligibility cutoff per element; rotations below it cannot move the mass
    tiny = 1e-300
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_mass(a) <= threshold:
            break
        for p, q, partner, pq, qp in _round_robin(n):
            apq = a.ravel().take(pq)
            r = np.abs(apq)
            live = r > tiny
            count = np.count_nonzero(live)
            if count == 0:
                continue
            if count < p.size:
                # dead pairs keep the identity rotation: cs = 1 and us = 0 below
                p, q, apq, r = p[live], q[live], apq[live], r[live]
            # t = tan(theta) with |theta| <= pi/4 (Rutishauser); the rotated
            # diagonal is the pair's 2 x 2 eigenvalues d_p + t r, d_q - t r,
            # which carry less rounding than the two-sided product
            d = a.diagonal().real.copy()
            d_p = d[p]
            d_q = d[q]
            diff = d_p - d_q
            t = np.copysign(2.0 * r, diff) / (np.abs(diff) + np.hypot(diff, 2.0 * r))
            c = 1.0 / np.hypot(1.0, t)
            u_pq = -(t * c) * (apq / r)
            shift = t * r
            d[p] = d_p + shift
            d[q] = d_q - shift
            # J = diag(cs) + us at (partner[j], j): column j of a J mixes in
            # column partner[j], row i of J^H (a J) mixes in row partner[i]
            cs = np.ones(n)
            cs[p] = c
            cs[q] = c
            us = np.zeros(n, dtype=complex)
            us[p] = -np.conj(u_pq)
            us[q] = u_pq
            a = a * cs + a.take(partner, axis=1) * us
            a = cs[:, None] * a + np.conj(us)[:, None] * a.take(partner, axis=0)
            flat = a.ravel()
            flat[pq] = 0.0
            flat[qp] = 0.0
            flat[:: n + 1] = d
    if _off_diagonal_mass(a) > threshold:
        raise np.linalg.LinAlgError(f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps")
    with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is +-inf
        values = np.ldexp(np.diag(a).real, exponent)
    return EigenResult(np.sort(values, kind="stable"))


def psd_proved(m: np.ndarray, tol: float) -> bool:
    """True only when a Cholesky factorization proves lambda_min(m) >= -tol.

    m may be real or complex; the claim is about its Hermitian part, so a
    skew of m can never void it. False means "not proved", not "not PSD".
    Raises ValueError on a non-square matrix or non-finite entries.

    Theorem (Rump, "Verification of positive definiteness", BIT 46, 2006,
    built on Demmel's backward error of Cholesky): if floating-point
    Cholesky of a real symmetric N x N matrix A runs to completion with
    factor R, then R^T R = A + dA with |dA| <= gamma_k |R^T| |R|, where
    gamma_k = k u / (1 - k u) and u = 2**-53. As R^T R is PSD and
    ||R||_F^2 <= sum |a_ii| / (1 - gamma_k), lambda_min(A) >= -||dA||_2 >=
    -gamma_k / (1 - gamma_k) sum |a_ii|. So when Cholesky of A + (tol - c) I
    completes, with c at least that bound for the shifted matrix, then
    A >= -tol I. The bound holds for any order of evaluating each entry's
    sum of products, with or without fused multiply-adds, and for a division
    by the pivot or a multiplication by its reciprocal. LAPACK's blocked and
    recursive potrf only regroups those sums into syrk, gemm and trsm
    updates, so it is covered; the bound needs classical products, and
    reference LAPACK and OpenBLAS use no Strassen-type ones. Demmel's
    analysis gives k = N + 1; k = N + 2 here allows the extra rounding of a
    reciprocal.

    Hermitian m = X + iY is embedded as the real symmetric [[X, -Y], [Y, X]],
    whose spectrum is that of m, doubled; the embedding reads the lower
    triangle of m only. Both m and tol are first scaled by the power of two
    that `hermitian_eig` uses. The constant is

        c = 2 (gamma_k / (1 - gamma_k) (sum |a_ii| + N tol) + n max|m - m^H|
               + (2 N^2 + N + 1) eta)

    with n the order of m and eta the smallest subnormal. The first term is
    Rump's, for the shifted matrix; the second bounds the distance from the
    Hermitian part of m to the triangle that was read; the third bounds
    underflow in the factorization and in the scaling of m and tol. Doubling
    absorbs the rounding of the shift on the diagonal and of evaluating c
    and tol - c, each a small fraction of the first term.
    """
    a, exponent = _scaled_to_unit(_require_square_finite(m))
    n = a.shape[0]
    size = 2 * n
    lower = np.tril(a, -1)
    h = lower + lower.conj().T + np.diag(a.diagonal().real)
    x, y = h.real, h.imag
    e = np.block([[x, -y], [y, x]])
    # the scaled m has norm below n, so a tol beyond 2**bit_length(2n) claims
    # nothing more than that cap does; capping keeps the shift finite
    mantissa, tol_exponent = math.frexp(tol)
    scaled_tol = math.ldexp(mantissa, min(tol_exponent - exponent, size.bit_length()))
    gamma = (size + 2) * _UNIT_ROUNDOFF / (1 - (size + 2) * _UNIT_ROUNDOFF)
    skew = float(np.max(np.abs(a - a.conj().T), initial=0.0))
    c = 2.0 * (
        gamma / (1 - gamma) * (float(np.abs(e.diagonal()).sum()) + size * scaled_tol)
        + n * skew
        + (2 * size * size + size + 1) * _ETA
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


def partial_transpose(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on C^dim_a x C^dim_b."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if dim_a * dim_b != m.shape[0]:
        raise ValueError(
            f"dimension mismatch: {dim_a} * {dim_b} != {m.shape[0]}"
        )
    blocks = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return blocks.transpose(0, 3, 2, 1).reshape(m.shape)
