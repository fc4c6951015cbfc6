"""Dense linear algebra kernels for small complex matrices (16 x 16 at most here).

`hermitian_eig` returns the spectrum, all a certificate reads, by Jacobi
rotations. A yes/no positivity question needs none: `psd_proved` settles it
by one shifted Cholesky factorization whose completion is a proof (Rump
2006), of the real embedding that one cached gather reads off m's lower
triangle; its core takes the largest part and the skew max|m - m^H| that
`detect` measured.
"""
from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenResult",
    "hermitian_eig",
    "partial_transpose",
    "psd_proved",
]

HERMITIAN_TOL = 1e-12
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
_UNIT_ROUNDOFF = 2.0**-53
_ETA = math.ulp(0.0)  # smallest subnormal
# a pair coupled at or below this keeps the identity rotation, which cannot move the mass
_NEGLIGIBLE = 1e-300


class EigenResult(NamedTuple):
    """Eigenvalues in ascending order."""

    values: np.ndarray


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_square_finite(m: np.ndarray) -> np.ndarray:
    m = _require_square(m)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """m as a complex array, if square, finite and Hermitian within HERMITIAN_TOL.

    One pass decides both: a non-finite entry makes the deviation NaN or
    inf, so finiteness is looked at only to name a failure.
    """
    a = _require_square(m)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a finite overflow
        dev = float(np.abs(a - a.conj().T).max()) if a.size else 0.0
    if not dev <= HERMITIAN_TOL:
        _require_square_finite(a)
        raise ValueError(f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e}")
    return a


def _largest_part(a: np.ndarray) -> float:
    """The largest |re| or |im| of complex a; NaN or inf unless every entry is finite."""
    parts = np.ascontiguousarray(a).view(float)
    return float(np.abs(parts).max()) if parts.size else 0.0


def _scaled_to_unit(a: np.ndarray, largest: float | None = None) -> tuple[np.ndarray, int]:
    """a times 2**-e, with e the power of two that puts its largest entry in [1/4, 1).

    e comes from the largest real or imaginary part, `_largest_part(a)`
    unless the caller measured it, as a modulus can overflow. The scaled
    norm cannot overflow or underflow, and away from subnormals every
    rounding step scales exactly with 2**e, so results scale back exactly.
    Returns the scaled array and e.
    """
    parts = np.ascontiguousarray(a).view(float)
    exponent = math.frexp(_largest_part(a) if largest is None else largest)[1] + 1
    return np.ldexp(parts, -exponent).view(complex), exponent


def _off_diagonal_mass(a: np.ndarray) -> float:
    off = a.copy()
    off.flat[:: a.shape[0] + 1] = 0.0
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


def _rutishauser(d_p: np.ndarray, d_q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, ...]:
    """t = tan(theta) of the rotations that zero couplings of modulus r > 0
    between diagonal entries d_p and d_q, and the rotated diagonal.

    |theta| <= pi/4 (Rutishauser). The rotated diagonal is each pair's 2 x 2
    eigenvalues d_p + t r, d_q - t r, which carry less rounding than the
    two-sided product. Returns (t, d_p + t r, d_q - t r).
    """
    diff = d_p - d_q
    t = np.copysign(2.0 * r, diff) / (np.abs(diff) + np.hypot(diff, 2.0 * r))
    shift = t * r
    return t, d_p + shift, d_q - shift


def _jacobi(a: np.ndarray, threshold: float) -> np.ndarray:
    """Diagonal of a after round-robin sweeps bring its off-diagonal mass to threshold.

    a is a scaled Hermitian matrix of order 2 or more; raises
    numpy.linalg.LinAlgError when JACOBI_MAX_SWEEPS sweeps leave the mass
    above threshold.
    """
    n = a.shape[0]
    for _ in range(JACOBI_MAX_SWEEPS):
        if _off_diagonal_mass(a) <= threshold:
            break
        for p, q, partner, pq, qp in _round_robin(n):
            apq = a.ravel().take(pq)
            r = np.abs(apq)
            live = r > _NEGLIGIBLE
            count = np.count_nonzero(live)
            if count == 0:
                continue
            if count < p.size:
                # dead pairs keep the identity rotation: cs = 1 and us = 0 below
                p, q, apq, r = p[live], q[live], apq[live], r[live]
            d = a.diagonal().real.copy()
            t, d[p], d[q] = _rutishauser(d[p], d[q], r)
            c = 1.0 / np.hypot(1.0, t)
            u_pq = -(t * c) * (apq / r)
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
    return np.diag(a).real


def _components(pattern: np.ndarray) -> list[list[int]]:
    """The connected components of a symmetric boolean pattern, as sorted index lists.

    A breadth-first search on one integer bitmask per row: an n x n pattern
    costs n mask unions, with no matrix products.
    """
    n = pattern.shape[0]
    rows = np.packbits(pattern, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in rows]
    unseen = (1 << n) - 1
    components = []
    while unseen:
        component = frontier = unseen & -unseen
        members = []
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                members.append(low.bit_length() - 1)
                reach |= masks[members[-1]]
            frontier = reach & ~component
            component |= frontier
        unseen &= ~component
        components.append(sorted(members))
    return components


def _blockwise_diagonal(a: np.ndarray, components: list[list[int]]) -> np.ndarray:
    """The eigenvalues of scaled a, in place of its diagonal, one component at a time.

    A 1 x 1 component is its diagonal entry. All 2 x 2 components take their
    single Jacobi rotation together. A larger one runs `_jacobi` on its
    principal submatrix, to JACOBI_TOL times that submatrix's norm: the
    squared thresholds sum to at most the whole matrix's, so the criterion is
    no looser. The submatrix is first rescaled by its own power of two, so
    that a block far below the largest one keeps a norm whose squares do not
    underflow.
    """
    d = a.diagonal().real.copy()
    pairs = [block for block in components if len(block) == 2]
    if pairs:
        p, q = np.array(pairs, dtype=np.intp).T
        r = np.abs(a[p, q])
        live = r > _NEGLIGIBLE
        p, q = p[live], q[live]
        _, d[p], d[q] = _rutishauser(d[p], d[q], r[live])
    for block in components:
        if len(block) > 2:
            sub, exponent = _scaled_to_unit(a[np.ix_(block, block)])
            d[block] = np.ldexp(_jacobi(sub, JACOBI_TOL * float(np.linalg.norm(sub))), exponent)
    return d


def hermitian_eig(m: np.ndarray) -> EigenResult:
    """Diagonalize a Hermitian matrix by Jacobi rotations in round-robin order.

    Each sweep visits every index pair once, in the rounds of `_round_robin`:
    a round rotates its n/2 disjoint pairs together, as array operations, by
    two-sided unitary plane rotations that zero each pair's off-diagonal
    entry (Brent & Luk 1985; Luk & Park 1989 show this ordering equivalent
    to the cyclic-by-rows one, so its convergence guarantee carries over).
    Sweeps run until the off-diagonal Frobenius mass drops below JACOBI_TOL
    times the Frobenius norm of the input. An input whose nonzero pattern is
    not connected is block diagonal up to a symmetric permutation, and
    rotations inside a block keep the zeros outside it, so the spectrum is
    the union of the blocks' spectra: `_blockwise_diagonal` solves each.

    Returns the eigenvalues in ascending order, without eigenvectors; raises
    numpy.linalg.LinAlgError (a ValueError) when JACOBI_MAX_SWEEPS sweeps
    leave the mass of the matrix, or of a block, above its threshold.
    """
    a = _require_hermitian(m)
    n = a.shape[0]
    if n <= 1:
        return EigenResult(np.diag(a).real.copy())
    a, exponent = _scaled_to_unit(a)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return EigenResult(np.zeros(n))
    nonzero = a != 0
    if nonzero.all() or len(components := _components(nonzero)) == 1:
        diagonal = _jacobi(a, JACOBI_TOL * scale)
    else:
        diagonal = _blockwise_diagonal(a, components)
    with np.errstate(over="ignore"):  # an eigenvalue beyond the float range is +-inf
        values = np.ldexp(diagonal, exponent)
    return EigenResult(np.sort(values, kind="stable"))


@cache
def _embedding_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only offsets into the float view of an n x n complex array, and signs.

    Gathered and signed, they give [[X, -Y], [Y, X]] for the Hermitian X + iY
    that shares the array's lower triangle: entry (i, j) of X or Y reads
    entry (max(i, j), min(i, j)), and Y takes the sign of i - j.
    """
    i, j = np.indices((n, n))
    real = 2 * (np.maximum(i, j) * n + np.minimum(i, j))
    imag = real + 1
    sign = np.sign(i - j).astype(float)
    ones = np.ones((n, n))
    index = np.block([[real, imag], [imag, real]])
    signs = np.block([[ones, -sign], [sign, ones]])
    index.flags.writeable = signs.flags.writeable = False
    return index, signs


def _real_embedding(a: np.ndarray) -> np.ndarray:
    """The symmetric [[X, -Y], [Y, X]] for the Hermitian X + iY that shares a's
    lower triangle, in one gather. Parts are taken as x + 0.0, which makes
    -0.0 into +0.0 as forming X + iY does."""
    index, signs = _embedding_gather(a.shape[0])
    return np.ascontiguousarray(a, dtype=complex).view(float).take(index) * signs + 0.0


def _scaled_up(x: float, exponent: int) -> float:
    """x * 2**-exponent, exact unless subnormal; there ldexp rounds, and this rounds up so c never shrinks."""
    y = math.ldexp(x, -exponent)
    return math.nextafter(y, math.inf) if math.ldexp(y, exponent) < x else y


def _psd_proved_checked(a: np.ndarray, largest: float | None, skew: float | None, tol: float) -> bool:
    """`psd_proved` of a checked a, given its largest part (`_largest_part`) and
    its skew max|a - a^H|, each None to measure it, the skew on the scaled a."""
    a, exponent = _scaled_to_unit(a, largest)
    n = a.shape[0]
    size = 2 * n
    e = _real_embedding(a)
    # the scaled m has norm below n, so a tol beyond 2**bit_length(2n) claims
    # nothing more than that cap does; capping keeps the shift finite
    mantissa, tol_exponent = math.frexp(tol)
    scaled_tol = math.ldexp(mantissa, min(tol_exponent - exponent, size.bit_length()))
    gamma = (size + 2) * _UNIT_ROUNDOFF / (1 - (size + 2) * _UNIT_ROUNDOFF)
    skew = float(np.max(np.abs(a - a.conj().T), initial=0.0)) if skew is None else _scaled_up(skew, exponent)
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


def psd_proved(m: np.ndarray, tol: float) -> bool:
    """True only when a Cholesky factorization proves lambda_min(m) >= -tol.

    m may be real or complex; the claim is about its Hermitian part, so a
    skew of m can never void it. False means "not proved", not "not PSD".
    Raises ValueError on a non-square matrix or non-finite entries.

    Theorem (Rump, "Verification of positive definiteness", BIT 46, 2006,
    built on Demmel's backward error of Cholesky): if floating-point
    Cholesky of a real symmetric N x N matrix A completes with factor R,
    then R^T R = A + dA with |dA| <= gamma_k |R^T| |R|, gamma_k =
    k u / (1 - k u), u = 2**-53. As R^T R is PSD and ||R||_F^2 <=
    sum |a_ii| / (1 - gamma_k), lambda_min(A) >= -gamma_k / (1 - gamma_k)
    sum |a_ii|. So when Cholesky of A + (tol - c) I completes, with c at
    least that bound for the shifted matrix, A >= -tol I. The bound holds
    for any order of each entry's sum of products, with or without fused
    multiply-adds, and for division by the pivot or multiplication by its
    reciprocal; LAPACK's blocked and recursive potrf only regroups those
    sums into syrk, gemm and trsm updates, with classical products in
    reference LAPACK and OpenBLAS, so it is covered. Demmel's analysis gives
    k = N + 1; k = N + 2 allows the extra rounding of a reciprocal.

    Hermitian m = X + iY is embedded as the real symmetric [[X, -Y], [Y, X]],
    whose spectrum is that of m, doubled. The embedding reads only the lower
    triangle of m, and is gathered whole and symmetric, through a table
    cached per order, so it holds whichever triangle numpy's `cholesky`
    reads (LAPACK potrf, UPLO='L'). m and tol are first scaled by the power
    of two that `hermitian_eig` uses. The constant is

        c = 2 (gamma_k / (1 - gamma_k) (sum |a_ii| + N tol) + n max|m - m^H|
               + (2 N^2 + N + 1) eta)

    with n the order of m and eta the smallest subnormal. The first term is
    Rump's, for the shifted matrix; the second bounds the distance from the
    Hermitian part of m to the triangle read (`detect` scales the skew it
    measured on m, this measures it on the scaled m); the third bounds
    underflow in the factorization and in the scaling of m and tol. Doubling
    absorbs the rounding of the shift on the diagonal and of evaluating c
    and tol - c, each a small fraction of the first term.
    """
    return _psd_proved_checked(_require_square_finite(m), None, None, tol)


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
