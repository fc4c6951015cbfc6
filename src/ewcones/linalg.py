"""Dense linear algebra kernels for small complex matrices.

Everything here operates on numpy arrays of modest size (16 x 16 at most in
this package), so clarity wins over asymptotics. The Hermitian eigensolver is
a cyclic Jacobi iteration with two-sided unitary rotations.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy import kron

__all__ = [
    "EigenResult",
    "dagger",
    "frobenius_inner",
    "frobenius_norm",
    "hermitian_eig",
    "is_hermitian",
    "is_psd",
    "kron",
    "partial_transpose",
]

HERMITIAN_TOL = 1e-12
JACOBI_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
PSD_TOL = 1e-9


class EigenResult(NamedTuple):
    """Eigenvalues in ascending order and matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.sum(np.conjugate(a) * b))


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(m))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True when m equals its conjugate transpose entrywise within tol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def _require_hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    dev = float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max |m - m^dagger| = {dev:.3e}")
    return m


def _off_diagonal_mass(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def hermitian_eig(
    m: np.ndarray,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> EigenResult:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps over all index pairs applying two-sided unitary plane rotations
    until the off-diagonal Frobenius mass drops below tol times the Frobenius
    norm of the input. Returns ascending eigenvalues and orthonormal
    eigenvector columns; raises numpy.linalg.LinAlgError (a ValueError) when
    max_sweeps sweeps leave the mass above that threshold.
    """
    a = _require_hermitian(m, HERMITIAN_TOL).copy()
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n <= 1:
        return EigenResult(np.diag(a).real.copy(), v)
    scale = frobenius_norm(a)
    if scale == 0.0:
        return EigenResult(np.zeros(n), v)
    threshold = tol * scale
    # negligibility cutoff per element; rotations below it cannot move the mass
    tiny = 1e-300
    for _ in range(max_sweeps):
        if _off_diagonal_mass(a) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= tiny:
                    continue
                phase = apq / r
                theta = 0.5 * np.arctan2(2.0 * r, (a[p, p] - a[q, q]).real)
                c = np.cos(theta)
                s = np.sin(theta)
                # plane rotation zeroing a[p, q]: columns then rows
                u_pp, u_pq = c, -s * phase
                u_qp, u_qq = s / phase, c
                col_p = a[:, p] * u_pp + a[:, q] * u_qp
                col_q = a[:, p] * u_pq + a[:, q] * u_qq
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = np.conj(u_pp) * a[p, :] + np.conj(u_qp) * a[q, :]
                row_q = np.conj(u_pq) * a[p, :] + np.conj(u_qq) * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                col_p = v[:, p] * u_pp + v[:, q] * u_qp
                col_q = v[:, p] * u_pq + v[:, q] * u_qq
                v[:, p] = col_p
                v[:, q] = col_q
    if _off_diagonal_mass(a) > threshold:
        raise np.linalg.LinAlgError(f"Jacobi did not converge in {max_sweeps} sweeps")
    values = np.diag(a).real
    order = np.argsort(values, kind="stable")
    return EigenResult(values[order].copy(), v[:, order].copy())


def is_psd(m: np.ndarray) -> bool:
    """True when the smallest eigenvalue is at least -PSD_TOL."""
    values, _ = hermitian_eig(m)
    return bool(values[0] >= -PSD_TOL)


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
