"""Positive maps from rotations, their witnesses, and the isotropic twirl.

A rotation block acting on the diagonal sector of the Gell-Mann basis,
extended by minus the identity on the off-diagonal sector, defines a unital
positive map on M_n(C). Its Choi-type witness on C^n x C^n has minus the
matrix units as off-diagonal blocks and a doubly stochastic matrix (scaled by
n-1) along the diagonal blocks. Twirling over the discrete Weyl group reduces
the stochastic matrix to its circulant average.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .gellmann import GellMannBasis, build_basis, diag_expectations, expand

__all__ = [
    "KossakowskiMap",
    "OrthogonalEmbedding",
    "WeylSet",
    "Witness",
    "build_weyl_set",
    "build_witness",
    "choi_witness",
    "embedding_from_block",
    "embedding_from_euler",
    "euler_rotation",
    "map_from_embedding",
    "max_entangled_projector",
    "phi_matrix",
    "twirl",
]

ORTHOGONALITY_TOL = 1e-12


def _require_finite_angles(*angles: float) -> None:
    # checked before any trigonometry, which would only warn and return NaN
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"Euler angles must be finite, got {[float(x) for x in angles]}")


def euler_rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Proper rotation of R^3 from the three Euler angles."""
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    sg, cg = np.sin(gamma), np.cos(gamma)
    return np.array(
        [
            [ca * cg - cb * sa * sg, cg * sa + ca * cb * sg, sb * sg],
            [-cb * cg * sa - ca * sg, ca * cb * cg - sa * sg, cg * sb],
            [sa * sb, -ca * sb, cb],
        ]
    )


@dataclass(frozen=True, eq=False)
class OrthogonalEmbedding:
    """Small orthogonal block on the diagonal sector, minus identity elsewhere.

    block is an (n-1) x (n-1) orthogonal matrix; parity is "proper" or
    "improper" according to its determinant.
    """

    n: int
    block: np.ndarray
    parity: str

    def rotation(self) -> np.ndarray:
        """Full orthogonal matrix on the traceless sector, size n*n - 1."""
        n = self.n
        dim = n * n - 1
        r = -np.eye(dim)
        r[: n - 1, : n - 1] = self.block
        return r


def embedding_from_block(block: np.ndarray) -> OrthogonalEmbedding:
    """Wrap an orthogonal (n-1) x (n-1) block of M_n(C), inferring n and the parity."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 2 or block.shape[0] != block.shape[1] or block.size == 0:
        raise ValueError(f"expected a non-empty square block, got shape {block.shape}")
    # checked first: NaN passes the orthogonality test and its det reads as improper
    if not np.isfinite(block).all():
        raise ValueError("block entries must be finite")
    dev = float(np.max(np.abs(block.T @ block - np.eye(len(block)))))
    if dev > ORTHOGONALITY_TOL:
        raise ValueError(f"block is not orthogonal: max |B^T B - I| = {dev:.3e}")
    parity = "proper" if np.linalg.det(block) > 0 else "improper"
    return OrthogonalEmbedding(n=len(block) + 1, block=block.copy(), parity=parity)


def embedding_from_euler(
    alpha: float,
    beta: float,
    gamma: float,
    parity: str = "proper",
) -> OrthogonalEmbedding:
    """Embedding of M_4(C) whose block is the Euler rotation, negated when improper."""
    if parity not in ("proper", "improper"):
        raise ValueError(f"parity must be 'proper' or 'improper', got {parity!r}")
    _require_finite_angles(alpha, beta, gamma)
    block = euler_rotation(alpha, beta, gamma)
    if parity == "improper":
        block = -block
    return OrthogonalEmbedding(n=4, block=block, parity=parity)


@dataclass(frozen=True, eq=False)
class KossakowskiMap:
    """Unital map defined by an orthogonal rotation of the traceless sector."""

    n: int
    rotation: np.ndarray
    basis: GellMannBasis = field(repr=False)

    def _rotate(self, x: np.ndarray, rotation: np.ndarray) -> np.ndarray:
        coeffs = expand(x, self.basis)[1:]
        out = np.eye(self.n, dtype=complex) * (np.trace(x) / self.n)
        out += np.einsum("a,aij->ij", rotation @ coeffs, self.basis.elements[1:]) / (self.n - 1)
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of x: identity part plus the rotated traceless expansion."""
        return self._rotate(x, self.rotation)

    def apply_dual(self, y: np.ndarray) -> np.ndarray:
        """Image under the trace-pairing dual, which rotates by the transpose."""
        return self._rotate(y, self.rotation.T)

    __call__ = apply


def map_from_embedding(emb: OrthogonalEmbedding) -> KossakowskiMap:
    """Map whose action on ket projectors realizes phi_matrix(emb).

    The stochastic-matrix convention pairs the input ket with ROWS of the
    small block, while the generic map formula pairs it with columns; the
    block therefore enters transposed here so both routes agree for every
    embedding, not only symmetric blocks.
    """
    return KossakowskiMap(n=emb.n, rotation=emb.rotation().T, basis=build_basis(emb.n))


@cache
def _diag_table(n: int) -> np.ndarray:
    mu = diag_expectations(build_basis(n))
    mu.flags.writeable = False
    return mu


def phi_matrix(emb: OrthogonalEmbedding) -> np.ndarray:
    """Doubly stochastic matrix of the map's action on ket projectors.

    Entry (i, j) is 1/n plus the block contraction of the diagonal-sector
    coordinates of kets i and j, scaled by 1/(n-1). Row i lists the output
    weights of the i-th ket projector.
    """
    n = emb.n
    mu = _diag_table(n)
    return 1.0 / n + (mu @ emb.block @ mu.T) / (n - 1)


@dataclass(frozen=True, eq=False)
class Witness:
    """Block-structured witness operator on C^n x C^n."""

    n: int
    operator: np.ndarray

    def trace(self) -> float:
        return float(np.trace(self.operator).real)


def _unit(i: int, j: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _circulant(first_row) -> np.ndarray:
    """Matrix whose row i is first_row shifted right by i places."""
    v = np.asarray(first_row)
    k = np.arange(len(v))
    return v[(k[None, :] - k[:, None]) % len(v)]


def _ii_operator(diagonal, block) -> np.ndarray:
    """Operator on C^n x C^n with the given main diagonal and n x n block on span{|ii>}.

    Every operator the package assembles has this sparsity: the block fills
    the entries between |ii> and |jj> (its own diagonal overrides the main
    diagonal there) and everything else off the main diagonal is zero.
    """
    n = len(block)
    # adding +0.0 turns -0.0 into 0.0, so records never serialize a signed zero
    op = np.diag(np.asarray(diagonal, dtype=complex) + 0.0)
    ii = np.arange(0, n * n, n + 1)
    op[np.ix_(ii, ii)] = np.asarray(block) + 0.0
    return op


def build_witness(emb: OrthogonalEmbedding) -> Witness:
    """Witness with -|i><j| off-diagonal blocks and stochastic diagonal blocks."""
    n = emb.n
    scaled = (n - 1) * phi_matrix(emb)
    block = -np.ones((n, n))
    np.fill_diagonal(block, np.diag(scaled))
    return Witness(n=n, operator=_ii_operator(scaled.ravel(), block))


def max_entangled_projector(n: int) -> np.ndarray:
    """Projector onto the uniform maximally entangled vector of C^n x C^n."""
    return _ii_operator(np.zeros(n * n), np.full((n, n), 1.0 / n))


def choi_witness(kmap: KossakowskiMap) -> Witness:
    """Witness n(n-1) (id x map) applied to the maximally entangled projector."""
    n = kmap.n
    w = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            w += np.kron(_unit(i, j, n), kmap.apply(_unit(i, j, n)))
    return Witness(n=n, operator=w * (n - 1))


@dataclass(frozen=True, eq=False)
class WeylSet:
    """Discrete Weyl shift-and-phase unitaries with their entangled vectors.

    unitaries[k, l] is the n x n unitary; vectors[k * n + l] is the
    normalized vector (id x U_kl) applied to the uniform maximally entangled
    vector. The n*n rank-one projectors onto these vectors are mutually
    orthogonal and resolve the identity.
    """

    n: int
    unitaries: np.ndarray
    vectors: np.ndarray


def build_weyl_set(n: int) -> WeylSet:
    """Construct all n*n shift-and-phase unitaries and their vectors."""
    omega = np.exp(2j * np.pi / n)
    m = np.arange(n)
    unitaries = np.zeros((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            # ket labels are 1-based in the phase exponent
            unitaries[k, l, m, (m + l) % n] = omega ** (k * (m + 1))
    # entry i * n + j of vector k * n + l is U_kl[j, i]
    vectors = unitaries.transpose(0, 1, 3, 2).reshape(n * n, n * n) / np.sqrt(n)
    return WeylSet(n=n, unitaries=unitaries, vectors=vectors)


@cache
def _default_weyl_set(n: int) -> WeylSet:
    weyl = build_weyl_set(n)
    weyl.unitaries.flags.writeable = False
    weyl.vectors.flags.writeable = False
    return weyl


def twirl(w: Witness) -> Witness:
    """Project the witness onto the span of the Weyl entangled projectors."""
    vecs = _default_weyl_set(w.n).vectors
    weights = np.einsum("ka,ab,kb->k", vecs.conj(), w.operator, vecs).real
    return Witness(n=w.n, operator=(vecs.T * weights) @ vecs.conj())
