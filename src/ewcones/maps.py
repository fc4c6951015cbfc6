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
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .gellmann import GellMannBasis, build_basis, diag_expectations, expand
from .linalg import _require_hermitian

__all__ = [
    "KossakowskiMap",
    "OrthogonalEmbedding",
    "Witness",
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
_identity = cache(np.eye)  # shared by callers that only read it


def _require_finite_angles(*angles: float) -> None:
    # checked before any trigonometry, which would only warn and return NaN
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"Euler angles must be finite, got {[float(x) for x in angles]}")


def _require_parity(parity: str) -> None:
    if parity not in ("proper", "improper"):
        raise ValueError(f"parity must be 'proper' or 'improper', got {parity!r}")


def euler_rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Proper rotation of R^3 from the three Euler angles."""
    _require_finite_angles(alpha, beta, gamma)
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    return np.array(
        [
            [ca * cg - cb * sa * sg, cg * sa + ca * cb * sg, sb * sg],
            [-cb * cg * sa - ca * sg, ca * cb * cg - sa * sg, cg * sb],
            [sa * sb, -ca * sb, cb],
        ]
    )


def _require_dimension(n) -> int:
    """n as a plain int, if `operator.index` accepts it and it is not a bool."""
    if not isinstance(n, bool):
        try:
            return int(operator.index(n))
        except TypeError:
            pass
    raise ValueError(f"n must be an integer, got {n!r}")


def _block_parity(block: np.ndarray) -> str:
    """The parity of a float block, once it is checked to be non-empty, square, finite and orthogonal."""
    if block.ndim != 2 or block.shape[0] != block.shape[1] or block.size == 0:
        raise ValueError(f"expected a non-empty square block, got shape {block.shape}")
    # checked first: NaN passes the orthogonality test and its det reads as improper
    if not np.isfinite(block).all():
        raise ValueError("block entries must be finite")
    dev = float(np.abs(np.dot(block.T, block) - _identity(len(block))).max())
    if dev > ORTHOGONALITY_TOL:
        raise ValueError(f"block is not orthogonal: max |B^T B - I| = {dev:.3e}")
    return "proper" if np.linalg.det(block) > 0 else "improper"


@dataclass(frozen=True, eq=False)
class OrthogonalEmbedding:
    """Small orthogonal block on the diagonal sector, minus identity elsewhere.

    Valid by construction: raises ValueError unless block is a non-empty,
    finite (n-1) x (n-1) matrix, orthogonal within ORTHOGONALITY_TOL, and
    parity is "proper" or "improper" as its determinant is positive or
    negative. n is kept as a plain int and block as a read-only float copy;
    copies and pickles are rebuilt through the constructor.
    """

    n: int
    block: np.ndarray
    parity: str

    def __post_init__(self):
        n = _require_dimension(self.n)
        _require_parity(self.parity)
        block = np.array(self.block, dtype=float)
        parity = _block_parity(block)
        if n != len(block) + 1:
            raise ValueError(f"a block of order {len(block)} needs n = {len(block) + 1}, got n = {n}")
        if parity != self.parity:
            raise ValueError(f"parity is {self.parity!r}, but the block's determinant makes it {parity!r}")
        block.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "block", block)

    def __reduce__(self):
        return type(self), (self.n, self.block, self.parity)

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
    parity = _block_parity(block)
    return OrthogonalEmbedding(n=len(block) + 1, block=block, parity=parity)


def embedding_from_euler(
    alpha: float,
    beta: float,
    gamma: float,
    parity: str = "proper",
) -> OrthogonalEmbedding:
    """Embedding of M_4(C) whose block is the Euler rotation, negated when improper."""
    _require_parity(parity)
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
    """Block-structured witness operator on C^n x C^n, valid by construction.

    Construction raises ValueError unless n is an integer (`operator.index`
    accepts it) of at least 1 and the operator converts to an n^2 x n^2
    complex array that is finite and Hermitian within `linalg.HERMITIAN_TOL`,
    so no consumer checks it again. The witness keeps its own read-only copy,
    so no later write, to the caller's array or through `operator`, can undo
    the check; copies and pickles are rebuilt through the constructor.
    """

    n: int
    operator: np.ndarray

    def __post_init__(self):
        n = _require_dimension(self.n)
        if n < 1:
            # n = 0 would pass the shape test with an empty operator, -1 with a 1 x 1 one
            raise ValueError(f"n must be at least 1, got {n}")
        try:
            op = np.array(self.operator, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"witness operator must be an array of numbers: {exc}") from exc
        if op.shape != (n * n, n * n):
            raise ValueError(f"witness operator must have shape {(n * n, n * n)} for n = {n}, got {op.shape}")
        # a NaN would fail deep in LAPACK or pass through a trace, and eigh
        # would read a non-Hermitian operator's lower triangle alone
        _require_hermitian(op)
        op.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "operator", op)

    def __reduce__(self):
        return type(self), (self.n, self.operator)

    def trace(self) -> float:
        return float(np.trace(self.operator).real)


@cache
def _circulant_index(n: int) -> np.ndarray:
    k = np.arange(n)
    index = (k[None, :] - k[:, None]) % n
    index.flags.writeable = False
    return index


def _circulant(first_row) -> np.ndarray:
    """Matrix whose row i is first_row shifted right by i places."""
    v = np.asarray(first_row)
    return v[_circulant_index(len(v))]


@cache
def _ii_offsets(n: int) -> np.ndarray:
    """Entry (i, j) is the flat offset of <ii| . |jj> in an n*n x n*n array."""
    ii = np.arange(0, n * n, n + 1)
    offsets = ii[:, None] * (n * n) + ii
    offsets.flags.writeable = False
    return offsets


def _ii_operator(diagonal, block) -> np.ndarray:
    """Operator on C^n x C^n with the given main diagonal and n x n block on span{|ii>}.

    Every operator the package assembles has this sparsity: the block fills
    the entries between |ii> and |jj> (its own diagonal overrides the main
    diagonal there) and everything else off the main diagonal is zero.
    """
    n = len(block)
    op = np.zeros((n * n, n * n), dtype=complex)
    # adding +0.0 turns -0.0 into 0.0, so records never serialize a signed zero
    op.flat[:: n * n + 1] = np.asarray(diagonal, dtype=complex) + 0.0
    op.flat[_ii_offsets(n)] = np.asarray(block) + 0.0
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
    units = np.eye(n * n, dtype=complex).reshape(n, n, n, n)  # units[i, j] = |i><j|
    for i in range(n):
        for j in range(n):
            w += np.kron(units[i, j], kmap.apply(units[i, j]))
    return Witness(n=n, operator=w * (n - 1))


@cache
def _weyl_vectors(n: int) -> np.ndarray:
    """The n*n Weyl entangled vectors as read-only rows.

    Row k * n + l is the normalized vector (id x U_kl) applied to the uniform
    maximally entangled vector, for the shift-and-phase unitary U_kl. The
    rank-one projectors onto the rows are mutually orthogonal and resolve
    the identity.
    """
    omega = np.exp(2j * np.pi / n)
    m = np.arange(n)
    unitaries = np.zeros((n, n, n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            # ket labels are 1-based in the phase exponent
            unitaries[k, l, m, (m + l) % n] = omega ** (k * (m + 1))
    # entry i * n + j of vector k * n + l is U_kl[j, i]
    vectors = unitaries.transpose(0, 1, 3, 2).reshape(n * n, n * n) / np.sqrt(n)
    vectors.flags.writeable = False
    return vectors


def twirl(w: Witness) -> Witness:
    """Project the witness onto the span of the Weyl entangled projectors."""
    vecs = _weyl_vectors(w.n)
    bras = vecs.conj()
    # <v_k| W |v_k> for every k at once: one matmul, then a row-wise dot
    weights = ((bras @ w.operator) * vecs).sum(axis=1).real
    return Witness(n=w.n, operator=(vecs.T * weights) @ bras)
