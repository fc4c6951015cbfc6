"""Orthonormal Hermitian matrix basis of generalized Gell-Mann type.

The basis of M_n(C) is ordered as: the normalized identity, then the n-1
diagonal traceless elements, then the symmetric off-diagonal elements, then
the antisymmetric ones. All elements are orthonormal in the Hilbert-Schmidt
inner product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GellMannBasis",
    "build_basis",
    "diag_expectations",
    "expand",
]

Label = tuple


@dataclass(frozen=True, eq=False)
class GellMannBasis:
    """Ordered orthonormal Hermitian basis of the n x n matrices.

    elements has shape (n*n, n, n); labels[i] names element i as one of
    ("identity",), ("diagonal", l) with l = 1..n-1, ("symmetric", k, l) or
    ("antisymmetric", k, l) with 1 <= k < l <= n. Ket indices in labels are
    1-based, matching the defining formulas.
    """

    n: int
    elements: np.ndarray
    labels: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements))


def _diagonal_element(n: int, l: int) -> np.ndarray:
    # supported on the first l+1 kets; weight -l on ket l+1 keeps it traceless
    m = np.zeros((n, n), dtype=complex)
    w = 1.0 / np.sqrt(l * (l + 1))
    for i in range(l):
        m[i, i] = w
    m[l, l] = -l * w
    return m


def build_basis(n: int) -> GellMannBasis:
    """Construct the ordered basis for M_n(C)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    elements = [np.eye(n, dtype=complex) / np.sqrt(n)]
    labels: list[Label] = [("identity",)]
    for l in range(1, n):
        elements.append(_diagonal_element(n, l))
        labels.append(("diagonal", l))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = inv_sqrt2
            m[l, k] = inv_sqrt2
            elements.append(m)
            labels.append(("symmetric", k + 1, l + 1))
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[k, l] = -1j * inv_sqrt2
            m[l, k] = 1j * inv_sqrt2
            elements.append(m)
            labels.append(("antisymmetric", k + 1, l + 1))
    return GellMannBasis(n=n, elements=np.array(elements), labels=tuple(labels))


def expand(x: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """Coefficients Tr(f_alpha x) of x in the basis; real for Hermitian x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.n, basis.n):
        raise ValueError(f"expected shape {(basis.n, basis.n)}, got {x.shape}")
    return np.einsum("aij,ij->a", basis.elements.conj(), x)


def diag_expectations(basis: GellMannBasis) -> np.ndarray:
    """Real matrix mu with mu[i, l-1] = <i|d_l|i> for the diagonal elements.

    Row i is the diagonal-sector coordinate vector of the ket projector
    |i><i|; these vectors drive the stochastic matrix of the rotation maps.
    """
    diagonals = np.diagonal(basis.elements[1 : basis.n], axis1=1, axis2=2)
    return np.ascontiguousarray(diagonals.real.T)
