"""Structural physical approximation of circulant family witnesses.

Mixing a witness with white noise until it turns positive yields a state;
for this family the critical mixture is exactly separable, which is shown
constructively by a split into 2 x 2 supported blocks plus a diagonal rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .certify import EVIDENCE_TOL
from .family import WitnessParams
from .linalg import partial_transpose, psd_proved
from .maps import Witness, _circulant, _ii_operator

__all__ = [
    "SpaResult",
    "critical_p",
    "critical_p_from_a",
    "spa_decompose",
    "spa_mix",
]


def _positive_trace(w: Witness) -> float:
    if not (trace := w.trace()) > 0:
        raise ValueError(f"witness trace must be positive, got {trace}")
    return trace


def spa_mix(w: Witness, p: float) -> np.ndarray:
    """Convex mixture (1 - p) W / Tr W + p I / dim; raises ValueError unless Tr W > 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    dim = w.operator.shape[0]
    return (1.0 - p) * w.operator / _positive_trace(w) + (p / dim) * np.eye(dim)


def critical_p(w: Witness) -> float:
    """Smallest p for which spa_mix(w, p) is positive semidefinite.

    Reads the lowest eigenvalue of an arbitrary Hermitian operator from
    LAPACK, so it stays independent of the family's closed form. Raises
    ValueError unless Tr W > 0.
    """
    dim = w.operator.shape[0]
    low = np.linalg.eigvalsh(w.operator)[0] / _positive_trace(w)
    if low >= 0:
        return 0.0
    return float(-low / (1.0 / dim - low))


def critical_p_from_a(a: float) -> float:
    """Closed form of the critical mixing parameter on the circulant family."""
    return 4.0 * (3.0 - a) / (15.0 - 4.0 * a)


def _pair_term(i: int, j: int) -> np.ndarray:
    diagonal = np.zeros((4, 4))
    diagonal[[i, j, i, j], [j, i, i, j]] = 1.0
    block = np.zeros((4, 4))
    block[np.ix_([i, j], [i, j])] = [[1.0, -1.0], [-1.0, 1.0]]
    return _ii_operator(diagonal.ravel(), block)


def _pair_support_ok(sigma: np.ndarray, i: int, j: int) -> bool:
    keep = [4 * x + y for x in (i, j) for y in (i, j)]
    mask = np.zeros((16, 16), dtype=bool)
    mask[np.ix_(keep, keep)] = True
    if np.max(np.abs(sigma[~mask])) > 1e-12:
        return False
    sub = sigma[np.ix_(keep, keep)]
    return psd_proved(sub, EVIDENCE_TOL) and psd_proved(partial_transpose(sub, 2, 2), EVIDENCE_TOL)


@cache
def _pair_terms() -> tuple[tuple[tuple[tuple[int, int], np.ndarray], ...], np.ndarray, bool]:
    """The six read-only pair terms, their sum, and whether all are PSD and PPT on their supports.

    None of these depends on (a, b, c, d), so all are built and checked once.
    """
    pairs = tuple(((i, j), _pair_term(i, j)) for i, j in combinations(range(4), 2))
    total = sum(sigma for _, sigma in pairs)
    total.flags.writeable = False
    for _, sigma in pairs:
        sigma.flags.writeable = False
    return pairs, total, all(_pair_support_ok(sigma, i, j) for (i, j), sigma in pairs)


@dataclass(frozen=True, eq=False)
class SpaResult:
    """Critical mixture of a circulant witness with its separable split."""

    params: WitnessParams
    p_star: float
    mixed_operator: np.ndarray
    sigma_pairs: tuple[tuple[tuple[int, int], np.ndarray], ...]
    sigma_diag: np.ndarray
    normalization: float
    slacks: tuple[float, float, float]
    spa3_satisfied: bool
    pairs_separable: bool
    reconstruction_error: float


def spa_decompose(params: WitnessParams) -> SpaResult:
    """Split the critical mixture into manifestly separable pieces.

    The identity W + (3 - a) I equals a sum of six pair terms, each PPT on
    a 2 x 2 support, plus a diagonal remainder whose weights are the slack
    triple. Rescaled by the normalization this reproduces spa_mix at the
    critical parameter.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    w = params.witness
    p_star = critical_p_from_a(a)
    mixed = spa_mix(w, p_star)
    # slack s is the weight the diagonal remainder assigns to every ket |i, i+s>
    # once the pair terms are removed; all three nonnegative make the mixture separable
    slacks = (2.0 * b + c + d - 1.0, 2.0 * c + b + d - 1.0, 2.0 * d + b + c - 1.0)

    pairs, pair_sum, pairs_ok = _pair_terms()
    diag = _ii_operator(_circulant([0.0, *slacks]).ravel(), np.zeros((4, 4)))
    total = pair_sum + diag

    norm = 1.0 / (4.0 * (15.0 - 4.0 * a))
    error = float(np.max(np.abs(mixed - norm * total)))
    return SpaResult(
        params=params,
        p_star=float(p_star),
        mixed_operator=mixed,
        sigma_pairs=pairs,
        sigma_diag=diag,
        normalization=norm,
        slacks=slacks,
        spa3_satisfied=bool(min(slacks) >= -EVIDENCE_TOL),
        pairs_separable=bool(pairs_ok),
        reconstruction_error=error,
    )
