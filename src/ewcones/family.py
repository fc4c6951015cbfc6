"""The circulant witness family on C^4 x C^4 and its closed parameter forms.

After twirling, every rotation witness is described by four nonnegative
parameters (a, b, c, d) summing to 3: the diagonal block of row i carries
them cyclically starting at position i, and every off-diagonal block is
minus a matrix unit. This module provides the closed forms mapping Euler
angles to parameters for both parities, the entrywise pre-twirl tables with
their audited correction, witness assembly from parameters, and the n=3
circulant analogue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errata import ERRATA
from .maps import Witness, _circulant, _ii_operator, _require_finite_angles, _require_parity

__all__ = [
    "N3Params",
    "WitnessParams",
    "abcd_from_euler",
    "appendix_matrix",
    "n3_abc",
    "params_from_witness",
    "witness_from_params",
]

PARAM_SUM_TOL = 1e-10
PARAM_NEG_TOL = 1e-10
CIRCULANT_TOL = 1e-10
DECISION_TOL = 1e-9

_S2 = math.sqrt(2.0)
_S3 = math.sqrt(3.0)
_S6 = math.sqrt(6.0)


def _require_tol(tol: float) -> None:
    # a NaN tol fails every comparison, which would read as "within tolerance"
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


@dataclass(frozen=True)
class WitnessParams:
    """Circulant parameters (a, b, c, d) with optional provenance metadata.

    Construction, `dataclasses.replace` included, runs `validate` and fixes
    provenance as a tuple of (key, value) pairs, so members hash and stay
    immutable. The member owns `witness`, built on first use and read-only.
    """

    a: float
    b: float
    c: float
    d: float
    provenance: tuple | None = None

    def __post_init__(self):
        self.validate()
        if self.provenance is not None:
            object.__setattr__(self, "provenance", tuple(dict(self.provenance).items()))

    def __getstate__(self):
        # pickle and deepcopy would copy the witness writable; a copy rebuilds it on first use
        return {k: v for k, v in vars(self).items() if k != "witness"}

    @cached_property
    def witness(self) -> Witness:
        """The member's circulant witness, the only place the family assembles one."""
        op = _ii_operator(_circulant(self.as_array()).ravel(), _circulant([self.a, -1.0, -1.0, -1.0]))
        op.flags.writeable = False
        return Witness(n=4, operator=op)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d])

    def validate(self):
        """Raise ValueError when a parameter is non-finite or breaks the sum or sign rules."""
        values = (self.a, self.b, self.c, self.d)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"parameters must be finite, got {self.as_array().tolist()}")
        residual = self.a + self.b + self.c + self.d - 3.0
        if abs(residual) > PARAM_SUM_TOL:
            raise ValueError(f"parameters must sum to 3, residual {residual:.3e}")
        for name, value in zip("abcd", values):
            if value < -PARAM_NEG_TOL:
                raise ValueError(f"parameter {name} = {value:.3e} is negative")
            if value > 3.0 + PARAM_NEG_TOL:
                raise ValueError(f"parameter {name} = {value:.3e} exceeds 3")


def abcd_from_euler(
    alpha: float, beta: float, gamma: float, parity: str = "proper"
) -> WitnessParams:
    """Closed-form circulant parameters of the twirled witness.

    The improper forms are the proper ones reflected through 3/4 entrywise,
    as negating the block negates every block contraction; the sign s carries
    that reflection term by term, so both parities share one formula.
    """
    _require_parity(parity)
    _require_finite_angles(alpha, beta, gamma)
    s = 1.0 if parity == "proper" else -1.0
    sa, ca = math.sin(alpha), math.cos(alpha)
    sb, cb = math.sin(beta), math.cos(beta)
    sg, cg = math.sin(gamma), math.cos(gamma)
    shared = (sa * sg - ca * cb * cg - 3 * ca * cg + 3 * cb * sa * sg - 2 * cb) / 6.0
    a = (3 + s * (math.cos(alpha + gamma) * (1 + cb)) + s * cb) / 4.0
    b = (
        3
        + s * shared
        + s * ((3 * cg * sa + 3 * ca * cb * sg + cb * cg * sa + ca * sg) / (2 * _S3))
        + s * ((2 / (3 * _S2)) * sb * (2 * cg + ca))
        - s * ((2 / _S6) * sa * sb)
    ) / 4.0
    c = (
        3
        - s * ((2 * ca * cb * cg - 2 * sa * sg + cb) / 3.0)
        - s * ((2 / (3 * _S2)) * sb * (cg - ca))
        + s * ((2 / _S6) * sb * (sg + sa))
        - s * ((cg * sa + ca * cb * sg - cb * cg * sa - ca * sg) / _S3)
    ) / 4.0
    d = (
        3
        + s * shared
        - s * ((3 * cb * cg * sa + 3 * ca * sg + cg * sa + ca * cb * sg) / (2 * _S3))
        - s * ((2 / (3 * _S2)) * sb * (cg + 2 * ca))
        - s * ((2 / _S6) * sg * sb)
    ) / 4.0
    provenance = {
        "kind": "euler",
        "alpha": float(alpha),
        "beta": float(beta),
        "gamma": float(gamma),
        "parity": parity,
    }
    return WitnessParams(a, b, c, d, provenance)


# Pre-twirl table: entry label -> {(row, col) into the 3x3 block: coefficient}.
# The a2 coefficient of R_23 is the audited correction; see errata.ERRATA.
_APPENDIX_COEFFS: dict[str, dict[tuple[int, int], float]] = {
    "a1": {(1, 1): 1 / 2, (1, 2): 1 / (2 * _S3), (1, 3): 1 / (2 * _S6),
           (2, 1): 1 / (2 * _S3), (2, 2): 1 / 6, (2, 3): 1 / (6 * _S2),
           (3, 1): 1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "a2": {(1, 1): 1 / 2, (1, 2): -1 / (2 * _S3), (1, 3): -1 / (2 * _S6),
           (2, 1): -1 / (2 * _S3), (2, 2): 1 / 6, (2, 3): 1 / (6 * _S2),
           (3, 1): -1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "a3": {(2, 2): 2 / 3, (2, 3): -1 / (3 * _S2),
           (3, 2): -1 / (3 * _S2), (3, 3): 1 / 12},
    "a4": {(3, 3): 9 / 12},
    "b1": {(1, 1): -1 / 2, (1, 2): 1 / (2 * _S3), (1, 3): 1 / (2 * _S6),
           (2, 1): -1 / (2 * _S3), (2, 2): 1 / 6, (2, 3): 1 / (6 * _S2),
           (3, 1): -1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "b2": {(1, 2): 1 / _S3, (1, 3): -1 / (2 * _S6), (2, 2): -1 / 3,
           (2, 3): 1 / (6 * _S2), (3, 2): -1 / (3 * _S2), (3, 3): 1 / 12},
    "b3": {(2, 3): 1 / _S2, (3, 3): -3 / 12},
    "b4": {(3, 1): -3 / (2 * _S6), (3, 2): -1 / (2 * _S2), (3, 3): -3 / 12},
    "c1": {(1, 2): -1 / _S3, (1, 3): 1 / (2 * _S6), (2, 2): -1 / 3,
           (2, 3): 1 / (6 * _S2), (3, 2): -1 / (3 * _S2), (3, 3): 1 / 12},
    "c2": {(1, 3): 3 / (2 * _S6), (2, 3): -1 / (2 * _S2), (3, 3): -3 / 12},
    "c3": {(2, 1): -1 / _S3, (2, 2): -1 / 3, (2, 3): -1 / (3 * _S2),
           (3, 1): 1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "c4": {(3, 1): 3 / (2 * _S6), (3, 2): -1 / (2 * _S2), (3, 3): -3 / 12},
    "d1": {(1, 3): -3 / (2 * _S6), (2, 3): -1 / (2 * _S2), (3, 3): -1 / 4},
    "d2": {(1, 1): -1 / 2, (1, 2): -1 / (2 * _S3), (1, 3): -1 / (2 * _S6),
           (2, 1): 1 / (2 * _S3), (2, 2): 1 / 6, (2, 3): 1 / (6 * _S2),
           (3, 1): 1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "d3": {(2, 1): 1 / _S3, (2, 2): -1 / 3, (2, 3): -1 / (3 * _S2),
           (3, 1): -1 / (2 * _S6), (3, 2): 1 / (6 * _S2), (3, 3): 1 / 12},
    "d4": {(3, 2): 1 / _S2, (3, 3): -3 / 12},
}

# label -> 0-based (row, col) position in the scaled stochastic matrix
_APPENDIX_POS: dict[str, tuple[int, int]] = {}
for _i in range(4):
    _APPENDIX_POS[f"a{_i + 1}"] = (_i, _i)
    _APPENDIX_POS[f"b{_i + 1}"] = (_i, (_i + 1) % 4)
    _APPENDIX_POS[f"c{_i + 1}"] = (_i, (_i + 2) % 4)
    _APPENDIX_POS[f"d{_i + 1}"] = (_i, (_i + 3) % 4)


def appendix_matrix(block: np.ndarray, corrected: bool = True) -> np.ndarray:
    """The 16 pre-twirl entries a_1..d_4 of a 3 x 3 block, in the scaled stochastic matrix (3 phi).

    With corrected=False the audited a_2 coefficient reverts to the printed
    value its errata.ERRATA record holds, for deviation studies.
    """
    block = np.asarray(block, dtype=float)
    if block.shape != (3, 3):
        raise ValueError(f"expected a 3 x 3 block, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("block entries must be finite")
    m = np.zeros((4, 4))
    for label, coeffs in _APPENDIX_COEFFS.items():
        value = 0.75
        for (k, l), coeff in coeffs.items():
            if not corrected and label == "a2" and (k, l) == (2, 3):
                coeff = next(e.printed_value for e in ERRATA if e.identifier == "appendix-a2-r23")
            value += coeff * block[k - 1, l - 1]
        m[_APPENDIX_POS[label]] = value
    return m


def witness_from_params(params: WitnessParams) -> Witness:
    """A fresh, writable copy of `params.witness`, the member's shared read-only witness."""
    return Witness(n=4, operator=params.witness.operator.copy())


# entry (i, s) indexes the ket |i, i+s mod 4>, so column s holds the four
# places of parameter s on the diagonal of W
_CYCLIC_DIAGONALS = 4 * np.arange(4)[:, None] + (np.arange(4)[:, None] + np.arange(4)) % 4
_CYCLIC_DIAGONALS.flags.writeable = False


def params_from_witness(w: Witness) -> WitnessParams:
    """Read (a, b, c, d) back from a circulant witness.

    Averages the cyclic diagonals of the diagonal blocks and checks that the
    witness actually has the circulant block structure within CIRCULANT_TOL.
    """
    op = w.operator
    if w.n != 4:
        raise ValueError(f"expected n=4 and a 16 x 16 operator, got n={w.n} and shape {op.shape}")
    vals = op.diagonal().real[_CYCLIC_DIAGONALS].mean(axis=0)
    params = WitnessParams(*map(float, vals), provenance={"kind": "extracted"})
    dev = float(np.max(np.abs(op - params.witness.operator)))
    if dev > CIRCULANT_TOL:
        raise ValueError(f"witness is not circulant within {CIRCULANT_TOL:.1e}: deviation {dev:.3e}")
    return params


@dataclass(frozen=True)
class N3Params:
    """Circulant parameters (a, b, c) of the three-dimensional analogue."""

    a: float
    b: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


def n3_abc(alpha: float) -> N3Params:
    """Closed-form circulant parameters for a planar rotation by alpha.

    The triple satisfies a + b + c = 2 and bc = (1 - a)^2 identically, the
    ellipse of extreme positive maps in three dimensions.
    """
    _require_finite_angles(alpha)
    a = (2.0 / 3.0) * (1.0 + np.cos(alpha))
    b = (2.0 / 3.0) * (1.0 - np.cos(alpha) / 2.0 - (_S3 / 2.0) * np.sin(alpha))
    c = (2.0 / 3.0) * (1.0 - np.cos(alpha) / 2.0 + (_S3 / 2.0) * np.sin(alpha))
    return N3Params(float(a), float(b), float(c))
