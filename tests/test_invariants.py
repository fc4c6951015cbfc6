"""Properties over the whole valid parameter set, not only cone members.

Every corpus, demo and most tests draw cone members, while the CLI accepts
any valid (a, b, c, d): each entry in [0, 3], summing to 3. The draws here
cover the simplex's interior, its faces, edges and vertices (zero weights),
and the b = d plane, on which the decomposability verdict is decided.

The see-saw floor must stay within SEESAW_FTOL of the former per-restart
loop (einsum contractions and eigh only, from the same starts) and may not
fall below the witness's least eigenvalue. It is not asserted to reach the
product-vector closed forms: an 8-restart search misses them on some
members, a limit of the search rather than a defect.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_seesaw import former_halves, ref_block_positivity_min

from ewcones.certify import SEESAW_FTOL, block_positivity_min
from ewcones.family import WitnessParams

WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def valid_params(draw):
    """A valid member from four weights; zero weights put it on a face, edge or vertex."""
    if draw(st.booleans()):
        a, t, c = draw(WEIGHT), draw(WEIGHT), draw(WEIGHT)
        weights = (a, t, c, t)  # the b = d plane: b and d are the same expression
    else:
        weights = tuple(draw(WEIGHT) for _ in range(4))
    total = sum(weights)
    if total == 0.0:
        weights, total = (1.0, 0.0, 0.0, 0.0), 1.0
    return WitnessParams(*(3.0 * x / total for x in weights))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_params())
def test_block_positivity_tracks_the_former_loop(params):
    w = params.witness
    least = np.linalg.eigvalsh(w.operator)[0]
    for seed in (0, 1):
        value = block_positivity_min(w, restarts=4, seed=seed)
        former, _ = ref_block_positivity_min(w, 4, seed, halves=former_halves)
        assert abs(value - former) <= SEESAW_FTOL, (params, seed)
        assert value >= least - 1e-12, (params, seed)
