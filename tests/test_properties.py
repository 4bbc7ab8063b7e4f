"""Property tests: invariants checked on generated inputs with Hypothesis.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RectBivariateSpline

from reebcut.moser import _tensor_splines_ev


def _grid(draw, k):
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=k, max_size=k + 8))
    start = draw(st.floats(-5.0, 5.0))
    return start + np.cumsum([0.0] + steps)


@st.composite
def spline_batches(draw):
    kx, ky = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    x, y = _grid(draw, kx), _grid(draw, ky)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    splines = [RectBivariateSpline(x, y, rng.standard_normal((x.size, y.size)),
                                   kx=kx, ky=ky) for _ in range(2)]
    coord = st.one_of(st.floats(-20.0, 30.0), st.floats(allow_nan=True,
                                                        allow_infinity=True))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    return kx, ky, splines, np.array(pts, dtype=float).reshape(-1, 2)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spline_batches())
def test_shared_basis_evaluator_is_fitpack_bit_for_bit(batch):
    kx, ky, splines, pts = batch
    tx, ty = splines[0].get_knots()
    coefs = np.stack([sp.get_coeffs() for sp in splines])
    got = _tensor_splines_ev(tx, ty, kx, ky, coefs, pts[:, 0], pts[:, 1])
    for row, sp in zip(got, splines):
        want = sp.ev(pts[:, 0], pts[:, 1])
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
