"""Property tests: invariants checked on generated inputs with Hypothesis.

Runs are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.interpolate import RectBivariateSpline

from reebcut.binding import BindingChart, phi_embed, phi_invert
from reebcut.geometry import TWO_PI
from reebcut.moser import _tensor_splines_ev
from reebcut.pseudorotations import fd_weights


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


@st.composite
def stencils(draw):
    n = draw(st.integers(1, 7))
    gaps = draw(st.lists(st.floats(0.05, 0.5), min_size=n - 1, max_size=n - 1))
    nodes = draw(st.floats(-1.0, 1.0)) + np.cumsum([0.0] + gaps)
    nodes = np.array(draw(st.permutations(list(nodes))))
    coeffs = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                    max_size=n)))
    return nodes, draw(st.floats(-2.0, 2.0)), draw(st.integers(0, n - 1)), coeffs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(stencils())
def test_fd_weights_exact_on_polynomials(stencil):
    # n nodes differentiate every polynomial of degree < n exactly; the
    # bound is rounding, relative to the size of the terms summed
    nodes, x0, order, coeffs = stencil
    w = fd_weights(nodes, x0, order)
    values = P.polyval(nodes, coeffs)
    want = P.polyval(x0, P.polyder(coeffs, order))
    scale = np.abs(w) @ np.abs(values) + abs(want)
    assert abs(w @ values - want) <= 100 * np.finfo(float).eps * scale


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 8), st.floats(0.01, 0.99),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(0.0, TWO_PI, exclude_max=True),
       st.floats(0.0, TWO_PI, exclude_max=True))
def test_phi_chart_round_trip(h, eps, fraction, b, vartheta):
    chart = BindingChart(h=h, eps=eps)
    rho = fraction * chart.rho_max
    assume(0.0 < rho < chart.rho_max)
    s, xy = phi_embed(chart, b, rho, vartheta)
    b2, rho2, vartheta2 = phi_invert(chart, s, xy)
    # rho comes back through 1 - r, whose few ulps of 1 cost eps / rho
    assert abs(rho2 - rho) * rho <= 8 * np.finfo(float).eps
    assert abs(np.angle(np.exp(1j * (b2 - b)))) <= 1e-12
    assert vartheta2 == vartheta
