"""Property tests: invariants checked on generated inputs with Hypothesis.

Runs are derandomized, so every run draws the same examples.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.interpolate import RectBivariateSpline

from reebcut.binding import BindingChart, phi_embed, phi_invert
from reebcut.errors import PreconditionError, ValidationError
from reebcut.flows import _rk4_steps, return_map
from reebcut.geometry import TWO_PI
from reebcut.hamiltonians import RigidRotationHamiltonian
from reebcut.moser import _tensor_splines_ev
from reebcut.pseudorotations import (_FLOW_BLOCK, ConjugatorSpec, DiscDiffeo,
                                     _share_bounds,
                                     continued_fraction_convergents, fd_weights)
from reebcut.reports import (_HAMILTONIAN_SCHEMA, _SCHEMAS, SCENARIOS,
                             RunConfig)

from conftest import compact_disc_hamiltonian, polynomial_defect_hamiltonian


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


# JSON-like scalars, as json.load returns them: NaN, +-Infinity and integers
# beyond the float range included
_NUMBERS = st.one_of(
    st.integers(-10, 10), st.sampled_from([10**400, -10**400]),
    st.integers(), st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SCALARS = st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=6))


def _blocks(draw, schema, values):
    """Some of the schema's keys, sometimes one unknown key, any values."""
    keys = draw(st.sets(st.sampled_from(sorted(schema))))
    block = {key: draw(values) for key in keys}
    if draw(st.booleans()):
        block[draw(st.text(max_size=6))] = draw(values)
    return block


@st.composite
def hamiltonian_blocks(draw):
    block = _blocks(draw, _HAMILTONIAN_SCHEMA, _NUMBERS)
    if draw(st.booleans()):
        block["type"] = draw(st.sampled_from(["quadratic", "rigid",
                                              "cosine-defect"]))
    return block


_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                    hamiltonian_blocks())


@st.composite
def parameter_blocks(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    return scenario, _blocks(draw, _SCHEMAS[scenario], _VALUES)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(parameter_blocks())
def test_config_parse_returns_or_raises_validation_error(case):
    # strict parsing is total: any other exception would reach the CLI as
    # a traceback instead of exit code 2
    scenario, raw = case
    try:
        config = RunConfig.parse(scenario, raw)
    except ValidationError:
        return
    assert config.scenario == scenario


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(1, 8))
def test_convergents_approximate_their_target(x, count):
    try:
        convergents = continued_fraction_convergents(x, count)
    except PreconditionError:
        reject()
    denominators = [q for _, q in convergents]
    assert len(convergents) == count
    assert all(a < b for a, b in zip(denominators, denominators[1:]))
    # exact rational arithmetic: the float x is itself a fraction
    for p, q in convergents:
        assert abs(Fraction(x) - Fraction(p, q)) < Fraction(1, q * q)


def _points_last_rk4_steps(velocity, y, s0, h, n_steps, velocity_jacobian,
                           record):
    """The variational RK4 with J carried as a (..., 2, 2) array, each
    entry of DX J formed as two products broadcast over the last axes."""

    def dxj(s, q, j):
        a = velocity_jacobian(s, q)
        return (a[..., :, 0, None] * j[..., None, 0, :]
                + a[..., :, 1, None] * j[..., None, 1, :])

    jac = np.broadcast_to(np.eye(2), y.shape[:-1] + (2, 2))
    ys, jacs = [y], [jac]
    s = s0
    for i in range(n_steps):
        k1, l1 = velocity(s, y), dxj(s, y, jac)
        q = y + 0.5 * h * k1
        k2, l2 = velocity(s + 0.5 * h, q), dxj(s + 0.5 * h, q, jac + 0.5 * h * l1)
        q = y + 0.5 * h * k2
        k3, l3 = velocity(s + 0.5 * h, q), dxj(s + 0.5 * h, q, jac + 0.5 * h * l2)
        q = y + h * k3
        k4, l4 = velocity(s + h, q), dxj(s + h, q, jac + h * l3)
        jac = jac + (h / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s0 + (i + 1) * h
        ys.append(y)
        jacs.append(jac)
    if record:
        return np.stack(ys), np.stack(jacs)
    return y, jac


_FLOW_HAMILTONIANS = {
    "defect": polynomial_defect_hamiltonian(3, 1.0, 0.3),
    "time-dependent": compact_disc_hamiltonian(amp=0.05, time_factor=np.cos),
}


def _plain_jacobian(H):
    # a test oracle returning DX as a fresh C-contiguous (..., 2, 2) array
    def velocity_jacobian(s, xy):
        hess = H.hessian(s, xy)
        out = np.empty(hess.shape)
        out[..., 0, 0] = 0.5 * hess[..., 1, 0]
        out[..., 0, 1] = 0.5 * hess[..., 1, 1]
        out[..., 1, 0] = -0.5 * hess[..., 0, 0]
        out[..., 1, 1] = -0.5 * hess[..., 0, 1]
        return out
    return velocity_jacobian


@st.composite
def variational_flows(draw):
    batch = draw(st.sampled_from([(), (st.integers(1, 6),),
                                  (st.integers(1, 4), st.integers(1, 4))]))
    shape = tuple(draw(n) for n in batch) + (2,)
    size = int(np.prod(shape[:-1], dtype=int))
    # polar draws inside r <= 0.85; exact zeros keep their signs in play
    r = draw(st.lists(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.85),
                      min_size=size, max_size=size))
    theta = draw(st.lists(st.sampled_from([0.0, np.pi / 2]) | st.floats(0.0, TWO_PI),
                          min_size=size, max_size=size))
    r, theta = np.array(r), np.array(theta)
    y = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return (y.reshape(shape), draw(st.sampled_from(sorted(_FLOW_HAMILTONIANS))),
            draw(st.sampled_from(["base", "plain"])),
            draw(st.floats(-0.5, 0.5)), draw(st.sampled_from([0.05, -0.03, TWO_PI / 200])),
            draw(st.integers(1, 5)), draw(st.booleans()))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(variational_flows())
def test_components_first_jacobian_is_points_last_bit_for_bit(case):
    y, name, oracle, s0, h, n_steps, record = case
    H = _FLOW_HAMILTONIANS[name]
    jacobian = H.velocity_jacobian if oracle == "base" else _plain_jacobian(H)
    got_y, got_j = _rk4_steps(H.velocity, y, s0, h, n_steps, jacobian, record)
    want_y, want_j = _points_last_rk4_steps(H.velocity, y, s0, h, n_steps,
                                            jacobian, record)
    lead = (n_steps + 1,) if record else ()
    assert got_j.shape == lead + y.shape[:-1] + (2, 2)
    assert got_j.flags.c_contiguous
    for got, want in ((got_y, want_y), (got_j, want_j)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# one RK4 step keeps each example cheap; the arithmetic per point, and so
# the bitwise claim, does not depend on the step count
_SHARE_FLOWS = {mode: DiscDiffeo(ConjugatorSpec(amplitude=0.2, mode=mode,
                                                phase=0.4).generator(), steps=1)
                for mode in (1, 2, 3)}


@st.composite
def share_flows(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.sampled_from([0, 1, k * _FLOW_BLOCK - 1, k * _FLOW_BLOCK + 1]))
    return (n, draw(st.integers(1, 4)), draw(st.sampled_from(sorted(_SHARE_FLOWS))),
            draw(st.sampled_from([1.0, -1.0])), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(share_flows())
def test_share_wise_flow_is_the_whole_batch_flow(case):
    # in-process, through the share function the forked workers run
    n, count, mode, sign, want_jacobian, seed = case
    phi = _SHARE_FLOWS[mode]
    flat = np.random.default_rng(seed).uniform(-0.95, 0.95, (n, 2))
    shares = _share_bounds(n, count)
    assert [lo for lo, _ in shares[1:]] == [hi for _, hi in shares[:-1]]
    assert shares[0][0] == 0 and shares[-1][1] == n
    sizes = [hi - lo for lo, hi in shares]
    assert max(sizes) - min(sizes) <= 1

    def flow(bounds):
        parts = [phi._flow_share(flat[lo:hi], sign, want_jacobian)
                 for lo, hi in bounds]
        return [np.concatenate(p) for p in zip(*parts) if p[0] is not None]

    for got, want in zip(flow(shares), flow([(0, n)])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def rigid_cases(draw):
    q = draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3)])) + (2,)
    return (draw(st.integers(1, 4)), draw(st.integers(1, q)), q, shape,
            draw(st.integers(0, 2**32 - 1)))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(rigid_cases())
def test_rigid_return_map_is_the_rotation(case):
    # the time-2pi map of h + p/q - (p/q) r^2 turns every point by 2 pi p/q;
    # RK4 at the default 2000 steps per period lags the angle by about
    # (2 pi p / 2000 q)^5 / 120 a step, at most 5e-12 over the period
    h, p, q, shape, seed = case
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(0.0, 0.98, shape[:-1]))
    t = rng.uniform(0.0, TWO_PI, shape[:-1])
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    img = return_map(RigidRotationHamiltonian(h, p, q), pts)
    turn = t + TWO_PI * p / q
    want = np.stack([r * np.cos(turn), r * np.sin(turn)], axis=-1)
    assert img.shape == pts.shape
    assert np.max(np.abs(img - want)) <= 1e-10
