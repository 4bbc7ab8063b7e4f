import numpy as np
import pytest

from reebcut import (
    ConfigurationError,
    DiscPoint,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    SamplingGrid,
    SolidTorusPoint,
    contact_audit,
    contact_margin,
    cosine_defect_hamiltonian,
    hamiltonian_vector_field,
    liouville_pairing,
)
from reebcut.hamiltonians import (CallableHamiltonian, PullbackHamiltonian,
                                  check_s_periodicity, slice_weights)
from reebcut.geometry import TWO_PI, spectral_derivative

from conftest import SQRT2, compact_disc_hamiltonian, random_disc_points


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_disc_point_polar_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rng.uniform(1e-8, 1.0)
        theta = rng.uniform(0.0, TWO_PI)
        p = DiscPoint.from_polar(r, theta)
        assert abs(p.r - r) <= 1e-12
        assert abs((p.theta - theta + np.pi) % TWO_PI - np.pi) <= 1e-12


def test_disc_point_rejects_exterior():
    with pytest.raises(PreconditionError):
        DiscPoint(1.2, 0.3)


def test_solid_torus_point_normalizes_s():
    pt = SolidTorusPoint(7.0, DiscPoint(0.1, 0.2))
    assert 0.0 <= pt.s < TWO_PI
    assert abs(pt.s - (7.0 - TWO_PI)) < 1e-15


def test_spectral_derivative_exact_on_trig_polynomials():
    t = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    f = np.stack([np.sin(3 * t), np.cos(2 * t) + 0.5], axis=-1)
    df = np.stack([3 * np.cos(3 * t), -2 * np.sin(2 * t)], axis=-1)
    assert np.max(np.abs(spectral_derivative(f, axis=0) - df)) <= 1e-13
    d2 = spectral_derivative(f.T, order=2)
    assert np.max(np.abs(d2 - np.stack([-9 * np.sin(3 * t),
                                        -4 * np.cos(2 * t)]))) <= 1e-12


@pytest.mark.parametrize("n", [7, 8, 64, 65])
def test_spectral_derivative_matches_the_old_copies_bitwise(n):
    # the helper replaced copies that multiplied by k itself (order 1) and
    # by k**order; both must give the same bits
    def old(values, axis, order, power):
        k = 1.0j * np.fft.fftfreq(n, d=1.0 / n)
        k = k**order if power else k
        shape = [1] * values.ndim
        shape[axis] = n
        hat = np.fft.fft(values, axis=axis) * k.reshape(shape)
        return np.real(np.fft.ifft(hat, axis=axis))

    rng = np.random.default_rng(n)
    cases = [(rng.standard_normal((3, n)), -1, 1, True),
             (rng.standard_normal((3, n)), -1, 2, True),
             (rng.standard_normal(n), -1, 2, True),
             (rng.standard_normal((n, 4, 5)), 0, 1, False),
             (rng.standard_normal((n, 3)), 0, 1, False)]
    for values, axis, order, power in cases:
        got = spectral_derivative(values, axis=axis, order=order)
        want = old(values, axis, order, power)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_boundary_value_within_tolerance():
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    theta = np.linspace(0, TWO_PI, 64, endpoint=False)
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    for s in (0.0, 1.0, 4.0):
        assert np.max(np.abs(H.value(s, ring) - H.boundary_value)) <= 1e-10


def test_s_periodicity_check():
    H = QuadraticHamiltonian(1.0, 1.0)
    assert check_s_periodicity(H) <= 1e-10
    bad = CallableHamiltonian(lambda s, xy: np.full(xy.shape[:-1], s), 0.0)
    with pytest.raises(PreconditionError):
        check_s_periodicity(bad)


# ---------------------------------------------------------------------------
# hamiltonian_vector_field
# ---------------------------------------------------------------------------


def test_vector_field_quadratic_is_rotation():
    H = QuadraticHamiltonian(0.7, 1.3)
    p = DiscPoint(0.3, -0.5)
    X = hamiltonian_vector_field(H, 0.0, p)
    # X = -a2 d/dtheta = (a2 y, -a2 x)
    assert np.allclose(X, [1.3 * p.y, -1.3 * p.x], atol=1e-14)


def test_vector_field_constant_vanishes():
    H = QuadraticHamiltonian(3.0, 0.0)
    X = hamiltonian_vector_field(H, 0.5, DiscPoint(0.2, 0.9))
    assert np.allclose(X, 0.0)


def test_vector_field_against_symbolic_oracle():
    # independent symbolic-differentiation oracle for
    # H = h + (1 - r^2)(c + d cos theta)
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y", real=True)
    h_, c_, d_ = 3, 0.4, 0.7
    r = sympy.sqrt(x**2 + y**2)
    expr = h_ + (1 - r**2) * (c_ + d_ * x / r)
    gx = sympy.lambdify((x, y), sympy.diff(expr, x))
    gy = sympy.lambdify((x, y), sympy.diff(expr, y))

    H = cosine_defect_hamiltonian(h_, c_, d_)
    p = DiscPoint(0.5, 0.0)
    X = hamiltonian_vector_field(H, 0.0, p)
    expected = np.array([0.5 * gy(p.x, p.y), -0.5 * gx(p.x, p.y)])
    assert np.max(np.abs(X - expected)) <= 1e-9


def test_vector_field_definition_on_random_points(rng):
    # omega(X, .) = dH componentwise within 1e-8, for every built-in
    hams = [
        QuadraticHamiltonian(SQRT2, 2 - SQRT2),
        RigidRotationHamiltonian(2, 1, 3),
        cosine_defect_hamiltonian(3, 0.4, 0.2),
    ]
    pts = random_disc_points(rng, 1000, r_max=0.95, r_min=0.05)
    for H in hams:
        g = H.grad(0.0, pts)
        X = H.velocity(0.0, pts)
        # omega = 2 dx ^ dy: omega(X, .) = (-2 X_y) dx + (2 X_x) dy
        defect = np.stack([-2 * X[..., 1] - g[..., 0],
                           2 * X[..., 0] - g[..., 1]], axis=-1)
        assert np.max(np.abs(defect)) <= 1e-8


def _two_call_bump(t, t0, t1, order):
    # the compact fixture's bump before its value and derivative shared
    # one exp core: each order rebuilt the core
    u = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
    inside = (u > 1e-9) & (u < 1 - 1e-9)
    uc = np.where(inside, u, 0.5)
    core = np.exp(-1.0 / (uc * (1.0 - uc)) + 4.0)
    if order == 0:
        return np.where(inside, core, 0.0)
    dcore = core * (1.0 - 2.0 * uc) / (uc * (1.0 - uc)) ** 2 / (t1 - t0)
    return np.where(inside, dcore, 0.0)


@pytest.mark.parametrize("kw", [
    {}, {"amp": 0.05, "angular": 0.0, "t0": 0.01, "t1": 0.81},
    {"time_factor": np.cos},
])
def test_compact_fixture_grad_is_bitwise_unchanged(kw, rng):
    H = compact_disc_hamiltonian(**kw)
    amp, t0, t1 = kw.get("amp", 0.02), kw.get("t0", 0.04), kw.get("t1", 0.7744)
    angular = kw.get("angular", 0.4)
    pts = np.concatenate([
        [[0.0, 0.0], [-0.0, 0.5], [0.5, -0.0], [np.sqrt(t0), 0.0],
         [0.0, -np.sqrt(t1)], [0.99, 0.0]],
        random_disc_points(rng, 500, r_max=0.99, r_min=0.0),
    ])
    x, y = pts[:, 0], pts[:, 1]
    t = x * x + y * y
    w, wp = _two_call_bump(t, t0, t1, 0), _two_call_bump(t, t0, t1, 1)
    gx = amp * (wp * 2 * x * (1 + angular * x) + w * angular)
    gy = amp * (wp * 2 * y * (1 + angular * x))
    ref = np.stack([gx, gy], axis=-1)
    for s in (0.0, 1.3):
        want = ref * np.cos(s) if "time_factor" in kw else ref
        got = H.grad(s, pts)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# liouville_pairing
# ---------------------------------------------------------------------------


def test_pairing_quadratic_closed_form():
    H = QuadraticHamiltonian(0.9, 1.1)
    p = DiscPoint.from_polar(0.7, 1.23)
    assert abs(liouville_pairing(H, 0.0, p) + 1.1 * 0.49) <= 1e-12


def test_pairing_vanishes_at_origin():
    H = cosine_defect_hamiltonian(2, 0.3, 0.0)
    assert liouville_pairing(H, 0.0, DiscPoint(0.0, 0.0)) == 0.0


def test_pairing_rigid_rotation_boundary():
    H = RigidRotationHamiltonian(2, 1, 3)
    p = DiscPoint.from_polar(1.0, 0.77)
    assert abs(liouville_pairing(H, 0.0, p) - 1.0 / 3.0) <= 1e-12


def test_pairing_is_direct_lambda_of_field(rng):
    # lambda(X) computed via r^2 dtheta applied to X, away from the origin
    H = cosine_defect_hamiltonian(3, 0.5, 0.3)
    pts = random_disc_points(rng, 200, r_max=0.95, r_min=0.1)
    X = H.velocity(0.0, pts)
    lam = pts[..., 0] * X[..., 1] - pts[..., 1] * X[..., 0]
    assert np.max(np.abs(lam - liouville_pairing(H, 0.0, pts))) <= 1e-9


def test_pairing_equals_radial_derivative_identity(rng):
    # lambda(X) = -(r/2) dH/dr on analytic oracles
    H = QuadraticHamiltonian(1.3, 0.7)
    pts = random_disc_points(rng, 300)
    g = H.grad(0.0, pts)
    radial = pts[..., 0] * g[..., 0] + pts[..., 1] * g[..., 1]
    assert np.max(np.abs(liouville_pairing(H, 0.0, pts) + 0.5 * radial)) <= 1e-9


# ---------------------------------------------------------------------------
# contact_margin and contact_audit
# ---------------------------------------------------------------------------


def test_margin_quadratic_is_a0(rng):
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    pts = random_disc_points(rng, 50)
    assert np.max(np.abs(contact_margin(H, 0.0, pts) - SQRT2)) <= 1e-12


def test_margin_constant_hamiltonian():
    H = QuadraticHamiltonian(4.0, 0.0)
    assert abs(contact_margin(H, 0.0, DiscPoint(0.3, 0.3)) - 4.0) <= 1e-14


def test_margin_rigid_rotation_boundary():
    # H + lambda(X) at r = 1 is h + p/q: the boundary value of H plus the
    # pairing p/q, exactly the orbit-slope margin of the collapsed action
    H = RigidRotationHamiltonian(2, 1, 3)
    p = DiscPoint.from_polar(1.0, 0.2)
    assert abs(contact_margin(H, 0.0, p) - (2.0 + 1.0 / 3.0)) <= 1e-12


def test_margin_additive_constant(rng):
    base = cosine_defect_hamiltonian(3, 0.5, 0.2)
    shifted = cosine_defect_hamiltonian(3 + 2.5, 0.5, 0.2)
    pts = random_disc_points(rng, 100)
    m0 = contact_margin(base, 0.0, pts)
    m1 = contact_margin(shifted, 0.0, pts)
    assert np.max(np.abs(m1 - m0 - 2.5)) <= 1e-9


def test_margin_agrees_with_radial_form(rng):
    H = cosine_defect_hamiltonian(3, 1.0, 0.1)
    pts = random_disc_points(rng, 64, r_max=0.99, r_min=0.05)
    g = H.grad(0.0, pts)
    r_dr = pts[..., 0] * g[..., 0] + pts[..., 1] * g[..., 1]
    alt = H.value(0.0, pts) - 0.5 * r_dr
    assert np.max(np.abs(contact_margin(H, 0.0, pts) - alt)) <= 1e-9


def test_contact_audit_constant_margin():
    rep = contact_audit(QuadraticHamiltonian(SQRT2, 2 - SQRT2))
    assert rep.passed
    assert abs(rep.min_margin - SQRT2) <= 1e-10
    assert rep.boundary_slope_max < 2 * rep.boundary_value


def test_contact_audit_detects_violation():
    h = 2
    rep = contact_audit(QuadraticHamiltonian(-0.1, h + 0.1),
                        SamplingGrid(8, 16, 16))
    assert not rep.passed
    assert abs(rep.min_margin + 0.1) <= 1e-10


def test_contact_audit_grid_minimization():
    rep = contact_audit(cosine_defect_hamiltonian(3, 1.0, 0.1),
                        SamplingGrid(8, 32, 32))
    # closed form: margin = 4 + 0.1 cos(theta) >= 3.9
    assert rep.passed
    assert abs(rep.min_margin - 3.9) <= 1e-6


def test_contact_audit_fails_on_nan():
    # the quadratic model of test_contact_audit_constant_margin, broken to
    # NaN where x > 0.5 on the later s-slices only
    a0, a2 = SQRT2, 2 - SQRT2

    def broken(s, xy):
        return np.where((s >= np.pi) & (xy[..., 0] > 0.5), np.nan, 1.0)

    H = CallableHamiltonian(
        lambda s, xy: broken(s, xy) * (a0 + a2 * np.sum(xy**2, axis=-1)),
        a0 + a2,
        grad_fn=lambda s, xy: broken(s, xy)[..., None] * (2.0 * a2 * xy),
    )
    rep = contact_audit(H, SamplingGrid(8, 16, 16))
    assert np.isnan(rep.min_margin) and np.isnan(rep.boundary_slope_max)
    assert not rep.passed


def test_contact_audit_rejects_coarse_grid():
    with pytest.raises(ConfigurationError):
        SamplingGrid(4, 64, 64)


# ---------------------------------------------------------------------------
# pullbacks
# ---------------------------------------------------------------------------


def test_pullback_chain_rule(rng, stage_2_1_3):
    # for area-preserving phi: X_{H o phi} = Dphi^{-1} (X o phi)
    phi = stage_2_1_3.conjugator
    H = QuadraticHamiltonian(1.1, 0.9)
    HoPhi = PullbackHamiltonian(H, phi)
    pts = random_disc_points(rng, 60, r_max=0.85)
    X_pull = HoPhi.velocity(0.0, pts)
    X_base = H.velocity(0.0, phi(pts))
    inv_jac = phi.inverse_jacobian(phi(pts))
    expected = np.einsum("...ij,...j->...i", inv_jac, X_base)
    assert np.max(np.abs(X_pull - expected)) <= 1e-6


def test_oracle_failure_carries_location():
    from reebcut.errors import EvaluationError

    def broken(s, xy):
        raise RuntimeError("backend went away")

    H = CallableHamiltonian(broken, 1.0)
    with pytest.raises(EvaluationError) as err:
        H.value(0.7, np.array([0.1, 0.2]))
    assert err.value.s == 0.7
    assert err.value.point is not None


# ---------------------------------------------------------------------------
# cubic slice weights in s
# ---------------------------------------------------------------------------


def _old_slice_weights(s_nodes, s):
    """The four-node Lagrange loop each sliced Hamiltonian carried."""
    ds = s_nodes[1] - s_nodes[0]
    j = int(np.clip(np.floor(s / ds), 1, len(s_nodes) - 3))
    js = [j - 1, j, j + 1, j + 2]
    w = []
    for a in js:
        num = 1.0
        for b in js:
            if b != a:
                num *= (s - s_nodes[b]) / (s_nodes[a] - s_nodes[b])
        w.append(num)
    return js, w


def test_slice_weights_match_the_old_loop_bitwise():
    from types import SimpleNamespace

    from reebcut.moser import CanonicalHamiltonian
    from reebcut.pseudorotations import ComposedHamiltonian

    def same(got, want):
        return got[0] == want[0] and np.array_equal(
            np.array(got[1]).view(np.int64), np.array(want[1]).view(np.int64))

    s_nodes = np.linspace(0.0, TWO_PI, 33)
    stub = SimpleNamespace(s_nodes=s_nodes)
    mids = 0.5 * (s_nodes[1:] + s_nodes[:-1])
    # nodes (both ends among them), midpoints and the canonical wrap; the
    # canonical Hamiltonian wraps s mod 2pi first, the composite does not
    for s in list(s_nodes) + list(mids):
        want = _old_slice_weights(s_nodes, float(s))
        assert same(slice_weights(s_nodes, float(s)), want)
        assert same(ComposedHamiltonian._s_weights(stub, s), want)
    for s in list(s_nodes) + list(mids) + [TWO_PI + 0.3, -0.2]:
        want = _old_slice_weights(s_nodes, float(s) % TWO_PI)
        assert same(CanonicalHamiltonian._s_weights(stub, s), want)
