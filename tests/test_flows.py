import warnings

import numpy as np
import pytest

from reebcut import (
    ConfigurationError,
    ConjugatorSpec,
    FlowSettings,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    area_preservation_audit,
    conjugated_stage,
    integrate_isotopy,
    linearized_return,
    periodic_point_scan,
    reeb_period,
    return_map,
    return_map_report,
)
from reebcut import flows
from reebcut.flows import PeriodicPointRecord
from reebcut.geometry import TWO_PI, polar_grid

from conftest import (SQRT2, compact_disc_hamiltonian,
                      polynomial_defect_hamiltonian, radial_collar_hamiltonian,
                      random_disc_points)


def rotation_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def bitwise_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# integrate_isotopy / return_map
# ---------------------------------------------------------------------------


def test_rigid_rotation_full_period():
    H = RigidRotationHamiltonian(2, 1, 3)
    path = integrate_isotopy(H, np.array([0.5, 0.0]))
    expected = 0.5 * np.array([np.cos(TWO_PI / 3), np.sin(TWO_PI / 3)])
    assert np.max(np.abs(path.endpoint - expected)) <= 1e-10


def test_constant_hamiltonian_is_static():
    H = QuadraticHamiltonian(3.0, 0.0)
    path = integrate_isotopy(H, np.array([0.4, -0.2]))
    assert np.max(np.abs(path.points - path.points[0])) == 0.0


def test_self_convergence_richardson():
    # reference: Richardson extrapolation from a half-step run
    H = polynomial_defect_hamiltonian(3, 1.0, 0.1)
    p0 = np.array([0.3, 0.2])
    coarse = return_map(H, p0, FlowSettings(step=TWO_PI / 1000))
    fine = return_map(H, p0, FlowSettings(step=TWO_PI / 2000))
    reference = fine + (fine - coarse) / 15.0
    assert np.max(np.abs(fine - reference)) <= 1e-8


def test_rk4_order_four_decay():
    H = polynomial_defect_hamiltonian(3, 1.0, 0.5)
    p0 = np.array([0.45, 0.1])
    ref = return_map(H, p0, FlowSettings(step=TWO_PI / 8000))
    e1 = np.max(np.abs(return_map(H, p0, FlowSettings(step=TWO_PI / 250)) - ref))
    e2 = np.max(np.abs(return_map(H, p0, FlowSettings(step=TWO_PI / 500)) - ref))
    ratio = e1 / e2
    assert 16 * 0.7 <= ratio <= 16 * 1.3


# The oracle: scipy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5) on the state and the variational system together.  RK4's global
# error at the default step h is of order h^4 ~ 1e-10 times the field's
# higher derivatives; 10 h^4 bounds both the endpoint and J.  On the stage
# DOP853's own error is the larger one: the W-field is a quintic spline, so
# DX is only piecewise smooth, and unbounded DOP853 steps stride over many
# knots (J off by 2e-8, converging to RK4's J as the step cap shrinks).
# There its step is capped at four RK4 steps.
def _dop853_return(H, p, max_step=np.inf):
    from scipy.integrate import solve_ivp

    def rhs(s, state):
        jac = H.velocity_jacobian(s, state[:2]) @ state[2:].reshape(2, 2)
        return np.concatenate([H.velocity(s, state[:2]), jac.ravel()])

    sol = solve_ivp(rhs, (0.0, TWO_PI), np.concatenate([p, np.eye(2).ravel()]),
                    method="DOP853", rtol=1e-12, atol=1e-12, max_step=max_step)
    assert sol.success
    return sol.y[:2, -1], sol.y[2:, -1].reshape(2, 2)


@pytest.mark.parametrize("case", ["rigid", "quadratic", "compact", "defect",
                                  "stage"])
def test_rk4_agrees_with_dop853(case, request):
    H = {
        "rigid": lambda: RigidRotationHamiltonian(2, 1, 3),
        "quadratic": lambda: request.getfixturevalue("quadratic_sqrt2"),
        "compact": compact_disc_hamiltonian,
        "defect": lambda: polynomial_defect_hamiltonian(3, 1.0, 0.3),
        "stage": lambda: request.getfixturevalue("stage_2_1_3").hamiltonian,
    }[case]()
    max_step = 4 * FlowSettings().step if case == "stage" else np.inf
    tol = 10 * FlowSettings().step ** 4
    pts = np.array([[0.3, -0.4], [0.6, 0.1]])
    jac, end = linearized_return(H, pts, return_endpoint=True)
    for i, p in enumerate(pts):
        want_end, want_jac = _dop853_return(H, p, max_step)
        assert np.max(np.abs(return_map(H, p) - want_end)) <= tol
        assert np.max(np.abs(end[i] - want_end)) <= tol
        assert np.max(np.abs(jac[i] - want_jac)) <= tol


def test_center_fixed_point():
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    img = return_map(H, np.array([0.0, 0.0]))
    assert np.max(np.abs(img)) <= 1e-14


def test_quadratic_rotates_by_minus_a2():
    a2 = 2 - SQRT2
    H = QuadraticHamiltonian(SQRT2, a2)
    r = 0.62
    img = return_map(H, np.array([r, 0.0]))
    expected = r * np.array([np.cos(-TWO_PI * a2), np.sin(-TWO_PI * a2)])
    assert np.max(np.abs(img - expected)) <= 1e-9


def test_radial_hamiltonian_preserves_circles(rng):
    H = radial_collar_hamiltonian()
    pts = random_disc_points(rng, 40)
    img = return_map(H, pts)
    r_in = np.hypot(pts[:, 0], pts[:, 1])
    r_out = np.hypot(img[:, 0], img[:, 1])
    assert np.max(np.abs(r_in - r_out)) <= 1e-8


# ---------------------------------------------------------------------------
# linearized_return
# ---------------------------------------------------------------------------


def test_linearized_rigid_rotation(rng):
    H = RigidRotationHamiltonian(2, 1, 3)
    pts = random_disc_points(rng, 10, r_max=0.8)
    jac = linearized_return(H, pts)
    expected = rotation_matrix(TWO_PI / 3)
    assert np.max(np.abs(jac - expected)) <= 1e-9


def test_linearized_constant_is_identity():
    H = QuadraticHamiltonian(2.0, 0.0)
    jac = linearized_return(H, np.array([0.3, 0.1]))
    assert np.max(np.abs(jac - np.eye(2))) <= 1e-12


def test_linearized_quadratic_at_center():
    a2 = 0.55
    H = QuadraticHamiltonian(1.45, a2)
    jac = linearized_return(H, np.array([0.0, 0.0]))
    assert np.max(np.abs(jac - rotation_matrix(-TWO_PI * a2))) <= 1e-9


def test_linearized_determinant_is_one(rng):
    H = polynomial_defect_hamiltonian(3, 1.0, 0.2)
    pts = random_disc_points(rng, 30, r_max=0.9, r_min=0.15)
    jac = linearized_return(H, pts)
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-6


def _packed_linearized_return(H, p, settings):
    """The packed-state variational flow: (xy, J) as one six-column state,
    DX J by einsum, the fixed-step RK4 loop written out.  Returns (J, end)."""

    def velocity(s, state):
        xy = state[..., :2]
        jac = state[..., 2:].reshape(state.shape[:-1] + (2, 2))
        v = H.velocity(s, xy)
        dj = np.einsum("...ij,...jk->...ik", H.velocity_jacobian(s, xy), jac)
        return np.concatenate([v, dj.reshape(state.shape[:-1] + (4,))], axis=-1)

    xy = np.asarray(p, dtype=float)
    eye = np.broadcast_to(np.eye(2), xy.shape[:-1] + (2, 2))
    y = np.concatenate([xy, eye.reshape(xy.shape[:-1] + (4,))], axis=-1)
    n = max(1, int(np.ceil(TWO_PI / settings.step - 1e-12)))
    n += n % 2
    h = TWO_PI / n
    s = 0.0
    for i in range(n):
        k1 = velocity(s, y)
        k2 = velocity(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = 0.0 + (i + 1) * h
    return y[..., 2:].reshape(xy.shape[:-1] + (2, 2)), y[..., :2]


@pytest.fixture(scope="module")
def coarse_stage():
    spec = ConjugatorSpec(amplitude=0.12, delta=0.2, mode=2, r_inner=0.2)
    return conjugated_stage(2, 1, 3, spec, w_grid=128).hamiltonian


@pytest.mark.parametrize("case", ["rigid", "time_dependent", "defect", "stage"])
def test_linearized_return_matches_packed_state_bitwise(case, request, rng):
    H = {
        "rigid": lambda: RigidRotationHamiltonian(2, 1, 3),
        "time_dependent": lambda: compact_disc_hamiltonian(time_factor=np.cos),
        "defect": lambda: polynomial_defect_hamiltonian(3, 1.0, 0.3),
        "stage": lambda: request.getfixturevalue("coarse_stage"),
    }[case]()
    settings = FlowSettings(step=TWO_PI / 200)
    # the origin and the axes give exact zeros, whose signs count too
    pts = np.vstack([[[0.0, 0.0], [0.5, 0.0], [0.0, -0.4]],
                     random_disc_points(rng, 37, r_max=0.85)])
    for p in (pts, pts[4]):
        jac, end = linearized_return(H, p, settings, return_endpoint=True)
        want_jac, want_end = _packed_linearized_return(H, p, settings)
        assert bitwise_equal(jac, want_jac)
        assert bitwise_equal(end, want_end)


@pytest.mark.parametrize("audit", [
    lambda H, p, fs: linearized_return(H, p, fs),
    lambda H, p, fs: area_preservation_audit(H, p, fs),
    lambda H, p, fs: return_map_report(H, p, fs),
], ids=["linearized_return", "area_preservation_audit", "return_map_report"])
def test_variational_flow_rejects_adaptive_integrator(audit, fast_flow):
    # the adaptive pair is gone: asking for it fails at the settings, so the
    # variational flow is only ever run by RK4
    H = RigidRotationHamiltonian(2, 1, 3)
    p = np.array([[0.3, 0.0]])
    with pytest.raises(TypeError, match="integrator"):
        audit(H, p, FlowSettings(integrator="rk45"))
    assert fast_flow.integrator == "rk4"
    audit(H, p, fast_flow)


@pytest.mark.parametrize("radii", [(0.3, 0.6), (0.45,), ()])
def test_rotation_radii_batch_matches_single_point_maps(radii, fast_flow):
    H = RigidRotationHamiltonian(2, 1, 3)
    rep = return_map_report(H, polar_grid(2, 3), fast_flow, rotation_radii=radii)
    expected = []
    for r in radii:
        img = return_map(H, np.array([r, 0.0]), fast_flow)
        expected.append((float(r), float(np.arctan2(img[1], img[0]))))
    assert len(rep.rotation_by_radius) == len(radii)
    assert all(type(pair) is tuple for pair in rep.rotation_by_radius)
    assert bitwise_equal(np.reshape(rep.rotation_by_radius, (-1, 2)),
                         np.reshape(expected, (-1, 2)))


# ---------------------------------------------------------------------------
# reeb_period
# ---------------------------------------------------------------------------


def test_reeb_period_central_orbit():
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    path = integrate_isotopy(H, np.array([0.0, 0.0]))
    assert abs(reeb_period(H, path) - TWO_PI * SQRT2) <= 1e-10


def test_reeb_period_constant_hamiltonian():
    H = QuadraticHamiltonian(3.0, 0.0)
    path = integrate_isotopy(H, np.array([0.25, -0.4]))
    assert abs(reeb_period(H, path) - TWO_PI * 3.0) <= 1e-10


def test_reeb_period_rigid_rotation_closed_form():
    # alpha(R) = H + lambda(X) = h + p/q everywhere for a rigid rotation
    # (the pairing contributes +(p/q) r^2, cancelling the radial decay)
    H = RigidRotationHamiltonian(2, 1, 2)
    r = 0.5
    path = integrate_isotopy(H, np.array([r, 0.0]), s1=2 * TWO_PI)
    expected = 2 * TWO_PI * (2 + 0.5)
    assert abs(reeb_period(H, path) - expected) <= 1e-8


def test_reeb_period_requires_closed_path():
    H = RigidRotationHamiltonian(2, 1, 3)
    path = integrate_isotopy(H, np.array([0.5, 0.0]), s1=1.0)
    with pytest.raises(PreconditionError):
        reeb_period(H, path)


@pytest.mark.parametrize("s_values", [
    np.concatenate([np.linspace(0.0, 1.0, 5), np.linspace(1.5, TWO_PI, 6)]),
    np.linspace(0.0, TWO_PI, 8),                   # uniform, odd step count
], ids=["non_uniform", "odd_steps"])
def test_reeb_period_refuses_other_grids(s_values):
    # composite Simpson needs the integrator's grid; a hand-built path on
    # any other grid is refused, not integrated by another rule
    H = QuadraticHamiltonian(3.0, 0.0)
    points = np.tile([0.25, -0.4], (len(s_values), 1))
    with pytest.raises(PreconditionError, match="uniform"):
        reeb_period(H, flows.IsotopyPath(s_values, points))


# ---------------------------------------------------------------------------
# area audit and periodic scan
# ---------------------------------------------------------------------------


def test_area_audit_rigid_rotation(rng):
    H = RigidRotationHamiltonian(3, 2, 5)
    assert area_preservation_audit(H, random_disc_points(rng, 25)) <= 1e-10


def test_area_audit_constant():
    H = QuadraticHamiltonian(2.0, 0.0)
    assert area_preservation_audit(H, polar_grid(3, 8, r_max=0.9)) == 0.0


def test_periodic_scan_rigid_rotation():
    H = RigidRotationHamiltonian(2, 1, 3)
    grid = np.concatenate([np.zeros((1, 2)), polar_grid(3, 5, r_max=0.8,
                                                        include_center=False)])
    records = periodic_point_scan(H, 3, grid, tol=1e-6)
    assert len(records) == len(grid)
    periods = {tuple(np.round(r.point, 6)): r.period for r in records}
    assert periods[(0.0, 0.0)] == 1
    assert all(p == 3 for key, p in periods.items() if key != (0.0, 0.0))


def test_periodic_scan_identity_map():
    H = QuadraticHamiltonian(2.0, 0.0)
    grid = polar_grid(2, 4, r_max=0.7)
    records = periodic_point_scan(H, 2, grid, tol=1e-8)
    assert all(r.period == 1 for r in records)
    assert len(records) == len(grid)


def test_periodic_scan_conjugated_stage(stage_2_1_3, fast_flow):
    # period-3 points of phi o R_{1/3} o phi^{-1} live at phi(images);
    # verified against the direct composition oracle
    H = stage_2_1_3.hamiltonian
    phi = stage_2_1_3.conjugator
    grid = polar_grid(2, 4, r_max=0.75, include_center=False)
    records = periodic_point_scan(H, 3, grid, tol=1e-5, settings=fast_flow)
    assert len(records) == len(grid)
    assert all(r.period == 3 for r in records)
    rot = rotation_matrix(TWO_PI / 3)
    oracle = phi((phi.inverse(grid)) @ rot.T)
    flows = return_map(H, grid, fast_flow)
    assert np.max(np.abs(flows - oracle)) <= 1e-6


def _reference_refine(H, p0, k, settings, newton_steps, newton_tol):
    """Newton on psi^k - id for one point: the per-point reference."""
    p = np.array(p0, dtype=float)
    residual = None
    for _ in range(newton_steps):
        jac = np.eye(2)
        cur = p
        for _ in range(k):
            jstep, cur = flows.linearized_return(H, cur, settings,
                                                 return_endpoint=True)
            jac = jstep @ jac
        delta = cur - p
        residual = float(np.hypot(*delta))
        if residual < newton_tol:
            return PeriodicPointRecord(k, p, residual, converged=True)
        system = jac - np.eye(2)
        if abs(np.linalg.det(system)) < 1e-12:
            return PeriodicPointRecord(k, p, residual, converged=False)
        step = np.linalg.solve(system, delta)
        p = p - step
        if np.hypot(*p) > 1.0:
            p = p / np.hypot(*p)
    return PeriodicPointRecord(k, p, residual, converged=False)


def _reference_scan(H, max_period, grid, tol, settings, sizes,
                    newton_steps=10, newton_tol=1e-10):
    """The scan with one refinement per hit.  Returns the records and, for
    each hit, (k, linearized_return calls it made) as logged in ``sizes``."""
    pts = np.asarray(grid, dtype=float).reshape(-1, 2)
    found, per_hit = [], []
    remaining = np.arange(len(pts))
    current = pts.copy()
    for k in range(1, max_period + 1):
        if not len(remaining):
            break
        current = return_map(H, current, settings)
        res = np.sqrt(np.sum((current - pts[remaining]) ** 2, axis=-1))
        hits = res < tol
        for idx in np.nonzero(hits)[0]:
            before = len(sizes)
            found.append(_reference_refine(H, pts[remaining[idx]], k, settings,
                                           newton_steps, newton_tol))
            per_hit.append((k, len(sizes) - before))
        remaining = remaining[~hits]
        current = current[~hits]
    return found, per_hit


@pytest.mark.parametrize("case", ["rigid", "identity", "defect", "stage"])
def test_batched_refinement_matches_per_point_loop(case, monkeypatch, request,
                                                   fast_flow):
    grid = polar_grid(2, 4, r_max=0.75)
    if case == "rigid":
        H, max_period, tol = RigidRotationHamiltonian(2, 1, 3), 3, 1e-6
    elif case == "identity":
        H, max_period, tol = QuadraticHamiltonian(2.0, 0.0), 2, 1e-8
    elif case == "defect":
        # a loose scan tolerance makes Newton take real steps here
        H, max_period, tol = polynomial_defect_hamiltonian(2, 0.4, 0.3), 2, 0.3
    else:
        H, max_period, tol = request.getfixturevalue("stage_2_1_3").hamiltonian, 3, 1e-5
        grid = polar_grid(2, 4, r_max=0.75, include_center=False)

    sizes = []
    real = flows.linearized_return

    def counted(H, p, *args, **kwargs):
        sizes.append(len(np.reshape(p, (-1, 2))))
        return real(H, p, *args, **kwargs)

    monkeypatch.setattr(flows, "linearized_return", counted)
    expected, per_hit = _reference_scan(H, max_period, grid, tol, fast_flow, sizes)
    reference_points = sum(sizes)
    sizes.clear()
    records = periodic_point_scan(H, max_period, grid, tol=tol, settings=fast_flow)

    assert records
    assert [(r.period, r.converged) for r in records] == [
        (r.period, r.converged) for r in expected]
    for got, want in zip(records, expected):
        assert np.max(np.abs(got.point - want.point)) <= 1e-12
        assert abs(got.residual - want.residual) <= 1e-12
    # every Newton step costs k calls for all hits of period k together
    periods = {k for k, _ in per_hit}
    assert len(sizes) == sum(max(n for j, n in per_hit if j == k) for k in periods)
    assert sum(sizes) == reference_points


def test_refinement_reports_singular_points_unconverged():
    # psi^2 = id for a half turn, so Newton on psi^2 - id is singular at
    # every point; none converges before that shows with a 1e-20 target
    H = RigidRotationHamiltonian(2, 1, 2)
    grid = polar_grid(2, 4, r_max=0.7, include_center=False)
    records = periodic_point_scan(H, 2, grid, tol=1e-6, newton_tol=1e-20,
                                  settings=FlowSettings(step=TWO_PI / 200))
    assert len(records) == len(grid)
    assert all(r.period == 2 and not r.converged for r in records)
    assert np.array_equal(np.array([r.point for r in records]), grid)


def test_periodic_scan_rejects_large_period():
    H = RigidRotationHamiltonian(2, 1, 3)
    with pytest.raises(PreconditionError):
        periodic_point_scan(H, 65, polar_grid(2, 2))


def test_flow_settings_validation():
    with pytest.raises(ConfigurationError):
        FlowSettings(step=-0.1)


@pytest.mark.parametrize("field, value", [
    ("step", float("nan")), ("step", float("inf")),
])
def test_flow_settings_reject_non_finite(field, value):
    with pytest.raises(ConfigurationError):
        FlowSettings(**{field: value})


@pytest.mark.parametrize("field", ["integrator", "abs_tol", "rel_tol",
                                   "max_steps"])
def test_flow_settings_has_one_integrator(field):
    # RK4 is the only integrator: its name is fixed, and the adaptive
    # pair's settings are gone
    with pytest.raises(TypeError):
        FlowSettings(**{field: "rk45" if field == "integrator" else 1e-10})
    assert FlowSettings.integrator == FlowSettings().integrator == "rk4"


def test_return_map_rejects_non_finite_state(fast_flow):
    from reebcut.errors import IntegrationError

    H = RigidRotationHamiltonian(2, 1, 3)
    # rejected before the first step: no step runs, so nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            return_map(H, np.array([np.nan, 0.0]), fast_flow)
        with pytest.raises(IntegrationError):
            linearized_return(H, np.array([[0.1, 0.0], [0.2, np.inf]]), fast_flow)


# ---------------------------------------------------------------------------
# the one-point path in Python floats
# ---------------------------------------------------------------------------


def _stage_starts(H):
    edge = np.sqrt(H.w._switch2)
    assert edge * edge == H.w._switch2
    return np.array([
        [0.3, 0.2], [-0.45, 0.1], [0.12, -0.61], [0.5, -0.0], [-0.0, 0.35],
        [0.0, 0.0],                                  # the fixed center
        [0.9 * np.cos(2.0), 0.9 * np.sin(2.0)],      # the rigid tail
        [edge, 0.0], [0.0, -edge],                   # r^2 exactly on the switch
        [np.nextafter(edge, 0.0), 0.0],              # its neighbour inside
    ])


def test_single_point_float_path_matches_array_path(stage_2_1_3, fast_flow,
                                                     monkeypatch):
    H = stage_2_1_3.hamiltonian
    starts = _stage_starts(H)
    # the array path: a (1, 2) batch, and the recorded path of one point
    batch = [return_map(H, p[None], fast_flow)[0] for p in starts]
    recorded = [integrate_isotopy(H, p, settings=fast_flow).endpoint
                for p in starts]
    monkeypatch.setattr(flows, "_rk4_steps", lambda *a, **k: pytest.fail(
        "one unrecorded point must take the float path"))
    for p, b, r in zip(starts, batch, recorded):
        one = return_map(H, p, fast_flow)
        assert one.shape == (2,)
        assert bitwise_equal(one, b)
        assert bitwise_equal(one, r)


def test_single_point_float_path_refuses_bad_states(stage_2_1_3, fast_flow):
    from reebcut.errors import IntegrationError

    H = stage_2_1_3.hamiltonian
    with pytest.raises(IntegrationError, match="left the closed disc"):
        return_map(H, np.array([1.01, 0.0]), fast_flow)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([np.nan, 0.3], [0.2, np.inf]):
            with pytest.raises(IntegrationError, match="not finite"):
                return_map(H, np.array(bad), fast_flow)


def test_hamiltonians_without_point_velocity_keep_array_path(fast_flow):
    # the base class defines no point_velocity: the analytic families and
    # CallableHamiltonian integrate one point through velocity
    H = compact_disc_hamiltonian()
    assert not hasattr(H, "point_velocity")
    assert not hasattr(RigidRotationHamiltonian(2, 1, 3), "point_velocity")
    p = np.array([0.4, -0.3])
    assert bitwise_equal(return_map(H, p, fast_flow),
                         return_map(H, p[None], fast_flow)[0])
