import numpy as np
import pytest

from reebcut import (
    FlowSettings,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    area_preservation_audit,
    integrate_isotopy,
    linearized_return,
    periodic_point_scan,
    reeb_period,
    return_map,
)
from reebcut import flows
from reebcut.flows import PeriodicPointRecord
from reebcut.geometry import TWO_PI, polar_grid

from conftest import (SQRT2, polynomial_defect_hamiltonian,
                      radial_collar_hamiltonian, random_disc_points)


def rotation_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


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


def test_adaptive_integrator_agrees():
    H = polynomial_defect_hamiltonian(3, 1.0, 0.3)
    p0 = np.array([0.3, -0.4])
    fixed = return_map(H, p0)
    adaptive = return_map(H, p0, FlowSettings(integrator="rk45",
                                              abs_tol=1e-11, rel_tol=1e-11))
    assert np.max(np.abs(fixed - adaptive)) <= 1e-8


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
    from reebcut.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FlowSettings(step=-0.1)
    with pytest.raises(ConfigurationError):
        FlowSettings(abs_tol=0.0)
    with pytest.raises(ConfigurationError):
        FlowSettings(integrator="euler")


@pytest.mark.parametrize("field, value", [
    ("step", float("nan")), ("step", float("inf")), ("abs_tol", float("nan")),
    ("rel_tol", float("inf")), ("max_steps", 0),
])
def test_flow_settings_reject_non_finite(field, value):
    from reebcut.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FlowSettings(**{field: value})


def test_return_map_rejects_non_finite_state(fast_flow):
    from reebcut.errors import IntegrationError

    H = RigidRotationHamiltonian(2, 1, 3)
    with np.errstate(invalid="ignore"):
        with pytest.raises(IntegrationError):
            return_map(H, np.array([np.nan, 0.0]), fast_flow)
        with pytest.raises(IntegrationError):
            linearized_return(H, np.array([[0.1, 0.0], [0.2, np.inf]]), fast_flow)
