import numpy as np
import pytest

from reebcut import (
    BindingChart,
    ComposedHamiltonian,
    ConjugatorSchedule,
    ConjugatorSpec,
    FlowSettings,
    PreconditionError,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    boundary_jet_check,
    build_conjugator,
    conjugated_stage,
    continued_fraction_convergents,
    contact_margin,
    extension_test,
    golden_mean_inverse,
    orbit_statistics,
    return_map,
    rigid_rotation_hamiltonian,
    stage_sequence,
)
from reebcut.binding import ExtensionSettings
from reebcut.pseudorotations import fd_weights
from reebcut.geometry import TWO_PI, polar_grid

from conftest import compact_disc_hamiltonian, random_disc_points


def rotation_matrix(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# ---------------------------------------------------------------------------
# convergents and the rigid family
# ---------------------------------------------------------------------------


def test_golden_mean_convergents():
    a = golden_mean_inverse()
    assert continued_fraction_convergents(a, 5) == [
        (1, 1), (1, 2), (2, 3), (3, 5), (5, 8)
    ]


def test_convergents_reject_rational():
    with pytest.raises(PreconditionError):
        continued_fraction_convergents(0.5, 3)
    with pytest.raises(PreconditionError):
        continued_fraction_convergents(7 / 64 + 1e-12, 3)


def test_rigid_rotation_values():
    H = rigid_rotation_hamiltonian(2, 1, 3)
    assert abs(H.value(0.0, np.array([1.0, 0.0])) - 2.0) <= 1e-15
    assert abs(H.value(0.0, np.array([0.0, 0.0])) - (2 + 1 / 3)) <= 1e-15


def test_rigid_rotation_return_map():
    H = rigid_rotation_hamiltonian(2, 1, 3)
    img = return_map(H, np.array([0.4, 0.0]))
    expected = 0.4 * np.array([np.cos(TWO_PI / 3), np.sin(TWO_PI / 3)])
    assert np.max(np.abs(img - expected)) <= 1e-10


def test_rigid_rotation_margin(rng):
    H = rigid_rotation_hamiltonian(2, 1, 3)
    pts = random_disc_points(rng, 200, r_max=1.0, r_min=0.0)
    margins = contact_margin(H, 0.0, pts)
    # H - r dH/dr / 2 = h + p/q identically
    assert np.max(np.abs(margins - (2 + 1 / 3))) <= 1e-12
    assert np.min(margins) > 2 - 1 / 3


def test_rigid_rotation_rejects_bad_slope():
    with pytest.raises(PreconditionError):
        rigid_rotation_hamiltonian(1, -7, 5)


# ---------------------------------------------------------------------------
# conjugators
# ---------------------------------------------------------------------------


def test_conjugator_zero_amplitude_is_identity(rng):
    spec = ConjugatorSpec(amplitude=0.0)
    phi = build_conjugator(spec, steps=50)
    pts = random_disc_points(rng, 30)
    assert np.max(np.abs(phi(pts) - pts)) == 0.0


def test_conjugator_round_trip_and_area(stage_2_1_3, rng):
    phi = stage_2_1_3.conjugator
    pts = random_disc_points(rng, 100, r_max=0.95)
    assert np.max(np.abs(phi.inverse(phi(pts)) - pts)) <= 1e-8
    jac = phi.jacobian(polar_grid(8, 12, r_max=0.95))
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-8


def test_conjugator_identity_near_boundary_and_center():
    spec = ConjugatorSpec(amplitude=0.2, delta=0.2, r_inner=0.2)
    phi = build_conjugator(spec, steps=100)
    theta = np.linspace(0, TWO_PI, 16, endpoint=False)
    for r in (0.05, 0.15, 0.82, 0.95):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.max(np.abs(phi(ring) - ring)) == 0.0


def test_conjugator_audit_runs():
    phi = build_conjugator(ConjugatorSpec(amplitude=0.1), audit=True)
    assert phi.audit["area_defect"] <= 1e-8
    assert phi.audit["round_trip"] <= 1e-8


# ---------------------------------------------------------------------------
# conjugated stages
# ---------------------------------------------------------------------------


def test_stage_identity_conjugator_is_rigid(rng):
    stage = conjugated_stage(2, 1, 3, ConjugatorSpec(amplitude=0.0), w_grid=256)
    pts = random_disc_points(rng, 20, r_max=0.8)
    rigid = RigidRotationHamiltonian(2, 1, 3)
    assert np.max(np.abs(stage.hamiltonian.value(0.0, pts)
                         - rigid.value(0.0, pts))) <= 1e-9


def test_stage_tail_identity_bitwise(stage_2_1_3):
    H = stage_2_1_3.hamiltonian
    rigid = RigidRotationHamiltonian(2, 1, 3)
    theta = np.linspace(0, TWO_PI, 48, endpoint=False)
    for r in (0.8001, 0.87, 0.95, 0.999):
        ring = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        assert np.array_equal(H.value(0.0, ring), rigid.value(0.0, ring))


def test_stage_conjugation_invariance(stage_2_1_3, rng, fast_flow):
    H = stage_2_1_3.hamiltonian
    phi = stage_2_1_3.conjugator
    pts = random_disc_points(rng, 200, r_max=0.96)
    flow_img = return_map(H, pts, fast_flow)
    oracle = phi(phi.inverse(pts) @ rotation_matrix(TWO_PI / 3).T)
    assert np.max(np.abs(flow_img - oracle)) <= 1e-6


def test_stage_extension_limit(stage_2_1_3):
    rep = extension_test(stage_2_1_3.hamiltonian, BindingChart(h=2),
                         ExtensionSettings(expected_a=1 / 3))
    assert rep.passed
    assert abs(rep.f0 - 2 * (2 + 1 / 3)) <= 1e-8
    assert np.max(np.abs(rep.f_rhorho_at_zero + 2 * (2 + 1 / 3))) <= 1e-6


def test_stage_rejects_support_violation():
    # a conjugator whose support reaches past the claimed margin
    spec_wide = ConjugatorSpec(amplitude=0.2, delta=0.05)
    phi = build_conjugator(spec_wide, steps=60)
    with pytest.raises(PreconditionError):
        conjugated_stage(2, 1, 3, ConjugatorSpec(amplitude=0.2, delta=0.4),
                         phi=phi, w_grid=128)


# ---------------------------------------------------------------------------
# stage sequences
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_sequence():
    return stage_sequence(
        golden_mean_inverse(), 3, h=2,
        schedule=ConjugatorSchedule(amplitude0=0.1),
        settings=FlowSettings(step=TWO_PI / 500),
        w_grid=384,
    )


def test_sequence_stages_pass_audits(golden_sequence):
    for stage in golden_sequence.stages:
        d = stage.diagnostics
        assert d["contact"]["pass"]
        assert d["extension_pass"]
        assert d["area_defect"] <= 1e-6


def test_sequence_f0_values(golden_sequence):
    a = golden_mean_inverse()
    for f0, expected in zip(golden_sequence.f0_values,
                            golden_sequence.f0_expected):
        assert abs(f0 - expected) <= 1e-8
    gaps = [abs(f0 - 2 * (2 + a)) for f0 in golden_sequence.f0_values]
    assert gaps[-1] < gaps[0]


def test_sequence_periodic_points(golden_sequence):
    for stage in golden_sequence.stages:
        assert stage.q in stage.diagnostics["periodic_periods"]


def test_sequence_difference_norms_decay(golden_sequence):
    c0 = [d[0] for d in golden_sequence.difference_norms]
    assert all(n >= 0 for n in c0)
    ratios = [b / a for a, b in zip(c0[:-1], c0[1:]) if a > 0]
    assert all(r <= 0.75 for r in ratios)


def test_sequence_rejects_rational_target():
    with pytest.raises(PreconditionError):
        stage_sequence(0.25, 3, h=2)


# ---------------------------------------------------------------------------
# boundary jets
# ---------------------------------------------------------------------------


def test_fd_weights_reproduce_derivatives():
    nodes = np.array([0.0, -0.1, -0.2, -0.3, -0.4])
    w = fd_weights(nodes, 0.0, 2)
    # exact on cubics: f = x^3 + 2x^2: f'' (0) = 4
    vals = nodes**3 + 2 * nodes**2
    assert abs(w @ vals - 4.0) <= 1e-10


def test_boundary_jets_exact_tail():
    H = RigidRotationHamiltonian(2, 1, 3)
    defects = boundary_jet_check(H, a=1 / 3, order=4)
    assert all(d <= 1e-8 for d in defects)


def test_boundary_jets_quadratic_model():
    a0 = 2.6
    H = QuadraticHamiltonian(a0, 3 - a0)
    defects = boundary_jet_check(H, a=a0 - 3, order=3)
    assert all(d <= 1e-8 for d in defects)


def test_boundary_jets_detect_mismatched_limit():
    # checking a stage against the limit a instead of its own p/q shows a
    # second-order defect ~ 2 |a - p/q|
    H = RigidRotationHamiltonian(2, 2, 3)
    a = golden_mean_inverse()
    defects = boundary_jet_check(H, a=a, order=2)
    gap = abs(2 / 3 - a)
    assert abs(defects[2] - 2 * gap) <= 1e-6
    assert abs(defects[1] - 2 * gap) <= 1e-6


# ---------------------------------------------------------------------------
# orbit statistics
# ---------------------------------------------------------------------------


def test_orbit_statistics_rigid_three_points(fast_flow):
    H = RigidRotationHamiltonian(2, 1, 3)
    # start away from bin edges: orbit angles land at 0.4 + 2 pi k/3
    p0 = 0.5 * np.array([np.cos(0.4), np.sin(0.4)])
    stats = orbit_statistics(H, p0, iterations=30,
                             bins=36, settings=fast_flow)
    occupied = np.count_nonzero(stats.theta_histogram[0])
    assert occupied == 3
    assert np.max(np.abs(stats.radii - 0.5)) <= 1e-8
    assert abs(stats.birkhoff_r2[-1] - 0.25) <= 1e-8


def test_orbit_statistics_fixed_center(fast_flow):
    H = RigidRotationHamiltonian(2, 1, 3)
    stats = orbit_statistics(H, np.array([0.0, 0.0]), iterations=5,
                             settings=fast_flow)
    assert np.max(stats.radii) <= 1e-12


def test_orbit_statistics_near_uniform_angles(fast_flow):
    # a large denominator distributes angles almost uniformly
    H = RigidRotationHamiltonian(2, 13, 34)
    stats = orbit_statistics(H, np.array([0.4, 0.0]), iterations=340,
                             bins=17, settings=fast_flow)
    counts = stats.theta_histogram[0]
    assert counts.min() > 0
    assert counts.max() - counts.min() <= 0.2 * counts.mean() + 2


def test_orbit_statistics_rejects_huge_n():
    H = RigidRotationHamiltonian(2, 1, 3)
    with pytest.raises(PreconditionError):
        orbit_statistics(H, np.array([0.1, 0.0]), iterations=2_000_000)


# ---------------------------------------------------------------------------
# the composition law
# ---------------------------------------------------------------------------


def test_composition_law():
    rng = np.random.default_rng(77)
    K = compact_disc_hamiltonian(amp=0.05)
    H2 = RigidRotationHamiltonian(2, 1, 2)
    composite = ComposedHamiltonian(K, H2)
    pts = random_disc_points(rng, 100, r_max=0.85)
    flow_settings = FlowSettings(step=TWO_PI / 500)
    left = return_map(composite, pts, flow_settings)
    right = return_map(K, return_map(H2, pts, flow_settings), flow_settings)
    assert np.max(np.abs(left - right)) <= 1e-5


def test_composition_law_time_dependent():
    rng = np.random.default_rng(78)
    K = compact_disc_hamiltonian(amp=0.04, angular=0.0,
                                 time_factor=lambda s: np.cos(s))
    H2 = QuadraticHamiltonian(1.7, 0.3)
    composite = ComposedHamiltonian(K, H2)
    pts = random_disc_points(rng, 30, r_max=0.8)
    flow_settings = FlowSettings(step=TWO_PI / 500)
    left = return_map(composite, pts, flow_settings)
    right = return_map(K, return_map(H2, pts, flow_settings), flow_settings)
    assert np.max(np.abs(left - right)) <= 1e-5


def test_composed_slice_cache_survives_backward_step():
    K = compact_disc_hamiltonian(amp=0.05)
    composite = ComposedHamiltonian(K, RigidRotationHamiltonian(2, 1, 2),
                                    n_slices=32, grid_n=21)
    for j in range(5, 30):
        composite._slice(j)
    # a backward step after a forward sweep used to evict its own slice
    spline, _, _ = composite._slice(2)
    ax = composite._ax
    assert spline(ax[7], ax[12], grid=False) == pytest.approx(
        composite._w2[2][7, 12], abs=1e-12)
    assert 2 in composite._splines and len(composite._splines) == 16


def test_orbit_statistics_aborts_on_escape(fast_flow):
    # a Hamiltonian that is not tangent to the boundary pushes orbits out
    from reebcut import CallableHamiltonian

    H = CallableHamiltonian(
        lambda s, xy: 2.0 + xy[..., 0], 2.0,
        grad_fn=lambda s, xy: np.stack(
            [np.ones(xy.shape[:-1]), np.zeros(xy.shape[:-1])], axis=-1),
        time_dependent=False,
    )
    stats = orbit_statistics(H, np.array([0.0, -0.99]), iterations=50,
                             settings=fast_flow)
    assert stats.aborted
    assert stats.completed < 50
