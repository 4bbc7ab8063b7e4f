import json

import numpy as np
import pytest

from reebcut import (
    BindingChart,
    ConfigurationError,
    ExtensionSettings,
    PreconditionError,
    QuadraticHamiltonian,
    QuotientMapSpec,
    ResolutionError,
    RigidRotationHamiltonian,
    adapted_collar_g,
    binding_function_f,
    cosine_defect_hamiltonian,
    extended_contact_audit,
    extension_test,
    phi_embed,
    phi_invert,
    pullback_residual,
    quotient_map,
)
from reebcut import invariants, reports
from reebcut.binding import PolarFunction, make_f_tilde, primitive_change_audit
from reebcut.geometry import TWO_PI, wrap_angle
from reebcut.hamiltonians import CallableHamiltonian, check_s_periodicity
from reebcut.pseudorotations import (_stage_extension_settings,
                                     boundary_jet_check, conjugated_stage)

from conftest import SQRT2, radial_collar_hamiltonian


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------


def test_phi_embed_boundary_circle():
    chart = BindingChart(h=2)
    s, xy = phi_embed(chart, b=1.0, rho=0.0, vartheta=0.5)
    assert abs(s - 0.5) < 1e-15
    assert abs(np.hypot(*xy) - 1.0) < 1e-15
    theta = np.arctan2(xy[1], xy[0])
    assert abs(wrap_angle(theta) - wrap_angle(1.0 - 2 * 0.5)) < 1e-12


def test_phi_embed_direct_substitution():
    chart = BindingChart(h=2, eps=0.3)
    s, xy = phi_embed(chart, 0.0, 0.5, 0.0)
    assert s == 0.0
    assert np.allclose(xy, [0.75, 0.0])


def test_phi_round_trip(rng):
    chart = BindingChart(h=3)
    b = rng.uniform(0, TWO_PI, 50)
    rho = rng.uniform(1e-3, chart.rho_max * 0.99, 50)
    vt = rng.uniform(0, TWO_PI, 50)
    s, xy = phi_embed(chart, b, rho, vt)
    b2, rho2, vt2 = phi_invert(chart, s, xy)
    assert np.max(np.abs(rho - rho2)) <= 1e-12
    assert np.max(np.abs(np.angle(np.exp(1j * (b - b2))))) <= 1e-12
    assert np.max(np.abs(np.angle(np.exp(1j * (vt - vt2))))) <= 1e-12


def test_phi_rejects_out_of_chart():
    chart = BindingChart(h=1, eps=0.25)
    with pytest.raises(PreconditionError):
        phi_embed(chart, 0.0, 0.6, 0.0)


# ---------------------------------------------------------------------------
# the binding function
# ---------------------------------------------------------------------------


def test_f_quadratic_closed_form(rng):
    h = 2
    H = QuadraticHamiltonian(SQRT2, h - SQRT2)
    chart = BindingChart(h=h)
    b = rng.uniform(0, TWO_PI, 20)
    rho = rng.uniform(1e-3, 0.49, 20)
    vt = rng.uniform(0, TWO_PI, 20)
    f = binding_function_f(H, chart, b, rho, vt)
    assert np.max(np.abs(f - SQRT2 * (2 - rho**2))) <= 1e-12


def test_f_rigid_rotation_closed_form(rng):
    H = RigidRotationHamiltonian(2, 1, 3)
    chart = BindingChart(h=2)
    rho = rng.uniform(0.01, 0.45, 30)
    f = binding_function_f(H, chart, 0.3, rho, 1.2)
    assert np.max(np.abs(f - (2 + 1 / 3) * (2 - rho**2))) <= 1e-11


def test_f_cosine_defect_closed_form(rng):
    h, c, d = 3, 0.4, 0.7
    H = cosine_defect_hamiltonian(h, c, d)
    chart = BindingChart(h=h)
    b = rng.uniform(0, TWO_PI, 25)
    rho = rng.uniform(0.01, 0.45, 25)
    vt = rng.uniform(0, TWO_PI, 25)
    f = binding_function_f(H, chart, b, rho, vt)
    expected = (2 - rho**2) * (h + c + d * np.cos(b - h * vt))
    assert np.max(np.abs(f - expected)) <= 1e-10


def test_f_rejects_rho_zero():
    H = QuadraticHamiltonian(1.0, 1.0)
    with pytest.raises(PreconditionError):
        binding_function_f(H, BindingChart(h=2), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# extension verdicts
# ---------------------------------------------------------------------------


def test_extension_passes_quadratic():
    h = 2
    rep = extension_test(QuadraticHamiltonian(SQRT2, h - SQRT2),
                         BindingChart(h=h))
    assert rep.passed
    assert abs(rep.f0 - 2 * SQRT2) <= 1e-8
    assert rep.direction_spread <= 1e-9
    assert np.max(np.abs(rep.f_rho_at_zero)) <= 1e-7
    assert np.max(np.abs(rep.f_rhorho_at_zero + 2 * SQRT2)) <= 1e-6


def test_extension_passes_all_assumption_fixtures():
    fixtures = [
        RigidRotationHamiltonian(2, 1, 3),
        RigidRotationHamiltonian(3, 2, 5),
        radial_collar_hamiltonian(3, 0.7),
        cosine_defect_hamiltonian(3, 0.6, 0.0),
    ]
    for H in fixtures:
        h = int(round(H.boundary_value))
        rep = extension_test(H, BindingChart(h=h))
        assert rep.passed, f"{H} should extend"


@pytest.mark.parametrize("d", [0.1, 0.5])
def test_extension_fails_at_c0_for_angular_collar(d):
    h, c = 3, 0.4
    rep = extension_test(cosine_defect_hamiltonian(h, c, d), BindingChart(h=h))
    assert not rep.passed
    assert not rep.verdicts[0].passed
    assert abs(rep.direction_spread - 2 * d) <= 0.01 * 2 * d
    assert abs(rep.f0 - 2 * (h + c)) <= 1e-6


def test_extension_rigid_stage_jets():
    H = RigidRotationHamiltonian(2, 1, 3)
    rep = extension_test(H, BindingChart(h=2),
                         ExtensionSettings(expected_a=1 / 3))
    assert rep.passed
    assert np.max(np.abs(rep.f_rhorho_at_zero + 2 * (2 + 1 / 3))) <= 1e-6
    assert rep.model_jet_defects["f0"] <= 1e-8
    assert rep.model_jet_defects["f_rho"] <= 1e-7


def test_extension_effective_a():
    H = RigidRotationHamiltonian(2, 1, 3)
    rep = extension_test(H, BindingChart(h=2))
    assert abs(rep.effective_a - 1 / 3) <= 1e-8


def test_extension_shift_invariance(rng):
    # b- and vartheta-shifts leave the verdict data unchanged for radial H
    H = radial_collar_hamiltonian(2, 0.5)
    chart = BindingChart(h=2)
    rep = extension_test(H, chart)
    assert rep.direction_spread <= 1e-9
    spread_b = np.max(rep.f0_samples, axis=0) - np.min(rep.f0_samples, axis=0)
    assert np.max(spread_b) <= 1e-9


def test_extension_ladder_must_fit_chart():
    H = QuadraticHamiltonian(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        extension_test(H, BindingChart(h=2, eps=0.01))


@pytest.mark.parametrize("k_max", [5, 7, -1])
def test_extension_settings_reject_orders_without_verdicts(k_max):
    # the rho-jets reach order 4: a k_max past it would pass on orders no
    # verdict checks
    with pytest.raises(ConfigurationError, match="k_max"):
        ExtensionSettings(k_max=k_max)


@pytest.mark.parametrize("H", [QuadraticHamiltonian(SQRT2, 2 - SQRT2),
                               cosine_defect_hamiltonian(2, 0.4, 0.5)])
def test_extension_verdict_orders_follow_k_max(H):
    # one verdict per order up to k_max; each is the same as in the
    # k_max = 4 run
    full = extension_test(H, BindingChart(h=2), ExtensionSettings(k_max=4))
    for k_max in range(5):
        rep = extension_test(H, BindingChart(h=2),
                             ExtensionSettings(k_max=k_max))
        orders = list(range(k_max + 1))
        assert [v.order for v in rep.verdicts] == orders
        assert ([v.to_dict() for v in rep.verdicts]
                == [v.to_dict() for v in full.verdicts[:len(orders)]])


def test_extension_order_pass_is_cumulative():
    h, d = 3, 0.5
    rep = extension_test(cosine_defect_hamiltonian(h, 0.4, d), BindingChart(h=h))
    assert all(not v.passed for v in rep.verdicts)


def _cut_check_report():
    # the README cut-check config: cosine defect h = 3, c = 0.4, d = 0.5
    return extension_test(cosine_defect_hamiltonian(3, 0.4, 0.5),
                          BindingChart(h=3, eps=0.25))


def _stage_report():
    stage = conjugated_stage(2, 1, 3, w_grid=64)
    return extension_test(stage.hamiltonian, BindingChart(h=2),
                          _stage_extension_settings(stage.delta))


@pytest.mark.parametrize("report", [_cut_check_report, _stage_report],
                         ids=["cut-check", "stage"])
def test_each_score_is_the_worst_part_and_passes_cumulatively(report):
    rep = report()
    for i, v in enumerate(rep.verdicts):
        assert v.score == max(v.detail.values())
        assert v.threshold == rep.settings.threshold(v.order)
        assert v.passed == (v.score <= v.threshold
                            and all(u.passed for u in rep.verdicts[:i]))


def _nan_at_s_pi(H):
    # time-dependent copy of H whose value is NaN on the slice s = pi, a
    # node of every s grid of 8 or 16 equal steps
    def value(s, xy):
        return np.where(s == np.pi, np.nan, H.value(s, xy))

    return CallableHamiltonian(value, H.boundary_value)


def _extension_c0_fails(model):
    # NaN where 1 - r^2 < 1e-8: the deepest rung of the default ladder
    # (1 - r^2 = 4.8e-9) and no other (1.9e-8 on the next)
    def value(s, xy):
        edge = 1.0 - np.sum(xy**2, axis=-1) < 1e-8
        return np.where(edge, np.nan, model.value(s, xy))

    H = CallableHamiltonian(value, model.boundary_value, time_dependent=False)
    rep = extension_test(H, BindingChart(h=2))
    n = ExtensionSettings().n_rungs
    assert (np.isnan(rep.lift_samples).any(axis=(0, 2)).tolist()
            == [False] * (n - 1) + [True])
    return not rep.verdicts[0].passed and not rep.passed


def _s_periodicity_fails(model):
    with pytest.raises(PreconditionError, match="periodic"):
        check_s_periodicity(_nan_at_s_pi(model))
    return True


def _boundary_jets_fail(model):
    defects = boundary_jet_check(_nan_at_s_pi(model), SQRT2 - 2)
    return bool(np.isnan(defects).all())


def _pullback_residual_fails(model):
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    return not pullback_residual(spec, _nan_at_s_pi(model), n_s=8) <= 1e-6


def _identity_margin_fails(model):
    # the moser report's identity margin (the model is not used) over a
    # displacement whose last row is NaN: every edge strip but the first
    # holds a NaN, and a builtin max keeps the first, 0
    real = reports.moser_flow

    def nan_last_row(*args, **kwargs):
        psi = real(*args, **kwargs)
        d = psi.displacement()
        d[-1] = np.nan
        psi.displacement = lambda: d
        return psi

    params = reports.RunConfig.parse("moser", {"n": 32}).params
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "moser_flow", nan_last_row)
        _, checks, _ = reports._run_moser(params, None)
    (margin,) = [c for c in checks if c["name"] == "identity_margin"]
    return np.isnan(margin["score"]) and not margin["pass"]


def _segment_ratio_fails(model):
    # a NaN point on the projected push-off makes the self-linking segment
    # ratio NaN, which must refuse the quadrature as unresolved
    real = invariants._project_from_farthest_pole

    def nan_point(curve_b, curve_push):
        p1, p2, pole = real(curve_b, curve_push)
        p2[0] = np.nan
        return p1, p2, pole

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_project_from_farthest_pole", nan_point)
        with pytest.raises(ResolutionError, match="nan segments apart"):
            invariants.self_linking(QuotientMapSpec("hemisphere", 2), model)
    return True


@pytest.mark.parametrize("fails", [
    _extension_c0_fails, _s_periodicity_fails, _boundary_jets_fail,
    _pullback_residual_fails, _identity_margin_fails, _segment_ratio_fails,
], ids=["extension-deepest-rung", "s-periodicity", "boundary-jets",
        "pullback-residual", "identity-margin", "segment-ratio"])
def test_a_nan_part_fails_its_score(fails):
    # a score reduced with a builtin max keeps or drops a NaN part by its
    # position; every score here is np.max of its parts
    assert fails(QuadraticHamiltonian(SQRT2, 2 - SQRT2))


# ---------------------------------------------------------------------------
# extended contact form
# ---------------------------------------------------------------------------


def test_extended_contact_ellipsoid():
    h = 2
    H = QuadraticHamiltonian(SQRT2, h - SQRT2)
    chart = BindingChart(h=h)
    rep = extended_contact_audit(make_f_tilde(H, chart))
    assert rep.passed
    assert abs(rep.f_on_binding_min - 2 * SQRT2) <= 1e-8
    assert rep.reeb_pairing_defect <= 1e-9
    assert rep.reeb_contraction_defect <= 1e-9


def test_extended_contact_zero_f_fails():
    rep = extended_contact_audit(
        lambda b, r, t: np.zeros(np.broadcast(b, r, t).shape))
    assert not rep.passed
    assert rep.certificate is not None
    assert rep.certificate["f_limit"] == 0.0


def test_extended_contact_failure_serializes_its_certificate():
    # f < 0 on part of the binding: the serialized report carries the
    # certificate, which names the worst binding angle b = pi (a node of
    # the audit's 16-point b grid) and its limit f = -0.5
    def f_lift(b, rho, vartheta):
        return np.cos(b) + 0.5 + 0.0 * rho * vartheta

    out = extended_contact_audit(f_lift).to_dict()
    assert not out["pass"]
    cert = out["certificate"]
    assert cert["where"] == {"b": np.pi, "vartheta": 0.0}
    assert abs(cert["f_limit"] + 0.5) <= 1e-12
    assert json.loads(json.dumps(out, allow_nan=False)) == out


def test_eval_h_array_s_matches_a_per_point_loop():
    # a time-dependent H at an array of s values, broadcast over the points
    # and repeated: one call per distinct s equals one call per point
    from reebcut.binding import _eval_h
    from reebcut.hamiltonians import CallableHamiltonian

    def value(s, xy):
        x, y = xy[..., 0], xy[..., 1]
        return 2.0 + s * x * y - 0.25 * s * s * (x * x + y * y)

    H = CallableHamiltonian(value, 2.0)
    xy = np.random.default_rng(21).uniform(-0.7, 0.7, (5, 6, 2))
    s = np.array([[0.3], [1.1], [0.3], [2.5], [1.1]])
    got = _eval_h(H, s, xy)
    want = np.empty(xy.shape[:-1])
    for i, j in np.ndindex(want.shape):
        want[i, j] = H.value(float(s[i, 0]), xy[i, j][None])[0]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_extended_contact_stage_value():
    H = RigidRotationHamiltonian(2, 1, 3)
    chart = BindingChart(h=2)
    rep = extended_contact_audit(make_f_tilde(H, chart))
    assert rep.passed
    assert abs(rep.f_on_binding_min - 2 * (2 + 1 / 3)) <= 1e-8


# ---------------------------------------------------------------------------
# adapted collar parameter
# ---------------------------------------------------------------------------


def test_collar_solver_quadratic():
    a0 = SQRT2
    H = QuadraticHamiltonian(a0, 2 - a0)
    # tau = a0 (r^2 - 1): closed-form inverse r = sqrt((tau + a0)/a0)
    for tau in (-0.3, -0.1, -0.02):
        r = adapted_collar_g(H, 2, 0.0, 0.7, tau)
        assert abs(r - np.sqrt((tau + a0) / a0)) <= 1e-12


def test_collar_solver_boundary_value():
    H = QuadraticHamiltonian(1.0, 1.0)
    assert abs(adapted_collar_g(H, 2, 0.0, 0.0, 0.0) - 1.0) <= 1e-12


def test_collar_solver_rigid_rotation():
    H = RigidRotationHamiltonian(2, 1, 3)
    ha = 2 + 1 / 3
    for tau in (-0.5, -0.05):
        r = adapted_collar_g(H, 2, 1.0, 0.3, tau)
        assert abs(r - np.sqrt((tau + ha) / ha)) <= 1e-12


def test_collar_solver_decreasing_tau():
    # a2 > h: tau = r^2 - (0.5 + 3 r^2) = -2 r^2 - 0.5 decreases in r, so the
    # bisection bracket is swapped; closed-form root r = sqrt(-(tau + 0.5) / 2)
    H = QuadraticHamiltonian(0.5, 3.0)
    for tau in (-1.78, -1.3, -2.4):
        r = adapted_collar_g(H, 1, 0.0, 0.7, tau)
        assert abs(r - np.sqrt(-(tau + 0.5) / 2.0)) <= 1e-12


def test_collar_solver_rejects_unbracketed():
    H = QuadraticHamiltonian(1.0, 1.0)
    with pytest.raises(PreconditionError):
        adapted_collar_g(H, 2, 0.0, 0.0, 0.5)


def test_collar_solver_rejects_a_jump_across_tau():
    # H drops by 0.1 at r = 0.9, so tau = 2 r^2 - H jumps from 0.62 to 0.72
    # there: tau = 0.67 is bracketed on the collar but never attained, and
    # the bisection closes in on the jump with the residual left at 0.05
    def value(s, xy):
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return np.where(r2 < 0.81, 1.0, 0.9)

    H = CallableHamiltonian(value, 0.9, time_dependent=False)
    with pytest.raises(PreconditionError, match="stalled at residual 5.0"):
        adapted_collar_g(H, 2, 0.0, 0.3, 0.67)


# ---------------------------------------------------------------------------
# quotient maps
# ---------------------------------------------------------------------------


def test_quotient_boundary_to_unit_circle():
    for variant in ("hemisphere", "stereographic"):
        spec = QuotientMapSpec(variant, h=2)
        pt = quotient_map(spec, 0.0, 1.0, 0.0)
        assert np.allclose(pt, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_quotient_ellipsoid_center():
    spec = QuotientMapSpec("ellipsoid", h=2, a0=2.0)
    pt = quotient_map(spec, 0.0, 0.0, 1.234)
    assert np.allclose(pt, [np.sqrt(2.0), 0.0, 0.0, 0.0], atol=1e-15)


def test_quotient_lands_on_model_surface(rng):
    s = rng.uniform(0, TWO_PI, 100)
    r = rng.uniform(0, 1, 100)
    t = rng.uniform(0, TWO_PI, 100)
    for variant, a0 in (("hemisphere", None), ("stereographic", None),
                        ("ellipsoid", SQRT2)):
        spec = QuotientMapSpec(variant, h=2, a0=a0)
        pts = quotient_map(spec, s, r, t)
        z1sq = pts[..., 0] ** 2 + pts[..., 1] ** 2
        z2sq = pts[..., 2] ** 2 + pts[..., 3] ** 2
        if variant == "ellipsoid":
            level = z1sq / a0 + z2sq
        else:
            level = z1sq + z2sq
        assert np.max(np.abs(level - 1.0)) <= 1e-12


def test_quotient_hemisphere_matches_stereographic(rng):
    # hemisphere at the reparametrized radius 2r/(1+r^2) equals the
    # stereographic variant at r
    h = 3
    s = rng.uniform(0, TWO_PI, 60)
    r = rng.uniform(0, 1, 60)
    t = rng.uniform(0, TWO_PI, 60)
    stereo = quotient_map(QuotientMapSpec("stereographic", h=h), s, r, t)
    r_re = 2 * r / (1 + r**2)
    hemi = quotient_map(QuotientMapSpec("hemisphere", h=h), s, r_re, t)
    assert np.max(np.abs(stereo - hemi)) <= 1e-12


def test_pullback_residual_fine_grid():
    h = 2
    spec = QuotientMapSpec("ellipsoid", h=h, a0=SQRT2)
    H = QuadraticHamiltonian(SQRT2, h - SQRT2)
    assert pullback_residual(spec, H, 32, 32, 32) <= 1e-6


def test_pullback_residual_round_sphere():
    spec = QuotientMapSpec("ellipsoid", h=1, a0=1.0)
    H = QuadraticHamiltonian(1.0, 0.0)
    assert pullback_residual(spec, H, 32, 32, 32) <= 1e-6


def test_pullback_residual_coarse_grid_discretization():
    h = 2
    spec = QuotientMapSpec("ellipsoid", h=h, a0=SQRT2)
    H = QuadraticHamiltonian(SQRT2, h - SQRT2)
    coarse = pullback_residual(spec, H, 4, 4, 4)
    fine = pullback_residual(spec, H, 32, 32, 32)
    assert coarse <= 1e-3
    assert coarse > fine


# ---------------------------------------------------------------------------
# change of primitive
# ---------------------------------------------------------------------------


def test_primitive_change_trivial():
    F = PolarFunction(lambda r, t: np.zeros(np.broadcast(r, t).shape))
    report, _ = primitive_change_audit(F, h=2)
    assert report.passed
    assert report.theta2_defect <= 1e-10


def test_primitive_change_cubic_factor_passes():
    # F = (r-1)^3 sin(theta): boundary conditions hold, G = (r-1) cos(theta)
    F = PolarFunction(
        lambda r, t: (r - 1.0) ** 3 * np.sin(t),
        dtheta=lambda r, t: (r - 1.0) ** 3 * np.cos(t),
    )
    report, g_of = primitive_change_audit(F, h=2)
    assert report.factorization_ok
    assert report.passed
    rr = np.linspace(0.8, 0.999, 12)
    tt = np.linspace(0, TWO_PI, 8, endpoint=False)
    extracted = g_of(rr[:, None], tt[None, :])
    symbolic = (rr[:, None] - 1.0) * np.cos(tt[None, :])
    assert np.max(np.abs(extracted - symbolic)) <= 1e-6


def test_primitive_change_linear_factor_fails():
    # F = (r-1) sin(theta) violates the mixed boundary condition with
    # defect max |cos(theta)| = 1
    F = PolarFunction(
        lambda r, t: (r - 1.0) * np.sin(t),
        dtheta=lambda r, t: (r - 1.0) * np.cos(t),
    )
    report, _ = primitive_change_audit(F, h=2)
    assert not report.passed
    assert not report.factorization_ok
    assert abs(report.mixed_defect - 1.0) <= 1e-6
    assert report.theta2_defect <= 1e-8


def test_extension_report_json_round_trip():
    import json

    rep = extension_test(QuadraticHamiltonian(SQRT2, 2 - SQRT2),
                         BindingChart(h=2))
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["pass"] is True
    assert len(data["rungs"]) == rep.settings.n_rungs
    assert np.asarray(data["lift_samples"]).shape == (
        rep.settings.n_b, rep.settings.n_rungs, rep.settings.n_dirs)
