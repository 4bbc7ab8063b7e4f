"""Acceptance suite: one test per release criterion.

Each criterion prints a PASS/FAIL line with its measured score, so a
plain ``pytest tests/test_acceptance.py -s`` doubles as the release
checklist.  Tolerances are pinned here, not configurable.
"""

import numpy as np

from reebcut import (
    BindingChart,
    ConjugatorSchedule,
    ConjugatorSpec,
    FlowSettings,
    GridFunction2D,
    MoserSettings,
    QuadraticHamiltonian,
    QuotientMapSpec,
    RigidRotationHamiltonian,
    binding_function_f,
    conjugated_stage,
    cosine_defect_hamiltonian,
    cz_ellipsoid,
    extension_test,
    gauss_linking_integral,
    golden_mean_inverse,
    moser_flow,
    moser_pullback_residual,
    poincare_primitive,
    primitive_residual,
    pullback_residual,
    return_map,
    rotation_number,
    self_linking,
    stage_sequence,
    zero_integral_fixture,
)
from reebcut.hamiltonians import CallableHamiltonian
from reebcut.invariants import Frame, RotationSettings
from reebcut.geometry import TWO_PI

from conftest import (SQRT2, hopf_circles_r3, radial_collar_hamiltonian,
                      split_circles)

SEED = 214


def report(name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_01_rigid_rotation_exactness():
    H = RigidRotationHamiltonian(2, 1, 3)
    rng = np.random.default_rng(SEED)
    r = np.sqrt(rng.uniform(0.01, 0.98, 100))
    t = rng.uniform(0, TWO_PI, 100)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    img = return_map(H, pts)
    r_out = np.hypot(img[:, 0], img[:, 1])
    radius_drift = float(np.max(np.abs(r_out - r)))
    angles = np.arctan2(img[:, 1], img[:, 0]) - t
    angle_err = float(np.max(np.abs(
        np.angle(np.exp(1j * (angles - TWO_PI / 3)))
    )))
    report(
        "criterion 1: rigid-rotation exactness",
        angle_err <= 1e-8 and radius_drift <= 1e-10,
        f"angle err {angle_err:.2e} (<=1e-8), radius drift {radius_drift:.2e} (<=1e-10)",
    )


def test_02_ellipsoid_binding_function():
    h = 2
    H = QuadraticHamiltonian(SQRT2, h - SQRT2)
    chart = BindingChart(h=h)
    rng = np.random.default_rng(SEED)
    b = rng.uniform(0, TWO_PI, 24)[:, None]
    vt = rng.uniform(0, TWO_PI, 24)[:, None]
    rho = np.linspace(0.05, 0.95 * chart.rho_max, 16)[None, :]
    f = binding_function_f(H, chart, b, rho, vt)
    err = float(np.max(np.abs(f - SQRT2 * (2.0 - rho**2))))
    report(
        "criterion 2: ellipsoid binding function",
        err <= 1e-12,
        f"max |f - a0 (2 - rho^2)| = {err:.2e} (<=1e-12) over the chart",
    )


def test_03_cz_windows_and_numeric_rotation():
    h = 2
    cz = cz_ellipsoid(SQRT2)
    windows_ok = cz.mu_binding == 3 and cz.mu_central == 5

    numeric = CallableHamiltonian(
        QuadraticHamiltonian(SQRT2, h - SQRT2).value, h,
        grad_fn=QuadraticHamiltonian(SQRT2, h - SQRT2).grad,
        hessian_fn=QuadraticHamiltonian(SQRT2, h - SQRT2).hessian,
        time_dependent=False,
    )
    settings = RotationSettings(covers=16, flow=FlowSettings(step=TWO_PI / 1000))
    rho_c = rotation_number(numeric, "C", Frame.BINDING, h=h, settings=settings)
    rho_b = rotation_number(numeric, "B", Frame.INTERIOR, h=h, settings=settings)
    err_c = abs(rho_c - cz.rho_central)
    err_b = abs(rho_b - cz.rho_binding)
    same_windows = (2 * int(np.floor(rho_b)) + 1 == cz.mu_binding
                    and 2 * int(np.floor(rho_c)) + 1 == cz.mu_central)
    report(
        "criterion 3: CZ windows with numeric rotation numbers",
        windows_ok and err_b <= 0.02 and err_c <= 0.02 and same_windows,
        f"mu_B={cz.mu_binding}, mu_C={cz.mu_central}; numeric rho errs "
        f"B {err_b:.2e}, C {err_c:.2e} (<=0.02), windows agree={same_windows}",
    )


def test_04_dynamical_convexity_sweep():
    rng = np.random.default_rng(SEED)
    count = 0
    ok = True
    while count < 50:
        a0 = rng.uniform(0.1, 10.0)
        if abs(a0 - 1.0) < 1e-6:
            continue
        rep = cz_ellipsoid(a0)
        ok = ok and rep.mu_binding >= 3 and rep.mu_central >= 3
        ok = ok and ((rep.mu_binding == 3) != (rep.mu_central == 3))
        count += 1
    report(
        "criterion 4: dynamical convexity over 50 random a0",
        ok,
        "both indices >= 3 and exactly one equals 3 for every draw",
    )


def test_05_poincare_lemma():
    residuals, orders = [], []
    for idx in (1, 2, 3):
        eta = zero_integral_fixture(idx, 256)
        res = primitive_residual(eta, poincare_primitive(eta))
        eta_half = zero_integral_fixture(idx, 128)
        res_half = primitive_residual(eta_half, poincare_primitive(eta_half))
        residuals.append(res)
        orders.append(np.log2(res_half / res))
    passed = all(r <= 1e-6 for r in residuals) and all(o >= 2 for o in orders)
    report(
        "criterion 5: compactly supported Poincare lemma",
        passed,
        f"residuals {['%.2e' % r for r in residuals]} (<=1e-6); "
        f"orders {['%.1f' % o for o in orders]} (>=2)",
    )


def test_06_moser_round_trip():
    n = 128
    base = zero_integral_fixture(2, n)
    scale = 0.2 / float(np.abs(base.values).max())
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    w1 = GridFunction2D(1.0 + scale * base.values, compact=False)
    psi = moser_flow(w0, w1, settings=MoserSettings(steps=48))
    res = moser_pullback_residual(psi, w0, w1)
    d = psi.displacement()
    margin = float(max(np.abs(d[:2]).max(), np.abs(d[-2:]).max(),
                       np.abs(d[:, :2]).max(), np.abs(d[:, -2:]).max()))
    report(
        "criterion 6: Moser round trip",
        res <= 1e-5 and margin == 0.0,
        f"pullback residual {res:.2e} (<=1e-5); boundary margin displacement "
        f"{margin} (exactly 0)",
    )


def test_07_canonical_hamiltonian_round_trips(autonomous_recovery,
                                              time_dependent_recovery):
    worst = {}
    for label, (K, _, H) in (("autonomous", autonomous_recovery),
                             ("s-dependent", time_dependent_recovery)):
        vals = H.values_at_images
        err = 0.0
        for j in range(0, len(H.s_nodes), 12):
            s = H.s_nodes[j]
            err = max(err, float(np.max(np.abs(
                vals[j] - K.value(s, H.image_points[j])
            ))))
        worst[label] = err
    passed = all(e <= 1e-5 for e in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(
        "criterion 7: canonical Hamiltonian round trips",
        passed,
        f"sup-norm errors {detail} (<=1e-5)",
    )


def test_08_extension_discrimination(stage_2_1_3):
    passing = [
        QuadraticHamiltonian(SQRT2, 2 - SQRT2),
        RigidRotationHamiltonian(2, 1, 3),
        RigidRotationHamiltonian(3, 2, 5),
        radial_collar_hamiltonian(3, 0.7),
        stage_2_1_3.hamiltonian,
    ]
    all_pass = True
    for H in passing:
        h = int(round(H.boundary_value))
        rep = extension_test(H, BindingChart(h=h))
        all_pass = all_pass and rep.passed

    spreads = {}
    fails_right = True
    for d in (0.1, 0.5):
        rep = extension_test(cosine_defect_hamiltonian(3, 0.4, d),
                             BindingChart(h=3))
        fails_right = fails_right and (not rep.verdicts[0].passed)
        spreads[d] = rep.direction_spread
        fails_right = fails_right and abs(rep.direction_spread - 2 * d) <= 0.02 * d
    report(
        "criterion 8: extension pass/fail discrimination",
        all_pass and fails_right,
        f"all collar fixtures pass C^0..C^4; angular fixtures fail at C^0 "
        f"with spreads {spreads} ~ 2|d|",
    )


def test_09_jet_values(stage_2_1_3):
    errs = []
    for H, hpq in (
        (RigidRotationHamiltonian(2, 1, 3), 2 + 1 / 3),
        (RigidRotationHamiltonian(3, 2, 5), 3 + 2 / 5),
        (stage_2_1_3.hamiltonian, 2 + 1 / 3),
    ):
        rep = extension_test(H, BindingChart(h=int(round(H.boundary_value))))
        errs.append(float(np.max(np.abs(rep.f_rhorho_at_zero + 2 * hpq))))
    report(
        "criterion 9: second jet of the lifted binding function",
        all(e <= 1e-6 for e in errs),
        f"max |f_rhorho(0) + 2(h + p/q)| = {['%.2e' % e for e in errs]} (<=1e-6)",
    )


def test_10_self_linking():
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    res = self_linking(spec, H, push_eps=0.02, n_samples=512)

    h1, h2 = hopf_circles_r3(512)
    hopf = gauss_linking_integral(h1, h2)
    s1, s2 = split_circles(512)
    unlink = gauss_linking_integral(s1, s2)
    passed = (res.value == -1 and res.confidence <= 0.05
              and abs(abs(hopf) - 1.0) <= 1e-6 and abs(unlink) <= 1e-6)
    report(
        "criterion 10: self-linking of the binding",
        passed,
        f"sl(B) = {res.value} (confidence {res.confidence:.2e} <= 0.05); "
        f"hopf fixture {hopf:+.6f}, unlink fixture {unlink:.2e}",
    )


def test_11_conjugation_invariance(stage_2_1_3):
    rng = np.random.default_rng(SEED)
    r = np.sqrt(rng.uniform(0.01, 0.92, 200))
    t = rng.uniform(0, TWO_PI, 200)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    flow_settings = FlowSettings(step=TWO_PI / 800)
    specs = [
        ConjugatorSpec(amplitude=0.10, delta=0.2, mode=1, r_inner=0.2),
        None,  # mode 2: the fixture's amplitude 0.12, delta 0.2, r_inner 0.2
        ConjugatorSpec(amplitude=0.08, delta=0.25, mode=3, r_inner=0.18),
    ]
    worst = []
    for spec in specs:
        stage = (stage_2_1_3 if spec is None
                 else conjugated_stage(2, 1, 3, spec, w_grid=704))
        phi = stage.conjugator
        ang = TWO_PI / 3
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        oracle = phi(phi.inverse(pts) @ rot.T)
        flow = return_map(stage.hamiltonian, pts, flow_settings)
        worst.append(float(np.max(np.abs(flow - oracle))))
    report(
        "criterion 11: conjugation invariance",
        all(w <= 1e-6 for w in worst),
        f"max |flow - phi o R o phi^-1| = {['%.2e' % w for w in worst]} "
        f"(<=1e-6) on 200 points x 3 conjugators",
    )


def test_12_composition_law(composed_k_2_1_2):
    rng = np.random.default_rng(SEED)
    r = np.sqrt(rng.uniform(0.01, 0.7, 100))
    t = rng.uniform(0, TWO_PI, 100)
    pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
    composite = composed_k_2_1_2
    K, H2 = composite.K, composite.H2
    flow_settings = FlowSettings(step=TWO_PI / 500)
    left = return_map(composite, pts, flow_settings)
    right = return_map(K, return_map(H2, pts, flow_settings), flow_settings)
    err = float(np.max(np.abs(left - right)))
    report(
        "criterion 12: composition law",
        err <= 1e-5,
        f"max |flow(K + H2 o Psi^-1) - Psi_K o psi_H2| = {err:.2e} (<=1e-5) "
        "on 100 points",
    )


def test_13_stage_sequence_coherence():
    a = golden_mean_inverse()
    h = 2
    seq = stage_sequence(a, 5, h,
                         schedule=ConjugatorSchedule(amplitude0=0.1),
                         settings=FlowSettings(step=TWO_PI / 500),
                         w_grid=384)
    audits_ok = all(
        st.diagnostics["contact"]["pass"] and st.diagnostics["extension_pass"]
        for st in seq.stages
    )
    f0_errs = [abs(f0 - fx) for f0, fx in zip(seq.f0_values, seq.f0_expected)]
    limit_gaps = [abs(f0 - 2 * (h + a)) for f0 in seq.f0_values]
    converging = limit_gaps[-1] < limit_gaps[0]
    periodic_ok = all(st.q in st.diagnostics["periodic_periods"]
                      for st in seq.stages)
    passed = (audits_ok and all(e <= 1e-8 for e in f0_errs)
              and converging and periodic_ok)
    report(
        "criterion 13: stage sequence coherence",
        passed,
        f"5 stages pass contact+extension; f0 errors "
        f"{['%.1e' % e for e in f0_errs]} (<=1e-8); f0 -> 2(h+a) gap "
        f"{limit_gaps[0]:.3f} -> {limit_gaps[-1]:.3f}; periods "
        f"{[st.diagnostics['periodic_periods'] for st in seq.stages]}",
    )


def test_14_pullback_identity():
    spec = QuotientMapSpec("ellipsoid", h=2, a0=SQRT2)
    H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
    res = pullback_residual(spec, H, 32, 32, 32)
    report(
        "criterion 14: ellipsoid pullback identity",
        res <= 1e-6,
        f"max pullback coefficient residual {res:.2e} (<=1e-6) on a 32^3 grid",
    )
