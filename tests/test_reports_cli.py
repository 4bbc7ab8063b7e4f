import hashlib
import json
import os

import numpy as np
import pytest

from reebcut import reports
from reebcut.binding import binding_function_f
from reebcut.cli import main
from reebcut.errors import ValidationError
from reebcut.geometry import TWO_PI
from reebcut.reports import RunConfig, run
from reebcut.svgplots import histogram_svg, polyline_svg

from conftest import SQRT2, assert_no_child_left, count_forks


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path, header, types):
    """The rows of a CSV data file, each cell parsed by its column's type:
    ``float`` refuses numpy's ``np.float64(...)`` text."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(cells) == len(types) for cells in rows)
    return [tuple(parse(cell) for parse, cell in zip(types, cells))
            for cells in rows]


def cell_bits(rows):
    """Rows with each float cell as its hex text, so == compares bits."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row)
            for row in rows]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_field_rejected():
    with pytest.raises(ValidationError) as err:
        RunConfig.parse("ellipsoid", {"a0": 1.2, "h": 2, "extra": True})
    assert "extra" in str(err.value)


def test_missing_fields_all_listed():
    with pytest.raises(ValidationError) as err:
        RunConfig.parse("self-linking", {})
    assert "a0" in str(err.value) and "h" in str(err.value)


def test_range_check():
    with pytest.raises(ValidationError):
        RunConfig.parse("ellipsoid", {"a0": -1.0, "h": 2})


def test_unknown_scenario():
    with pytest.raises(ValidationError):
        RunConfig.parse("nonsense", {})


def test_nested_hamiltonian_validation():
    with pytest.raises(ValidationError) as err:
        RunConfig.parse("cut-check", {"hamiltonian": {"type": "rigid", "h": 2}})
    assert "hamiltonian" in str(err.value)


# ---------------------------------------------------------------------------
# scenarios through the API
# ---------------------------------------------------------------------------


def test_ellipsoid_scenario_passes(tmp_path):
    config = RunConfig.parse(
        "ellipsoid",
        {"a0": SQRT2, "h": 2, "n_samples": 256},
        out_dir=tmp_path / "out",
    )
    report = run(config)
    assert report.passed
    assert report.results["cz"]["mu_cz_B"] == 3
    assert report.results["cz"]["mu_cz_C"] == 5
    assert report.results["pullback_residual"] <= 1e-6
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "timings.json").exists()


def test_cut_check_scenario_fails_for_angular_collar(tmp_path, monkeypatch):
    calls = []

    def recorded(*args):
        prof = binding_function_f(*args)
        calls.append((args, prof))
        return prof

    monkeypatch.setattr(reports, "binding_function_f", recorded)
    config = RunConfig.parse(
        "cut-check",
        {"hamiltonian": {"type": "cosine-defect", "h": 3, "c": 0.4, "d": 0.5}},
        out_dir=tmp_path / "out",
        plots=True,
    )
    report = run(config)
    assert not report.passed
    ext = report.results["extension"]
    assert abs(ext["direction_spread"] - 1.0) <= 0.01
    assert (tmp_path / "out" / "f_profiles.svg").exists()
    # the profile the run computed, one row per direction and rung
    ((_, _, _, rungs, dirs), prof), = calls
    want = [(rho, vt, prof[i, m]) for i, vt in enumerate(dirs[:, 0])
            for m, rho in enumerate(rungs[0])]
    got = read_csv(tmp_path / "out" / "f_profile.csv", "rho,vartheta,f",
                   (float, float, float))
    assert cell_bits(got) == cell_bits(want)


def test_poincare_scenario(tmp_path):
    config = RunConfig.parse("poincare-lemma", {"n": 128, "threshold": 1e-4})
    report = run(config)
    assert report.passed
    assert report.results["observed_order"] >= 2.0


def test_report_determinism(tmp_path):
    params = {"a0": SQRT2, "h": 2, "self_linking": False}
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run(RunConfig.parse("ellipsoid", params, seed=11, out_dir=out1))
    run(RunConfig.parse("ellipsoid", params, seed=11, out_dir=out2))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# sha256 of report.json for the README moser config at the default seed
MOSER_REPORT_SHA256 = (
    "012202889f7aad1620f11c078c06c92558147351bc08e76e756dcfc8b8b92215")


def test_moser_report_bytes_do_not_depend_on_the_cpus(tmp_path, monkeypatch):
    # one CPU flows the 128^2 nodes in-process, two flow them in two shares
    # with one forked worker; both write the pinned bytes
    cfg = write_config(tmp_path, {"n": 128, "amplitude": 0.2})
    forks = count_forks(monkeypatch)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
        out = tmp_path / f"cpus{len(cpus)}"
        assert main(["moser", "--config", cfg, "--out", str(out)]) == 0
        assert_no_child_left()
        assert len(forks) == len(cpus) - 1
        digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
        assert digest == MOSER_REPORT_SHA256


# sha256 of report.json for the README return-map config (rigid 2, 1, 3)
# with --plots at seeds 0-3, and for a quadratic config at seed 2: the
# bytes of a linear field's batch, whose points share one moved Jacobian
RETURN_MAP_REPORT_SHA256 = {
    ("rigid", 0):
        "9b71127a2456c01850ad7be517c1d60bf559f39428199c4840d75d84073a01a1",
    ("rigid", 1):
        "edee31f05d36ef3f3482c4c07efa41375f41092ddd7a3dc8994bf3e07110a8dc",
    ("rigid", 2):
        "71fd3302e9fb4bada3ac5fb9c94fb05d35ca7d105689ffa8ecbd69b94c7cf525",
    ("rigid", 3):
        "b78ee3a25de4d3104ba8181de6e8b1f4d196c9d218be0d818f2e1df26a5382ca",
    ("quadratic", 2):
        "5dd53a74d361a4e31ca68c3731b3b4e8f11f706d0acefeef29d7e670da7058da",
}
RETURN_MAP_CONFIGS = {
    "rigid": ({"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3}},
              ["--plots"]),
    "quadratic": ({"hamiltonian": {"type": "quadratic", "a0": 1.4142,
                                   "a2": 0.5858},
                   "n_points": 40, "radii": [0.25, 0.5, 0.75],
                   "step": 0.0125}, []),
}


@pytest.mark.parametrize("kind, seed", sorted(RETURN_MAP_REPORT_SHA256))
def test_return_map_report_bytes_are_pinned(kind, seed, tmp_path):
    payload, flags = RETURN_MAP_CONFIGS[kind]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["return-map", "--config", cfg, "--out", str(out),
                 "--seed", str(seed)] + flags) == 0
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == RETURN_MAP_REPORT_SHA256[kind, seed]


def test_seed_changes_sampling_not_physics(tmp_path):
    params = {"a0": SQRT2, "h": 2, "self_linking": False}
    r1 = run(RunConfig.parse("ellipsoid", params, seed=1))
    r2 = run(RunConfig.parse("ellipsoid", params, seed=2))
    assert r1.passed and r2.passed
    assert r1.results["cz"] == r2.results["cz"]


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------


def test_cli_pass_exit_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"a0": SQRT2, "h": 2, "self_linking": False})
    code = main(["ellipsoid", "--config", cfg, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_cli_check_failure_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "hamiltonian": {"type": "cosine-defect", "h": 3, "c": 0.4, "d": 0.5}
    })
    code = main(["cut-check", "--config", cfg])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_validation_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"a0": 1.2})
    code = main(["ellipsoid", "--config", cfg])
    assert code == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, payload, field", [
    ("cut-check",
     {"hamiltonian": {"type": "cosine-defect", "h": 3, "c": float("nan")}},
     "hamiltonian.c"),
    ("return-map",
     {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
      "step": float("inf")},
     "step"),
], ids=["c-nan", "step-infinity"])
def test_cli_non_finite_float_exit_two(tmp_path, capsys, scenario, payload, field):
    # json.dumps writes the NaN / Infinity tokens that json.load accepts
    cfg = write_config(tmp_path, payload)
    text = (tmp_path / "config.json").read_text()
    assert "NaN" in text or "Infinity" in text
    code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_quadratic_hamiltonian_block_parses():
    from reebcut import QuadraticHamiltonian

    config = RunConfig.parse(
        "cut-check", {"hamiltonian": {"type": "quadratic", "a0": 1.2, "a2": 0.8}})
    H = config.params["hamiltonian_obj"]
    assert type(H) is QuadraticHamiltonian
    pts = np.array([[0.0, 0.0], [0.3, -0.4], [1.0, 0.0]])
    assert np.array_equal(H.value(0.0, pts),
                          QuadraticHamiltonian(1.2, 0.8).value(0.0, pts))
    with pytest.raises(ValidationError, match="a0 and hamiltonian.a2"):
        RunConfig.parse("cut-check",
                        {"hamiltonian": {"type": "quadratic", "a0": 1.2}})


@pytest.mark.parametrize("block, field", [
    ({"type": "rigid", "h": 1, "p": -5, "q": 1}, "contact condition"),
    ({"type": "rigid", "h": 1, "p": 10**400, "q": 1}, "p is beyond the float"),
    ({"type": "quadratic", "a0": 1.0, "a2": -10**400}, "a2 is beyond the float"),
    ({"type": "cosine-defect", "h": 10**400}, "h is beyond the float"),
], ids=["contact-condition", "huge-p", "huge-a2", "huge-h"])
def test_cli_invalid_hamiltonian_exit_two(tmp_path, capsys, block, field):
    # a family's own precondition and an integer beyond the float range are
    # configuration errors, caught while parsing: exit 2 naming the block,
    # not a traceback and exit 1
    cfg = write_config(tmp_path, {"hamiltonian": block})
    assert main(["return-map", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: hamiltonian")
    assert field in err and "Traceback" not in err
    with pytest.raises(ValidationError) as exc:
        RunConfig.parse("cut-check", {"hamiltonian": block})
    assert exc.value.field.startswith("hamiltonian.")


@pytest.mark.parametrize("scenario, payload, field", [
    ("ellipsoid", {"a0": SQRT2, "h": 2, "pullback_grid": [65, 32, 32]},
     "pullback_grid"),
    ("ellipsoid", {"a0": SQRT2, "h": 2, "pullback_grid": [4096, 4096, 4096]},
     "pullback_grid"),
    ("return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                    "step": float(np.nextafter(TWO_PI / 20000.0, 0.0))},
     "step"),
    ("return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                    "step": 1e-9},
     "step"),
    ("return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                    "radii": [0.5] * 2001},
     "radii"),
    ("pseudorotation", {"h": 2, "orbit_iterations": 10_001},
     "orbit_iterations"),
    # convergents 1/99, 1/100, then a denominator of the float's own ratio
    ("pseudorotation", {"h": 2, "count": 4, "target_a": 0.01}, "target_a"),
    # a rational target's expansion ends before its stages do
    ("pseudorotation", {"h": 2, "target_a": 0.5}, "target_a"),
    # at 2048 the doubled residual sits at the FD6 rounding floor, so the
    # convergence order reads 0.53 (fixture 1) and -0.82 (fixture 3)
    ("poincare-lemma", {"n": 2048}, "n"),
], ids=["grid-65", "grid-4096", "step-below-bound", "step-1e-9", "radii-2001",
        "orbit-iterations-10001", "denominator-past-scan", "rational-target",
        "n-2048"])
def test_cli_work_bound_exit_two(tmp_path, capsys, monkeypatch, scenario,
                                 payload, field):
    # a config asking for more work than desk scale, or for convergents its
    # target lacks, fails at parse: exit 2 naming the field, with no output
    # directory made; the configs at the bounds only parse here, they are
    # never run, and neither is a config past a bound that parsing let through
    from reebcut import cli

    def never_run(config):
        raise AssertionError("the config passed parsing")

    monkeypatch.setattr(cli, "run", never_run)
    cfg = write_config(tmp_path, payload)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration") and field in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, payload", [
    ("ellipsoid", {"a0": SQRT2, "h": 2, "pullback_grid": [64, 64, 64]}),
    ("return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                    "step": TWO_PI / 20000.0}),
    ("return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
                    "radii": [0.5] * 2000}),
    ("pseudorotation", {"h": 2, "orbit_iterations": 10_000}),
    # the golden mean's eighth convergent is 21/34
    ("pseudorotation", {"h": 2, "count": 8}),
    ("poincare-lemma", {"n": 1024}),
], ids=["grid-64", "step-at-bound", "radii-2000", "orbit-iterations-10000",
        "count-8", "n-1024"])
def test_work_bounds_admit_their_limits(scenario, payload):
    RunConfig.parse(scenario, json.loads(json.dumps(payload)))


# Every schema key that scales the work of a run, with a value one past its
# bound; every other key is listed as not scaling it.  A new key must join
# one of the two.
_PAST_WORK_BOUND = {
    ("ellipsoid", "pullback_grid"): [65, 32, 32],
    ("ellipsoid", "n_samples"): 4097,
    ("cut-check", "k_max"): 5,
    ("return-map", "n_points"): 2001,
    ("return-map", "radii"): [0.5] * 2001,
    ("return-map", "step"): float(np.nextafter(TWO_PI / 20000.0, 0.0)),
    ("poincare-lemma", "n"): 1025,
    ("moser", "n"): 513,
    ("moser", "steps"): 513,
    ("pseudorotation", "count"): 9,
    ("pseudorotation", "mode"): 7,
    ("pseudorotation", "orbit_iterations"): 10_001,
    ("self-linking", "n_samples"): 4097,
}
_NOT_WORK_SCALING = {"a0", "h", "hamiltonian", "self_linking", "push_eps",
                     "eps", "expected_a", "area_tol", "fixture", "threshold",
                     "amplitude", "target_a", "amplitude0", "delta0"}


def test_every_work_scaling_key_has_an_upper_bound():
    from reebcut.reports import _SCHEMAS

    seen = set()
    for scenario, schema in _SCHEMAS.items():
        for key, (_, _, _, check) in schema.items():
            if (scenario, key) not in _PAST_WORK_BOUND:
                assert key in _NOT_WORK_SCALING, (
                    f"{scenario}.{key}: say whether it scales the work")
                continue
            seen.add((scenario, key))
            assert check is not None and not check(
                _PAST_WORK_BOUND[scenario, key]), f"{scenario}.{key} is unbounded"
    assert seen == set(_PAST_WORK_BOUND)


def test_cli_non_finite_result_exit_three(tmp_path, capsys, monkeypatch):
    from reebcut import reports

    def nan_runner(params, rng):
        return ({"score": float("nan")},
                [reports._check("finite", 0.0, 1.0)], [])

    monkeypatch.setitem(reports._RUNNERS, "ellipsoid", nan_runner)
    cfg = write_config(tmp_path, {"a0": SQRT2, "h": 2})
    out = tmp_path / "o"
    code = main(["ellipsoid", "--config", cfg, "--out", str(out)])
    assert code == 3
    assert "not finite JSON" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "timings.json").exists()


def test_cli_unreadable_config(tmp_path):
    assert main(["ellipsoid", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_self_linking_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, {"a0": SQRT2, "h": 2, "n_samples": 256})
    code = main(["self-linking", "--config", cfg])
    assert code == 0


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------


def test_polyline_svg_deterministic():
    x = np.linspace(0, 1, 50)
    a = polyline_svg([(x, np.sin(x))], title="trace")
    b = polyline_svg([(x, np.sin(x))], title="trace")
    assert a == b
    assert a.startswith(b"<svg")
    assert b"timestamp" not in a


def test_histogram_svg_shapes():
    counts, edges = np.histogram(np.linspace(0, 1, 100), bins=8)
    data = histogram_svg(edges, counts, title="bars")
    assert data.count(b"<rect") == 8 + 2  # bars + frame + background


def test_orbit_trace_plot_is_polygonal_circle(tmp_path):
    config = RunConfig.parse(
        "return-map",
        {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3},
         "n_points": 8},
        out_dir=tmp_path / "o",
        plots=True,
    )
    report = run(config)
    assert report.passed
    svg = (tmp_path / "o" / "orbit_traces.svg").read_bytes()
    assert svg.count(b"<polyline") >= 4


def _return_map_run(tmp_path, monkeypatch):
    """A README return-map run with plots; returns the points it audited
    and the _rk4_steps calls it made."""
    from reebcut import flows, reports

    audited, steps = [], []
    report_of, rk4_steps = reports.return_map_report, flows._rk4_steps

    def recorded_report(H, points, *args, **kwargs):
        audited.append(points)
        return report_of(H, points, *args, **kwargs)

    def counted_steps(*args, **kwargs):
        steps.append(args[1].shape)
        return rk4_steps(*args, **kwargs)

    monkeypatch.setattr(reports, "return_map_report", recorded_report)
    monkeypatch.setattr(flows, "_rk4_steps", counted_steps)
    config = RunConfig.parse(
        "return-map", {"hamiltonian": {"type": "rigid", "h": 2, "p": 1, "q": 3}},
        out_dir=tmp_path / "o", plots=True)
    assert run(config).passed
    return audited[0], steps


def test_return_map_run_flows_one_batch(tmp_path, monkeypatch):
    # the plot traces come from the audited batch: one RK4 flow per run,
    # of the 50 points and the two rotation-radius starts
    _, steps = _return_map_run(tmp_path, monkeypatch)
    assert steps == [(52, 2)]


def test_orbit_traces_plot_the_paths_flowed_alone(tmp_path, monkeypatch):
    from reebcut import FlowSettings, RigidRotationHamiltonian, integrate_isotopy

    pts, _ = _return_map_run(tmp_path, monkeypatch)
    path = integrate_isotopy(RigidRotationHamiltonian(2, 1, 3), pts[:4],
                             settings=FlowSettings())
    series = [(path.points[:, i, 0], path.points[:, i, 1]) for i in range(4)]
    want = polyline_svg(series, title="isotopy traces over one period")
    assert (tmp_path / "o" / "orbit_traces.svg").read_bytes() == want


def test_emit_plots_empty_series_notice(tmp_path):
    from reebcut.reports import RunReport, emit_plots

    report = RunReport(config={}, results={}, checks=[])
    written, notices = emit_plots(
        [("empty", "polyline", {"series": [], "title": "nothing"}),
         ("mystery", "scatter3d", {})],
        tmp_path, report,
    )
    assert written == []
    assert len(notices) == 2
    assert not (tmp_path / "empty.svg").exists()
    assert report.results["plots"]["notices"]


def test_pseudorotation_scenario(tmp_path):
    config = RunConfig.parse(
        "pseudorotation",
        {"h": 2, "count": 1, "amplitude0": 0.05, "orbit_iterations": 12},
        out_dir=tmp_path / "o",
        plots=True,
    )
    report = run(config)
    assert report.passed
    assert (tmp_path / "o" / "f0_convergence.svg").exists()
    counts, edges = report.results["orbit_statistics"]["theta_histogram"]
    got = read_csv(tmp_path / "o" / "theta_histogram.csv",
                   "bin_left,bin_right,count", (float, float, int))
    assert cell_bits(got) == cell_bits(zip(edges[:-1], edges[1:], counts))
