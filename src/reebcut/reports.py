"""Batch scenarios: strict configuration parsing, orchestration, reports.

A run is deterministic given (config, seed): the seed only feeds random
audit-point sampling, never the physics.  The main report carries no wall
times (those go to a separate timings file) so its bytes are reproducible.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .binding import (
    BindingChart,
    ExtensionSettings,
    QuotientMapSpec,
    binding_function_f,
    extended_contact_audit,
    extension_test,
    make_f_tilde,
    pullback_residual,
)
from .errors import EvaluationError, PreconditionError, ValidationError
from .flows import MAX_SCAN_PERIOD, FlowSettings, return_map_report
from .geometry import TWO_PI
from .hamiltonians import (
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    SamplingGrid,
    contact_audit,
    cosine_defect_hamiltonian,
)
from .invariants import cz_ellipsoid, resonance_check, self_linking
from .moser import (
    GridFunction2D,
    MoserSettings,
    moser_flow,
    moser_pullback_residual,
    poincare_primitive,
    primitive_residual,
    zero_integral_fixture,
)
from .pseudorotations import (
    ConjugatorSchedule,
    continued_fraction_convergents,
    golden_mean_inverse,
    stage_sequence,
)


# ---------------------------------------------------------------------------
# strict schema validation
# ---------------------------------------------------------------------------


def _check_fields(block, schema, path=""):
    """Strict parse: unknown keys rejected, types and ranges enforced."""
    if not isinstance(block, dict):
        raise ValidationError(f"{path or 'config'} must be an object", field=path)
    out = {}
    for key in block:
        if key not in schema:
            raise ValidationError(f"unknown field {path}{key}", field=path + key)
    missing = [key for key, (_, required, _, _) in schema.items()
               if required and key not in block]
    if missing:
        listed = ", ".join(path + key for key in missing)
        raise ValidationError(f"missing field(s): {listed}", field=listed)
    for key, (kind, required, default, check) in schema.items():
        if key not in block:
            out[key] = default
            continue
        val = block[key]
        if isinstance(val, int) and not isinstance(val, bool):
            # json.load's integers are unbounded, but every number here
            # meets float arithmetic
            if abs(val) > sys.float_info.max:
                raise ValidationError(f"{path}{key} is beyond the float range",
                                      field=path + key)
            if kind is float:
                val = float(val)
        if kind is int and isinstance(val, bool):
            raise ValidationError(f"{path}{key} must be an integer", field=path + key)
        if kind is not None and not isinstance(val, kind):
            raise ValidationError(
                f"{path}{key} must be {getattr(kind, '__name__', kind)}",
                field=path + key,
            )
        # json.load accepts NaN and +-Infinity; no schema float admits them
        if kind is float and not math.isfinite(val):
            raise ValidationError(f"{path}{key} must be finite: {val!r}",
                                  field=path + key)
        if check is not None and not check(val):
            raise ValidationError(f"{path}{key} out of range: {val!r}",
                                  field=path + key)
        out[key] = val
    return out


_HAMILTONIAN_SCHEMA = {
    "type": (str, True, None, lambda v: v in ("quadratic", "rigid", "cosine-defect")),
    "a0": (float, False, None, lambda v: v > 0),
    "a2": (float, False, None, None),
    "h": (int, False, None, lambda v: v >= 1),
    "p": (int, False, None, None),
    "q": (int, False, None, lambda v: v >= 1),
    "c": (float, False, 0.0, None),
    "d": (float, False, 0.0, None),
}


def parse_hamiltonian(block):
    path = "hamiltonian."
    cfg = _check_fields(block, _HAMILTONIAN_SCHEMA, path)
    kind = cfg["type"]
    if kind == "quadratic":
        if cfg["a0"] is None or cfg["a2"] is None:
            raise ValidationError(f"{path}a0 and {path}a2 are required",
                                  field=path)
        return QuadraticHamiltonian(cfg["a0"], cfg["a2"])
    if kind == "rigid":
        if cfg["h"] is None or cfg["p"] is None or cfg["q"] is None:
            raise ValidationError(f"{path}h, {path}p, {path}q are required",
                                  field=path)
        # the family's own precondition (the contact condition h + p/q > 0)
        # is part of the configuration too
        try:
            return RigidRotationHamiltonian(cfg["h"], cfg["p"], cfg["q"])
        except PreconditionError as exc:
            raise ValidationError(f"{path[:-1]}: {exc}", field=path) from exc
    if cfg["h"] is None:
        raise ValidationError(f"{path}h is required", field=path)
    return cosine_defect_hamiltonian(cfg["h"], cfg["c"], cfg["d"])


@dataclass
class RunConfig:
    """A validated scenario request."""

    scenario: str
    params: dict
    seed: int = 0
    out_dir: Path = None
    plots: bool = False

    @classmethod
    def parse(cls, scenario, raw_params, seed=0, out_dir=None, plots=False):
        if scenario not in SCENARIOS:
            raise ValidationError(
                f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
            )
        # a bool is an int, but the report would echo it as true/false
        if (isinstance(seed, bool) or not isinstance(seed, int)
                or not 0 <= seed < 2**64):
            raise ValidationError("seed must be a 64-bit unsigned integer")
        params = _validate_scenario(scenario, raw_params)
        return cls(scenario=scenario, params=params, seed=seed,
                   out_dir=Path(out_dir) if out_dir else None, plots=plots)


_SCHEMAS = {
    "ellipsoid": {
        "a0": (float, True, None, lambda v: v > 0),
        "h": (int, True, None, lambda v: v >= 1),
        # the pullback audit walks the product of the three counts in fixed
        # tiles, so its memory is flat: 64^3 points (~0.2 s) bounds its time
        "pullback_grid": (list, False, [32, 32, 32],
                          lambda v: len(v) == 3 and all(
                              isinstance(x, int) and 4 <= x <= 64 for x in v)),
        "self_linking": (bool, False, True, None),
        "push_eps": (float, False, 0.02, lambda v: 1e-3 <= v <= 1e-1),
        "n_samples": (int, False, 512, lambda v: 16 <= v <= 4096),
    },
    "cut-check": {
        "hamiltonian": (dict, True, None, None),
        "eps": (float, False, 0.25, lambda v: 0 < v < 1),
        "k_max": (int, False, 4, lambda v: 0 <= v <= 4),
        "expected_a": (float, False, None, None),
    },
    "return-map": {
        "hamiltonian": (dict, True, None, None),
        "n_points": (int, False, 50, lambda v: 1 <= v <= 2000),
        # one rotation estimate per radius, at most one per sampled point
        "radii": (list, False, [0.3, 0.6],
                  lambda v: len(v) <= 2000 and all(
                      isinstance(r, (int, float)) and 0 < r < 1 for r in v)),
        # at most 20000 RK4 steps per period, ten times the default count
        "step": (float, False, TWO_PI / 2000.0, lambda v: v >= TWO_PI / 20000.0),
        "area_tol": (float, False, 1e-6, lambda v: v > 0),
    },
    "poincare-lemma": {
        "n": (int, False, 256, lambda v: 32 <= v <= 1024),
        "fixture": (int, False, 1, lambda v: v in (1, 2, 3)),
        "threshold": (float, False, 1e-6, lambda v: v > 0),
    },
    "moser": {
        "n": (int, False, 128, lambda v: 32 <= v <= 512),
        "amplitude": (float, False, 0.2, lambda v: 0 < v < 0.9),
        "steps": (int, False, 48, lambda v: 8 <= v <= 512),
        "threshold": (float, False, 1e-5, lambda v: v > 0),
    },
    "pseudorotation": {
        "h": (int, True, None, lambda v: v >= 1),
        "target_a": (float, False, None, lambda v: 0 < v < 1),
        "count": (int, False, 3, lambda v: 1 <= v <= 8),
        "amplitude0": (float, False, 0.1, lambda v: 0 <= v < 0.5),
        "delta0": (float, False, 0.4, lambda v: 0 < v < 0.8),
        "mode": (int, False, 2, lambda v: 1 <= v <= 6),
        # a stage's return map takes about 26 ms: at most about 4.3 minutes
        "orbit_iterations": (int, False, 128, lambda v: 0 <= v <= 10_000),
    },
    "self-linking": {
        "a0": (float, True, None, lambda v: v > 0),
        "h": (int, True, None, lambda v: v >= 1),
        "push_eps": (float, False, 0.02, lambda v: 1e-3 <= v <= 1e-1),
        "n_samples": (int, False, 512, lambda v: 16 <= v <= 4096),
    },
}
SCENARIOS = tuple(_SCHEMAS)


def _validate_scenario(scenario, raw):
    params = _check_fields(raw, _SCHEMAS[scenario])
    if "hamiltonian" in params:
        params["hamiltonian_obj"] = parse_hamiltonian(params["hamiltonian"])
    if scenario == "pseudorotation":
        # each stage's periodic scan runs q return maps; the exact expansion is cheap
        try:
            q = max(den for _, den in continued_fraction_convergents(
                params["target_a"] or golden_mean_inverse(), params["count"]))
        except PreconditionError as exc:
            raise ValidationError(f"target_a, count: {exc}", field="target_a") from exc
        if q > MAX_SCAN_PERIOD:
            raise ValidationError(f"target_a, count: a convergent's q = {q} is above "
                                  f"the scan's {MAX_SCAN_PERIOD}", field="target_a")
    return params


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Config echo, per-operation results, and scored pass/fail checks."""

    config: dict
    results: dict
    checks: list
    wall_times: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_dict(self):
        # wall times are deliberately excluded: the report bytes must be a
        # pure function of (config, seed)
        return {
            "version": __version__,
            "config": self.config,
            "results": self.results,
            "checks": self.checks,
            "pass": self.passed,
        }


def _check(name, value, threshold, passed=None, mode="<="):
    if passed is None:
        passed = value <= threshold if mode == "<=" else value >= threshold
    return {
        "name": name,
        "score": float(value),
        "threshold": float(threshold),
        "mode": mode,
        "pass": bool(passed),
    }


def _strict_json(obj, **kwargs):
    """Standard JSON text: NaN and +-Infinity are an evaluation failure."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False, **kwargs) + "\n"
    except ValueError as exc:
        raise EvaluationError(f"result is not finite JSON: {exc}") from exc


def _csv_text(header, columns):
    """CSV text: the header line, then one line per index of the equal-length
    ``columns``.  ``tolist`` turns each cell into a Python number, whose
    repr is plain (a numpy scalar's is ``np.float64(...)``)."""
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> RunReport:
    """Execute one scenario and assemble its report (plus files)."""
    # numpy loads numpy.random (some 6 MiB) on first use: the scenarios
    # that use it load it here, off the clock
    rng = (np.random.default_rng(config.seed)
           if config.scenario in _RANDOM_SCENARIOS else None)
    t0 = time.perf_counter()
    runner = _RUNNERS[config.scenario]
    results, checks, plots = runner(config.params, rng)
    csv_files = results.pop("_csv", [])
    wall = {"total_s": time.perf_counter() - t0}

    echo = {k: v for k, v in config.params.items() if not k.endswith("_obj")}
    report = RunReport(
        config={"scenario": config.scenario, "seed": config.seed, "params": echo},
        results=results,
        checks=checks,
        wall_times=wall,
    )
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if config.plots:
            emit_plots(plots, config.out_dir, report)
        # serialize both before writing either, so a non-finite value
        # leaves no partial report behind
        report_text = _strict_json(report.to_dict(), sort_keys=True)
        timings_text = _strict_json(report.wall_times)
        (config.out_dir / "report.json").write_text(report_text)
        (config.out_dir / "timings.json").write_text(timings_text)
        for name, text in csv_files:
            (config.out_dir / name).write_text(text)
    return report


def emit_plots(plot_series, out_dir: Path, report: RunReport = None):
    """Write deterministic SVG files for the plottable series of a run.

    Series the emitter cannot draw are skipped with a notice in the
    report's results (when a report is supplied).
    """
    from . import svgplots

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written, notices = [], []
    for name, kind, payload in plot_series:
        try:
            if kind == "polyline":
                data = svgplots.polyline_svg(payload["series"], title=payload["title"])
            elif kind == "histogram":
                data = svgplots.histogram_svg(payload["edges"], payload["counts"],
                                              title=payload["title"])
            else:
                notices.append(f"{name}: no renderer for kind {kind!r}")
                continue
            path = out_dir / f"{name}.svg"
            path.write_bytes(data)
            written.append(path.name)
        except (ValueError, KeyError) as exc:
            notices.append(f"{name}: skipped ({exc})")
    if report is not None:
        report.results["plots"] = {"written": written, "notices": notices}
    return written, notices


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------


def _run_ellipsoid(params, rng):
    a0, h = params["a0"], params["h"]
    H = QuadraticHamiltonian(a0, h - a0)
    chart = BindingChart(h=h)
    cz = cz_ellipsoid(a0)
    res = resonance_check(h, a0 - h)

    grid = params["pullback_grid"]
    residual = pullback_residual(QuotientMapSpec("ellipsoid", h=h, a0=a0), H,
                                 n_s=grid[0], n_r=grid[1], n_theta=grid[2])

    # chart-wide rho grid; below ~0.05 the 1/rho^2 cancellation leaves
    # only rounding, which the extension test's limit machinery owns
    rho = np.linspace(0.05, 0.95 * chart.rho_max, 10)
    b = rng.uniform(0.0, TWO_PI, 16)
    vt = rng.uniform(0.0, TWO_PI, 16)
    f_err = float(np.max(np.abs(
        binding_function_f(H, chart, b[:, None], rho[None, :], vt[:, None])
        - a0 * (2.0 - rho[None, :] ** 2)
    )))
    audit = extended_contact_audit(make_f_tilde(H, chart))

    results = {
        "cz": cz.to_dict(),
        "resonance": res,
        "pullback_residual": residual,
        "binding_f_error": f_err,
        "extended_contact": audit.to_dict(),
    }
    checks = [
        _check("pullback_residual", residual, 1e-6),
        _check("binding_f_exactness", f_err, 1e-12),
        _check("resonance_defect", res["proportionality_defect"], 1e-12),
        _check("dynamically_convex", float(cz.dynamically_convex), 1.0, mode=">="),
        _check("extended_contact_pass", float(audit.passed), 1.0, mode=">="),
    ]
    plots = []
    if params["self_linking"]:
        sl = self_linking(QuotientMapSpec("ellipsoid", h=h, a0=a0), H,
                          push_eps=params["push_eps"],
                          n_samples=params["n_samples"])
        results["self_linking"] = sl.to_dict()
        checks.append(_check("self_linking_value", float(sl.value), -1.0,
                             passed=sl.value == -1))
        checks.append(_check("self_linking_confidence", sl.confidence, 0.05))
    return results, checks, plots


def _run_cut_check(params, rng):
    H = params["hamiltonian_obj"]
    h = int(round(H.boundary_value))
    chart = BindingChart(h=h, eps=params["eps"])
    audit = contact_audit(H, SamplingGrid(16, 32, 32))
    settings = ExtensionSettings(k_max=params["k_max"],
                                 expected_a=params["expected_a"])
    report = extension_test(H, chart, settings)

    results = {"contact": audit.to_dict(), "extension": report.to_dict()}
    checks = [
        _check("contact_margin_min", -audit.min_margin, 0.0,
               passed=audit.min_margin > 0),
        _check("boundary_slope", audit.boundary_slope_max, 2.0 * h,
               passed=audit.boundary_slope_max < 2.0 * h),
    ]
    for v in report.verdicts:
        checks.append(_check(f"extension_C{v.order}", v.score, v.threshold,
                             passed=v.passed))
    rungs = settings.rungs()
    dirs = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    prof = binding_function_f(H, chart, 0.0, rungs[None, :], dirs[:, None])
    plots = [(
        "f_profiles", "polyline",
        {
            "series": [(rungs, prof[i]) for i in range(len(dirs))],
            "title": "binding function f along the rho ladder, per direction",
        },
    )]
    # one row per (direction, rung), the rungs running fastest
    results["_csv"] = [("f_profile.csv", _csv_text("rho,vartheta,f", (
        np.tile(rungs, len(dirs)), np.repeat(dirs, len(rungs)), prof.ravel())))]
    return results, checks, plots


def _run_return_map(params, rng):
    H = params["hamiltonian_obj"]
    settings = FlowSettings(step=params["step"])
    n = params["n_points"]
    radii = np.sqrt(rng.uniform(0.05, 0.9, n))
    angles = rng.uniform(0.0, TWO_PI, n)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    rep = return_map_report(H, pts, settings,
                            rotation_radii=params["radii"])
    results = {
        "max_area_defect": rep.max_area_defect,
        "rotation_by_radius": rep.rotation_by_radius,
        "n_points": n,
    }
    checks = [_check("area_defect", rep.max_area_defect, params["area_tol"])]
    series = [(t[:, 0], t[:, 1]) for t in rep.traces.swapaxes(0, 1)]
    plots = [("orbit_traces", "polyline",
              {"series": series, "title": "isotopy traces over one period"})]
    return results, checks, plots


def _run_poincare(params, rng):
    n = params["n"]

    def residual(m):  # one grid at a time: its arrays go before the next
        eta = zero_integral_fixture(params["fixture"], m)
        return primitive_residual(eta, poincare_primitive(eta))

    res, res2 = residual(n), residual(2 * n)
    order = float(np.log2(res / res2)) if res2 > 0 else float("inf")
    results = {"residual": res, "residual_doubled": res2, "observed_order": order}
    checks = [
        _check("primitive_residual", res, params["threshold"]),
        _check("convergence_order", order, 2.0, mode=">="),
    ]
    return results, checks, []


def _run_moser(params, rng):
    n, amp = params["n"], params["amplitude"]
    w0, w1 = _moser_densities(n, amp)
    psi = moser_flow(w0, w1, settings=MoserSettings(steps=params["steps"]))
    res = moser_pullback_residual(psi, w0, w1)
    d = psi.displacement()
    m = 2
    edge = float(np.max([np.abs(d[:m]).max(), np.abs(d[-m:]).max(),
                         np.abs(d[:, :m]).max(), np.abs(d[:, -m:]).max()]))
    results = {"pullback_residual": res, "boundary_displacement": edge,
               "max_displacement": float(np.abs(d).max())}
    checks = [
        _check("moser_residual", res, params["threshold"]),
        _check("identity_margin", edge, 0.0, passed=edge == 0.0),
    ]
    return results, checks, []


def _moser_densities(n, amp):
    base = zero_integral_fixture(2, n)
    scale = amp / np.maximum(1e-12, np.max(np.abs(base.values)))
    w0 = GridFunction2D(np.ones((n, n)), compact=False)
    w1 = GridFunction2D(1.0 + scale * base.values, compact=False)
    return w0, w1


def _run_pseudorotation(params, rng):
    target = params["target_a"] or golden_mean_inverse()
    schedule = ConjugatorSchedule(
        delta0=params["delta0"], amplitude0=params["amplitude0"],
        mode=params["mode"],
    )
    report = stage_sequence(target, params["count"], params["h"],
                            schedule=schedule,
                            settings=FlowSettings(step=TWO_PI / 600),
                            orbit_iterations=params["orbit_iterations"])
    results = report.to_dict()
    checks = []
    for st, f0, f0x in zip(report.stages, report.f0_values, report.f0_expected):
        d = st.diagnostics
        checks.append(_check(f"stage{st.nu}_contact",
                             float(d["contact"]["pass"]), 1.0, mode=">="))
        checks.append(_check(f"stage{st.nu}_extension",
                             float(d["extension_pass"]), 1.0, mode=">="))
        checks.append(_check(f"stage{st.nu}_f0", abs(f0 - f0x), 1e-8))
        checks.append(_check(f"stage{st.nu}_periodic_q",
                             float(st.q in d["periodic_periods"]), 1.0, mode=">="))
    plots = [("f0_convergence", "polyline", {
        "series": [(np.arange(1, len(report.f0_values) + 1),
                    np.asarray(report.f0_values))],
        "title": "extension limit f(0) per stage",
    })]
    stats = report.orbit
    if stats is not None:
        plots.append(("theta_histogram", "histogram", {
            "edges": stats.theta_histogram[1],
            "counts": stats.theta_histogram[0],
            "title": "angular histogram, final stage orbit",
        }))
        counts, edges = stats.theta_histogram
        results["_csv"] = [("theta_histogram.csv", _csv_text(
            "bin_left,bin_right,count", (edges[:-1], edges[1:], counts)))]
    return results, checks, plots


def _run_self_linking(params, rng):
    a0, h = params["a0"], params["h"]
    H = QuadraticHamiltonian(a0, h - a0)
    sl = self_linking(QuotientMapSpec("ellipsoid", h=h, a0=a0), H,
                      push_eps=params["push_eps"],
                      n_samples=params["n_samples"])
    results = {"self_linking": sl.to_dict()}
    checks = [
        _check("self_linking_value", float(sl.value), -1.0,
               passed=sl.value == -1),
        _check("confidence", sl.confidence, 0.05),
    ]
    return results, checks, []


# the scenarios that load numpy.random: ellipsoid and return-map read their
# rng, self-linking seeds its own pole draw; the others are passed None
_RANDOM_SCENARIOS = ("ellipsoid", "return-map", "self-linking")

_RUNNERS = {
    "ellipsoid": _run_ellipsoid,
    "cut-check": _run_cut_check,
    "return-map": _run_return_map,
    "poincare-lemma": _run_poincare,
    "moser": _run_moser,
    "pseudorotation": _run_pseudorotation,
    "self-linking": _run_self_linking,
}
