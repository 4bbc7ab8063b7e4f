"""Self-check of the benchmark harness on tiny configs (about a minute).

    python3 -m pytest bench/test_bench.py
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import reebcut  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from scipy.interpolate import _fitpack2  # noqa: E402
from workloads import Invocation  # noqa: E402

TINY_STAGE = Invocation(
    "pseudorotation", {"h": 2, "count": 1, "orbit_iterations": 0}, 0,
    tuple((f"stage1_{c}", True)
          for c in ("contact", "extension", "f0", "periodic_q")),
    "d29b72b54d69874510bc9f93ec9ab21713d8d64e1d26861d97c0658ffad377d2")

# n = 32 is below the resolution the residual threshold assumes, so the
# pinned outcome of this config is exit 1 with moser_residual failing.
TINY_MOSER = Invocation(
    "moser", {"n": 32}, 1,
    (("moser_residual", False), ("identity_margin", True)),
    "42c478cd7b782c10c6b8c7ae1223818d1fa13adbf1576201b8effd998ef82f1b")


def _namespaces():
    """Every namespace the tracer may patch, copied attribute by attribute."""
    owners = [m for name, m in sys.modules.items()
              if name == "reebcut" or name.startswith("reebcut.")]
    owners += tracer._all_subclasses(reebcut.Hamiltonian)
    owners += [reebcut.pseudorotations.DiscDiffeo,
               _fitpack2._BivariateSplineBase, _fitpack2.RectBivariateSpline]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrappers_install_and_uninstall_cleanly():
    import reebcut.cli  # noqa: F401  (the launcher imports it first)
    import reebcut.svgplots  # noqa: F401  (imported lazily by the CLI)

    before = _namespaces()
    tr = tracer.Tracer().install()
    try:
        flows, pseudo = reebcut.flows, reebcut.pseudorotations
        assert flows.return_map is not before[id(flows)][1]["return_map"]
        assert pseudo.return_map is flows.return_map
        assert reebcut.return_map is flows.return_map
        assert "velocity" in vars(reebcut.Hamiltonian)
        assert (reebcut.Hamiltonian.velocity
                is not before[id(reebcut.Hamiltonian)][1]["velocity"])

        H = reebcut.RigidRotationHamiltonian(2, 1, 3)
        settings = reebcut.FlowSettings(step=0.25)  # 2*pi/0.25 -> 26 steps
        flows.return_map(H, np.array([0.5, 0.0]), settings)
        flows.linearized_return(H, np.zeros((3, 2)) + 0.1, settings)
    finally:
        tr.uninstall()
    c = tr.counters
    assert c["flows.single_point_calls"] == 1
    assert c["flows.point_steps"] == 26 + 3 * 26
    # four RK4 stages per step; the variational field calls velocity and
    # velocity_jacobian side by side, and each calls grad or hessian nested
    assert c["hamiltonians.oracle_calls"] == 4 * 26 + 2 * 4 * 26
    assert c["hamiltonians.oracle_points"] == 4 * 26 + 3 * 2 * 4 * 26

    after = _namespaces()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        changed = [a for a in attrs if now[a] is not attrs[a]]
        assert not changed, (owner, changed)


def test_summarize_self_time_within_span(tmp_path):
    tr = tracer.Tracer()
    outer = tr.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    inner = tr.wrap("inner", lambda: time.sleep(0.01))
    outer()
    tr.dump(tmp_path / "spans.npz")
    s = tracer.summarize(tracer.load(tmp_path / "spans.npz"), root="outer")
    assert s["spans"]["outer"]["calls"] == 1
    assert 0 < s["spans"]["outer"]["self_s"] < s["spans"]["outer"]["total_s"]
    assert 0.4 < 1 - s["root_self_s"] / s["root_s"] < 0.6


def _run(invs, tmp_path):
    return run.Run(invs, 0, run.child_env(),
                   deadline=time.perf_counter() + 170, out=tmp_path)


def test_traced_run_of_tiny_workload(tmp_path):
    r = _run((TINY_STAGE, TINY_MOSER), tmp_path)
    metrics = run.traced(r)
    assert r.failed == 0 and r.attempted == 4
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    coverage = metrics["trace.coverage"][0]
    assert 0.9 <= coverage <= 1.0
    assert metrics["trace.overhead_ratio"][0] > 0
    assert metrics["pseudorotations.stage_build_s"][0] > 0
    assert metrics["moser.moser_flow_s"][0] > 0
    assert metrics["flows.periodic_found"][0] > 0
    for s in r.passes[-1]["samples"]:
        summary = tracer.summarize(tracer.load(s.dir / "spans.npz"))
        assert summary["min_self_s"] >= -1e-9
        for row in summary["spans"].values():
            assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9


def test_forced_deviation_raises_failed_ratio(tmp_path):
    wrong = dataclasses.replace(TINY_MOSER, exit_code=0)
    r = _run((wrong,), tmp_path)
    r.one_pass("pass0")
    assert r.failed == 1 and r.attempted == 1


def test_digests_and_strict_parse(tmp_path):
    r = _run((TINY_MOSER,), tmp_path)
    r.one_pass("pass0")
    assert r.failed == 0
    raw = (r.passes[0]["samples"][0].dir / "out" / "report.json").read_bytes()
    report = run.strict_json(raw)
    assert run.canonical_digest(report) == TINY_MOSER.digest
    report["config"]["seed"] = 7
    assert run.canonical_digest(report) == TINY_MOSER.digest
    with pytest.raises(ValueError):
        run.strict_json('{"score": NaN}')


def test_end_to_end_metrics_match_the_spec(tmp_path):
    r = _run((workloads.CUT_CHECK,), tmp_path)
    metrics = run.end_to_end(r, seconds=0.1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert all(value > 0 for value, _ in metrics.values())
    assert r.attempted == 1 and r.failed == 0
    assert len(r.setups) == run.SETUP_SAMPLES


def test_entry_point_refuses_missing_source(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "square-moser", "--seed", "1"]) == 2
