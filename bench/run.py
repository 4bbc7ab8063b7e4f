"""The reebcut benchmark: CLI workloads timed end to end, traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; NAME is a workload of
``workloads.py`` or ``all``.  Each workload is a fixed list of
``reebcut <scenario>`` invocations (see ``workloads.py``), run one at a
time from this single parent process, each in a fresh interpreter through
``launcher.py`` with a hermetic environment: ``REEBCUT_THREADS`` unset (so
stage builds are serial), BLAS/OpenMP pools pinned to one thread and
``PYTHONPATH`` set to this checkout's ``src``.  The seed is passed as
``--seed`` to every invocation.

``--trace 0`` (closed loop, one client) first spawns launchers that only
import ``reebcut.cli`` (enough that the probes and one pass give
``SETUP_SAMPLES`` import times, and at least ``MIN_PROBES``), then repeats
whole passes over the workload until ``--seconds`` have elapsed (at least
one pass), and prints:

    wall_s        wall time of one pass (median over passes)
    compute_s     sum of timings.json total_s over a pass (median)
    setup_s       spawn-to-``reebcut.cli``-imported time summed over a pass,
                  as invocations x the median over every spawn of the run
    cpu_s         user + sys time of the pass's children (median)
    peak_rss_mb   largest per-invocation max RSS in a pass (median)
    conforming_ratio  1 - deviating invocations / invocations attempted
    accuracy_headroom_decades  min log10(threshold / score) over the
                  expected-PASS ``<=`` checks with finite positive score

CPU time and RSS come from ``os.wait4`` on each child, so they belong to
that invocation alone.  An invocation deviates when its exit code or
PASS/FAIL list differs from the pinned one, when ``report.json`` or
``timings.json`` fails a strict parse (no NaN/Infinity), when its report
differs from the pinned digest (every seed for reports that do not depend
on the seed beyond echoing it, the default seed otherwise), or when the
report bytes differ between repeats of the run.

``--trace 1`` runs one untraced pass, then the same pass with the tracer
installed in each child, checks that the report bytes agree, and prints
the per-layer metrics of the traced pass.  Which end-to-end metric each
layer metric should move, and on which workload:

    reports.*            compute_s everywhere; emit_plots_s on audit-batch only
    hamiltonians.*       compute_s on stage-sequence; points_per_call is the
                         oracle batching ratio
    flows.*              compute_s and wall_s on stage-sequence; no change on
                         audit-batch, which already integrates in batches
    pseudorotations.*    compute_s and peak_rss_mb on stage-sequence; zero
                         elsewhere
    splines.*            call counts on stage-sequence, points on square-moser
    binding.*            compute_s on audit-batch, per stage on stage-sequence
    invariants.*         compute_s on audit-batch
    moser.*              compute_s on square-moser
    trace.*              nothing: coverage is the share of reports.run time
                         inside named child spans, overhead_ratio is traced
                         over untraced compute_s

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the arguments or the checkout are unusable; no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
LAUNCHER = BENCH / "launcher.py"
SETUP_SAMPLES = 8
MIN_PROBES = 3
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
DROPPED_VARS = ("REEBCUT_THREADS", "PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP",
                "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE", "PYTHONWARNINGS")


class UsageError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARS}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment_facts(env):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    def git(*args):
        try:
            out = subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "dirty": dirty,
        "threads": {k: env.get(k) for k in THREAD_VARS + ("REEBCUT_THREADS",)},
    }


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """What one invocation left behind, read after the pass is timed."""

    inv: object
    dir: Path
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawned_at: float
    traced: bool


def spawn(mode, work, cli_args, env, deadline):
    """Run the launcher once; return (rc, spawn time, rusage, wall)."""
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "stdout.txt", "wb") as out, \
            open(work / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), str(work / "meta.json"), mode,
             *cli_args],
            env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, usage, wall


def run_pass(invs, work_dir, mode, seed, env, deadline):
    """Run every invocation once; return (pass wall seconds, samples)."""
    samples = []
    t0 = time.perf_counter()
    for i, inv in enumerate(invs):
        work = work_dir / f"{i}-{inv.scenario}"
        args = [inv.scenario, "--config", str(work / "config.json"),
                "--out", str(work / "out"), "--seed", str(seed)]
        if inv.plots:
            args.append("--plots")
        work.mkdir(parents=True)
        (work / "config.json").write_text(json.dumps(inv.config))
        rc, spawned, usage, wall = spawn(mode, work, args, env, deadline)
        samples.append(Sample(inv, work, rc, wall,
                              usage.ru_utime + usage.ru_stime,
                              usage.ru_maxrss / 1024.0, spawned, mode == "1"))
    return time.perf_counter() - t0, samples


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def canonical_digest(report):
    """sha256 of the report as written for seed DEFAULT_SEED."""
    canon = dict(report, config=dict(report["config"], seed=DEFAULT_SEED))
    text = json.dumps(canon, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """The verdict on one sample against its pinned expectation."""

    deviations: list
    digest: str | None
    compute_s: float
    setup_s: float
    headroom: float


def check(sample, seed):
    inv, dev = sample.inv, []
    if sample.rc != inv.exit_code:
        dev.append(f"exit {sample.rc}, pinned {inv.exit_code}")
    digest, report, compute, setup = None, None, math.nan, math.nan
    try:
        raw = (sample.dir / "out" / "report.json").read_bytes()
        report = strict_json(raw)
        compute = float(strict_json(
            (sample.dir / "out" / "timings.json").read_text())["total_s"])
        setup = (strict_json((sample.dir / "meta.json").read_text())
                 ["imported_at"] - sample.spawned_at)
        digest = hashlib.sha256(raw).hexdigest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        dev.append(f"unreadable output: {exc}")
    if sample.traced and not (sample.dir / "spans.npz").is_file():
        dev.append("no spans written")
    headroom = math.inf
    if report is not None:
        checks = tuple((c["name"], c["pass"]) for c in report["checks"])
        if checks != inv.checks:
            dev.append(f"checks {checks}, pinned {inv.checks}")
        if ((seed == DEFAULT_SEED or not inv.seeded)
                and canonical_digest(report) != inv.digest):
            dev.append(f"report digest differs from pinned {inv.digest}")
        expected_pass = {name for name, ok in inv.checks if ok}
        for c in report["checks"]:
            if (c["name"] in expected_pass and c["mode"] == "<="
                    and 0 < c["score"] < math.inf and c["threshold"] > 0):
                headroom = min(headroom, math.log10(c["threshold"] / c["score"]))
    return Outcome(dev, digest, compute, setup, headroom)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Run:
    """The passes of one benchmark run and their verdicts."""

    def __init__(self, invs, seed, env, deadline, out):
        self.invs, self.seed, self.env = invs, seed, env
        self.deadline, self.out = deadline, out
        self.attempted = self.failed = 0
        self.first_digest = {}
        self.passes = []
        self.setups = []

    def one_pass(self, tag, mode="0"):
        wall, samples = run_pass(self.invs, self.out / tag, mode, self.seed,
                                 self.env, self.deadline)
        outcomes = []
        for i, s in enumerate(samples):
            o = check(s, self.seed)
            first = self.first_digest.setdefault(i, o.digest)
            if o.digest != first:
                o.deviations.append(f"report bytes differ from the first "
                                    f"repeat ({first})")
            self.attempted += 1
            self.failed += bool(o.deviations)
            self.setups.append(o.setup_s)
            print(f"  {tag:>8} {s.inv.scenario:<15} exit={s.rc} "
                  f"wall={s.wall_s:.3f}s compute={o.compute_s:.3f}s "
                  f"setup={o.setup_s:.3f}s cpu={s.cpu_s:.3f}s "
                  f"rss={s.rss_mb:.1f}MiB sha256={o.digest}")
            for d in o.deviations:
                print(f"           DEVIATION: {d}")
            outcomes.append(o)
        result = {
            "wall_s": wall,
            "compute_s": sum(o.compute_s for o in outcomes),
            "cpu_s": sum(s.cpu_s for s in samples),
            "peak_rss_mb": max(s.rss_mb for s in samples),
            "headroom": min(o.headroom for o in outcomes),
            "samples": samples,
        }
        self.passes.append(result)
        return result

    def probe(self, n):
        for i in range(n):
            work = self.out / "probe" / str(i)
            _, spawned, _, _ = spawn("probe", work, [], self.env, self.deadline)
            try:
                meta = strict_json((work / "meta.json").read_text())
                self.setups.append(meta["imported_at"] - spawned)
            except (OSError, ValueError, KeyError) as exc:
                print(f"  probe {i}: no import time recorded ({exc})")


def end_to_end(run, seconds):
    run.probe(max(MIN_PROBES, SETUP_SAMPLES - len(run.invs)))
    start = time.perf_counter()
    while not run.passes or time.perf_counter() - start < seconds:
        run.one_pass(f"pass{len(run.passes)}")
    med = {k: statistics.median(p[k] for p in run.passes)
           for k in ("wall_s", "compute_s", "cpu_s", "peak_rss_mb")}
    finite = [s for s in run.setups if math.isfinite(s)]
    return {
        "wall_s": (med["wall_s"], "s"),
        "compute_s": (med["compute_s"], "s"),
        "setup_s": (len(run.invs) * statistics.median(finite) if finite
                    else math.nan, "s"),
        "cpu_s": (med["cpu_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MiB"),
        "conforming_ratio": (1.0 - run.failed / run.attempted, "ratio"),
        "accuracy_headroom_decades": (
            min(p["headroom"] for p in run.passes), "decades"),
    }


def traced(run):
    import tracer

    plain = run.one_pass("untraced")
    traced_pass = run.one_pass("traced", mode="1")
    spans, counters = {}, {}
    root_s = root_self_s = 0.0
    for s in traced_pass["samples"]:
        if not (s.dir / "spans.npz").is_file():
            continue
        summary = tracer.summarize(tracer.load(s.dir / "spans.npz"))
        for name, row in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in summary["counters"].items():
            counters[k] = counters.get(k, 0) + v
        root_s += summary["root_s"]
        root_self_s += summary["root_self_s"]
        top = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"])
        print(f"  {s.inv.scenario}: {summary['n_spans']} spans; top self time: "
              + ", ".join(f"{k} {v['self_s']:.2f}s" for k, v in top[:5]))
    return layer_metrics(spans, counters, root_s, root_self_s,
                         traced_pass["compute_s"] / plain["compute_s"])


def layer_metrics(spans, counters, root_s, root_self_s, overhead):
    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(prefix):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    c = {k: counters.get(k, 0) for k in (
        "hamiltonians.oracle_calls", "hamiltonians.oracle_points",
        "flows.single_point_calls", "flows.point_steps", "flows.periodic_found",
        "flows.newton_converged", "pseudorotations.conjugator_points",
        "splines.eval_points")}
    integrate_s = total("flows.integrate_isotopy") + total("flows.linearized_return")
    return {
        "reports.run_s": (total("reports.run"), "s"),
        "reports.emit_plots_s": (total("reports.emit_plots"), "s"),
        "hamiltonians.oracle_calls": (c["hamiltonians.oracle_calls"], "count"),
        "hamiltonians.oracle_points": (c["hamiltonians.oracle_points"], "count"),
        "hamiltonians.points_per_call": (
            ratio(c["hamiltonians.oracle_points"],
                  c["hamiltonians.oracle_calls"]), "point/call"),
        "hamiltonians.oracle_self_s": (self_time("hamiltonians.oracle."), "s"),
        "hamiltonians.contact_audit_s": (total("hamiltonians.contact_audit"), "s"),
        "flows.return_map_calls": (calls("flows.return_map"), "count"),
        "flows.linearized_return_calls": (calls("flows.linearized_return"),
                                          "count"),
        "flows.single_point_calls": (c["flows.single_point_calls"], "count"),
        "flows.point_steps": (c["flows.point_steps"], "count"),
        "flows.us_per_point_step": (
            1e6 * ratio(integrate_s, c["flows.point_steps"]), "us"),
        "flows.periodic_scan_s": (total("flows.periodic_point_scan"), "s"),
        "flows.periodic_found": (c["flows.periodic_found"], "count"),
        "flows.newton_converged_ratio": (
            ratio(c["flows.newton_converged"], c["flows.periodic_found"]),
            "ratio"),
        "flows.self_s": (self_time("flows."), "s"),
        "pseudorotations.stage_sequence_s": (
            total("pseudorotations.stage_sequence"), "s"),
        "pseudorotations.stage_build_s": (
            total("pseudorotations.conjugated_stage"), "s"),
        "pseudorotations.conjugator_points": (
            c["pseudorotations.conjugator_points"], "count"),
        "pseudorotations.orbit_statistics_s": (
            total("pseudorotations.orbit_statistics"), "s"),
        "pseudorotations.self_s": (self_time("pseudorotations."), "s"),
        "splines.fit_calls": (calls("splines.fit"), "count"),
        "splines.fit_s": (total("splines.fit"), "s"),
        "splines.eval_calls": (calls("splines.eval"), "count"),
        "splines.eval_points": (c["splines.eval_points"], "count"),
        "splines.points_per_eval": (
            ratio(c["splines.eval_points"], calls("splines.eval")),
            "point/eval"),
        "splines.eval_s": (total("splines.eval"), "s"),
        "binding.extension_test_calls": (calls("binding.extension_test"),
                                         "count"),
        "binding.extension_test_s": (total("binding.extension_test"), "s"),
        "binding.extended_contact_audit_s": (
            total("binding.extended_contact_audit"), "s"),
        "binding.pullback_residual_s": (total("binding.pullback_residual"), "s"),
        "invariants.self_linking_s": (total("invariants.self_linking"), "s"),
        "invariants.gauss_linking_s": (
            total("invariants.gauss_linking_integral"), "s"),
        "moser.poincare_primitive_s": (total("moser.poincare_primitive"), "s"),
        "moser.moser_flow_s": (total("moser.moser_flow"), "s"),
        "moser.residual_s": (total("moser.primitive_residual")
                             + total("moser.moser_pullback_residual"), "s"),
        "trace.coverage": (1.0 - ratio(root_self_s, root_s), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        raise UsageError("--seconds must be positive")
    if not (ROOT / "src" / "reebcut" / "cli.py").is_file():
        raise UsageError(f"no reebcut source under {ROOT / 'src'}")
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = child_env()
    print("env:", json.dumps(environment_facts(env), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    shutil.rmtree(OUT, ignore_errors=True)
    attempted = failed = 0
    results = {}
    for name in names:
        print(f"workload {name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}: {WORKLOADS[name][0]}")
        run = Run(WORKLOADS[name][1], args.seed, env,
                  deadline=time.perf_counter() + RUN_BUDGET_S, out=OUT / name)
        metrics = traced(run) if args.trace else end_to_end(run, args.seconds)
        for metric, (value, unit) in metrics.items():
            print(f"{name:<15} {metric:<34} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            results[key] = {"value": value, "unit": unit}
        attempted += run.attempted
        failed += run.failed
    try:
        line = json.dumps({"correct": failed == 0, "attempted": attempted,
                           "failed": failed, "metrics": results},
                          allow_nan=False)
    except ValueError:
        print("error: a metric is not finite; see the deviations above",
              file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
