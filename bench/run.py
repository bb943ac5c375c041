"""fragsim benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep_nsfnet --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Each workload run is one fresh child process (`bench/child.py`) that
imports fragsim from the checkout's `src`, sets up (topology, trail cover,
bounds, routes) and drives one CLI command through `fragsim.cli.main`,
with every CLI parameter given explicitly and the cover passed as
`--paths`. Runs repeat, one at a time, for `--seconds` seconds.

--trace 0 reports the end-to-end metrics:
  setup_s         import + topology + cover + bounds + routes in a fresh
                  process; calibrated, mean over runs
  arrivals_per_s  arrivals the command processed / wall time of cli.main;
                  calibrated, over all runs together
  peak_rss_mb     peak resident set of the child, in MiB; the median run
--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of `trace_layers.py` from the fastest traced run, plus
`trace_overhead_pct` (calibrated arrivals_per_s of the untraced runs
against that of the traced runs).

Calibration. On a shared 2-vCPU VM (Xeon, KVM) the machine's speed moved
between about 0.4x and 1.0x from one 20 ms slice to the next, and the share
of slow slices drifted over minutes, so raw timings of the same work spread
0.07-0.3 (IQR/median) across 50 s invocations. CPU time slowed down exactly
as much as wall time, so it does not help. Each child therefore times a
fixed reference loop (`reference.py`) just before and just after cli.main,
in the same process, and each run's times are divided by its slowdown
(mean loop time / NOMINAL_S): they are the times the run would have taken
with the loop at full speed. Over ten seeds at 50 s, with the machine at
1.5x-2.5x slowdown, this cut the spread of arrivals_per_s from 0.241 to
0.023 on sweep_nsfnet and from 0.198 to 0.044 on transient_german, and of
setup_s from 0.246 to 0.054 and from 0.157 to 0.057. A loop timed in the
parent between runs tracked the runs less well (5 seeds: 0.055 against
0.017 on sweep_nsfnet). Runs are short (0.2-0.3 s inside cli.main), so
dozens interleave with the loop in one measurement. The uncalibrated
figures, the loop times and every run's figures stay in the report.

One operation is one workload run. It fails on a nonzero exit, an output
outside its range, or CSV digests that differ from the other runs of the
same seed. After the timed runs, `checks.py` compares `snapshot_report`
with a naive per-slice implementation on the worked example and on states
the workload's config reaches through `Simulation.run`, and checks the
simulator's counters; these run outside the timed region. The last stdout
line is the JSON result; a fuller report, with provenance, is written to
`.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
from reference import NOMINAL_S
from trace_layers import layer_metrics

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join("src", "fragsim", "data")
WORK_ROOT = ".bench_work"
OUT_ROOT = ".bench_out"
DEADLINE_S = 170.0       # the whole invocation, every workload in it, ends within 180 s
CHECK_MARGIN_S = 20.0    # kept for the state checks and the report
MIN_TIMED_RUNS = 3

# Every value flag of the CLI, pinned at this commit's defaults so that a
# later change of a default does not change any workload.
CLI_DEFAULTS = {"replications": 10, "load": 50.0, "max_demand": 16, "arrivals": 5000,
                "sample_every": 25, "warmup": 20000, "measure": 30000,
                "loads": [40.0, 60.0, 80.0, 100.0], "max_demands": [16],
                "scan_target": 0.99, "scan_max_arrivals": 500000}


@dataclass(frozen=True)
class Workload:
    command: str
    topology: str              # shipped topology file
    params: dict = field(default_factory=dict)


WORKLOADS = {
    # The steady-state experiment: the event loop dominates, and it has
    # independent replications for a parallel runner to use. `sweep` ignores
    # --sample-every today and samples every 100; passing exactly that keeps
    # the work unchanged once the flag is honoured. Building the NSFNET cover
    # is most of set-up. Utilization reaches its steady level (about 0.5 at
    # load 40, 0.6 at load 80) within the 1000 warm-up arrivals.
    "sweep_nsfnet": Workload("sweep", "nsfnet.json", {
        "loads": [40.0, 80.0], "max_demands": [16], "replications": 2,
        "warmup": 1000, "measure": 1500, "sample_every": 100}),
    # Snapshot-heavy: low-occupancy states on the longest trails. The 250
    # arrivals take utilization from 0 to about 0.3, the early part of the
    # climb to its steady level of about 0.5.
    "transient_german": Workload("transient", "german.json", {
        "load": 60.0, "max_demand": 16, "arrivals": 250, "sample_every": 5,
        "replications": 2}),
}


def cli_argv(wl: Workload, params: dict, topo: str, cover: str, out: str) -> list[str]:
    argv = [wl.command, "--topology", topo, "--paths", cover, "--out", out]
    for key in ["seed", *CLI_DEFAULTS]:
        v = params[key]
        text = ",".join(repr(x) for x in v) if isinstance(v, list) else repr(v)
        argv += ["--" + key.replace("_", "-"), text]
    return argv


@dataclass
class Run:
    kind: str                  # "plain" or "traced"
    ok: bool
    error: str = ""
    setup_s: float = 0.0
    main_s: float = 0.0
    peak_rss_mb: float = 0.0
    arrivals: int = 0
    digests: dict = field(default_factory=dict)
    trail_hops: list = field(default_factory=list)
    trace: dict | None = None
    reference_s: list = field(default_factory=list)    # before and after cli.main

    @property
    def measured(self) -> bool:
        """The command completed and its output could be read."""
        return self.arrivals > 0

    @property
    def arrivals_per_s(self) -> float:
        return self.arrivals / self.main_s

    @property
    def slowdown(self) -> float:
        """How much slower than full speed the machine ran around cli.main."""
        return sum(self.reference_s) / len(self.reference_s) / NOMINAL_S


class Bench:
    def __init__(self, root: str, name: str, seed: int):
        self.root = root
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.params = {**CLI_DEFAULTS, **self.wl.params, "seed": seed}
        self.work = os.path.join(root, WORK_ROOT, f"{name}-seed{seed}-pid{os.getpid()}")
        os.makedirs(self.work)
        self.topology = os.path.join(root, DATA, self.wl.topology)
        self.runs: list[Run] = []

    def child(self, kind: str, timeout: float) -> Run:
        d = os.path.join(self.work, f"run{len(self.runs)}")
        os.makedirs(d)
        out = os.path.join(d, "out")
        cover = os.path.join(d, "cover.json")
        spec = {"src": os.path.join(self.root, "src"), "topology": self.topology,
                "cover": cover,
                "argv": cli_argv(self.wl, self.params, self.topology, cover, out),
                "trace": kind == "traced"}
        spec_path = os.path.join(d, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = {k: v for k, v in os.environ.items() if k != "FRAGSIM_SEED"}
        run = Run(kind, ok=False)
        self.runs.append(run)
        try:
            proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                                   spec_path], capture_output=True, text=True,
                                  timeout=timeout, env=env, cwd=self.root)
        except subprocess.TimeoutExpired:
            run.error = f"timed out after {timeout:.0f} s"
            return run
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            run.error = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return run
        res = json.loads(lines[-1])
        if res["rc"] != 0:
            run.error = f"cli.main returned {res['rc']}: {proc.stderr.strip()[-500:]}"
            return run
        run.setup_s, run.main_s = res["setup_s"], res["main_s"]
        run.peak_rss_mb, run.trail_hops = res["peak_rss_mb"], res["trail_hops"]
        run.trace = res.get("trace")
        run.reference_s = res["reference_s"]
        try:
            errors, run.arrivals = checks.check_outputs(self.wl.command, self.params, out)
            run.digests = checks.csv_digests(out)
        except Exception:  # missing or malformed output fails this run only
            run.error = "output check raised:\n" + traceback.format_exc(limit=3)
            return run
        ref = next((r.digests for r in self.runs if r.digests and r is not run), None)
        if ref is not None and run.digests != ref:
            errors.append("CSV digests differ from the first run of this seed")
        if run.trace is not None:
            if not run.trace["restored"]:
                errors.append("trace wrappers did not restore the originals")
            first = next((r for r in self.runs if r.trace and r is not run), None)
            if first is not None and counts(first.trace) != counts(run.trace):
                errors.append("per-layer counts differ between traced runs")
        run.error = "; ".join(errors)
        run.ok = not errors
        return run

    def check_states(self) -> list[str]:
        """Oracle and counter checks on states this workload's config reaches."""
        from fragsim import (DemandProfile, Simulation, SpectrumState, build_beta_paths,
                             compute_bounds, load_beta_paths, load_topology,
                             snapshot_report)

        errors = []
        ex = load_topology(os.path.join(self.root, DATA, "fig_example.json"))
        ex_paths = build_beta_paths(ex)
        with open(os.path.join(self.root, DATA, "fig_example_state.txt")) as fh:
            state = SpectrumState.parse(fh.read(), ex.link_count, ex.slice_count)
        rep = snapshot_report(state, ex_paths, compute_bounds(ex, ex_paths))
        errors += checks.compare_report(rep, state.dump(), ex_paths.paths,
                                        "fig_example_state")

        topo = load_topology(self.topology)
        first = next(r for r in self.runs if r.measured)
        paths = load_beta_paths(
            os.path.join(self.work, f"run{self.runs.index(first)}", "cover.json"), topo)
        p = self.params
        if self.wl.command == "sweep":
            for load in p["loads"]:
                for md in p["max_demands"]:
                    sim = Simulation(topo, DemandProfile(load, 1.0, md, self.seed), paths)
                    errors += checks.check_simulation(
                        sim, (p["warmup"] + p["measure"]) // 4, 4, f"load {load:g}")
        else:
            sim = Simulation(topo, DemandProfile(p["load"], 1.0, p["max_demand"], self.seed),
                             paths)
            errors += checks.check_simulation(sim, p["arrivals"] // 4, 4, "transient")
        return errors


def counts(trace: dict) -> dict:
    return {k: (v["calls"], v["hits"]) for k, v in trace["spans"].items()}


def machine_facts(root: str) -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(root, "src", "fragsim")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_fragsim_lines": lines}


def measure(root: str, name: str, seed: int, seconds: float, trace: bool,
            t_start: float) -> dict:
    bench = Bench(root, name, seed)
    try:
        def remaining():
            return DEADLINE_S - (time.perf_counter() - t_start)

        kinds = ["plain", "traced"] if trace else ["plain"]
        t0 = time.perf_counter()
        slowest = 0.0
        i = 0
        while True:
            done = {k: sum(1 for r in bench.runs if r.kind == k) for k in kinds}
            if time.perf_counter() - t0 >= seconds and min(done.values()) >= MIN_TIMED_RUNS:
                break
            # every run may take twice the slowest so far, so a run that
            # times out has itself run too long and is a failed operation
            timeout = remaining() - CHECK_MARGIN_S
            if timeout < max(2.0 * slowest, 5.0):
                break
            t_run = time.perf_counter()
            bench.child(kinds[i % len(kinds)], timeout)
            slowest = max(slowest, time.perf_counter() - t_run)
            i += 1
        state_errors = []
        if any(r.measured for r in bench.runs):
            try:
                state_errors = bench.check_states()
            except Exception:  # a crash in the checked code is a failed check
                state_errors = ["state checks raised:\n" + traceback.format_exc(limit=3)]
        return summarize(bench, trace, state_errors)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def throughput(runs: list[Run], calibrated: bool = True) -> float:
    """Arrivals per second of cli.main over all the given runs together,
    each run's time scaled to full machine speed unless `calibrated` is off."""
    return (sum(r.arrivals for r in runs)
            / sum(r.main_s / (r.slowdown if calibrated else 1.0) for r in runs))


def summarize(bench: Bench, trace: bool, state_errors: list[str]) -> dict:
    runs = bench.runs
    # timings count from every run that completed; correctness is reported
    # apart, and a failed state check fails every run
    plain = [r for r in runs if r.kind == "plain" and r.measured]
    failed = len(runs) if state_errors else sum(1 for r in runs if not r.ok)
    metrics = {}
    raw = {}
    if plain:
        raw = {"setup_s": statistics.fmean(r.setup_s for r in plain),
               "arrivals_per_s": throughput(plain, calibrated=False),
               "slowdown": statistics.fmean(r.slowdown for r in plain)}
        if trace:
            traced = [r for r in runs if r.kind == "traced" and r.measured]
            if traced:
                fastest = min(traced, key=lambda r: r.trace["wall_s"])
                for k, (v, unit) in layer_metrics(fastest.trace, fastest.trail_hops).items():
                    metrics[k] = {"value": v, "unit": unit}
                metrics["trace_overhead_pct"] = {
                    "value": (throughput(plain) / throughput(traced) - 1.0) * 100.0,
                    "unit": "%"}
        else:
            metrics = {
                "setup_s": {"value": statistics.fmean(r.setup_s / r.slowdown for r in plain),
                            "unit": "s"},
                "arrivals_per_s": {"value": throughput(plain), "unit": "1/s"},
                "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in plain),
                                "unit": "MB"},
            }
    good = next((r for r in runs if r.ok), None)
    provenance = {
        "workload": bench.name, "seed": bench.seed, "command": bench.wl.command,
        "params": bench.params,
        "runs": {k: sum(1 for r in runs if r.kind == k) for k in ("plain", "traced")},
        "csv_sha256": good.digests if good else {},
        "trail_hops": good.trail_hops if good else [],
        **machine_facts(bench.root),
        "uncalibrated": raw,
        "samples": [{"kind": r.kind, "setup_s": r.setup_s, "arrivals_per_s": r.arrivals_per_s,
                     "reference_s": r.reference_s,
                     "peak_rss_mb": r.peak_rss_mb} for r in runs if r.measured],
        "errors": [f"run {i} ({r.kind}): {r.error}" for i, r in enumerate(runs) if not r.ok]
                  + state_errors,
    }
    return {"correct": failed == 0 and bool(metrics),
            "attempted": len(runs), "failed": failed, "metrics": metrics,
            "provenance": provenance}


def print_report(name: str, res: dict) -> None:
    p = res["provenance"]
    print(f"{name} seed {p['seed']}: {res['attempted']} runs "
          f"({p['runs']['plain']} plain, {p['runs']['traced']} traced), "
          f"failed {res['failed']}/{res['attempted']}")
    print(f"  cover: trail hops {p['trail_hops']}")
    print(f"  machine: {p['nproc']} cpus, {p['cpu_model']}, python {p['python']}, "
          f"numpy {p['numpy']}; src/fragsim {p['src_fragsim_lines']} lines")
    for name, digest in p["csv_sha256"].items():
        print(f"  sha256 {name} {digest}")
    for k, m in res["metrics"].items():
        print(f"  {k:40s} {m['value']:14.6g} {m['unit']}")
    for err in p["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fragsim", "cli.py")):
        print("error: run from the root of a fragsim checkout (src/fragsim not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(root, name, args.seed, args.seconds, bool(args.trace),
                                t_start)
        print_report(name, results[name])
    os.makedirs(os.path.join(root, OUT_ROOT), exist_ok=True)
    report = os.path.join(root, OUT_ROOT,
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump(results, fh, indent=2)
    print(f"report: {os.path.relpath(report, root)}")

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    if not metrics:
        print("error: no run succeeded; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
