"""Self-tests of the benchmark's own code.

Run from the root of a checkout:  python3 bench/selftest.py
(or  python3 -m pytest bench/selftest.py).
"""

from __future__ import annotations

import math
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DATA = os.path.join(ROOT, "src", "fragsim", "data")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from trace_layers import Tracer, layer_metrics  # noqa: E402


def test_naive_oracle_reproduces_worked_example():
    from fragsim import build_beta_paths, load_topology

    topo = load_topology(os.path.join(DATA, "fig_example.json"))
    trails = build_beta_paths(topo).paths
    with open(os.path.join(DATA, "fig_example_state.txt")) as fh:
        rep = checks.naive_report(fh.read(), trails)
    want = {"alpha": (0.6533, 1e-4), "beta": (0.75, 1e-4), "lefm": (0.35, 1e-12),
            "vfm": (0.9944, 1e-3), "nvfm": (0.547844, 1e-3), "avfm": (0.452156, 1e-3),
            "utilization": (0.5, 1e-12)}
    for name, (value, tol) in want.items():
        assert abs(rep[name] - value) <= tol, (name, rep[name], value)


def test_oracle_flags_a_wrong_report():
    from fragsim import (SpectrumState, build_beta_paths, compute_bounds,
                         load_topology, snapshot_report)

    topo = load_topology(os.path.join(DATA, "fig_example.json"))
    paths = build_beta_paths(topo)
    with open(os.path.join(DATA, "fig_example_state.txt")) as fh:
        state = SpectrumState.parse(fh.read(), topo.link_count, topo.slice_count)
    rep = snapshot_report(state, paths, compute_bounds(topo, paths))
    assert checks.compare_report(rep, state.dump(), paths.paths, "ok") == []
    rep.beta += 1e-9
    assert len(checks.compare_report(rep, state.dump(), paths.paths, "bad")) == 1


def test_trace_wrappers_count_and_restore():
    import fragsim
    from fragsim import cli, engine, metrics, spectrum, topology
    from fragsim.traffic import DemandProfile

    originals = {
        (engine, "snapshot_report"): engine.snapshot_report,
        (engine, "all_pairs_routes"): engine.all_pairs_routes,
        (cli, "run_transient"): cli.run_transient,
        (metrics, "compute_beta"): metrics.compute_beta,
        (fragsim, "load_topology"): fragsim.load_topology,
        (spectrum.SpectrumState, "find_first_fit"):
            spectrum.SpectrumState.__dict__["find_first_fit"],
    }
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        for (owner, attr), orig in originals.items():
            assert vars(owner)[attr] is not orig, attr
        topology.load_topology(os.path.join(DATA, "fig_example.json"))
        assert tracer.spans["topology.load_topology"].calls == 1
        tracer.reset()       # as between the set-up and cli.main spans
        assert tracer.spans["topology.load_topology"].calls == 0
        t0 = time.perf_counter()
        topo = topology.load_topology(os.path.join(DATA, "nsfnet.json"))
        paths = topology.build_beta_paths(topo)
        sim = engine.Simulation(topo, DemandProfile(60.0, 1.0, 16, 1), paths)
        sim.run(500, sample_every=100)
    finally:
        wall_s = time.perf_counter() - t0
        tracer.uninstall()
    assert tracer.restored()
    for (owner, attr), orig in originals.items():
        assert vars(owner)[attr] is orig, attr

    m = layer_metrics(tracer.summary(wall_s), paths.hop_counts)
    assert m["topology.load_topology_s"][0] > 0
    assert m["traffic.next_demand_calls"][0] == 500
    assert tracer.spans["engine.Simulation.step_arrival"].calls == 500
    assert m["topology.all_pairs_routes_calls"][0] == 1
    assert m["metrics.snapshot_report_calls"][0] == 5
    assert m["spectrum.max_contiguous_free_calls"][0] == 2 * topo.link_count * 5
    layers = sum(v for k, (v, _) in m.items() if k.startswith("layer."))
    assert math.isclose(layers + m["trace.unattributed_s"][0], m["trace.wall_s"][0],
                        rel_tol=1e-9, abs_tol=1e-12)


def main() -> int:
    if not __debug__:
        print("self-tests rely on assert; run without -O", file=sys.stderr)
        return 2
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
