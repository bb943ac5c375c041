"""What the benchmark in bench/ relies on in fragsim.

bench/trace_layers.py patches every callable in its TARGETS by name and
stops when one is missing, and bench/checks.py pins the per-sample CSV
header and the metric names of the summaries. Its simulation check wraps
`allocate` and `release` on a Simulation's own SpectrumState and reads
`.route` and `.range.width` off every active connection, and bench/run.py
builds Simulations for its state checks. A deletion, rename or signature
change that would break the benchmark fails here first. The bench sources
are parsed, not imported, so the test never writes into bench/.
"""

import ast
import importlib
import inspect
import os

from conftest import data_file
from fragsim.engine import Simulation
from fragsim.metrics import CSV_HEADER, SUMMARY_METRICS
from fragsim.topology import build_beta_paths, load_topology
from fragsim.traffic import DemandProfile

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def bench_tree(module):
    with open(os.path.join(BENCH, module + ".py")) as fh:
        return ast.parse(fh.read())


def bench_assignment(module, name):
    """The value node assigned to `name` at the top level of bench/<module>.py."""
    for node in bench_tree(module).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{name} is not assigned in bench/{module}.py")


def test_trace_targets_resolve():
    targets = ast.literal_eval(bench_assignment("trace_layers", "TARGETS"))
    assert targets
    for mod_name, qualname in targets:
        owner = importlib.import_module(f"fragsim.{mod_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            target = vars(getattr(owner, cls_name)).get(attr)
        else:
            target = getattr(owner, qualname, None)
        assert callable(target), f"{mod_name}.{qualname}"


def test_bench_simulation_calls_bind():
    # every Simulation(...) in bench/, bound argument by argument (the
    # argument expressions stand in for their values)
    signature = inspect.signature(Simulation)
    calls = 0
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(bench_tree(name[:-3])):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "Simulation":
                continue
            where = f"bench/{name} line {node.lineno}"
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            assert all(k.arg for k in node.keywords), where
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
            calls += 1
    assert calls, "no Simulation(...) call found in bench/"


def test_sample_csv_header_matches_bench():
    columns = ast.literal_eval(bench_assignment("checks", "SAMPLE_COLUMNS"))
    assert CSV_HEADER.split(",") == columns


def test_summary_metrics_known_to_bench():
    ranges = bench_assignment("checks", "RANGES")
    assert [ast.literal_eval(k) for k in ranges.keys] == list(SUMMARY_METRICS)


def test_state_wrappers_see_every_admission_and_departure():
    # as bench/checks.check_simulation does: wrappers set on the instance
    # after construction, then runs of `chunk` arrivals that take no sample
    topo = load_topology(data_file("nsfnet.json"))
    sim = Simulation(topo, DemandProfile(80.0, 1.0, 16, 3), build_beta_paths(topo))
    calls = {"allocate": 0, "release": 0}

    def counting(name):
        method = getattr(sim.state, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    for name in calls:
        setattr(sim.state, name, counting(name))
    chunk = 500
    for k in range(1, 5):
        sim.run(chunk, sample_every=chunk + 1)
        admitted = sim.total_requests - sim.blocked_requests
        assert sim.total_requests == k * chunk
        assert calls["allocate"] == admitted
        assert calls["release"] == admitted - len(sim.connections)
        busy = sum(occ.bit_count() for occ in sim.state.occ)
        assert busy == sum(c.range.width * len(c.route) for c in sim.connections.values())
    assert sim.blocked_requests > 0 and calls["release"] > 0 and not sim.samples
