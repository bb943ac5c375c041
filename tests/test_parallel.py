"""Replications run in the parent and forked children: the same bytes as in
one process, no more processes than tasks, every child reaped, and its
errors, or those of the parent's own part, raised in the parent."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import fragsim.engine as engine
import fragsim.topology as topology
import fragsim.traffic as traffic
from conftest import data_file
from fragsim.cli import main
from fragsim.engine import make_grid, run_steady_sweep, run_transient
from fragsim.topology import Topology, all_pairs_routes, build_beta_paths, load_topology
from fragsim.traffic import DemandProfile
from test_cli import env_with_src
from test_golden_outputs import RUNS


def use_cpus(monkeypatch, cpus: int, fork: bool = True):
    """`cpus` usable CPUs, and a fork gate that every run passes (or none)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(engine, "FORK_MIN_ARRIVALS", 0 if fork else 1 << 62)


@pytest.fixture
def chain4():
    return Topology("chain", 4, [(0, 1), (1, 2), (2, 3)], 6)


def counting_forks(monkeypatch) -> list:
    """The pids of the children os.fork starts from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.mark.parametrize("name", ["transient", "sweep"])
def test_cli_bytes_and_metadata_forked_and_in_process(name, tmp_path, monkeypatch, capsys):
    argv, digests = RUNS[name]
    written, streams = {}, {}
    for fork in (True, False):
        use_cpus(monkeypatch, 2, fork)
        pids = counting_forks(monkeypatch)
        out = tmp_path / str(fork)
        assert main(argv + ["--out", str(out)]) == 0
        written[fork] = {f: (out / f).read_bytes() for f in digests}
        meta = json.loads((out / "metadata.json").read_text())
        assert len(pids) == (1 if fork else 0)
        keys = {"config", "topology_sha256", "rng", "version", "experiment", "clamp_events",
                "processes", "demand_streams", "part_wall_s"}
        assert set(meta) == keys | ({"worker_peak_rss_mb"} if fork else set())
        assert meta["processes"] == (2 if fork else 1)
        assert len(meta["part_wall_s"]) == meta["processes"] and min(meta["part_wall_s"]) > 0
        if fork:
            assert 0 < meta["worker_peak_rss_mb"] < 1 << 20
        streams[fork] = meta["demand_streams"]
    capsys.readouterr()
    assert written[True] == written[False]
    # transient: three replications of one profile, none shared; sweep: three
    # replications of two max_demands, each read by two loads
    assert streams[True] == streams[False] == (
        {"decoded": 3, "replayed": 0} if name == "transient" else {"decoded": 6, "replayed": 6})
    assert {f: hashlib.sha256(b).hexdigest() for f, b in written[True].items()} == digests


def test_results_do_not_depend_on_usable_cpus(monkeypatch):
    t = load_topology(data_file("net_a.json"))
    paths = build_beta_paths(t)
    grid = make_grid([30.0, 90.0], [8], seed=5)
    profile = DemandProfile.resolve(8, 3, load=60.0)
    results = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        pids = counting_forks(monkeypatch)
        cells = run_steady_sweep(t, grid, paths, warmup=50, measure=60, replications=3,
                                 sample_every=7)
        tr = run_transient(t, profile, paths, arrivals=90, sample_every=9, replications=2)
        results.append(([(c.stats, c.clamp_events) for c in cells],
                        (tr.series, tr.replication_samples, tr.clamp_events)))
        # six sweep tasks, then two transient ones, the parent running a part of each
        assert len(pids) == (cpus - 1) + (min(cpus, 2) - 1)
        assert [c.run["processes"] for c in cells] == [cpus] * 2
        assert tr.run["processes"] == min(cpus, 2)
        assert [len(c.run["part_wall_s"]) for c in cells] == [cpus] * 2
        assert len(tr.run["part_wall_s"]) == min(cpus, 2)
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_one_decode_per_stream_group(chain4, monkeypatch, cpus):
    # each replication's profiles with one seed and max_demand decode one
    # stream between them, in this process alone or with one or two
    # children: whole groups are dealt to each process
    use_cpus(monkeypatch, cpus)
    decoded, decode = [], traffic._decode
    monkeypatch.setattr(traffic, "_decode", lambda bits, n, max_demand: decoded.append(
        (*bits.state["state"]["key"].tolist(), max_demand)) or decode(bits, n, max_demand))
    profiles = [DemandProfile.resolve(max_demand, seed, load=load)
                for seed in (4, 9) for load in (5.0, 10.0) for max_demand in (2, 3)]
    paths = build_beta_paths(chain4)
    pids = counting_forks(monkeypatch)

    def drive(sim):
        sim.run(12, 4)
        return os.getpid(), list(decoded)

    runs, record = engine._replicate(chain4, paths, profiles, 3, drive, 12)
    # each process's decodes, as its last task saw them
    last = {}
    for pid, calls in (report for results in runs for report in results):
        last[pid] = max(last.get(pid, []), calls, key=len)
    assert sorted(key for calls in last.values() for key in calls) == sorted(
        (seed, r, max_demand) for seed in (4, 9) for r in range(3) for max_demand in (2, 3))
    assert len(pids) == cpus - 1 and record["processes"] == len(pids) + 1 == len(last)
    assert record["demand_streams"] == {"decoded": 12, "replayed": 12}


def test_fewer_groups_than_children_are_split(chain4, monkeypatch):
    # one replication of two loads is one group: two children run a load
    # each, decoding the stream twice, rather than one child running both
    paths = build_beta_paths(chain4)
    grid = make_grid([5.0, 10.0], [2], seed=4)
    out = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out.append(engine._replicate(chain4, paths, grid, 1, lambda sim: sim.run(30, 10), 30))
    assert out[0][0] == out[1][0]
    for processes, (_, record) in zip((1, 2), out):
        walls = record.pop("part_wall_s")
        assert len(walls) == processes and min(walls) > 0
    assert out[0][1] == {"processes": 1, "demand_streams": {"decoded": 1, "replayed": 1}}
    assert out[1][1].pop("worker_peak_rss_mb") > 0
    assert out[1][1] == {"processes": 2, "demand_streams": {"decoded": 2, "replayed": 0}}


def test_no_more_children_than_tasks(chain4, monkeypatch):
    use_cpus(monkeypatch, 8)
    pids = counting_forks(monkeypatch)
    paths = build_beta_paths(chain4)
    runs, record = engine._replicate(chain4, paths, make_grid([5.0], [2], seed=4), 3,
                                     lambda sim: sim.run(20, 5)[-1].arrivals, 20)
    assert len(pids) + 1 == record["processes"] == 3
    assert runs == [[20, 20, 20]]


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_in_process_without_fork_or_cpu_count(missing, monkeypatch):
    use_cpus(monkeypatch, 2)
    assert engine._workers(4, 1) == 2
    monkeypatch.delattr(os, missing)
    assert engine._workers(4, 1) == 0


def test_fork_gate_counts_each_childs_arrivals(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    most = engine.FORK_MIN_ARRIVALS
    # the process with fewer tasks (the parent) runs 5 // 2 = 2 of them
    assert engine._workers(5, most // 2) == 2
    assert engine._workers(5, most // 2 - 1) == 0
    assert engine._workers(1, 10 * most) == 0  # one task: no second CPU to use


def test_forked_drives_see_the_parents_one_route_table(chain4, monkeypatch):
    use_cpus(monkeypatch, 2)
    calls = []

    def counting_routes(t):
        calls.append(t)
        return all_pairs_routes(t)

    monkeypatch.setattr(topology, "all_pairs_routes", counting_routes)
    paths = build_beta_paths(chain4)
    grid = make_grid([5.0, 10.0], [2], seed=4)
    # each drive reports the calls its process had seen and its table's
    # address, which a table copied by fork keeps
    runs, record = engine._replicate(chain4, paths, grid, 3,
                                     lambda sim: (len(calls), id(sim.routes)), 10)
    seen = [report for results in runs for report in results]
    assert record["processes"] == 2 and len(calls) == 1
    assert seen == [(1, id(chain4.routes))] * 6


# Run in a fresh process: a child that writes 150 MiB, then a forked sweep
# (argv[2:], written to argv[1]). Prints the first child's peak resident set
# in MiB, then the sweep's worker_peak_rss_mb.
EARLIER_CHILD = """
import json, os, resource, subprocess, sys
import fragsim.engine as engine
from fragsim.cli import main

engine.FORK_MIN_ARRIVALS = 0
os.sched_getaffinity = lambda pid: {0, 1}
subprocess.run([sys.executable, "-c", "x = b'x' * (150 << 20)"], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
if main(sys.argv[2:] + ["--out", sys.argv[1]]) == 0:
    with open(os.path.join(sys.argv[1], "metadata.json")) as fh:
        print(json.load(fh)["worker_peak_rss_mb"])
"""


def test_worker_peak_is_this_runs_children(tmp_path):
    # the peak of children reaped before the run, by the same process, is
    # not the run's: a fragsim worker forked from a fresh process holds far
    # less than 150 MiB, so its peak is well below the earlier child's
    argv, _ = RUNS["sweep"]
    proc = subprocess.run([sys.executable, "-c", EARLIER_CHILD, str(tmp_path), *argv],
                          env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert len(proc.stdout.split()) == 2, proc.stderr
    earlier, workers = map(float, proc.stdout.split())
    assert earlier > 150 and 0 < 2 * workers < earlier


# Run with `python -O`, where assert statements are stripped: splits each
# run between the parent and one child and prints, per run, what reached
# the caller, whether it came caused by a child's traceback, and whether
# every child was reaped. A failing drive fails in the child alone, or in
# the parent alone while the child sleeps. An atexit line shows that only
# the parent ran its exit handlers.
FAILURES = """
import atexit, os, signal, sys, time
import fragsim.engine as engine
from fragsim.spectrum import SpectrumFault
from fragsim.topology import Topology, build_beta_paths
from fragsim.traffic import DemandProfile

engine.FORK_MIN_ARRIVALS = 0
os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(print, "atexit")
topo = Topology("pair", 2, [(0, 1)], 8)
paths = build_beta_paths(topo)
profiles = [DemandProfile(1.0, 1.0, 1, 0)]
PARENT = os.getpid()

def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

def run(drive):
    try:
        print(engine._replicate(topo, paths, profiles, 2, drive, 0)[1]["processes"], reaped())
    except BaseException as exc:
        print(type(exc).__name__, str(exc).replace(" ", "_") or "-",
              exc.__cause__ is not None, reaped())

def in_child(fail):
    return lambda sim: fail(sim) if os.getpid() != PARENT else 0

def in_parent(fail):
    return lambda sim: fail(sim) if os.getpid() == PARENT else time.sleep(60)

def fault(sim):
    raise SpectrumFault("double free on link 0")

def interrupted(sim):
    raise KeyboardInterrupt

def own_part_interrupted(sim):
    raise KeyboardInterrupt("own part")

def killed(sim):
    os.kill(os.getpid(), signal.SIGKILL)

def stop(signum, frame):
    raise KeyboardInterrupt("parent")

def timed(drive):
    start = time.monotonic()
    run(drive)
    print(time.monotonic() - start < 30)

print(__debug__, "numpy.random" in sys.modules)
run(lambda sim: sim.run(10, 5)[-1].arrivals)
print("numpy.random" in sys.modules)
run(in_child(fault))
run(in_child(interrupted))
run(in_child(killed))
# the parent's own part fails while the child sleeps: the child is killed
timed(in_parent(fault))
timed(in_parent(own_part_interrupted))
# interrupted in the parent while it waits for the sleeping child
signal.signal(signal.SIGALRM, stop)
signal.setitimer(signal.ITIMER_REAL, 0.3)
timed(in_child(lambda sim: time.sleep(60)))
"""


def test_child_failures_reach_the_parent_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", FAILURES], env=env_with_src(),
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["False False", "2 True", "True",
                         "SpectrumFault double_free_on_link_0 True True"], proc.stderr
    assert lines[4] == "KeyboardInterrupt - True True"
    assert lines[5].startswith("RuntimeError worker_") and lines[5].endswith(" False True")
    assert "ended_without_a_result" in lines[5]
    # the parent's own exceptions reach the caller as they were raised
    assert lines[6:10] == ["SpectrumFault double_free_on_link_0 False True", "True",
                           "KeyboardInterrupt own_part False True", "True"], proc.stderr
    assert lines[10:] == ["KeyboardInterrupt parent False True", "True", "atexit"], proc.stderr


# Prints whether `signal` is loaded after a forked `sweep` (argv[2:], written
# to argv[1]) that fails nowhere, then the processes it ran in.
SIGNAL_LOADED = """
import json, os, sys
import fragsim.engine as engine
from fragsim.cli import main

engine.FORK_MIN_ARRIVALS = 0
os.sched_getaffinity = lambda pid: {0, 1}
code = main(sys.argv[2:] + ["--out", sys.argv[1]])
with open(os.path.join(sys.argv[1], "metadata.json")) as fh:
    print("signal" in sys.modules, json.load(fh)["processes"], code)
"""


def test_forked_run_that_fails_nowhere_loads_no_signal(tmp_path):
    argv, _ = RUNS["sweep"]
    proc = subprocess.run([sys.executable, "-c", SIGNAL_LOADED, str(tmp_path), *argv],
                          env=env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["False", "2", "0"], proc.stderr
