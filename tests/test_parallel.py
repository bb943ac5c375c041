"""Replications run in forked children: the same bytes as in one process,
no more children than tasks, every child reaped, and its errors raised in
the parent."""

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
        assert len(pids) == (2 if fork else 0)
        keys = {"config", "topology_sha256", "rng", "version", "experiment", "clamp_events",
                "processes", "demand_streams"}
        assert set(meta) == keys | ({"worker_peak_rss_mb"} if fork else set())
        assert meta["processes"] == (2 if fork else 1)
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
        # six sweep tasks, then two transient ones
        assert len(pids) == (0 if cpus == 1 else cpus + 2)
        assert [c.processes for c in cells] == [cpus] * 2
        assert tr.processes == min(cpus, 2)
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_one_decode_per_stream_group(chain4, monkeypatch, cpus):
    # each replication's profiles with one seed and max_demand decode one
    # stream between them, in this process and in two or three children:
    # whole groups are dealt to each child
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

    runs, processes, streams = engine._replicate(chain4, paths, profiles, 3, drive, 12)
    # each process's decodes, as its last task saw them
    last = {}
    for pid, calls in (report for results, _ in runs for report in results):
        last[pid] = max(last.get(pid, []), calls, key=len)
    assert sorted(key for calls in last.values() for key in calls) == sorted(
        (seed, r, max_demand) for seed in (4, 9) for r in range(3) for max_demand in (2, 3))
    assert len(pids) == (cpus if cpus > 1 else 0) and processes == max(len(pids), 1)
    assert streams == {"decoded": 12, "replayed": 12}


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
    assert out[0][1:] == (1, {"decoded": 1, "replayed": 1})
    assert out[1][1:] == (2, {"decoded": 2, "replayed": 0})


def test_no_more_children_than_tasks(chain4, monkeypatch):
    use_cpus(monkeypatch, 8)
    pids = counting_forks(monkeypatch)
    paths = build_beta_paths(chain4)
    runs, processes, _ = engine._replicate(chain4, paths, make_grid([5.0], [2], seed=4), 3,
                                           lambda sim: sim.run(20, 5)[-1].arrivals, 20)
    assert len(pids) == processes == 3
    assert runs == [([20, 20, 20], 0)]


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_in_process_without_fork_or_cpu_count(missing, monkeypatch):
    use_cpus(monkeypatch, 2)
    assert engine._workers(4, 1) == 2
    monkeypatch.delattr(os, missing)
    assert engine._workers(4, 1) == 0


def test_fork_gate_counts_each_childs_arrivals(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    most = engine.FORK_MIN_ARRIVALS
    # the child with fewer tasks runs 5 // 2 = 2 of them
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
    runs, processes, _ = engine._replicate(chain4, paths, grid, 3,
                                           lambda sim: (len(calls), id(sim.routes)), 10)
    seen = [report for results, _ in runs for report in results]
    assert processes == 2 and len(calls) == 1
    assert seen == [(1, id(chain4.routes))] * 6


# Run with `python -O`, where assert statements are stripped: forks two
# children per run and prints, per run, what reached the parent and whether
# every child was reaped. An atexit line shows that only the parent ran its
# exit handlers.
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

def reaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

def run(drive):
    try:
        print(engine._replicate(topo, paths, profiles, 2, drive, 0)[1], reaped())
    except BaseException as exc:
        print(type(exc).__name__, str(exc).replace(" ", "_") or "-", reaped())

def fault(sim):
    raise SpectrumFault("double free on link 0")

def interrupted(sim):
    raise KeyboardInterrupt

def killed(sim):
    os.kill(os.getpid(), signal.SIGKILL)

def stop(signum, frame):
    raise KeyboardInterrupt("parent")

print(__debug__, "numpy.random" in sys.modules)
run(lambda sim: sim.run(10, 5)[-1].arrivals)
print("numpy.random" in sys.modules)
run(fault)
run(interrupted)
run(killed)
# interrupted in the parent while both children sleep: they are killed
signal.signal(signal.SIGALRM, stop)
signal.setitimer(signal.ITIMER_REAL, 0.3)
start = time.monotonic()
run(lambda sim: time.sleep(60))
print(time.monotonic() - start < 30)
"""


def test_child_failures_reach_the_parent_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", FAILURES], env=env_with_src(),
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["False False", "2 True", "True",
                         "SpectrumFault double_free_on_link_0 True"], proc.stderr
    assert lines[4] == "KeyboardInterrupt - True"
    assert lines[5].startswith("RuntimeError worker_") and lines[5].endswith(" True")
    assert "ended_without_a_result" in lines[5]
    assert lines[6:] == ["KeyboardInterrupt parent True", "True", "atexit"], proc.stderr
