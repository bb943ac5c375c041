"""Seeded property test over random connected multigraphs: parallel fibers,
one-hop covers, odd slice counts and S = 2.

For each graph: the trail cover is valid and of the promised size, the
reports of a sampled run equal the naive oracle's, the normalised metrics
lie in [0, 1], and every command run through `cli.main` exits 0, or 2 for
the parameter combinations it must refuse. One case also runs under
`python -O` and must write the same bytes.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

import fragsim
from conftest import write_topology
from fragsim.cli import main
from fragsim.engine import Simulation
from fragsim.topology import Topology, build_beta_paths
from fragsim.traffic import DemandProfile
from reference import (link_ends, ref_alpha, ref_best_cover, ref_beta, ref_lefm,
                       ref_one_hop_avoidable)

CASES = 30


def random_case(seed):
    """(node count, fibers, slice count, requested path count or None) of a
    random connected multigraph: a random tree, then fibers that are often
    parallel to earlier ones. Slice counts stay at most 7, so no trail has
    more than 7 per-slice terms: np.add.reduce adds fewer than 8 terms left
    to right, as the oracle's sum() does, so both give the same floats."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 6)
    fibers = [(i, rnd.randrange(i)) for i in range(1, n)]
    for _ in range(rnd.randint(0, n)):
        a, b = rnd.choice(fibers) if rnd.random() < 0.5 else rnd.sample(range(n), 2)
        fibers.append((b, a) if rnd.random() < 0.5 else (a, b))
    rnd.shuffle(fibers)
    slices = rnd.choice([2, 2, 3, 3, 4, 5, 5, 6, 7, 7])
    path_count = rnd.choice([None, None, rnd.randint(1, len(fibers) + 2)])
    return n, fibers, slices, path_count


def odd_nodes(n, fibers):
    deg = [0] * n
    for a, b in fibers:
        deg[a] += 1
        deg[b] += 1
    return sum(d % 2 for d in deg)


def check_cover(t, ps, requested):
    assert sorted(lid // 2 for links in ps.paths for lid in links) == list(range(t.fiber_count))
    for nodes, links in zip(ps.node_paths, ps.paths):
        assert len(nodes) == len(links) + 1
        for i, lid in enumerate(links):
            assert link_ends(t, lid) == (nodes[i], nodes[i + 1])
    least = max(1, odd_nodes(t.node_count, t.fibers) // 2)
    if requested is None:
        assert not ps.warning
        assert ps.node_paths == ref_best_cover(t.node_count, t.fibers)
        assert len(ps.paths) == least
        assert (min(ps.hop_counts) >= 2) == ref_one_hop_avoidable(t.node_count, t.fibers)
    elif requested < least:
        assert ps.warning and len(ps.paths) == least
    elif requested <= t.fiber_count:
        assert not ps.warning and len(ps.paths) == requested
    else:  # split down to one hop per trail, short of the request
        assert ps.warning and ps.hop_counts == [1] * t.fiber_count


def check_reports(t, ps, seed):
    """Every sampled report of a short run against the oracle, on the state
    that each sample saved."""
    rnd = random.Random(seed)
    profile = DemandProfile.resolve(rnd.randint(1, t.slice_count + 1), seed,
                                    load=rnd.uniform(0.5, 6.0))
    sim = Simulation(t, profile, ps)
    states = []
    take_sample = sim.take_sample

    def take():
        states.append(list(sim.state.occ))
        take_sample()

    sim.take_sample = take  # the loop looks it up on the instance
    samples = sim.run(rnd.randint(20, 120), rnd.randint(1, 9))
    assert len(samples) == len(states) > 0
    s = t.slice_count
    for occ, sample in zip(states, samples):
        grids = [[not occ_l >> j & 1 for j in range(s)] for occ_l in occ]
        rep = sample.report
        alpha, beta, lefm = ref_alpha(grids), ref_beta(grids, ps.paths), ref_lefm(grids)
        assert (rep.alpha, rep.beta, rep.lefm) == (1.0 if alpha is None else alpha,
                                                   1.0 if beta is None else beta,
                                                   0.0 if lefm is None else lefm)
        assert rep.utilization == sum(map(int.bit_count, occ)) / (t.link_count * s)
        for name in ("nvfm", "avfm", "a_alpha", "a_beta"):
            assert 0.0 <= getattr(rep, name) <= 1.0, name


def commands(topo_file, path_count, slices, seed, out):
    """(argv, expected exit code) of every command on one topology."""
    rnd = random.Random(seed)
    common = ["--topology", topo_file, "--seed", str(seed),
              "--max-demand", str(rnd.randint(1, slices + 1))]
    if path_count is not None:
        common += ["--path-count", str(path_count)]
    arrivals, measure, every = rnd.randint(10, 50), rnd.randint(10, 50), rnd.randint(1, 30)
    state = os.path.join(out, "state.txt")
    return [
        (["make-paths", *common, "--out", os.path.join(out, "paths.json")], 0),
        (["dump-state", *common, "--arrivals", str(arrivals)], 0),
        (["snapshot", *common, state], 0),
        (["transient", *common, "--arrivals", str(arrivals), "--sample-every", str(every),
          "--replications", "2", "--load", "3", "--out", os.path.join(out, "t")],
         2 if every > arrivals else 0),
        (["sweep", *common, "--loads", "2,5", "--warmup", "20", "--measure", str(measure),
          "--sample-every", str(every), "--replications", "2", "--out", os.path.join(out, "w")],
         2 if every > measure else 0),
        (["scan", *common, "--scan-max-arrivals", "300", "--sample-every", str(every),
          "--load", "2", "--out", os.path.join(out, "s")], 0),
    ]


@pytest.mark.parametrize("seed", range(CASES))
def test_random_multigraph(seed, tmp_path, capsys):
    n, fibers, slices, path_count = random_case(seed)
    t = Topology(f"r{seed}", n, fibers, slices)
    ps = build_beta_paths(t, path_count)
    check_cover(t, ps, path_count)
    check_reports(t, ps, seed)

    topo_file = write_topology(tmp_path, f"r{seed}", n, [list(f) for f in fibers], slices)
    for argv, expect in commands(topo_file, path_count, slices, seed, str(tmp_path)):
        code = main(argv)
        out = capsys.readouterr()
        assert code == expect, (argv, out.err)
        if argv[0] == "dump-state":
            (tmp_path / "state.txt").write_text(out.out)


def test_random_multigraph_under_python_O(tmp_path):
    # the first case after the others with parallel fibers, an odd slice
    # count and a requested path count
    n, fibers, slices, path_count = next(
        c for c in map(random_case, itertools.count(CASES))
        if c[2] % 2 and c[3] is not None and len(set(map(frozenset, c[1]))) < len(c[1]))
    topo_file = write_topology(tmp_path, "r", n, [list(f) for f in fibers], slices)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fragsim.__file__)))
    texts = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"out{len(flags)}"
        argv = ["transient", "--topology", topo_file, "--path-count", str(path_count),
                "--arrivals", "60", "--sample-every", "3", "--replications", "2",
                "--load", "3", "--max-demand", str(slices), "--out", str(out)]
        proc = subprocess.run([sys.executable, *flags, "-m", "fragsim.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
        texts.append([(out / f).read_text() for f in sorted(os.listdir(out))
                      if f.endswith(".csv")])
    assert texts[0] == texts[1] and len(texts[0]) == 3
