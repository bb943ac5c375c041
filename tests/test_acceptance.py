"""End-to-end acceptance checks.

One test per acceptance criterion; run with -v to get a pass/fail line for
each. The statistical criteria use fixed seeds so the suite is deterministic.
"""

import itertools
import math
import random

import pytest

from conftest import data_file
from fragsim.engine import make_grid, mean_ci99, run_steady_sweep, \
    run_transient, run_utilization_scan, Simulation
from fragsim.metrics import (beta_path_bound, compute_alpha, compute_beta,
                             compute_bounds, compute_lefm, compute_vfm,
                             snapshot_report)
from fragsim.spectrum import SpectrumState
from fragsim.topology import (Topology, build_beta_paths, load_beta_paths,
                              load_topology)
from fragsim.traffic import DemandGenerator, DemandProfile
from reference import RefSim, ref_alpha, ref_beta, ref_lefm
from test_metrics import chequered_line, line_topology, state_from_free


def verdict(n, name):
    print(f"criterion {n} ({name}): PASS")


@pytest.fixture(scope="module")
def net_a():
    t = load_topology(data_file("net_a.json"))
    return t, load_beta_paths(data_file("net_a_paths.json"), t)


@pytest.fixture(scope="module")
def nsfnet():
    t = load_topology(data_file("nsfnet.json"))
    return t, build_beta_paths(t)


def sweep_stat(t, paths, loads, mds, metric, seed, reps=6, warm=4000,
               meas=4000, lam=None, holding=None):
    grid = make_grid(loads, mds, seed, arrival_rate=lam, mean_holding=holding)
    cells = run_steady_sweep(t, grid, paths, warmup=warm, measure=meas,
                             replications=reps, sample_every=100)
    return {(c.profile.load, c.profile.max_demand): c.stats[metric]
            for c in cells}


def test_01_worked_example():
    t = load_topology(data_file("fig_example.json"))
    ps = build_beta_paths(t)
    with open(data_file("fig_example_state.txt")) as fh:
        st = SpectrumState.parse(fh.read(), t.link_count, t.slice_count)
    b = compute_bounds(t, ps)
    rep = snapshot_report(st, ps, b)
    assert rep.alpha == pytest.approx(0.6533, abs=1e-4)
    terms = [1 / 2, 1 / 2, 4 / 4, 1 / 1, 1 / 1, 4 / 4, 5 / 5]
    assert sum(terms) / 8 == pytest.approx(0.75, abs=1e-4)
    assert rep.beta == pytest.approx(0.75, abs=1e-4)
    assert rep.vfm == pytest.approx(0.9944, abs=1e-3)
    assert b.vfm_min == pytest.approx(0.486, abs=1e-3)
    assert rep.nvfm == pytest.approx(0.547844, abs=1e-3)
    assert rep.avfm == pytest.approx(0.452156, abs=1e-3)
    assert rep.lefm == pytest.approx(0.35, abs=1e-12)
    verdict(1, "worked example")


def test_02_bound_exhaustion():
    # alpha over every occupancy of one S=6 link with >= 1 free slice
    for bits in range(63):
        free = "".join("0" if (bits >> j) & 1 else "1" for j in range(6))
        a = compute_alpha(state_from_free([free]))
        assert 1 / 3 - 1e-12 <= a <= 1.0
    # beta over every occupancy of a 2-hop x 4-slice path
    t2 = line_topology(3, 4)
    ps2 = build_beta_paths(t2)
    bound2 = beta_path_bound(2)
    for bits in range(256):
        rows = ["".join("1" if (bits >> (4 * l + j)) & 1 else "0"
                        for j in range(4)) for l in range(2)]
        st = SpectrumState(t2.link_count, 4)
        for hop, lid in enumerate(ps2.paths[0]):
            occ = sum(1 << j for j, ch in enumerate(rows[hop]) if ch == "0")
            st.occ[lid] = occ
            st.free[lid] = rows[hop].count("1")
        b = compute_beta(st, ps2)
        if b is not None:
            assert bound2 - 1e-12 <= b <= 1.0
    # chequered states attain both bounds
    t5, ps5, st5 = chequered_line(6, 8)
    assert compute_alpha(st5) == pytest.approx(1 / 4)
    assert compute_beta(st5, ps5) == pytest.approx(beta_path_bound(5))
    verdict(2, "bound exhaustion")


def test_03_taxonomy():
    t = line_topology(5)
    ps = build_beta_paths(t)
    bounds = compute_bounds(t, ps)
    rep = lambda st: snapshot_report(st, ps, bounds)
    assert rep(SpectrumState(t.link_count, 8)).avfm == 0.0          # (a)
    assert rep(state_from_free(["00000000"] * 8)).avfm == 0.0       # (b)
    base_rows = ["00111100"] * t.link_count
    assert rep(state_from_free(base_rows)).avfm == pytest.approx(0.0)  # (c)
    _, _, chq = chequered_line(5)
    assert rep(chq).avfm == pytest.approx(1.0)                      # (d)
    base = rep(state_from_free(base_rows)).avfm                     # (e)
    for link in range(t.link_count):
        rows = list(base_rows)
        rows[link] = "01100110"
        assert rep(state_from_free(rows)).avfm > base
    verdict(3, "taxonomy")


def test_04_oracle_equivalence():
    rnd = random.Random(2024)
    for trace in range(100):
        n = rnd.randint(2, 5)
        fibers = [(i, rnd.randrange(i)) for i in range(1, n)]  # random tree
        extra = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if (a, b) not in fibers and (b, a) not in fibers]
        rnd.shuffle(extra)
        fibers += extra[:rnd.randint(0, len(extra))]
        s = rnd.choice([8, 12, 16])
        t = Topology.from_fibers(f"r{trace}", n, fibers, s)
        ps = build_beta_paths(t)
        profile = DemandProfile(rnd.uniform(1.0, 8.0), rnd.uniform(0.5, 2.0),
                                rnd.randint(1, 8), trace + 1)
        gen = DemandGenerator(profile, n)
        demands = [gen.next_demand() for _ in range(rnd.randint(50, 500))]
        sim = Simulation(t, profile, ps)
        ref = RefSim(n, fibers, s)
        for i, d in enumerate(demands):
            got = sim.step_arrival(d) is not None
            assert got == ref.arrival(d), (trace, i)
            if (i + 1) % 100 == 0:
                # summation order differs between the vectorized metrics
                # and the loop oracle, so allow rounding noise only
                grids = ref.free_grids()
                assert compute_alpha(sim.state) == \
                    pytest.approx(ref_alpha(grids), abs=1e-12)
                assert compute_beta(sim.state, ps) == \
                    pytest.approx(ref_beta(grids, ps.paths), abs=1e-12)
                assert compute_lefm(sim.state) == \
                    pytest.approx(ref_lefm(grids), abs=1e-12)
        grids = ref.free_grids()
        for lid in range(t.link_count):
            got_busy = [(sim.state.occ[lid] >> j) & 1 == 1 for j in range(s)]
            assert got_busy == [not b for b in grids[lid]], (trace, lid)
    verdict(4, "oracle equivalence")


def _ols_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def test_05_transient_plateau(net_a):
    t, paths = net_a
    rise_metrics = ["utilization", "avfm", "a_alpha", "a_beta", "lefm", "br_tr"]
    plateau_metrics = ["utilization", "avfm", "a_alpha", "a_beta", "lefm",
                       "br_tr_win"]
    for load in (50.0, 100.0):
        prof = DemandProfile.resolve(16, 9, load=load)
        res = run_transient(t, prof, paths, arrivals=5000, sample_every=25,
                            replications=10)
        xs = res.sample_arrivals
        q = len(xs) * 3 // 4
        for name in rise_metrics:
            series = res.series[name]
            assert series[0][0] < 0.15, (load, name)
            assert series[-1][0] > series[0][0], (load, name)
        for name in plateau_metrics:
            slopes = []
            for rep in res.replication_samples:
                ys = [{"utilization": s.report.utilization,
                       "avfm": s.report.avfm, "a_alpha": s.report.a_alpha,
                       "a_beta": s.report.a_beta, "lefm": s.report.lefm,
                       "br_tr_win": s.br_tr_win}[name] for s in rep]
                # drift over the whole final quartile, in metric units
                slopes.append(_ols_slope(xs[q:], ys[q:]) * (xs[-1] - xs[q]))
            m, hw = mean_ci99(slopes)
            assert abs(m) <= hw, (load, name, m, hw)
    verdict(5, "transient rise and plateau")


def test_06_steady_state_band(nsfnet):
    t, paths = nsfnet
    stats = sweep_stat(t, paths, [40.0, 60.0, 80.0, 100.0], [16], "avfm",
                       seed=11, reps=5)
    for (load, _), (m, hw) in stats.items():
        assert 0.45 <= m <= 0.70, (load, m, hw)
    verdict(6, "steady-state band")


def test_07_load_equivalence(net_a):
    t, paths = net_a
    m1, h1 = sweep_stat(t, paths, [60.0], [16], "avfm", seed=21, reps=8,
                        lam=10.0)[(60.0, 16)]
    m2, h2 = sweep_stat(t, paths, [60.0], [16], "avfm", seed=22, reps=8,
                        lam=25.0)[(60.0, 16)]
    assert abs(m1 - m2) <= h1 + h2, (m1, h1, m2, h2)
    verdict(7, "load equivalence")


def ratio_curve(t, paths, loads, seed, reps=6, warm=3000, meas=3000):
    grid = make_grid(loads, [16], seed)
    cells = run_steady_sweep(t, grid, paths, warmup=warm, measure=meas,
                             replications=reps, sample_every=100)
    return [c.stats["a_alpha"][0] / c.stats["a_beta"][0] for c in cells]


def test_08_crossover(net_a, nsfnet):
    t, paths = net_a
    loads = [5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    ratios = ratio_curve(t, paths, loads, seed=11)
    assert ratios[0] < 1.0
    assert ratios[-1] > 1.0
    crossings = [i for i in range(1, len(ratios))
                 if ratios[i - 1] < 1.0 <= ratios[i]]
    assert len(crossings) == 1, list(zip(loads, ratios))
    assert 20.0 <= loads[crossings[0]] <= 80.0, list(zip(loads, ratios))

    tn, pn = nsfnet
    loads_n = [2.0, 5.0, 10.0, 15.0, 20.0]
    ratios_n = ratio_curve(tn, pn, loads_n, seed=11, reps=4)
    first_above = next((l for l, r in zip(loads_n, ratios_n) if r >= 1.0), None)
    assert first_above is not None and first_above <= 20.0, \
        list(zip(loads_n, ratios_n))
    verdict(8, "crossover location")


def test_09_high_utilization_divergence(net_a):
    t, paths = net_a
    prof = DemandProfile.resolve(16, 5, load=20.0)
    res = run_utilization_scan(t, prof, paths, target=0.99, sample_every=200,
                               max_arrivals=500_000)
    assert res.reached_target
    mid = min(res.samples, key=lambda s: abs(s.report.utilization - 0.5))
    assert abs(mid.report.utilization - 0.5) < 0.05
    high = [s for s in res.samples if s.report.utilization >= 0.99]
    h_avfm = sum(s.report.avfm for s in high) / len(high)
    h_lefm = sum(s.report.lefm for s in high) / len(high)
    assert h_avfm < mid.report.avfm, (h_avfm, mid.report.avfm)
    assert h_lefm >= mid.report.lefm, (h_lefm, mid.report.lefm)
    verdict(9, "high-utilization divergence")


def test_10_max_demand_ordering(net_a):
    t, paths = net_a
    stats = sweep_stat(t, paths, [40.0, 60.0, 80.0], [8, 16], "avfm",
                       seed=31, reps=8)
    for load in (40.0, 60.0, 80.0):
        m8, h8 = stats[(load, 8)]
        m16, h16 = stats[(load, 16)]
        assert m16 >= m8 - (h8 + h16), (load, m8, h8, m16, h16)
    verdict(10, "granularity ordering")
