"""Correctness checks for benchmark runs, independent of fragsim's code paths.

- A naive per-slice implementation of alpha, beta, VFM/NVFM/AVFM, the
  adapted components and L-EFM, read from the documented `link: 0101...`
  state dump (0 = free), compared with `snapshot_report`.
- Range and shape checks on the CSV and metadata files a CLI run writes.
- Counter invariants of a `Simulation` driven with a workload's config.

Every check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

TOL = 1e-12
ROUNDING = 1e-6          # CSV values carry six decimals
SQRT2 = math.sqrt(2.0)

# value range of every metric the CLI writes
RANGES = {"utilization": (0.0, 1.0), "alpha": (0.0, 1.0), "beta": (0.0, 1.0),
          "vfm": (0.0, SQRT2), "nvfm": (0.0, 1.0), "avfm": (0.0, 1.0),
          "a_alpha": (0.0, 1.0), "a_beta": (0.0, 1.0), "lefm": (0.0, 1.0),
          "br_tr": (0.0, 1.0), "br_tr_win": (0.0, 1.0)}
SAMPLE_COLUMNS = ["t", "arrivals", "utilization", "alpha", "beta", "vfm", "nvfm",
                  "avfm", "a_alpha", "a_beta", "lefm", "br_tr"]


# --- naive metrics ---------------------------------------------------------

def free_rows(dump: str) -> list[list[bool]]:
    """Per-link free flags, slice 0 first, from a state dump."""
    rows = []
    for line in dump.splitlines():
        if line.strip() and not line.startswith("#"):
            _, _, bits = line.partition(":")
            rows.append([ch == "0" for ch in bits.strip()])
    return rows


def longest_run(flags) -> int:
    best = cur = 0
    for f in flags:
        cur = cur + 1 if f else 0
        best = max(best, cur)
    return best


def naive_alpha(rows):
    terms = [longest_run(r) / sum(r) for r in rows if any(r)]
    return sum(terms) / len(terms) if terms else None


def naive_beta(rows, trails):
    per_trail = []
    any_free = False
    for hops in trails:
        terms = []
        for j in range(len(rows[0])):
            column = [rows[lid][j] for lid in hops]
            if any(column):
                terms.append(longest_run(column) / sum(column))
        if terms:
            any_free = True
            per_trail.append(sum(terms) / len(terms))
        else:
            per_trail.append(1.0)
    return sum(per_trail) / len(per_trail) if any_free else None


def naive_lefm(rows):
    total = sum(sum(r) for r in rows)
    if total == 0:
        return None
    return 1.0 - sum(longest_run(r) for r in rows) / total


def trail_bound(hops: int) -> float:
    """Chequered-spectrum lower bound of beta on one trail."""
    if hops == 1:
        return 1.0
    return 2.0 / hops if hops % 2 == 0 else 2.0 * hops / (hops * hops - 1)


def naive_report(dump: str, trails: list[list[int]]) -> dict:
    rows = free_rows(dump)
    slices = len(rows[0])
    alpha_min = 1.0 / (slices // 2)
    beta_min = sum(trail_bound(len(t)) for t in trails) / len(trails)
    vfm_min = math.hypot(alpha_min, beta_min)
    free = sum(sum(r) for r in rows)
    rep = {"utilization": 1.0 - free / (len(rows) * slices),
           "el_size": sum(1 for r in rows if any(r))}
    alpha, beta, lefm = naive_alpha(rows), naive_beta(rows, trails), naive_lefm(rows)
    rep["lefm"] = 0.0 if lefm is None else lefm
    if alpha is None and beta is None:
        rep.update(alpha=1.0, beta=1.0, vfm=SQRT2, nvfm=1.0, avfm=0.0,
                   a_alpha=0.0, a_beta=0.0)
        return rep
    alpha = 1.0 if alpha is None else alpha
    beta = 1.0 if beta is None else beta
    vfm = math.hypot(alpha, beta)
    nvfm = min(1.0, max(0.0, (vfm - vfm_min) / (SQRT2 - vfm_min)))

    def adapted(x, lo):
        return 0.0 if lo >= 1.0 else min(1.0, max(0.0, 1.0 - (x - lo) / (1.0 - lo)))

    rep.update(alpha=alpha, beta=beta, vfm=vfm, nvfm=nvfm, avfm=1.0 - nvfm,
               a_alpha=adapted(alpha, alpha_min), a_beta=adapted(beta, beta_min))
    return rep


def compare_report(report, dump: str, trails, where: str) -> list[str]:
    """Errors where `snapshot_report`'s result differs from the naive one."""
    want = naive_report(dump, trails)
    errors = []
    for name, v in want.items():
        got = getattr(report, name)
        if not abs(got - v) <= TOL:
            errors.append(f"{where}: {name} {got!r} != naive {v!r}")
    return errors


# --- CLI outputs -------------------------------------------------------------

def _in_range(name: str, value: float) -> bool:
    lo, hi = RANGES[name]
    return math.isfinite(value) and lo - ROUNDING <= value <= hi + ROUNDING


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_samples(path: str, errors: list[str]) -> list[list[str]]:
    header, rows = _read_csv(path)
    if header != SAMPLE_COLUMNS:
        errors.append(f"{path}: header {header}")
        return rows
    for row in rows:
        t, arrivals = float(row[0]), int(row[1])
        if not (math.isfinite(t) and t >= 0 and arrivals >= 0):
            errors.append(f"{path}: bad t/arrivals {row[:2]}")
        for name, v in zip(header[2:], row[2:]):
            if not _in_range(name, float(v)):
                errors.append(f"{path}: {name}={v} out of range")
    return rows


def _check_summary(path: str, header_want: list[str], errors: list[str]) -> list[list[str]]:
    header, rows = _read_csv(path)
    if header != header_want:
        errors.append(f"{path}: header {header}")
        return rows
    for row in rows:
        name, mean, ci = row[-3], float(row[-2]), float(row[-1])
        if name not in RANGES:
            errors.append(f"{path}: unknown metric {name}")
        elif not _in_range(name, mean):
            errors.append(f"{path}: {name} mean {mean} out of range")
        if not (math.isfinite(ci) and ci >= 0):
            errors.append(f"{path}: {name} ci99 {ci} invalid")
    return rows


def check_outputs(command: str, params: dict, out_dir: str) -> tuple[list[str], int]:
    """(errors, arrivals processed) for one CLI run's output directory."""
    errors: list[str] = []
    with open(os.path.join(out_dir, "metadata.json")) as fh:
        meta = json.load(fh)
    if meta.get("experiment") != command:
        errors.append(f"metadata experiment {meta.get('experiment')!r}")
    if meta["config"].get("seed") != params["seed"]:
        errors.append("metadata seed differs from the requested seed")
    n_metrics = len(RANGES)
    if command == "transient":
        points = params["arrivals"] // params["sample_every"]
        for r in range(params["replications"]):
            rows = _check_samples(os.path.join(out_dir, f"transient_rep{r}.csv"), errors)
            if len(rows) != points:
                errors.append(f"transient_rep{r}.csv: {len(rows)} rows, want {points}")
        rows = _check_summary(os.path.join(out_dir, "transient_summary.csv"),
                              ["arrivals", "metric", "mean", "ci99"], errors)
        if len(rows) != points * n_metrics:
            errors.append(f"transient_summary.csv: {len(rows)} rows")
        arrivals = params["replications"] * params["arrivals"]
    elif command == "sweep":
        cells = len(params["loads"]) * len(params["max_demands"])
        rows = _check_summary(os.path.join(out_dir, "sweep.csv"),
                              ["load", "max_demand", "lambda", "holding", "metric",
                               "mean", "ci99"], errors)
        if len(rows) != cells * n_metrics:
            errors.append(f"sweep.csv: {len(rows)} rows, want {cells * n_metrics}")
        arrivals = cells * params["replications"] * (params["warmup"] + params["measure"])
    else:
        raise ValueError(f"unknown command {command}")
    if arrivals < 1:
        errors.append("no arrivals processed")
    return errors, arrivals


def csv_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV a run wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# --- simulation invariants ---------------------------------------------------

def _counting(method, counter: list[int]):
    def counted(*args):
        counter[0] += 1
        return method(*args)
    return counted


def check_simulation(sim, chunk: int, chunks: int, where: str) -> list[str]:
    """Drive `sim` through `chunks` runs of `chunk` arrivals and check, after
    each, the counters and `snapshot_report` against the naive metrics."""
    from fragsim.metrics import snapshot_report

    allocs, releases = [0], [0]
    sim.state.allocate = _counting(sim.state.allocate, allocs)
    sim.state.release = _counting(sim.state.release, releases)
    errors = []
    for k in range(1, chunks + 1):
        sim.run(chunk, sample_every=chunk + 1)
        at = f"{where} after {k * chunk} arrivals"
        total, blocked = sim.total_requests, sim.blocked_requests
        if not 0 <= blocked <= total:
            errors.append(f"{at}: blocked {blocked} outside [0, {total}]")
        if allocs[0] != total - blocked:
            errors.append(f"{at}: {allocs[0]} admitted, counters say {total - blocked}")
        if allocs[0] - releases[0] != len(sim.connections):
            errors.append(f"{at}: admitted - departed = {allocs[0] - releases[0]}, "
                          f"active = {len(sim.connections)}")
        dump = sim.state.dump()
        busy = sum(len(r) - sum(r) for r in free_rows(dump))
        held = sum(c.range.width * len(c.route) for c in sim.connections.values())
        if busy != held:
            errors.append(f"{at}: {busy} busy slices, active connections hold {held}")
        rep = snapshot_report(sim.state, sim.paths, sim.bounds)
        errors += compare_report(rep, dump, sim.paths.paths, at)
    return errors
