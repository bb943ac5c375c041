"""Command-line surface.

Commands: snapshot, transient, sweep, scan, dump-state, make-paths.
Run parameters come from a JSON config file with individual flag overrides
(flags > file > defaults). Every experiment directory gets a metadata.json
sufficient to re-execute the run exactly. Exit codes: 0 ok, 2 config or
validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .engine import (ESCALATE_EVERY, ESCALATE_FACTOR, Simulation, make_grid,
                     run_steady_sweep, run_transient, run_utilization_scan)
from .metrics import (CSV_HEADER, METRICS, SUMMARY_METRICS, compute_bounds,
                      report_csv_row, snapshot_report)
from .spectrum import SpectrumState
from .topology import (TopologyError, build_beta_paths, load_beta_paths,
                       load_topology)
from .traffic import RNG_NAME, DemandProfile

DEFAULTS = {
    "seed": 1,
    "replications": 10,
    "load": 50.0,
    "lambda": None,
    "holding": None,
    "max_demand": 16,
    "arrivals": 5000,
    "sample_every": None,  # unset: the command's own default below
    "warmup": 20000,
    "measure": 30000,
    "loads": [40.0, 60.0, 80.0, 100.0],
    "max_demands": [16],
    "paths": None,
    "path_count": None,
    "scan_target": 0.99,
    "scan_max_arrivals": 500000,
}


# sampling interval in arrivals when neither flag nor config file sets one
SAMPLE_EVERY = {"transient": 25, "sweep": 100, "scan": 200}


class ConfigError(ValueError):
    pass


def _resolve_config(args) -> dict:
    """Merge defaults, FRAGSIM_SEED, config file and flags (low to high)."""
    cfg = dict(DEFAULTS)
    if "FRAGSIM_SEED" in os.environ:
        cfg["seed"] = int(os.environ["FRAGSIM_SEED"])
    explicit = set()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        unknown = set(file_cfg) - set(DEFAULTS) - {"topology", "out"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
        explicit |= set(file_cfg)
    for key in list(DEFAULTS) + ["topology", "out"]:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
            explicit.add(key)
    # an explicit (lambda, holding) pair replaces the default load
    if "load" not in explicit and cfg.get("lambda") and cfg.get("holding"):
        cfg["load"] = None
    if not cfg.get("topology"):
        raise ConfigError("a topology file is required")
    return cfg


def _build_paths(cfg, topo):
    paths = build_beta_paths(topo, cfg.get("path_count"))
    if paths.warning:
        print(f"warning: requested {cfg['path_count']} paths, "
              f"achieved {len(paths.paths)}", file=sys.stderr)
    return paths


def _load_inputs(cfg):
    topo = load_topology(cfg["topology"])
    if cfg.get("paths"):
        return topo, load_beta_paths(cfg["paths"], topo)
    return topo, _build_paths(cfg, topo)


def _experiment(args):
    """Shared set-up of transient, sweep and scan: the resolved config with
    the command's effective sample interval, the inputs and the output
    directory."""
    cfg = _resolve_config(args)
    if cfg["sample_every"] is None:
        cfg["sample_every"] = SAMPLE_EVERY[args.command]
    if int(cfg["sample_every"]) < 1:
        raise ConfigError(f"sample_every must be >= 1, got {cfg['sample_every']}")
    topo, paths = _load_inputs(cfg)
    out = cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return cfg, topo, paths, out


def _profile(cfg) -> DemandProfile:
    return DemandProfile.resolve(int(cfg["max_demand"]), int(cfg["seed"]),
                                 arrival_rate=cfg.get("lambda"),
                                 mean_holding=cfg.get("holding"),
                                 load=cfg.get("load"))


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_samples(path, samples) -> None:
    lines = [CSV_HEADER]
    lines += [report_csv_row(s.t, s.arrivals, s.report, s.br_tr) for s in samples]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_metadata(cfg, out_dir, extra=None):
    with open(cfg["topology"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    meta = {
        "config": {k: cfg.get(k) for k in sorted(cfg)},
        "topology_sha256": digest,
        "rng": RNG_NAME,
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    _atomic_write(os.path.join(out_dir, "metadata.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_snapshot(args) -> int:
    cfg = _resolve_config(args)
    topo, paths = _load_inputs(cfg)
    with open(args.state) as fh:
        text = fh.read()
    try:
        state = SpectrumState.parse(text, topo.link_count, topo.slice_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bounds = compute_bounds(topo, paths)
    rep = snapshot_report(state, paths, bounds)
    for name in METRICS:
        print(f"{name} {getattr(rep, name):.6f}")
    print(f"el_size {rep.el_size}")
    print(f"vfm_min {bounds.vfm_min:.6f}")
    return 0


def cmd_dump_state(args) -> int:
    cfg = _resolve_config(args)
    topo, paths = _load_inputs(cfg)
    sim = Simulation(topo, _profile(cfg), paths)
    if int(cfg["arrivals"]) > 0:
        sim.run(int(cfg["arrivals"]), sample_every=int(cfg["arrivals"]) + 1)
    sys.stdout.write(sim.state.dump())
    return 0


def cmd_make_paths(args) -> int:
    cfg = _resolve_config(args)
    paths = _build_paths(cfg, load_topology(cfg["topology"]))
    text = json.dumps({"paths": paths.node_paths}, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_transient(args) -> int:
    cfg, topo, paths, out = _experiment(args)
    res = run_transient(topo, _profile(cfg), paths, int(cfg["arrivals"]),
                        int(cfg["sample_every"]), int(cfg["replications"]))
    for r, samples in enumerate(res.replication_samples):
        _write_samples(os.path.join(out, f"transient_rep{r}.csv"), samples)
    lines = ["arrivals,metric,mean,ci99"]
    for i, n in enumerate(res.sample_arrivals):
        for name in SUMMARY_METRICS:
            m, hw = res.series[name][i]
            lines.append(f"{n},{name},{m:.6f},{hw:.6f}")
    _atomic_write(os.path.join(out, "transient_summary.csv"), "\n".join(lines) + "\n")
    _write_metadata(cfg, out, {"experiment": "transient",
                               "clamp_events": res.clamp_events})
    return 0


def cmd_sweep(args) -> int:
    cfg, topo, paths, out = _experiment(args)
    grid = make_grid([float(x) for x in cfg["loads"]],
                     [int(x) for x in cfg["max_demands"]],
                     arrival_rate=cfg.get("lambda"), mean_holding=cfg.get("holding"))
    res = run_steady_sweep(topo, grid, paths, int(cfg["warmup"]),
                           int(cfg["measure"]), int(cfg["replications"]),
                           int(cfg["seed"]), int(cfg["sample_every"]))
    lines = ["load,max_demand,lambda,holding,metric,mean,ci99"]
    for cell in res.cells:
        p = cell.point
        for name, (m, hw) in cell.stats.items():
            lines.append(f"{p.load:g},{p.max_demand},{p.arrival_rate:g},"
                         f"{p.mean_holding:g},{name},{m:.6f},{hw:.6f}")
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    _write_metadata(cfg, out, {"experiment": "sweep"})
    return 0


def cmd_scan(args) -> int:
    cfg, topo, paths, out = _experiment(args)
    res = run_utilization_scan(topo, _profile(cfg), paths,
                               target=float(cfg["scan_target"]),
                               sample_every=int(cfg["sample_every"]),
                               max_arrivals=int(cfg["scan_max_arrivals"]))
    if not res.reached_target:
        print(f"warning: reached utilization {res.max_utilization:.4f} "
              f"< target {cfg['scan_target']}", file=sys.stderr)
    _write_samples(os.path.join(out, "scan.csv"), res.samples)
    _write_metadata(cfg, out, {"experiment": "scan",
                               "escalate_every": ESCALATE_EVERY,
                               "escalate_factor": ESCALATE_FACTOR,
                               "reached_target": res.reached_target,
                               "max_utilization": res.max_utilization})
    return 0


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--topology", help="topology JSON file")
    p.add_argument("--paths", help="beta-path JSON file (overrides the heuristic)")
    p.add_argument("--path-count", dest="path_count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (or file for make-paths)")
    p.add_argument("--replications", type=int)
    p.add_argument("--load", type=float, help="Erlangs per node")
    p.add_argument("--lambda", dest="lambda", type=float, help="arrival rate per node")
    p.add_argument("--holding", type=float, help="mean holding time")
    p.add_argument("--max-demand", dest="max_demand", type=int)
    p.add_argument("--arrivals", type=int)
    p.add_argument("--sample-every", dest="sample_every", type=int)
    p.add_argument("--warmup", type=int)
    p.add_argument("--measure", type=int)
    p.add_argument("--loads", type=lambda s: [float(x) for x in s.split(",")])
    p.add_argument("--max-demands", dest="max_demands",
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--scan-target", dest="scan_target", type=float)
    p.add_argument("--scan-max-arrivals", dest="scan_max_arrivals", type=int)


def build_parser():
    ap = argparse.ArgumentParser(prog="fragsim",
                                 description="Spectrum fragmentation metrics and "
                                             "dynamic-traffic simulation for EONs")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_ in [
            ("snapshot", cmd_snapshot, "compute metrics for a state dump"),
            ("transient", cmd_transient, "transient-trace experiment"),
            ("sweep", cmd_sweep, "steady-state load sweep"),
            ("scan", cmd_scan, "utilization scan to near-full spectrum"),
            ("dump-state", cmd_dump_state, "run a short simulation and print the bitmap state"),
            ("make-paths", cmd_make_paths, "emit the computed beta-path cover")]:
        p = sub.add_parser(name, help=help_)
        if fn is cmd_snapshot:
            p.add_argument("state", help="state dump file")
        _add_common(p)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
