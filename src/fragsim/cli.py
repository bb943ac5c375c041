"""Command-line surface.

The commands are named once, in `COMMANDS`; one parser reads the command,
the state file of `snapshot` and every option, before or after the command.
Run parameters come from a JSON config file with individual flag overrides
(flags > file > defaults). Every experiment directory gets a metadata.json
sufficient to re-execute the run exactly. Exit codes: 0 ok, 2 config or
validation error, 3 I/O error."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .engine import (ESCALATE_EVERY, ESCALATE_FACTOR, Simulation, make_grid,
                     run_steady_sweep, run_transient, run_utilization_scan)
from .metrics import CSV_HEADER, METRICS, SUMMARY_METRICS, compute_bounds, snapshot_report
from .spectrum import SpectrumState
from .topology import build_beta_paths, load_beta_paths, load_topology
from .traffic import RNG_NAME, DemandProfile


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


# Every run option as (key, parser, default, help). Its flag is --key with
# "_" written "-", and a config-file value is read by the same parser.
OPTIONS = (
    ("topology", str, None, "topology JSON file"),
    ("paths", str, None, "beta-path JSON file (overrides the heuristic)"),
    ("path_count", int, None, None),
    ("seed", int, 1, None),
    ("out", str, None, "output directory (or file for make-paths)"),
    ("replications", int, 10, None),
    ("load", float, 50.0, "Erlangs per node"),
    ("lambda", float, None, "arrival rate per node"),
    ("holding", float, None, "mean holding time"),
    ("max_demand", int, 16, None),
    ("arrivals", int, 5000, None),
    ("sample_every", int, None, "arrivals between samples (default: by command, below)"),
    ("warmup", int, 20000, None),
    ("measure", int, 30000, None),
    ("loads", _floats, [40.0, 60.0, 80.0, 100.0], "comma-separated loads"),
    ("max_demands", _ints, [16], "comma-separated maximum widths"),
    ("scan_target", float, 0.99, None),
    ("scan_max_arrivals", int, 500000, None),
)
DEFAULTS = {key: default for key, _, default, _ in OPTIONS}


def _parse(key: str, value, source: str):
    """A value from outside the command line, read as its flag would read
    it: a list is joined with commas first."""
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    parser = next(parser for k, parser, _, _ in OPTIONS if k == key)
    try:
        return parser(text)
    except ValueError:
        raise ValueError(f"{source}: invalid {key} value {value!r}") from None


def _resolve_config(args) -> dict:
    """Merge defaults, FRAGSIM_SEED, config file and flags (low to high).

    A null config-file value leaves the key unset."""
    cfg = dict(DEFAULTS)
    if "FRAGSIM_SEED" in os.environ:
        cfg["seed"] = _parse("seed", os.environ["FRAGSIM_SEED"], "FRAGSIM_SEED")
    explicit = {}
    if args.config:
        with open(args.config) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        explicit = {k: _parse(k, v, "config file") for k, v in file_cfg.items()
                    if v is not None}
    explicit.update((k, getattr(args, k)) for k in DEFAULTS
                    if getattr(args, k) is not None)
    cfg.update(explicit)
    # an explicit (lambda, holding) pair replaces the default load and loads
    if cfg["lambda"] is not None and cfg["holding"] is not None:
        for key in ("load", "loads"):
            cfg[key] = explicit.get(key)
    if not cfg["topology"]:
        raise ValueError("a topology file is required")
    if cfg["path_count"] is not None and cfg["path_count"] < 1:
        raise ValueError(f"path_count must be >= 1, got {cfg['path_count']}")
    if not 0 < cfg["scan_target"] <= 1:
        raise ValueError(f"scan_target must be in (0, 1], got {cfg['scan_target']}")
    if cfg["scan_max_arrivals"] < 1:
        raise ValueError(f"scan_max_arrivals must be >= 1, got {cfg['scan_max_arrivals']}")
    return cfg


def _build_paths(cfg, topo):
    paths = build_beta_paths(topo, cfg["path_count"])
    if paths.warning:
        print(f"warning: requested {cfg['path_count']} paths, "
              f"achieved {len(paths.paths)}", file=sys.stderr)
    return paths


def _load_inputs(cfg):
    topo = load_topology(cfg["topology"])
    if cfg["paths"]:
        return topo, load_beta_paths(cfg["paths"], topo)
    return topo, _build_paths(cfg, topo)


def _experiment(cfg):
    """Shared set-up of transient, sweep and scan: inputs and output directory."""
    if cfg["sample_every"] < 1:
        raise ValueError(f"sample_every must be >= 1, got {cfg['sample_every']}")
    topo, paths = _load_inputs(cfg)
    out = cfg["out"] or "."
    os.makedirs(out, exist_ok=True)
    return topo, paths, out


def _profile(cfg) -> DemandProfile:
    return DemandProfile.resolve(cfg["max_demand"], cfg["seed"], cfg["lambda"],
                                 cfg["holding"], cfg["load"])


def _atomic_write(path: str, text: str) -> None:
    """Write a file whole or not at all, through a temporary file beside it
    that open() creates, so the mode follows the umask; its name holds the pid."""
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.getpid()}")
    fh = open(tmp, "x")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_samples(path, samples) -> None:
    # each row leaves out the last value, br_tr_win, as CSV_HEADER does
    lines = [CSV_HEADER]
    lines += [f"{s.t:.6f},{s.arrivals}," + ",".join(f"{v:.6f}" for v in s.values()[:-1])
              for s in samples]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_metadata(cfg, out_dir, extra):
    with open(cfg["topology"], "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    meta = {
        "config": cfg,
        "topology_sha256": digest,
        "rng": RNG_NAME,
        "version": __version__,
        **extra,
    }
    _atomic_write(os.path.join(out_dir, "metadata.json"),
                  json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _processes(res):
    """Metadata of the processes a runner's replications ran in and of the
    demand streams they decoded and replayed. With forked children (Linux
    only), also the peak resident set in MiB of the largest child."""
    meta = {"processes": res.processes, "demand_streams": res.streams}
    if res.processes > 1:
        import resource  # not on Windows, which never forks here
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
        meta["worker_peak_rss_mb"] = round(peak, 3)
    return meta


def cmd_snapshot(cfg, state_file) -> int:
    topo, paths = _load_inputs(cfg)
    with open(state_file) as fh:
        state = SpectrumState.parse(fh.read(), topo.link_count, topo.slice_count)
    bounds = compute_bounds(topo, paths)
    rep = snapshot_report(state, paths, bounds)
    for name in METRICS:
        print(f"{name} {getattr(rep, name):.6f}")
    print(f"el_size {rep.el_size}")
    print(f"vfm_min {bounds.vfm_min:.6f}")
    return 0


def cmd_dump_state(cfg, _state_file) -> int:
    if cfg["arrivals"] < 0:
        raise ValueError(f"arrivals must be >= 0, got {cfg['arrivals']}")
    topo, paths = _load_inputs(cfg)
    sim = Simulation(topo, _profile(cfg), paths)
    if cfg["arrivals"] > 0:
        sim.run(cfg["arrivals"], sample_every=cfg["arrivals"] + 1)
    sys.stdout.write(sim.state.dump())
    return 0


def cmd_make_paths(cfg, _state_file) -> int:
    paths = _build_paths(cfg, load_topology(cfg["topology"]))
    text = json.dumps({"paths": paths.node_paths}, indent=2) + "\n"
    if cfg["out"]:
        _atomic_write(cfg["out"], text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_transient(cfg, _state_file) -> int:
    topo, paths, out = _experiment(cfg)
    res = run_transient(topo, _profile(cfg), paths, cfg["arrivals"],
                        cfg["sample_every"], cfg["replications"])
    for r, samples in enumerate(res.replication_samples):
        _write_samples(os.path.join(out, f"transient_rep{r}.csv"), samples)
    lines = ["arrivals,metric,mean,ci99"]
    for i, n in enumerate(res.sample_arrivals):
        for name in SUMMARY_METRICS:
            m, hw = res.series[name][i]
            lines.append(f"{n},{name},{m:.6f},{hw:.6f}")
    _atomic_write(os.path.join(out, "transient_summary.csv"), "\n".join(lines) + "\n")
    _write_metadata(cfg, out, {"experiment": "transient",
                               "clamp_events": res.clamp_events,
                               **_processes(res)})
    return 0


def cmd_sweep(cfg, _state_file) -> int:
    topo, paths, out = _experiment(cfg)
    grid = make_grid(cfg["loads"], cfg["max_demands"], cfg["seed"],
                     cfg["lambda"], cfg["holding"])
    cells = run_steady_sweep(topo, grid, paths, cfg["warmup"], cfg["measure"],
                             cfg["replications"], cfg["sample_every"])
    lines = ["load,max_demand,lambda,holding,metric,mean,ci99"]
    for cell in cells:
        p = cell.profile
        for name, (m, hw) in cell.stats.items():
            lines.append(f"{p.load:g},{p.max_demand},{p.arrival_rate_per_node:g},"
                         f"{p.mean_holding:g},{name},{m:.6f},{hw:.6f}")
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    _write_metadata(cfg, out, {"experiment": "sweep",
                               "clamp_events": sum(c.clamp_events for c in cells),
                               **_processes(cells[0])})
    return 0


def cmd_scan(cfg, _state_file) -> int:
    topo, paths, out = _experiment(cfg)
    res = run_utilization_scan(topo, _profile(cfg), paths,
                               target=cfg["scan_target"],
                               sample_every=cfg["sample_every"],
                               max_arrivals=cfg["scan_max_arrivals"])
    if not res.reached_target:
        print(f"warning: reached utilization {res.max_utilization:.4f} "
              f"< target {cfg['scan_target']}", file=sys.stderr)
    _write_samples(os.path.join(out, "scan.csv"), res.samples)
    _write_metadata(cfg, out, {"experiment": "scan",
                               "escalate_every": ESCALATE_EVERY,
                               "escalate_factor": ESCALATE_FACTOR,
                               "reached_target": res.reached_target,
                               "clamp_events": res.clamp_events,
                               "max_utilization": res.max_utilization})
    return 0


# name: (function, help, sample interval when neither flag nor config file sets one)
COMMANDS = {
    "snapshot": (cmd_snapshot, "compute metrics for a state dump", None),
    "transient": (cmd_transient, "transient-trace experiment", 25),
    "sweep": (cmd_sweep, "steady-state load sweep", 100),
    "scan": (cmd_scan, "utilization scan to near-full spectrum", 200),
    "dump-state": (cmd_dump_state, "run a short simulation and print the bitmap state", None),
    "make-paths": (cmd_make_paths, "emit the computed beta-path cover", None),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fragsim", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Spectrum fragmentation metrics and dynamic-traffic simulation for EONs",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{help_}" + (f" (sample every {every})" if every else "")
            for name, (_, help_, every) in COMMANDS.items()))
    ap.add_argument("command", choices=COMMANDS, metavar="command", help="see below")
    ap.add_argument("state", nargs="?", help="state dump file (snapshot only)")
    ap.add_argument("--config", help="JSON config file")
    for key, parser, _, help_ in OPTIONS:
        ap.add_argument("--" + key.replace("_", "-"), dest=key, type=parser, help=help_)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    # intermixed: the state file may follow the options
    args = ap.parse_intermixed_args(argv)
    fn, _, sample_every = COMMANDS[args.command]
    if (args.state is None) == (args.command == "snapshot"):
        ap.error("the following arguments are required: state" if args.state is None
                 else f"unrecognized arguments: {args.state}")
    try:
        cfg = _resolve_config(args)
        if cfg["sample_every"] is None:
            cfg["sample_every"] = sample_every
        return fn(cfg, args.state)
    except ValueError as exc:  # TopologyError and bad values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
