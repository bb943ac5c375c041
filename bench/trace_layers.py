"""Per-layer timing by wrapping the public calls into each fragsim module.

Layers are the six modules: topology, spectrum, traffic, metrics, engine
and cli. Every traced callable gets a wrapper that keeps a call count and
its self time (its duration minus the time of the traced calls it made).
Summing self time over all spans gives the time covered by the outermost
spans, so layer self times plus the unattributed remainder equal the
traced wall time.

A function imported by name into another module is patched there too
(`engine` imports `snapshot_report` and `all_pairs_routes`, `cli` imports
the runners), and methods are patched on their class.
"""

from __future__ import annotations

import importlib
import statistics
import time

LAYERS = ("topology", "spectrum", "traffic", "metrics", "engine", "cli")

# (module, qualified name) of every traced callable
TARGETS = (
    ("topology", "load_topology"),
    ("topology", "build_beta_paths"),
    ("topology", "load_beta_paths"),
    ("topology", "all_pairs_routes"),
    ("traffic", "DemandGenerator.next_demand"),
    ("traffic", "EventQueue.push"),
    ("traffic", "EventQueue.pop"),
    ("spectrum", "SpectrumState.find_first_fit"),
    ("spectrum", "SpectrumState.allocate"),
    ("spectrum", "SpectrumState.release"),
    ("spectrum", "SpectrumState.max_contiguous_free"),
    ("spectrum", "SpectrumState.free_bits"),
    ("metrics", "snapshot_report"),
    ("metrics", "compute_alpha"),
    ("metrics", "compute_beta"),
    ("metrics", "compute_lefm"),
    ("metrics", "compute_bounds"),
    ("engine", "Simulation.__init__"),
    ("engine", "Simulation.step_arrival"),
    ("engine", "Simulation.take_sample"),
    ("engine", "run_transient"),
    ("engine", "run_steady_sweep"),
    ("cli", "main"),
)

# spans whose individual inclusive durations are kept for percentiles
KEEP_DURATIONS = ("metrics.snapshot_report",)


class Span:
    __slots__ = ("calls", "self_s", "hits", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0            # calls that returned something other than None
        self.durations = [] if keep_durations else None


class Tracer:
    """Installs the wrappers, accumulates spans, and restores the originals."""

    def __init__(self):
        self.spans = {f"{m}.{q}": Span(f"{m}.{q}" in KEEP_DURATIONS) for m, q in TARGETS}
        # child time accumulated by each open span; slot 0 is the root
        self._stack = [0.0]
        self._patched = []       # (owner, attribute, original)

    def reset(self) -> None:
        """Zero every span, so that later calls are counted on their own."""
        for span in self.spans.values():
            span.calls, span.self_s, span.hits = 0, 0.0, 0
            if span.durations is not None:
                span.durations.clear()
        self._stack[:] = [0.0]

    def _wrap(self, fn, span: Span):
        stack = self._stack
        clock = time.perf_counter
        durations = span.durations

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                span.calls += 1
                span.self_s += dt - children
                if durations is not None:
                    durations.append(dt)
            if result is not None:
                span.hits += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [importlib.import_module("fragsim")]
        modules += [importlib.import_module(f"fragsim.{m}") for m in LAYERS]
        for mod_name, qualname in TARGETS:
            mod = importlib.import_module(f"fragsim.{mod_name}")
            span = self.spans[f"{mod_name}.{qualname}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(orig, span))
                continue
            orig = getattr(mod, qualname)
            wrapper = self._wrap(orig, span)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """True when every patched name holds its original object again."""
        return all(vars(owner)[attr] is orig for owner, attr, orig in self._patched)

    def summary(self, wall_s: float) -> dict:
        """Raw span totals of one traced run, as plain JSON data."""
        spans = {}
        for name, s in self.spans.items():
            d = {"calls": s.calls, "self_s": s.self_s, "hits": s.hits}
            if s.durations:
                d["p50_s"] = statistics.median(s.durations)
                d["p99_s"] = (statistics.quantiles(s.durations, n=100)[98]
                              if len(s.durations) > 1 else s.durations[0])
            spans[name] = d
        return {"spans": spans, "wall_s": wall_s, "covered_s": self._stack[0]}


def layer_metrics(summary: dict, trail_hops: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced run.

    `summary` covers `cli.main`; its "setup" entry, when present, holds the
    spans of the benchmark's set-up, reported under `setup.*`."""
    sp = summary["spans"]

    def calls(*names):
        return sum(sp[n]["calls"] for n in names)

    def self_s(*names):
        return sum(sp[n]["self_s"] for n in names)

    def per_call_us(*names):
        n = calls(*names)
        return self_s(*names) / n * 1e6 if n else 0.0

    runners = ("engine.run_transient", "engine.run_steady_sweep")
    ff = sp["spectrum.SpectrumState.find_first_fit"]
    snap = sp["metrics.snapshot_report"]
    out = {
        "topology.load_topology_s": (self_s("topology.load_topology"), "s"),
        "topology.load_beta_paths_s": (self_s("topology.load_beta_paths"), "s"),
        "topology.all_pairs_routes_s": (self_s("topology.all_pairs_routes"), "s"),
        "topology.all_pairs_routes_calls": (calls("topology.all_pairs_routes"), "count"),
        "topology.trail_count": (len(trail_hops), "count"),
        "topology.min_trail_hops": (min(trail_hops), "count"),
        "traffic.next_demand_calls": (calls("traffic.DemandGenerator.next_demand"), "count"),
        "traffic.next_demand_us": (per_call_us("traffic.DemandGenerator.next_demand"), "us"),
        "traffic.queue_ops": (calls("traffic.EventQueue.push", "traffic.EventQueue.pop"), "count"),
        "traffic.queue_us": (per_call_us("traffic.EventQueue.push", "traffic.EventQueue.pop"), "us"),
        "spectrum.first_fit_calls": (ff["calls"], "count"),
        "spectrum.first_fit_us": (per_call_us("spectrum.SpectrumState.find_first_fit"), "us"),
        "spectrum.first_fit_hit_ratio": (ff["hits"] / ff["calls"] if ff["calls"] else 0.0,
                                         "ratio"),
        "spectrum.allocate_us": (per_call_us("spectrum.SpectrumState.allocate"), "us"),
        "spectrum.release_us": (per_call_us("spectrum.SpectrumState.release"), "us"),
        "spectrum.max_contiguous_free_calls": (
            calls("spectrum.SpectrumState.max_contiguous_free"), "count"),
        "spectrum.max_contiguous_free_us": (
            per_call_us("spectrum.SpectrumState.max_contiguous_free"), "us"),
        "spectrum.free_bits_calls": (calls("spectrum.SpectrumState.free_bits"), "count"),
        "spectrum.free_bits_us": (per_call_us("spectrum.SpectrumState.free_bits"), "us"),
        "metrics.snapshot_report_calls": (snap["calls"], "count"),
        "metrics.snapshot_report_us_p50": (snap.get("p50_s", 0.0) * 1e6, "us"),
        "metrics.snapshot_report_us_p99": (snap.get("p99_s", 0.0) * 1e6, "us"),
        "metrics.compute_alpha_us": (per_call_us("metrics.compute_alpha"), "us"),
        "metrics.compute_beta_us": (per_call_us("metrics.compute_beta"), "us"),
        "metrics.compute_lefm_us": (per_call_us("metrics.compute_lefm"), "us"),
        "metrics.compute_bounds_s": (self_s("metrics.compute_bounds"), "s"),
        "engine.step_arrival_self_us": (per_call_us("engine.Simulation.step_arrival"), "us"),
        "engine.take_sample_self_us": (per_call_us("engine.Simulation.take_sample"), "us"),
        "engine.simulation_init_s": (self_s("engine.Simulation.__init__"), "s"),
        "engine.runner_self_s": (self_s(*runners), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }
    for layer in LAYERS:
        names = [n for n in sp if n.startswith(layer + ".")]
        out[f"layer.{layer}_self_s"] = (self_s(*names), "s")
    setup = summary.get("setup")
    if setup is not None:
        for name in ("topology.load_topology", "topology.build_beta_paths",
                     "topology.all_pairs_routes", "metrics.compute_bounds"):
            out[f"setup.{name.split('.')[1]}_s"] = (setup["spans"][name]["self_s"], "s")
    out["trace.wall_s"] = (summary["wall_s"], "s")
    out["trace.unattributed_s"] = (summary["wall_s"] - summary["covered_s"], "s")
    return out
