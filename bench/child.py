"""One workload run in a fresh process.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON names the checkout's `src` directory, the topology file, the file
to write the trail cover to, the `fragsim` argv (which passes that file as
`--paths`), and whether to trace. The child times set-up (import, topology,
cover, bounds, routes), then `fragsim.cli.main` between two passes of the
reference loop, and prints one JSON object as its last stdout line. A traced run reports the set-up spans and the
spans of `cli.main` separately; its traced wall time is that of `cli.main`.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    ru_maxrss also keeps the high-water mark of the process that exec'd this
    one (the parent, copied by fork), so it reads the benchmark runner's size
    whenever that is larger. VmHWM belongs to this image alone."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import fragsim
    from fragsim import cli, metrics, topology
    from reference import reference_s
    if not os.path.realpath(fragsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"fragsim imported from {fragsim.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from trace_layers import Tracer
        tracer = Tracer()
        tracer.install()
        t_start = time.perf_counter()

    topo = topology.load_topology(spec["topology"])
    paths = topology.build_beta_paths(topo)
    metrics.compute_bounds(topo, paths)
    topology.all_pairs_routes(topo)
    setup_s = time.perf_counter() - _T0

    with open(spec["cover"], "w") as fh:
        json.dump({"paths": paths.node_paths}, fh)

    if tracer is not None:
        # set-up spans are kept apart from the command's own
        setup_trace = tracer.summary(time.perf_counter() - t_start)
        tracer.reset()
    # the reference loop brackets cli.main in this same process, so it sees
    # the same share of slow machine time as the command
    ref_before = reference_s()
    t1 = time.perf_counter()
    rc = cli.main(spec["argv"])
    main_s = time.perf_counter() - t1
    ref_after = reference_s()

    out = {"rc": rc, "setup_s": setup_s, "main_s": main_s, "peak_rss_mb": peak_rss_mb(),
           "trail_hops": sorted(paths.hop_counts), "reference_s": [ref_before, ref_after]}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.summary(main_s)
        out["trace"]["setup"] = setup_trace
        out["trace"]["restored"] = tracer.restored()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
