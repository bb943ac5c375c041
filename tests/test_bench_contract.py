"""What the benchmark in bench/ relies on in fragsim.

bench/trace_layers.py patches every callable in its TARGETS by name and
stops when one is missing, and bench/checks.py pins the per-sample CSV
header and the metric names of the summaries. A deletion or rename that
would break the benchmark fails here first. The bench sources are parsed,
not imported, so the test never writes into bench/.
"""

import ast
import importlib
import os

from fragsim.metrics import CSV_HEADER, SUMMARY_METRICS

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def bench_assignment(module, name):
    """The value node assigned to `name` at the top level of bench/<module>.py."""
    with open(os.path.join(BENCH, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
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


def test_sample_csv_header_matches_bench():
    columns = ast.literal_eval(bench_assignment("checks", "SAMPLE_COLUMNS"))
    assert CSV_HEADER.split(",") == columns


def test_summary_metrics_known_to_bench():
    ranges = bench_assignment("checks", "RANGES")
    assert [ast.literal_eval(k) for k in ranges.keys] == list(SUMMARY_METRICS)
