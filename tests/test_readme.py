"""The README against the code. It names docstrings instead of restating
what they say, so each name it gives must still lead somewhere: every
backticked dotted name that points into fragsim resolves, and the Library
section's import line runs and imports what the package exports."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import fragsim
from fragsim.engine import Simulation
from fragsim.topology import Topology, build_beta_paths
from fragsim.traffic import DemandProfile

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
MODULES = {m.name: importlib.import_module(f"fragsim.{m.name}")
           for m in pkgutil.iter_modules(fragsim.__path__)}
# the classes each module defines, by name
CLASSES = {name: obj for mod in MODULES.values() for name, obj in vars(mod).items()
           if isinstance(obj, type) and obj.__module__ == mod.__name__}
# the places that state a rule which the README only names
RULES = ("engine.Simulation.take_sample", "engine._workers", "engine._replicate",
         "fragsim.traffic", "spectrum.SpectrumState.find_first_fit", "fragsim.cli")


def dotted_names():
    """Backticked `a.b.c` or `a.b.c()` spans of the README's prose, file
    names aside."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?", span)
        if m and not re.search(r"\.(py|json|toml|txt|csv)$", span):
            yield m.group(1)


def sim():
    t = Topology("line", 3, [(0, 1), (1, 2)], 4)
    return Simulation(t, DemandProfile(1.0, 1.0, 2, 1), build_beta_paths(t))


def resolve(name: str):
    """The object a README name points to, or None if it points outside
    fragsim; AttributeError if it points into fragsim at nothing."""
    head, *parts = name.split(".")
    if head == "fragsim":
        obj = fragsim
    elif head in MODULES:
        obj = MODULES[head]
    elif head in CLASSES:
        obj = CLASSES[head]
    elif head == "sim":  # the Library section's Simulation
        obj = sim()
    else:
        return None
    for part in parts:
        obj = getattr(obj, part)
    return obj


def test_readme_names_resolve():
    names = sorted(set(dotted_names()))
    assert set(RULES) <= set(names)
    unresolved = []
    for name in names:
        try:
            resolve(name)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []
    assert all(resolve(name).__doc__.strip() for name in RULES)


def test_library_import_line_runs_and_is_the_package_surface():
    block = re.search(r"## Library\s+```python\n(.*?)```", README, re.S).group(1)
    imports = [node for node in ast.parse(block).body if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports] == ["fragsim"]
    namespace = {}
    exec(compile(ast.Module(imports, []), "README.md", "exec"), namespace)
    imported = {alias.name for alias in imports[0].names}
    assert imported <= namespace.keys()
    exported = {name for name, obj in vars(fragsim).items()
                if not name.startswith("_") and obj not in MODULES.values()}
    assert exported == imported
