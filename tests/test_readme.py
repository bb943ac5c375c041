"""The README and the src docstrings against the code. They name the one
place that states a mechanism instead of restating it, so each name they
give must still lead somewhere: every backticked dotted name that points
into fragsim resolves, and so does every backticked `_private` name of a
src docstring or comment. The Library section's import line runs and
imports what the package exports."""

import ast
import importlib
import inspect
import io
import pkgutil
import re
import tokenize
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
         "fragsim.traffic", "spectrum.SpectrumState.find_first_fit", "fragsim.cli",
         "engine.Simulation._advance", "fragsim.spectrum", "traffic.EventQueue",
         "traffic._decode", "parallel.run_forked", "metrics.mean_ci99",
         "cover.min_trail_cover")


DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"


def names_in(text: str, pattern: str = DOTTED):
    """The names of the backticked spans of `text` that are a `pattern`
    name, with or without "()", file names aside."""
    for span in re.findall(r"`([^`]+)`", text):
        m = re.fullmatch(f"({pattern})(?:\\(\\))?", span)
        if m and not re.search(r"\.(py|json|toml|txt|csv)$", span):
            yield m.group(1)


def dotted_names():
    """Backticked `a.b.c` or `a.b.c()` spans of the README's prose."""
    yield from names_in(re.sub(r"```.*?```", "", README, flags=re.S))


def src_names():
    """(module, name) of each backticked dotted or `_private` name in the
    docstrings and comments of fragsim's modules. A comment is read with
    the comment lines right above and below it."""
    for module, mod in MODULES.items():
        source = Path(mod.__file__).read_text()
        nodes = ast.walk(ast.parse(source))
        texts = [ast.get_docstring(node) or "" for node in nodes
                 if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        last = None
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                if last != tok.start[0] - 1:
                    texts.append("")
                texts[-1] += tok.string + "\n"
                last = tok.start[0]
        for text in texts:
            yield from ((module, name) for name in names_in(text, DOTTED + r"|_\w+"))


def sim():
    t = Topology("line", 3, [(0, 1), (1, 2)], 4)
    return Simulation(t, DemandProfile(1.0, 1.0, 2, 1), build_beta_paths(t))


def instance_attributes(cls: type) -> set[str]:
    """The attributes a class's instances get beyond the class's own: its
    annotated fields and the `self.name` targets of its __init__."""
    body = ast.parse(inspect.getsource(cls)).body[0].body
    names = {node.target.id for node in body if isinstance(node, ast.AnnAssign)}
    for node in body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            names |= {target.attr for target in ast.walk(node)
                      if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                      and isinstance(target.value, ast.Name) and target.value.id == "self"}
    return names


def attribute(obj, name: str):
    """getattr, or for an attribute that a class's instances get, the class."""
    if hasattr(obj, name) or not (isinstance(obj, type) and name in instance_attributes(obj)):
        return getattr(obj, name)
    return obj


def resolve(name: str, module=None):
    """The object a name points to, or None if it points outside fragsim;
    AttributeError if it points into fragsim at nothing. A bare name is
    looked up in `module` and then in the classes it defines."""
    head, *parts = name.split(".")
    if head == "fragsim":
        obj = fragsim
    elif head in MODULES:
        obj = MODULES[head]
    elif head in CLASSES:
        obj = CLASSES[head]
    elif head == "sim":  # the Library section's Simulation
        obj = sim()
    elif module is not None and not parts:
        owners = [module] + [cls for cls in CLASSES.values() if cls.__module__ == module.__name__]
        for owner in owners:
            try:
                return attribute(owner, head)
            except AttributeError:
                pass
        raise AttributeError(f"{module.__name__} names {head}, which it does not define")
    else:
        return None
    for part in parts:
        obj = attribute(obj, part)
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


def test_src_names_resolve():
    names = sorted(set(src_names()))
    # read from a docstring, a comment, and through the instance and method lookups
    assert {("metrics", "SpectrumState.occ"), ("engine", "_advance"),
            ("spectrum", "metrics._batch_runs"), ("traffic", "_decode")} <= set(names)
    unresolved = []
    for module, name in names:
        try:
            resolve(name, MODULES[module])
        except AttributeError:
            unresolved.append((module, name))
    assert unresolved == []


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
