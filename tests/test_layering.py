"""Each `ehf` module imports only the modules below it in one fixed order,
imports nothing but numpy and the standard library from outside the package,
the package exports only what some reader uses, holds only functions and
classes that something outside the tests reaches, and one module builds the
training tape.

The order runs from the error types up to the command line. An import that
goes up the order, at module level or inside a function, makes a cycle
possible; a function-local import is how such a cycle usually hides.
"""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys

import pytest

import ehf

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ehf"
ORDER = ("errors", "container", "market_sim", "neural_core", "analytics_bsm",
         "hedging_engine", "signal_forest", "frontier", "cli")


def _imports(path: pathlib.Path) -> set:
    """The dotted names of the modules a module imports anywhere in its body;
    a relative import is named under `ehf`, and `from . import x` and
    `from ehf import x` name the modules `ehf.x` themselves."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("ehf" if node.level else None, node.module)))
            found.update([f"ehf.{alias.name}" for alias in node.names]
                         if base == "ehf" else [base])
    return found


def _ehf_imports(path: pathlib.Path) -> set:
    """The `ehf` modules a module imports anywhere in its body."""
    return {name.split(".")[1] for name in _imports(path) if name.startswith("ehf.")}


def _outside_imports(path: pathlib.Path) -> set:
    """The top-level packages outside `ehf` a module imports anywhere in its body."""
    return {name.split(".")[0] for name in _imports(path)} - {"ehf"}


def test_every_module_has_a_place_in_the_order():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_only_lower_layers(module):
    imports = _ehf_imports(SRC / f"{module}.py")
    lower = set(ORDER[:ORDER.index(module)])
    assert imports <= lower, (
        f"{module} imports {sorted(imports - lower)}, which are not below it")


def test_the_parser_sees_function_local_and_absolute_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import container\n"
                      "from .errors import DomainError\n"
                      "import ehf.market_sim\n"
                      "def f():\n"
                      "    from ehf.frontier import sweep_alpha\n"
                      "    from ehf import cli\n"
                      "    import numpy\n")
    assert _ehf_imports(source) == {"container", "errors", "market_sim",
                                    "frontier", "cli"}
    assert _outside_imports(source) == {"numpy"}
    source.write_text("import math\n"
                      "def f():\n"
                      "    from scipy.special import erfc\n")
    assert _outside_imports(source) == {"math", "scipy"}


@pytest.mark.parametrize("module", ("__init__", *ORDER))
def test_module_imports_only_numpy_and_the_standard_library(module):
    """numpy is the one runtime dependency; scipy is a test-only oracle."""
    outside = _outside_imports(SRC / f"{module}.py") - {"numpy"}
    foreign = sorted(outside - set(sys.stdlib_module_names))
    assert not foreign, f"{module} imports {foreign}"


def test_importing_the_cli_loads_no_scipy():
    """A fresh interpreter that imports `ehf.cli` has no scipy module loaded,
    whatever imports it indirectly."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    probe = ("import sys, ehf.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "[]"


def _read_across_modules() -> set:
    """Names one `ehf` module takes from another: by `from .x import name`,
    or as `x.name` off a module it imported with `from . import x`."""
    found = set()
    for path in SRC.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").startswith("ehf")):
                continue
            if node.module in (None, "ehf"):     # the names are modules
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                found.update(alias.name for alias in node.names)
        found.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id in modules)
    return found


def test_every_export_has_a_reader():
    """A name `ehf` exports is an error type, is used as `ehf.<name>` by the
    README or the benchmark, or is read by another `ehf` module. Tests import
    the rest from the module that defines it."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    docs = [ROOT / "README.md", *sorted((ROOT / "perfbench").rglob("*.py")),
            *sorted((ROOT / "perfbench").rglob("*.md"))]
    dotted = {m for path in docs for m in re.findall(r"\behf\.(\w+)", path.read_text())}
    read = _read_across_modules()
    unread = [name for name in exports
              if not (isinstance(getattr(ehf, name), type)
                      and issubclass(getattr(ehf, name), ehf.EHFError))
              and name not in dotted and name not in read]
    assert not unread, f"ehf exports {unread}, which no reader uses"


def _names_tape(path: pathlib.Path) -> bool:
    """Whether a module imports `Tape` or uses the name, bare or as an
    attribute; defining the class does not count."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and any(
                alias.name == "Tape" for alias in node.names):
            return True
        if (isinstance(node, ast.Name) and node.id == "Tape") or (
                isinstance(node, ast.Attribute) and node.attr == "Tape"):
            return True
    return False


def test_only_hedging_engine_names_the_tape(tmp_path):
    """`hedging_engine.batch_objective` records a batch's steps in their one
    order; no other module may import or build a `Tape`."""
    probe = tmp_path / "probe.py"
    for text, names in (("class Tape:\n    pass\n", False),
                        ("from .neural_core import Tape as T\n", True),
                        ("from . import neural_core as nc\nnc.Tape()\n", True),
                        ("def f(tape: Tape):\n    pass\n", True)):
        probe.write_text(text)
        assert _names_tape(probe) == names, text
    naming = [m for m in ("__init__", *ORDER) if _names_tape(SRC / f"{m}.py")]
    assert naming == ["hedging_engine"]


def _names_in(tree, strings=False) -> collections.Counter:
    """How often a tree names each identifier: bare, as an attribute or as an
    imported alias; with strings, also as a dotted part of a string constant,
    as in the tracer's ("module", "Class.method") targets."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _unreached(src: pathlib.Path, readers: list, readme: str) -> list:
    """module.name of each top-level function and class of the package at
    src that nothing names: no code of the package outside its own
    definition, no reader (a file whose identifiers and strings count) and
    not the README text as `ehf.<module>.<name>`."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in src.glob("*.py")}
    in_src = sum((_names_in(tree) for tree in trees.values()), collections.Counter())
    outside = set().union(*(_names_in(ast.parse(p.read_text()), strings=True)
                            for p in readers))
    in_readme = {".".join(m) for m in re.findall(r"\behf\.(\w+)\.(\w+)", readme)}
    return [f"{module}.{node.name}"
            for module, tree in sorted(trees.items()) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and in_src[node.name] == _names_in(node)[node.name]
            and node.name not in outside and f"{module}.{node.name}" not in in_readme]


def test_every_function_and_class_has_a_caller_outside_tests():
    """Each top-level function and class of `ehf` is named by other package
    code, by the benchmark (its tracer's targets included), by `tools/`, or
    by the README as `ehf.<module>.<name>`. What only tests call lives in
    `tests/`, as their reference code."""
    readers = sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    readers = [p for p in readers if "tests" not in p.relative_to(ROOT).parts]
    unreached = _unreached(SRC, readers, (ROOT / "README.md").read_text())
    assert not unreached, f"only tests reach {unreached}"


def test_the_caller_check_counts_code_readers_and_the_readme(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "m.py").write_text("def used():\n    pass\n\n"
                              "def loops(n):\n    return loops(n - 1)\n\n"
                              "class Traced:\n    def run(self):\n        return used()\n\n"
                              "def documented():\n    pass\n")
    reader = tmp_path / "bench.py"
    reader.write_text('TARGETS = (("m", "Traced.run"),)\n')
    assert _unreached(src, [reader], "call `ehf.m.documented`") == ["m.loops"]
    assert _unreached(src, [], "") == ["m.loops", "m.Traced", "m.documented"]
