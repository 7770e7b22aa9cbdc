"""Each `ehf` module imports only the modules below it in one fixed order.

The order runs from the error types up to the command line. An import that
goes up the order, at module level or inside a function, makes a cycle
possible; a function-local import is how such a cycle usually hides.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ehf"
ORDER = ("errors", "container", "market_sim", "neural_core", "analytics_bsm",
         "hedging_engine", "signal_forest", "frontier", "cli")


def _ehf_imports(path: pathlib.Path) -> set:
    """The `ehf` modules a module imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ehf."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "ehf":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            # `from . import x` and `from ehf import x` name the modules themselves
            found.update(parts[:1] or [alias.name for alias in node.names])
    return found


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
