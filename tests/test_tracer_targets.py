"""The benchmark tracer must install on every one of its wrap targets.

`perfbench/tracer.py` wraps `ehf` functions by module and qualified name, and
takes a method from its owning class's own `__dict__`. A rename, or a method
moved to a base class, would otherwise only surface when the traced
benchmark runs.
"""

import importlib.util
import pathlib

import ehf.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    installed = tracer.Tracer()
    try:
        installed.install()  # raises TracerError for a target it cannot wrap
    finally:
        installed.uninstall()
