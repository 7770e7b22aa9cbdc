"""The benchmark tracer's wrap targets must exist in the package.

`perfbench/tracer.py` wraps `ehf` functions by module and qualified name; a
rename that drops one would otherwise only surface when the traced benchmark
runs.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, qualname, _ in tracer.TARGETS:
        obj = importlib.import_module(f"ehf.{module_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"ehf.{module_name}.{qualname}")
    assert not missing, missing
