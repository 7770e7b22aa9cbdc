"""The benchmark tracer must install on every one of its wrap targets, and
its training spans must keep their meaning.

`perfbench/tracer.py` wraps `ehf` functions by module and qualified name, and
takes a method from its owning class's own `__dict__`. A rename, or a method
moved to a base class, would otherwise only surface when the traced
benchmark runs. A call through a binding the tracer does not rebind (a
default argument, say) skips its wrapper without any error, and the
per-batch metrics built from those spans quietly read 0.
"""

import importlib.util
import pathlib

import numpy as np

import ehf
import ehf.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves_to_a_callable():
    tracer = _tracer_module()
    assert tracer.TARGETS
    installed = tracer.Tracer()
    try:
        installed.install()  # raises TracerError for a target it cannot wrap
    finally:
        installed.uninstall()


def test_every_training_batch_records_each_phase_once():
    """20 paths, 2 of them for validation, in batches of 8: three batches,
    each one span of the rollout-and-loss record, the risk, the backward
    pass over the three recorded steps and the Adam step, in that order."""
    tracer = _tracer_module()
    paths = ehf.simulate_gbm(ehf.GBMParams(mu=0.0, sigma=0.3),
                             ehf.SimConfig(n_paths=20, seed=5, n_steps=6))
    mask = ehf.compute_trade_mask(paths, 0.005)
    installed = tracer.Tracer()
    installed.install()
    try:
        ehf.train_policy(paths, ehf.ContractSpec(100.0, 6), ehf.CostModel(0.02),
                         ehf.RiskConfig(0.5), ehf.PolicyConfig(arch="dense", hidden=4),
                         mask, ehf.TrainConfig(epochs=1, batch_size=8, seed=1))
    finally:
        installed.uninstall()
    batch = sorted((s for s in installed.spans if s.name in tracer._BATCH_SPANS),
                   key=lambda s: s.start)
    assert [s.name for s in batch] == list(tracer._BATCH_SPANS) * 3
    assert [s.info["nodes"] for s in batch
            if s.name == "neural_core.Tape.backward"] == [3, 3, 3]
    metrics = tracer.layer_metrics(installed.spans)
    assert metrics["hedging_engine.batches"] == 3
    assert metrics["neural_core.nodes_per_batch"] == 3.0
    assert np.all(np.array(tracer.batch_times_ms(installed.spans)) > 0)
