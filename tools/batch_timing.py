"""Time one training batch, dense against GRU, and one fast sweep's
evaluation, interleaved in one process.

    python tools/batch_timing.py

A batch is one `batch_objective` plus one `adam_step` on 256 Heston paths
of 30 days, with the default dense and GRU policy configs and a cache
shared by all of a case's batches, as `train_policy` runs them. The four
batch cases (each architecture under alpha 0, where every cell trades, and
under alpha 0.02, a partial mask) and the sweep case take turns, one call
each, for ROUNDS rounds after WARMUP untimed ones, so a slow phase of the
host hits every case alike. The sweep case is what `ehf sweep` evaluates
on the benchmark's `desk` test set: on 250 paths over the 21-alpha desk
grid, the closed-form baseline for three cost rates, then one fast sweep
of three dense policies, one per cost rate, which walks the grid once for
all three. It imports `ehf` from the `src/` next to
it and prints, per case, the median and quartiles of a call in ms, then
the GRU/dense ratio of the batch medians under each mask.
"""

from __future__ import annotations

import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ehf  # noqa: E402
from ehf.hedging_engine import batch_objective, make_policy  # noqa: E402
from ehf.neural_core import AdamState, adam_step  # noqa: E402

N_PATHS = 256
ALPHAS = (0.0, 0.02)
N_TEST = 250
DESK_ALPHAS = tuple(np.linspace(0.0, 0.2, 21))
COST_RATES = (0.02, 0.03, 0.05)
WARMUP, ROUNDS = 20, 200


def cases():
    """(name, one batch) for each architecture and alpha, then (name, one sweep
    evaluation)."""
    paths = ehf.simulate_heston(ehf.HIGH_VOL, ehf.SimConfig(n_paths=N_PATHS, seed=1))
    contract, cost = ehf.ContractSpec(100.0, paths.n_steps), ehf.CostModel(0.02)
    for arch in ("dense", "gru"):
        for alpha in ALPHAS:
            policy = make_policy(ehf.PolicyConfig(arch=arch), seed=0)
            adam = AdamState.for_params(policy.params, lr=1e-3)
            mask, cache = ehf.compute_trade_mask(paths, alpha), {}

            def batch(policy=policy, adam=adam, mask=mask, cache=cache):
                _, grads = batch_objective(policy, paths.prices, mask, contract, cost,
                                           0.5, cache=cache)
                adam_step(policy.params, grads, adam)

            yield f"{arch}@{alpha}", batch
    yield "sweep", sweep_case()


def sweep_case():
    """The evaluation `ehf sweep` runs on a desk test set: the baseline and
    the policies of its three settings."""
    test = ehf.simulate_heston(ehf.HIGH_VOL, ehf.SimConfig(n_paths=N_TEST, seed=2))
    contract = ehf.ContractSpec(100.0, test.n_steps)
    settings = [ehf.SweepConfig(alphas=DESK_ALPHAS, cost_rate=rate) for rate in COST_RATES]
    policy_cfg, train_cfg = ehf.PolicyConfig(), ehf.TrainConfig()
    policies = [make_policy(policy_cfg, seed=k) for k in range(len(settings))]
    vol = float(np.sqrt(ehf.HIGH_VOL.theta))

    def sweep():
        ehf.sweep_baseline(settings, test, contract, vol, 1 / 365)
        ehf.sweep_alpha(settings, None, test, contract, policy_cfg, train_cfg,
                        policies=policies)

    return sweep


def main() -> int:
    runs = dict(cases())
    times = {name: [] for name in runs}
    for r in range(WARMUP + ROUNDS):
        for name, call in runs.items():
            start = time.perf_counter()
            call()
            if r >= WARMUP:
                times[name].append(1e3 * (time.perf_counter() - start))
    print(f"{'case':<12} {'median_ms':>10} {'q1_ms':>8} {'q3_ms':>8}")
    for name, ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4)
        print(f"{name:<12} {median:10.3f} {q1:8.3f} {q3:8.3f}")
    for alpha in ALPHAS:
        ratio = (statistics.median(times[f"gru@{alpha}"])
                 / statistics.median(times[f"dense@{alpha}"]))
        print(f"gru/dense at alpha {alpha}: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
