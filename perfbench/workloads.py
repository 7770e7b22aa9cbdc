"""Benchmark workloads: the configs each one writes and the `ehf` commands it runs.

Every workload starts from `configs/desk.ini` (the README preset) and applies
its own overrides. There are two input sizes:

* ``bench`` - the default: the workload's own overrides. They divide the path
  counts (and the forest's ``fit_rows`` cap) of the sizes the workloads were
  specified at by 20 (desk), 10 (gated) or 2 (retrain), so that several
  passes fit into one benchmark run.
* ``tiny``  - a few dozen paths and one epoch on top, for the harness tests.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

SIZES = ("bench", "tiny")

_TINY = {"simulation": {"n_paths": "120", "n_train": "80", "n_test": "40"},
         "labels": {"fit_rows": "500"},
         "training": {"epochs": "1"}}

# Spans every workload must record: one per `ehf` command plus the layers all
# three pipelines pass through.
_COMMON_SPANS = ("market_sim.load_pathset", "hedging_engine.train_policy",
                 "hedging_engine.episode_loss_node", "neural_core.Tape.backward",
                 "neural_core.adam_step", "hedging_engine.DensePolicy.deltas",
                 "hedging_engine.episode_results",
                 "hedging_engine.compute_trade_mask", "frontier.sweep_alpha",
                 "frontier.sweep_baseline", "analytics_bsm.bsm_delta_matrix",
                 "cli.cmd_simulate", "cli.cmd_sweep", "cli.cmd_report")
_FOREST_SPANS = ("signal_forest.fit_forest", "signal_forest.predict_labels",
                 "frontier.prepare_signal")


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict        # config name -> {section: {key: value}} over shared
    steps: tuple         # (command, config name), run in order
    jobs: int
    gain: tuple          # (policy frontier, baseline frontier) for frontier_gain_pct
    report_rows: tuple   # expected `config` column of report.csv
    expect_spans: tuple
    forbid_spans: tuple
    shared: dict         # {section: {key: value}} over desk.ini, for every config

    def config_text(self, base_ini: str, config: str, size: str) -> str:
        """INI text of one config: desk.ini + shared + per-config (+ tiny) overrides."""
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        ini.read_string(base_ini)
        sized = _TINY if size == "tiny" else {}
        for layer in (self.shared, self.configs[config], sized):
            for section, values in layer.items():
                for key, value in values.items():
                    ini.set(section, key, value)
        lines = []
        for section in ini.sections():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in ini.items(section))
            lines.append("")
        return "\n".join(lines)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk",
        # desk.ini at 1/20 of its paths and fit_rows
        shared={"simulation": {"n_paths": "1250", "n_train": "1000",
                               "n_test": "250"},
                "labels": {"fit_rows": "750"}},
        configs={"desk": {}},
        steps=(("simulate", "desk"), ("label", "desk"), ("train", "desk"),
               ("sweep", "desk"), ("report", "desk")),
        jobs=1,
        gain=("frontier_dense_c0.05_l0.5.csv", "frontier_bsm_c0.05_l0.5.csv"),
        report_rows=("bsm@0.02/l0.5", "bsm@0.03/l0.5", "bsm@0.05/l0.5"),
        expect_spans=_COMMON_SPANS + _FOREST_SPANS + (
            "market_sim.simulate_heston", "cli.cmd_label", "cli.cmd_train",
            "signal_forest.write_label_csv"),
        forbid_spans=("hedging_engine.GRUPolicy.deltas",
                      "hedging_engine.combine_mask"),
    ),
    Workload(
        name="gated",
        # desk.ini's 25k paths and fit_rows at 1/10
        shared={"simulation": {"n_paths": "2500", "n_train": "2000",
                               "n_test": "500"},
                "sweep": {"cost_rates": "0.02", "risk_aversions": "0.5",
                          "mode": "fast"},
                "training": {"epochs": "2"},
                "labels": {"gate": "forecast", "fit_rows": "1500"}},
        configs={"gated_dense": {"policy": {"arch": "dense"},
                                 "sweep": {"rf": "false"}},
                 "gated_gru": {"policy": {"arch": "gru"},
                               "sweep": {"rf": "true"}}},
        steps=(("simulate", "gated_dense"), ("label", "gated_dense"),
               ("train", "gated_dense"), ("sweep", "gated_dense"),
               ("train", "gated_gru"), ("sweep", "gated_gru"),
               ("report", "gated_gru")),
        jobs=2,
        gain=("frontier_gru_rf_c0.02_l0.5.csv", "frontier_bsm_c0.02_l0.5.csv"),
        report_rows=("bsm@0.02/l0.5", "gru+rf@0.02/l0.5"),
        expect_spans=_COMMON_SPANS + _FOREST_SPANS + (
            "market_sim.simulate_heston", "cli.cmd_label", "cli.cmd_train",
            "signal_forest.write_label_csv", "hedging_engine.GRUPolicy.deltas",
            "hedging_engine.combine_mask"),
        forbid_spans=(),
    ),
    Workload(
        name="retrain",
        # 6k paths (4k/2k) at 1/2
        shared={"simulation": {"n_paths": "3000", "n_train": "2000",
                               "n_test": "1000"},
                "sweep": {"alphas": "0:0.14:8", "cost_rates": "0.05",
                          "mode": "retrain"},
                "training": {"epochs": "4"},
                "policy": {"arch": "dense"}},
        configs={"retrain": {}},
        steps=(("simulate", "retrain"), ("sweep", "retrain"),
               ("report", "retrain")),
        jobs=2,
        gain=("frontier_dense_c0.05_l0.5.csv", "frontier_bsm_c0.05_l0.5.csv"),
        report_rows=("bsm@0.05/l0.5",),
        expect_spans=_COMMON_SPANS + ("market_sim.simulate_heston",),
        forbid_spans=_FOREST_SPANS + (
            "hedging_engine.GRUPolicy.deltas", "hedging_engine.combine_mask",
            "signal_forest.write_label_csv", "cli.cmd_label", "cli.cmd_train"),
    ),
)}
