"""Efficient hedging frontiers: neural delta hedging with trade-day filtering.

Simulate Heston / GBM price paths, train dense or recurrent delta policies
under an entropic-risk objective with proportional transaction costs, gate
rebalancing days by a price-move threshold and a random-forest extrema
forecast, and sweep the threshold to trace cost-risk frontiers against a
closed-form Black-Scholes-Merton baseline.

This namespace holds what a pipeline script calls and every error class;
everything else is imported from its module, ``ehf.<module>``.
"""

from .analytics_bsm import ContractSpec, bsm_delta_matrix
from .errors import (ConfigurationError, DomainError, EHFError, IntegrityError,
                     NumericError, ResolutionError, ShapeError, StateError)
from .frontier import (SweepConfig, compare_configs, format_comparison_table,
                       pareto_filter, prepare_signal, read_frontier_csv,
                       summarize_range, sweep_alpha, sweep_baseline,
                       write_comparison_csv, write_frontier_csv)
from .hedging_engine import (BSMPolicy, CostModel, PolicyConfig, RiskConfig,
                             TrainConfig, compute_trade_mask, load_policy,
                             make_policy, save_policy, trade_mask, train_policy)
from .market_sim import (GBMParams, HestonParams, HIGH_VOL, LOW_VOL, PathSet,
                         SimConfig, load_pathset, save_pathset, simulate_gbm,
                         simulate_heston, split_pathset)
from .neural_core import AdamState, adam_step, fan_uniform, grad_check
from .signal_forest import (Forest, ForestConfig, classification_report,
                            feature_table, fit_forest, label_matrix,
                            load_forecast, save_forecast, save_forest,
                            write_label_csv)

__version__ = "0.1.0"
