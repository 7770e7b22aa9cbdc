"""Efficient hedging frontiers: neural delta hedging with trade-day filtering.

Simulate Heston / GBM price paths, train dense or recurrent delta policies
under an entropic-risk objective with proportional transaction costs, gate
rebalancing days by a price-move threshold and a random-forest extrema
forecast, and sweep the threshold to trace cost-risk frontiers against a
closed-form Black-Scholes-Merton baseline.
"""

from .analytics_bsm import (ContractSpec, bs_call_price, bs_delta,
                            bsm_delta_matrix, norm_cdf)
from .errors import (ConfigurationError, DomainError, EHFError, IntegrityError,
                     NumericError, ResolutionError, ShapeError, StateError)
from .frontier import (Comparison, FrontierPoint, SignalArtifacts, SweepConfig,
                       compare_configs, format_comparison_table, pareto_filter,
                       prepare_signal, read_frontier_csv, summarize_range,
                       sweep_alpha, sweep_baseline, write_comparison_csv,
                       write_frontier_csv)
from .hedging_engine import (BSMPolicy, CostModel, DensePolicy, EvalSummary,
                             GRUPolicy, HedgeEpisodeResult, PolicyConfig,
                             RiskConfig, TrainConfig, TrainingLog,
                             check_mask, combine_mask, compute_trade_mask,
                             entropy_risk, episode_loss_node, episode_results,
                             evaluate_policy, load_policy, make_policy,
                             save_policy, tape_entropy_risk, trade_frequency,
                             trade_mask, train_policy)
from .market_sim import (GBMParams, HestonParams, HIGH_VOL, LOW_VOL, PathSet,
                         SimConfig, load_pathset, save_pathset, simulate_gbm,
                         simulate_heston, split_pathset)
from .neural_core import (AdamState, GradCheckReport, Node, Tape, adam_step,
                          fan_uniform, grad_check)
from .signal_forest import (ClassificationReport, DecisionTree, Forest,
                            ForestConfig, classification_report, feature_table,
                            fit_forest, label_extrema, label_matrix,
                            load_forecast, load_forest, predict_label_matrix,
                            predict_labels, save_forecast, save_forest,
                            write_label_csv)

__version__ = "0.1.0"
