"""Command-line pipeline: simulate -> label -> train -> sweep -> report.

Every command is driven by an INI config (see configs/ and the README for the
grammar) plus a handful of overriding flags, writes its artifacts under the
configured output directory, and is byte-for-byte reproducible given the same
config and seeds. Exit codes: 0 success, 2 configuration/validation problems,
3 missing, corrupt or stale files, 4 numeric failures during training.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import glob
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import market_sim
from .analytics_bsm import ContractSpec
from .errors import (ConfigurationError, DomainError, IntegrityError, NumericError,
                     ResolutionError, ShapeError, StateError, check_count, check_real)
from .frontier import (SweepConfig, _dealt_map, by_setting, compare_configs,
                       format_comparison_table, pareto_filter, prepare_signal,
                       read_frontier_csv, sweep_alpha, sweep_baseline,
                       write_comparison_csv, write_frontier_csv)
from .hedging_engine import (CostModel, PolicyConfig, RiskConfig, TrainConfig,
                             batch_objective, compute_trade_mask, load_policy,
                             make_policy, save_policy, trade_mask, train_policy)
from .market_sim import (GBMParams, HestonParams, PathSet, SimConfig,
                         load_pathset, save_pathset, split_pathset)
from .neural_core import GradCheckReport, grad_check
from .signal_forest import (ForestConfig, label_matrix, load_forecast,
                            save_forecast, save_forest, write_label_csv)

PATHS_FILE = "paths.ehfp"
FOREST_FILE = "forest.ehff"
FORECAST_FILE = "forecast.ehfl"

_SCENARIOS = ("low_vol", "high_vol", "gbm", "custom")
_GATE_SOURCES = ("oracle", "forecast")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    scenario: str = "high_vol"
    heston: HestonParams | None = None        # only for scenario = custom
    gbm: GBMParams | None = None
    bsm_vol: float | None = None              # baseline vol override
    strike: float = 100.0
    maturity_steps: int = 30
    n_paths: int = 25000
    n_train: int = 20000
    n_test: int = 5000
    s0: float = 100.0
    dt: float = 1.0 / 365.0
    sim_seed: int = 12345
    beta: float = 0.05
    forest: ForestConfig = ForestConfig()
    forest_fit_rows: int = 15000
    gate: str = "oracle"
    policy: PolicyConfig = PolicyConfig()
    train: TrainConfig = TrainConfig()
    alphas: tuple = tuple(np.linspace(0.0, 0.2, 21))
    cost_rates: tuple = (0.05,)
    risk_aversions: tuple = (0.5,)
    rf: bool = False
    mode: str = "fast"
    alpha_lo: float = 0.0
    alpha_hi: float = 0.1
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in _SCENARIOS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.scenario == "custom" and self.heston is None:
            raise ConfigurationError("scenario=custom needs Heston parameters")
        _contract(self)      # strike and maturity
        _sim_config(self)    # n_paths, seed, s0 and dt
        check_count(self.n_train, "n_train", ConfigurationError)
        check_count(self.n_test, "n_test", ConfigurationError)
        if self.n_train + self.n_test > self.n_paths:
            raise ConfigurationError(
                f"train ({self.n_train}) + test ({self.n_test}) exceeds "
                f"simulated paths ({self.n_paths})")
        if self.gate not in _GATE_SOURCES:
            raise ConfigurationError(f"unknown gate source {self.gate!r}")
        _sweep(self)         # mode, alpha grid, cost rates and lambdas
        for key, values in (("cost_rates", self.cost_rates),
                            ("risk_aversions", self.risk_aversions)):
            for a, b in itertools.combinations(values, 2):
                if f"{a:g}" == f"{b:g}":   # as _stem tags a setting's files
                    raise ConfigurationError(f"{key} {a!r} and {b!r} would write to "
                                             f"one file: both print as {a:g}")
        check_real(self.alpha_lo, "alpha_lo", ConfigurationError)
        check_real(self.alpha_hi, "alpha_hi", ConfigurationError)
        if not any(self.alpha_lo <= a <= self.alpha_hi for a in self.alphas):
            raise ConfigurationError(f"no alpha of the grid lies in the report "
                                     f"window [{self.alpha_lo}, {self.alpha_hi}]")
        check_real(self.beta, "beta", ConfigurationError, 0)
        check_count(self.forest_fit_rows, "fit_rows", ConfigurationError, 0)
        if self.bsm_vol is not None:
            check_real(self.bsm_vol, "bsm_vol", ConfigurationError, 0)
        if not self.out_dir:
            raise ConfigurationError("the output dir must not be empty")


def _parse_number(text: str) -> float:
    """Finite float, or an a/b fraction so configs can say dt = 1/365."""
    num, slash, den = text.partition("/")
    value = float(num) / float(den) if slash else float(num)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p for chunk in text.split(",") for p in chunk.split()]
    return tuple(_parse_number(p) for p in parts if p)


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Either 'lo:hi:count' (inclusive linspace) or an explicit list."""
    text = text.strip()
    if ":" in text:
        lo, hi, count = text.split(":")
        return tuple(float(a) for a in
                     np.linspace(_parse_number(lo), _parse_number(hi), int(count)))
    return _parse_float_list(text)


def _parse_bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# [section] key -> (target, parser). A target is a RunConfig field, or
# "group.field" for a field of the nested config RunConfig keeps as `group`.
_CONFIG_GRAMMAR = {
    "scenario": {"name": ("scenario", str), "bsm_vol": ("bsm_vol", _parse_number),
                 "gbm_mu": ("gbm.mu", _parse_number),
                 "gbm_sigma": ("gbm.sigma", _parse_number),
                 **{k: (f"heston.{k}", _parse_number)
                    for k in ("v0", "theta", "kappa", "mu", "sigma_v", "rho")}},
    "simulation": {"n_paths": ("n_paths", int), "n_train": ("n_train", int),
                   "n_test": ("n_test", int), "s0": ("s0", _parse_number),
                   "dt": ("dt", _parse_number), "seed": ("sim_seed", int)},
    "contract": {"strike": ("strike", _parse_number),
                 "maturity_steps": ("maturity_steps", int)},
    "labels": {"beta": ("beta", _parse_number), "gate": ("gate", str),
               "fit_rows": ("forest_fit_rows", int),
               "bootstrap_fraction": ("forest.bootstrap_fraction", _parse_number),
               **{k: (f"forest.{k}", int)
                  for k in ("n_trees", "max_depth", "min_leaf", "seed")}},
    "policy": {"arch": ("policy.arch", str),
               **{k: (f"policy.{k}", int)
                  for k in ("hidden", "gru_hidden", "gru_layers", "window")},
               **{k: (f"policy.{k}", _parse_bool)
                  for k in ("use_change", "use_label")}},
    "training": {**{k: (f"train.{k}", int) for k in ("epochs", "batch_size", "seed")},
                 **{k: (f"train.{k}", _parse_number) for k in ("lr", "val_fraction")}},
    "sweep": {"alphas": ("alphas", _parse_alpha_grid), "rf": ("rf", _parse_bool),
              "cost_rates": ("cost_rates", _parse_float_list),
              "risk_aversions": ("risk_aversions", _parse_float_list),
              "mode": ("mode", str), "alpha_lo": ("alpha_lo", _parse_number),
              "alpha_hi": ("alpha_hi", _parse_number)},
    "output": {"dir": ("out_dir", str)},
}

_GBM_DEFAULT = GBMParams(mu=0.0, sigma=0.2)
# group of [scenario] keys -> (the scenario that reads them, their defaults)
_SCENARIO_GROUPS = {"heston": ("custom", market_sim.HIGH_VOL),
                    "gbm": ("gbm", _GBM_DEFAULT)}


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    if not os.path.exists(path):
        raise ResolutionError(f"config file not found: {path}")
    # values are literal, and [DEFAULT] is an ordinary (hence unknown) section
    ini = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                    interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

    # reject anything the grammar does not define: a silently ignored key is
    # far worse than a hard error in an experiment config
    groups: dict[str, dict] = {}   # "" holds RunConfig's own fields
    for section in ini.sections():
        if section not in _CONFIG_GRAMMAR:
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        for key, raw in ini.items(section):
            if key not in _CONFIG_GRAMMAR[section]:
                raise ConfigurationError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            target, parse = _CONFIG_GRAMMAR[section][key]
            group, _, field = target.rpartition(".")
            try:
                groups.setdefault(group, {})[field] = parse(raw)
            except (ValueError, KeyError, ZeroDivisionError) as exc:
                raise ConfigurationError(
                    f"{path}: bad value for [{section}] {key} ({exc})") from exc

    d = RunConfig()
    fields = groups.pop("", {})
    name = fields.get("scenario", d.scenario)
    defaults = {"forest": d.forest, "policy": d.policy, "train": d.train}
    for group, (scenario, default) in _SCENARIO_GROUPS.items():
        if name == scenario:
            defaults[group] = default
        elif group in groups:
            raise ConfigurationError(f"{path}: {group} keys in [scenario] are "
                                     f"read only under name = {scenario}")
    return replace(d, **fields, **{group: replace(default, **groups.get(group, {}))
                                   for group, default in defaults.items()})


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, sim_seed=args.seed,
                      train=replace(cfg.train, seed=args.seed),
                      forest=replace(cfg.forest, seed=args.seed))
    return cfg


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _scenario(cfg: RunConfig):
    """(simulator parameters, simulate(params, sim_config), baseline volatility)."""
    if cfg.scenario == "gbm":
        params = cfg.gbm or _GBM_DEFAULT
        simulate, vol = market_sim.simulate_gbm, params.sigma
    else:
        params = {"low_vol": market_sim.LOW_VOL, "high_vol": market_sim.HIGH_VOL,
                  "custom": cfg.heston}[cfg.scenario]
        simulate, vol = market_sim.simulate_heston, float(np.sqrt(params.theta))
    return params, simulate, vol if cfg.bsm_vol is None else cfg.bsm_vol


def _sha256(filename) -> str:
    digest = hashlib.sha256()
    with open(filename, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Each artifact a later command reads: the command that writes it, its input
# files and the config values (under a cost rate and lambda) that fix it. Its
# record holds them, inputs by digest.
_PROVENANCE = {
    PATHS_FILE: ("simulate", (), lambda cfg, *_: {
        "scenario": cfg.scenario, "n_paths": cfg.n_paths,
        "n_steps": cfg.maturity_steps, "s0": cfg.s0, "dt": cfg.dt,
        "seed": cfg.sim_seed, "params": asdict(_scenario(cfg)[0])}),
    FOREST_FILE: ("label", (PATHS_FILE,), lambda cfg, *_: {
        "n_train": cfg.n_train, "beta": cfg.beta, "fit_rows": cfg.forest_fit_rows,
        "forest settings": asdict(cfg.forest)}),
    FORECAST_FILE: ("label", (PATHS_FILE, FOREST_FILE), lambda cfg, *_: {
        "n_train": cfg.n_train, "n_test": cfg.n_test}),
    "policy": ("train", (PATHS_FILE, FOREST_FILE), lambda cfg, cost, lam: {
        "n_train": cfg.n_train, "strike": cfg.strike, "alphas[0]": cfg.alphas[0],
        "rf": cfg.rf,
        **({"gate": cfg.gate, "beta": cfg.beta} if cfg.rf else {}),
        "cost rate": cost, "lambda": lam, "policy settings": asdict(cfg.policy),
        "training settings": asdict(cfg.train)}),
    "frontier": ("sweep", (PATHS_FILE,), lambda cfg, *_: {
        "n_train": cfg.n_train, "n_test": cfg.n_test, "strike": cfg.strike,
        "dt": cfg.dt, "baseline vol": _scenario(cfg)[2]}),
}


def _made_from(cfg: RunConfig, kind: str, digests: dict, *setting) -> dict:
    """What a `kind` artifact's record holds under cfg and (cost rate, lambda);
    its inputs are those of `digests`, the files the command read."""
    _, inputs, values = _PROVENANCE[kind]
    return {**{f: digests[f] for f in inputs if f in digests}, **values(cfg, *setting)}


def _write_record(filename, values: dict) -> dict:
    """Write `filename`'s record: `values` and its sha256, no path, no time."""
    record = {**values, "sha256": _sha256(filename)}
    with open(os.path.splitext(filename)[0] + ".manifest.json", "w") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


def _check_record(filename, kind: str, expected: dict) -> tuple[str, dict]:
    """Check `filename` against its record: `expected` (compared as JSON) and its
    own sha256, else exit 3 naming what differs. Returns (sha256, other values)."""
    rerun = _PROVENANCE[kind][0]
    record_file = os.path.splitext(filename)[0] + ".manifest.json"
    for name in (filename, record_file):
        if not os.path.exists(name):
            raise ResolutionError(f"{name} not found — run `ehf {rerun}` first")
    with open(record_file) as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:
            raise IntegrityError(f"{record_file}: malformed JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise IntegrityError(f"{record_file}: expected a JSON object")
    stale = [k for k, v in json.loads(json.dumps(expected)).items()
             if record.get(k) != v]
    if record.get("sha256") != _sha256(filename):
        stale.append("sha256 (checksum mismatch)")
    if stale:
        raise IntegrityError(f"{filename}: its record holds other "
                             f"{', '.join(stale)} — rerun `ehf {rerun}`")
    return record.pop("sha256"), record


def _load_paths(cfg: RunConfig) -> tuple[PathSet, dict]:
    """The path set and {PATHS_FILE: its digest}, once its record shows it
    was simulated under cfg's scenario, size, s0, dt and seed."""
    filename = os.path.join(cfg.out_dir, PATHS_FILE)
    digest, _ = _check_record(filename, PATHS_FILE, _made_from(cfg, PATHS_FILE, {}))
    return load_pathset(filename), {PATHS_FILE: digest}


def _contract(cfg: RunConfig) -> ContractSpec:
    return ContractSpec(strike=cfg.strike, maturity_steps=cfg.maturity_steps)


def _sim_config(cfg: RunConfig) -> SimConfig:
    return SimConfig(n_paths=cfg.n_paths, seed=cfg.sim_seed, s0=cfg.s0,
                     n_steps=cfg.maturity_steps, dt=cfg.dt)


def _sweep(cfg: RunConfig) -> SweepConfig:
    return SweepConfig(alphas=tuple(cfg.alphas), scenario=cfg.scenario, rf=cfg.rf,
                       cost_rates=tuple(cfg.cost_rates), mode=cfg.mode,
                       risk_aversions=tuple(cfg.risk_aversions), seed=cfg.train.seed)


def _gate(cfg: RunConfig, digests: dict):
    """(PathSet -> the [n, n_steps] labels an rf sweep freezes trading on
    (0 = freeze), or None without rf; digests plus any forest's).

    The oracle gate uses each path's realised extremum labels (a trader who
    knows the reversal is coming). The forecast gate reads the forest's
    votes that `label` stored, once both the forest and the stored labels
    check out against their records; it predicts nothing. One-day-ahead
    reversals are close to unpredictable from two past returns, so the
    forecast gate barely changes the frontier.
    """
    if not cfg.rf:
        return None, digests
    if cfg.gate == "oracle":
        return (lambda paths: label_matrix(paths, cfg.beta)), digests
    forest_file, filename = (os.path.join(cfg.out_dir, f)
                             for f in (FOREST_FILE, FORECAST_FILE))
    digest, _ = _check_record(forest_file, FOREST_FILE,
                              _made_from(cfg, FOREST_FILE, digests))
    digests = {**digests, FOREST_FILE: digest}
    _check_record(filename, FORECAST_FILE, _made_from(cfg, FORECAST_FILE, digests))
    stored = load_forecast(filename)

    def gate(paths: PathSet) -> np.ndarray:
        ids = paths.path_ids
        if ids.size and not (0 <= ids.min() and ids.max() < len(stored)):
            raise IntegrityError(f"{filename} holds the labels of path ids 0 to "
                                 f"{len(stored) - 1}, not {ids.min()} to {ids.max()}")
        return stored[ids]

    return gate, digests


def _stem(cfg: RunConfig, kind: str, cost_rate: float, lam: float, arch=None) -> str:
    """<out>/<kind>_<arch, else the policy's>[_rf]_c<cost>_l<lambda>, less a suffix."""
    tag = arch or cfg.policy.arch + ("_rf" if cfg.rf else "")
    return os.path.join(cfg.out_dir, f"{kind}_{tag}_c{cost_rate:g}_l{lam:g}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig, args) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    params, simulate, _ = _scenario(cfg)
    paths = simulate(params, _sim_config(cfg))
    filename = os.path.join(cfg.out_dir, PATHS_FILE)
    save_pathset(paths, filename)
    record = _write_record(filename, _made_from(cfg, PATHS_FILE, {}))
    print(f"wrote {cfg.n_paths} x {cfg.maturity_steps + 1} prices to {filename} "
          f"(seed {cfg.sim_seed}, sha256 {record['sha256'][:12]}...)")
    return 0


def cmd_label(cfg: RunConfig, args) -> int:
    paths, digests = _load_paths(cfg)
    train_paths, test_paths = split_pathset(paths, cfg.n_train, cfg.n_test)
    signal = prepare_signal(train_paths, test_paths, cfg.beta, cfg.forest,
                            fit_rows=cfg.forest_fit_rows)
    forest_file = os.path.join(cfg.out_dir, FOREST_FILE)
    save_forest(forest_file, signal.forest)
    digests[FOREST_FILE] = _write_record(
        forest_file, _made_from(cfg, FOREST_FILE, digests))["sha256"]
    # both splits' rows, train then test: the rows of path ids 0 .. n_train + n_test - 1
    forecast_file = os.path.join(cfg.out_dir, FORECAST_FILE)
    save_forecast(forecast_file, signal.forecast)
    _write_record(forecast_file, _made_from(cfg, FORECAST_FILE, digests))
    write_label_csv(os.path.join(cfg.out_dir, "labels.csv"), test_paths.path_ids,
                    signal.test_features, signal.test_truth, signal.forecast[cfg.n_train:])
    report_text = (f"training split:\n{signal.train_report}\n\n"
                   f"test split:\n{signal.test_report}\n")
    with open(os.path.join(cfg.out_dir, "label_report.txt"), "w") as fh:
        fh.write(report_text)
    with open(os.path.join(cfg.out_dir, "label_report.json"), "w") as fh:
        fh.write(json.dumps({"train": signal.train_report.as_dict(),
                             "test": signal.test_report.as_dict()},
                            sort_keys=True, indent=2) + "\n")
    print(report_text, end="")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    """One training per (cost rate, lambda) setting, dealt over up to
    --jobs processes (frontier._dealt_map); every file and line is written
    here, in grid order, as --jobs 1 writes them."""
    paths, digests = _load_paths(cfg)
    train_paths, _ = split_pathset(paths, cfg.n_train, cfg.n_test)
    contract = _contract(cfg)
    gate, digests = _gate(cfg, digests)
    labels = gate(train_paths) if gate is not None else None
    mask = trade_mask(train_paths, cfg.alphas[0], labels)
    settings = _sweep(cfg).settings
    trained = _dealt_map(lambda setting: train_policy(
        train_paths, contract, CostModel(setting[0]), RiskConfig(setting[1]),
        cfg.policy, mask, cfg.train, labels=labels), settings, args.jobs)
    for (cost_rate, lam), (policy, log) in zip(settings, trained):
        stem = _stem(cfg, "policy", cost_rate, lam)
        save_policy(stem + ".ehfm", policy)
        _write_record(stem + ".ehfm", _made_from(cfg, "policy", digests, cost_rate, lam))
        with open(stem + "_log.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["epoch", "train_objective", "val_objective"])
            for e, (tr, va) in enumerate(zip(log.train_objective, log.val_objective)):
                writer.writerow([e, repr(tr), repr(va)])
        print(f"trained {cfg.policy.arch} (cost {cost_rate:g}, lambda {lam:g}): "
              f"val objective {log.val_objective[-1]:.4f} "
              f"(best epoch {log.best_epoch}) -> {stem}.ehfm")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    """Every (cost rate, lambda) setting is scored on the same test paths, so
    what only those paths fix is built once: their gate labels (sweep_alpha
    calls the gate once per split), the closed-form baseline's deltas
    (sweep_baseline runs them once for all settings) and, in fast mode,
    each alpha's mask and carry schedule (sweep_alpha walks the grid once
    for every setting's policy)."""
    paths, digests = _load_paths(cfg)
    train_paths, test_paths = split_pathset(paths, cfg.n_train, cfg.n_test)
    contract, sweep = _contract(cfg), _sweep(cfg)
    _, _, baseline_vol = _scenario(cfg)
    gate, digests = _gate(cfg, digests)
    base_points = by_setting(
        sweep_baseline(sweep, test_paths, contract, baseline_vol, cfg.dt), sweep)
    for (cost_rate, lam), base in zip(sweep.settings, base_points):
        base_file = _stem(cfg, "frontier", cost_rate, lam, "bsm") + ".csv"
        write_frontier_csv(base_file, base)
        _write_record(base_file, _made_from(cfg, "frontier", digests))
        if cfg.policy.arch == "bsm":
            print(f"swept closed-form baseline only (cost {cost_rate:g}, lambda {lam:g})")
    if cfg.policy.arch == "bsm":
        return 0
    policies = []
    for cost_rate, lam in sweep.settings:
        checkpoint = _stem(cfg, "policy", cost_rate, lam) + ".ehfm"
        policy = None
        if cfg.mode == "fast" and os.path.exists(checkpoint):
            _check_record(checkpoint, "policy",
                          _made_from(cfg, "policy", digests, cost_rate, lam))
            policy = load_policy(checkpoint)
        policies.append(policy)
    points = by_setting(sweep_alpha(sweep, train_paths, test_paths, contract, cfg.policy,
                                    cfg.train, gate=gate, policies=policies,
                                    jobs=args.jobs), sweep)
    for (cost_rate, lam), setting_points in zip(sweep.settings, points):
        out = _stem(cfg, "frontier", cost_rate, lam) + ".csv"
        write_frontier_csv(out, setting_points)
        _write_record(out, _made_from(cfg, "frontier", digests))
        print(f"swept {len(setting_points)} alphas (cost {cost_rate:g}, lambda "
              f"{lam:g}, mode {cfg.mode}) -> {out}")
    return 0


def cmd_report(cfg: RunConfig, args) -> int:
    files = sorted(glob.glob(os.path.join(cfg.out_dir, "frontier_*.csv")))
    if not files:
        raise ResolutionError(f"no frontier CSVs under {cfg.out_dir}")
    groups: dict[tuple, tuple] = {}   # -> (file name, points)
    for name in files:
        points = read_frontier_csv(name)
        if not points:
            continue
        p = points[0]
        groups[p.scenario, p.policy, p.rf, p.cost_rate, p.risk_aversion] = name, points
        kept = pareto_filter(points)
        pareto_name = os.path.join(
            cfg.out_dir, "pareto_" + os.path.basename(name)[len("frontier_"):])
        write_frontier_csv(pareto_name, kept)
    rows = []
    for (scenario, policy, rf, cost_rate, lam), (name, points) in sorted(groups.items()):
        base = groups.get((scenario, "dense", False, cost_rate, lam))
        if base is None or (policy == "dense" and not rf):
            continue  # no base, or this is the base config itself
        # both sides must be swept on the same paths, n_train, n_test and strike
        _, made_from = _check_record(base[0], "frontier", {})
        _check_record(name, "frontier", made_from)
        label = f"{policy}{'+rf' if rf else ''}@{cost_rate:g}/l{lam:g}"
        rows.append((label, compare_configs(base[1], points,
                                            cfg.alpha_lo, cfg.alpha_hi)))
    if not rows:
        raise ResolutionError(
            "nothing to compare: need a dense no-rf frontier plus at least "
            "one variant with matching cost rate and risk aversion")
    table = format_comparison_table(rows)
    with open(os.path.join(cfg.out_dir, "report.txt"), "w") as fh:
        fh.write(table + "\n")
    write_comparison_csv(os.path.join(cfg.out_dir, "report.csv"), rows)
    print(table)
    return 0


def gradcheck_report(arch: str) -> GradCheckReport:
    """grad_check of batch_objective's gradients for a hidden-6 policy of arch
    on 8 GBM paths of 6 days (sigma 0.3), under the alpha-0.005 mask, 2% cost
    and lambda 0.5: the episode of `ehf gradcheck`, which sets each
    architecture's tolerance.

    The initial parameters are jittered to a generic point: with zero biases
    the day-0 feature vector (all zeros) puts relu pre-activations exactly
    on the kink, where central differences disagree with the subgradient.
    """
    paths = market_sim.simulate_gbm(GBMParams(mu=0.0, sigma=0.3),
                                    SimConfig(n_paths=8, seed=404, n_steps=6))
    contract, cost = ContractSpec(strike=100.0, maturity_steps=6), CostModel(0.02)
    mask = compute_trade_mask(paths, 0.005)
    policy = make_policy(PolicyConfig(arch=arch, hidden=6), seed=7)
    jitter = np.random.default_rng(99)
    params = {k: v + 0.05 * jitter.standard_normal(v.shape)
              for k, v in policy.params.items()}

    def objective(params):
        policy.params = params
        return batch_objective(policy, paths.prices, mask, contract, cost, 0.5)

    return grad_check(objective, params)


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    failures = []
    for arch, tol in (("dense", 1e-5), ("gru", 1e-4)):
        report = gradcheck_report(arch)
        print(f"{arch}: max rel error {report.max_rel_error:.3e} (tol {tol:g})")
        if not report.ok(tol):
            failures.append(arch)
    if failures:
        print(f"gradient check FAILED for: {', '.join(failures)}")
        return 1
    print("gradient check passed for all architectures")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehf",
        description="Hedging-frontier pipeline: simulate paths, label extrema, "
                    "train delta policies, sweep rebalance thresholds, report.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("simulate", cmd_simulate, "simulate price paths and write the path file"),
            ("label", cmd_label, "fit the extrema forecaster and export labels"),
            ("train", cmd_train, "train delta policies for each cost/risk setting"),
            ("sweep", cmd_sweep, "evaluate the alpha grid and write frontier CSVs"),
            ("report", cmd_report, "compare frontiers and write summary tables"),
            ("gradcheck", cmd_gradcheck, "verify analytic gradients by finite differences")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="processes for `train` (one setting each) and for a "
                            "retrain sweep, this one included (at most the usable "
                            "cores); other commands ignore it")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seeds")
        p.add_argument("--out", default=None, help="override the output directory")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command, gradcheck too, checks the whole config before any work
        return args.func(_apply_overrides(load_config(args.config), args), args)
    except (ConfigurationError, DomainError, ShapeError, StateError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolutionError, IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
