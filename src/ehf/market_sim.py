"""Daily-resolution GBM and Heston price simulation with reproducible per-path seeding.

Each path draws its normals from its own substream, ``default_rng(seed XOR
path_id)``, so a path's trajectory does not depend on how the batch is laid
out or split across workers. Nearby seeds collide under this scheme: seeds
12345 and 12344 give the same 25,000 paths, swapped in pairs (path p under
one is path p XOR 1 under the other). Runs over nearby seeds are therefore
not independent samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import container
from .errors import ConfigurationError, IntegrityError, check_count, check_real, check_seed


@dataclass(frozen=True)
class GBMParams:
    """Geometric Brownian motion drift and volatility (per year / per sqrt-year)."""

    mu: float
    sigma: float

    def __post_init__(self):
        check_real(self.mu, "mu", ConfigurationError)
        check_real(self.sigma, "sigma", ConfigurationError, 0)


@dataclass(frozen=True)
class HestonParams:
    """Stochastic-volatility parameters.

    The Feller condition 2*kappa*theta >= sigma_v**2 is deliberately not
    enforced: the experiment scenarios violate it, which is why the variance
    discretization truncates at zero.
    """

    v0: float
    theta: float
    kappa: float
    mu: float
    sigma_v: float
    rho: float

    def __post_init__(self):
        for name in ("v0", "theta", "sigma_v"):
            check_real(getattr(self, name), name, ConfigurationError, 0)
        check_real(self.kappa, "kappa", ConfigurationError, 0, ends="()")
        check_real(self.mu, "mu", ConfigurationError)
        check_real(self.rho, "rho", ConfigurationError, -1, 1)


#: Market scenarios used throughout the experiments.
LOW_VOL = HestonParams(v0=0.4, theta=0.4, kappa=1.0, mu=0.01, sigma_v=4.0, rho=-0.7)
HIGH_VOL = HestonParams(v0=0.8, theta=0.8, kappa=1.0, mu=0.01, sigma_v=4.0, rho=-0.7)


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    seed: int
    s0: float = 100.0
    n_steps: int = 30
    dt: float = 1.0 / 365.0

    def __post_init__(self):
        check_real(self.s0, "s0", ConfigurationError, 0, ends="()")
        check_count(self.n_steps, "n_steps", ConfigurationError)
        check_real(self.dt, "dt", ConfigurationError, 0, ends="()")
        check_count(self.n_paths, "n_paths", ConfigurationError)
        if self.n_paths * (self.n_steps + 1) >= 2 ** 59:  # 16 bytes a path-day < 2**63
            raise ConfigurationError(f"n_paths x (n_steps + 1) must be below 2**59, got "
                                     f"{self.n_paths} x {self.n_steps + 1}")
        check_seed(self.seed, "seed", ConfigurationError)


@dataclass
class PathSet:
    """Simulated daily prices for many trajectories.

    ``prices`` has shape [n_paths, n_steps + 1] with column 0 equal to s0.
    Arrays are frozen after construction; a PathSet is safe to share read-only.
    """

    prices: np.ndarray
    s0: float
    path_ids: np.ndarray

    def __post_init__(self):
        self.prices = np.ascontiguousarray(self.prices, dtype=np.float64)
        self.path_ids = np.ascontiguousarray(self.path_ids, dtype=np.int64)
        self.prices.setflags(write=False)
        self.path_ids.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.prices.shape[0]

    @property
    def n_steps(self) -> int:
        return self.prices.shape[1] - 1

    def take(self, start: int, stop: int) -> "PathSet":
        """Row slice [start, stop) keeping global path ids."""
        return PathSet(self.prices[start:stop], self.s0, self.path_ids[start:stop])


def split_pathset(paths: PathSet, n_train: int, n_test: int) -> tuple[PathSet, PathSet]:
    """Disjoint train/test split: first n_train rows for training, next n_test for testing."""
    if n_train + n_test > paths.n_paths:
        raise ConfigurationError(
            f"n_train + n_test = {n_train + n_test} exceeds {paths.n_paths} simulated paths")
    return paths.take(0, n_train), paths.take(n_train, n_train + n_test)


def _substream_normals(seed: int, path_ids: np.ndarray, n_steps: int) -> np.ndarray:
    """Per-path standard-normal draws, shape [len(path_ids), n_steps, 2].

    Column 0 drives the price, column 1 the orthogonal part of the variance
    shock. GBM consumes the same block layout so that a degenerate Heston run
    reproduces a GBM run pathwise under the same seed.
    """
    z = np.empty((len(path_ids), n_steps, 2))
    for j, pid in enumerate(path_ids):
        rng = np.random.default_rng(int(np.uint64(seed) ^ np.uint64(pid)))
        z[j] = rng.standard_normal((n_steps, 2))
    return z


def _resolve_range(cfg: SimConfig, path_range: tuple[int, int] | None) -> np.ndarray:
    if path_range is None:
        return np.arange(cfg.n_paths, dtype=np.int64)
    start, stop = path_range
    if not 0 <= start < stop <= cfg.n_paths:
        raise ConfigurationError(f"path_range {path_range} not within [0, {cfg.n_paths}]")
    return np.arange(start, stop, dtype=np.int64)


def simulate_gbm(params: GBMParams, cfg: SimConfig,
                 path_range: tuple[int, int] | None = None) -> PathSet:
    """Exact log-Euler GBM: S_{t+1} = S_t * exp((mu - sigma^2/2) dt + sigma sqrt(dt) Z)."""
    ids = _resolve_range(cfg, path_range)
    z = _substream_normals(cfg.seed, ids, cfg.n_steps)
    increments = (params.mu - 0.5 * params.sigma ** 2) * cfg.dt \
        + params.sigma * np.sqrt(cfg.dt) * z[:, :, 0]
    log_prices = np.log(cfg.s0) + np.cumsum(increments, axis=1)
    prices = np.empty((len(ids), cfg.n_steps + 1))
    prices[:, 0] = cfg.s0
    prices[:, 1:] = np.exp(log_prices)
    return PathSet(prices, cfg.s0, ids)


def simulate_heston(params: HestonParams, cfg: SimConfig,
                    path_range: tuple[int, int] | None = None) -> PathSet:
    """Full-truncation Euler for the variance, log-Euler for the price.

    The raw variance state may go negative; drift, diffusion and the price leg
    all use v+ = max(v, 0).
    """
    ids = _resolve_range(cfg, path_range)
    z = _substream_normals(cfg.seed, ids, cfg.n_steps)
    z1 = z[:, :, 0]
    z2 = params.rho * z1 + np.sqrt(1.0 - params.rho ** 2) * z[:, :, 1]

    prices = np.empty((len(ids), cfg.n_steps + 1))
    prices[:, 0] = cfg.s0
    v_raw = np.full(len(ids), float(params.v0))
    sqrt_dt = np.sqrt(cfg.dt)
    for t in range(cfg.n_steps):
        v_plus = np.maximum(v_raw, 0.0)
        vol = np.sqrt(v_plus)
        prices[:, t + 1] = prices[:, t] * np.exp(
            (params.mu - 0.5 * v_plus) * cfg.dt + vol * sqrt_dt * z1[:, t])
        v_raw = v_raw + params.kappa * (params.theta - v_plus) * cfg.dt \
            + params.sigma_v * vol * sqrt_dt * z2[:, t]
    return PathSet(prices, cfg.s0, ids)


def save_pathset(paths: PathSet, filename) -> None:
    """Write the path set as a container: one prices block and s0."""
    container.save(filename, "paths", {"prices": paths.prices}, {"s0": float(paths.s0)})


def load_pathset(filename) -> PathSet:
    _, meta, blocks = container.load(filename, "paths")
    try:
        prices = blocks.pop("prices")
        if blocks or prices.ndim != 2 or prices.shape[1] < 2:
            raise ValueError("blocks are not one prices block [paths, days]")
        return PathSet(prices, float(meta["s0"]), np.arange(len(prices), dtype=np.int64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise IntegrityError(f"{filename}: not a path set ({exc!r})") from exc
