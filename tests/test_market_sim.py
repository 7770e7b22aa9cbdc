"""Path simulation: determinism, chunk invariance, reductions, file format."""

import numpy as np
import pytest

import ehf
from ehf import container
from ehf.errors import IntegrityError


def test_gbm_shapes_and_start(gbm_small):
    assert gbm_small.prices.shape == (64, 31)
    assert np.all(gbm_small.prices[:, 0] == 100.0)
    assert np.all(gbm_small.prices > 0.0)
    assert np.array_equal(gbm_small.path_ids, np.arange(64))


def test_heston_matches_manual_full_truncation_steps():
    """Pin the Heston stepper bit for bit: rng(seed XOR path_id), (n_steps, 2)
    block, column 0 drives the price and, with rho, the variance; drift,
    diffusion and the price leg read v+ = max(v, 0) of the raw variance."""
    cfg = ehf.SimConfig(n_paths=8, seed=11)
    p = ehf.HIGH_VOL
    paths = ehf.simulate_heston(p, cfg)
    sqrt_dt = np.sqrt(cfg.dt)
    negative_steps = 0
    for pid in range(8):
        rng = np.random.default_rng(int(np.uint64(11) ^ np.uint64(pid)))
        z = rng.standard_normal((30, 2))
        s = np.empty(31)
        s[0], v = 100.0, p.v0
        for t in range(30):
            v_plus = max(v, 0.0)
            vol = np.sqrt(v_plus)
            s[t + 1] = s[t] * np.exp((p.mu - 0.5 * v_plus) * cfg.dt
                                     + vol * sqrt_dt * z[t, 0])
            z2 = p.rho * z[t, 0] + np.sqrt(1.0 - p.rho ** 2) * z[t, 1]
            v = v + p.kappa * (p.theta - v_plus) * cfg.dt + p.sigma_v * vol * sqrt_dt * z2
            negative_steps += v < 0.0
        assert np.array_equal(paths.prices[pid], s), pid
    # the truncation branch ran: some raw variance went below zero
    assert negative_steps > 0


def test_same_seed_reproduces_exactly():
    cfg = ehf.SimConfig(n_paths=16, seed=77)
    a = ehf.simulate_heston(ehf.HIGH_VOL, cfg)
    b = ehf.simulate_heston(ehf.HIGH_VOL, cfg)
    assert np.array_equal(a.prices, b.prices)


def test_different_seed_differs():
    a = ehf.simulate_gbm(ehf.GBMParams(0.0, 0.2), ehf.SimConfig(n_paths=8, seed=1))
    b = ehf.simulate_gbm(ehf.GBMParams(0.0, 0.2), ehf.SimConfig(n_paths=8, seed=2))
    assert not np.array_equal(a.prices, b.prices)


def test_chunked_simulation_matches_full():
    """Per-path RNG substreams: splitting work across ranges changes nothing."""
    cfg = ehf.SimConfig(n_paths=20, seed=5)
    full = ehf.simulate_heston(ehf.HIGH_VOL, cfg)
    lo = ehf.simulate_heston(ehf.HIGH_VOL, cfg, path_range=(0, 7))
    hi = ehf.simulate_heston(ehf.HIGH_VOL, cfg, path_range=(7, 20))
    assert np.array_equal(np.vstack([lo.prices, hi.prices]), full.prices)
    assert np.array_equal(np.concatenate([lo.path_ids, hi.path_ids]), full.path_ids)


def test_gbm_matches_manual_substream_reconstruction():
    """Pin the substream contract: rng(seed XOR path_id), (n_steps, 2) block,
    price driven by column 0."""
    cfg = ehf.SimConfig(n_paths=3, seed=123)
    params = ehf.GBMParams(mu=0.01, sigma=0.25)
    paths = ehf.simulate_gbm(params, cfg)
    for pid in range(3):
        rng = np.random.default_rng(int(np.uint64(123) ^ np.uint64(pid)))
        z = rng.standard_normal((30, 2))
        s = np.empty(31)
        s[0] = 100.0
        drift = (params.mu - 0.5 * params.sigma**2) * cfg.dt
        for t in range(30):
            s[t + 1] = s[t] * np.exp(drift + params.sigma * np.sqrt(cfg.dt) * z[t, 0])
        assert np.allclose(paths.prices[pid], s, rtol=0, atol=1e-12)


def test_heston_degenerates_to_gbm():
    """sigma_v = 0 with v0 = theta = sigma^2 freezes the variance process."""
    cfg = ehf.SimConfig(n_paths=12, seed=99)
    sigma = 0.2
    degenerate = ehf.HestonParams(v0=sigma**2, theta=sigma**2, kappa=1.0,
                                  mu=0.03, sigma_v=0.0, rho=0.0)
    h = ehf.simulate_heston(degenerate, cfg)
    g = ehf.simulate_gbm(ehf.GBMParams(mu=0.03, sigma=sigma), cfg)
    assert np.max(np.abs(h.prices - g.prices)) < 1e-10


def test_gbm_terminal_mean():
    """E[S_T] = s0 exp(mu T) for GBM; checked loosely at 4096 paths."""
    cfg = ehf.SimConfig(n_paths=4096, seed=3)
    params = ehf.GBMParams(mu=0.05, sigma=0.2)
    paths = ehf.simulate_gbm(params, cfg)
    expected = 100.0 * np.exp(params.mu * 30 * cfg.dt)
    observed = paths.prices[:, -1].mean()
    se = paths.prices[:, -1].std() / np.sqrt(4096)
    assert abs(observed - expected) < 4 * se


def test_split_pathset(heston_small):
    train, test = ehf.split_pathset(heston_small, 200, 56)
    assert train.prices.shape[0] == 200
    assert test.prices.shape[0] == 56
    assert set(train.path_ids).isdisjoint(set(test.path_ids))
    assert np.array_equal(np.concatenate([train.path_ids, test.path_ids]),
                          heston_small.path_ids)


def test_split_pathset_rejects_oversubscription(heston_small):
    with pytest.raises(ehf.ConfigurationError):
        ehf.split_pathset(heston_small, 200, 100)


def test_pathset_roundtrip(tmp_path, heston_small):
    fn = tmp_path / "paths.ehfp"
    ehf.save_pathset(heston_small, fn)
    loaded = ehf.load_pathset(fn)
    assert np.array_equal(loaded.prices, heston_small.prices)
    assert np.array_equal(loaded.path_ids, heston_small.path_ids)
    assert loaded.s0 == heston_small.s0


def test_pathset_rejects_bad_magic(tmp_path, gbm_small):
    fn = tmp_path / "paths.ehfp"
    ehf.save_pathset(gbm_small, fn)
    raw = bytearray(fn.read_bytes())
    raw[:4] = b"XXXX"
    fn.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        ehf.load_pathset(fn)


def test_pathset_rejects_truncation(tmp_path, gbm_small):
    fn = tmp_path / "paths.ehfp"
    ehf.save_pathset(gbm_small, fn)
    raw = fn.read_bytes()
    fn.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(IntegrityError):
        ehf.load_pathset(fn)


@pytest.mark.parametrize("blocks", [
    {"prices": np.ones(5)},
    {"prices": np.ones((4, 1))},
    {"prices": np.ones((4, 3)), "variances": np.ones((4, 3))},
    {"variances": np.ones((4, 3))},
    {"prices": np.ones((4, 3)), "volumes": np.ones((4, 3))},
], ids=["prices-1d", "one-day", "variances-block", "no-prices", "unknown-block"])
def test_pathset_rejects_blocks_of_other_shapes(tmp_path, blocks):
    fn = tmp_path / "paths.ehfp"
    container.save(fn, "paths", blocks, {"s0": 100.0})
    with pytest.raises(IntegrityError, match="prices"):
        ehf.load_pathset(fn)


def test_loaded_arrays_are_readonly(tmp_path, gbm_small):
    fn = tmp_path / "paths.ehfp"
    ehf.save_pathset(gbm_small, fn)
    loaded = ehf.load_pathset(fn)
    with pytest.raises(ValueError):
        loaded.prices[0, 0] = -1.0


def test_sim_config_validation():
    with pytest.raises(ehf.ConfigurationError):
        ehf.SimConfig(n_paths=0, seed=1)
    # two float64 normals per path and day stay under numpy's 2**63 bytes
    # (only the dataclass is built, no array)
    largest = (2 ** 59 - 1) // 31
    assert ehf.SimConfig(n_paths=largest, seed=1).n_paths == largest
    with pytest.raises(ehf.ConfigurationError, match="below 2\\*\\*59"):
        ehf.SimConfig(n_paths=largest + 1, seed=1)
    with pytest.raises(ehf.ConfigurationError, match="below 2\\*\\*59"):
        ehf.SimConfig(n_paths=2, seed=1, n_steps=2 ** 58)
    with pytest.raises(ehf.ConfigurationError):
        ehf.SimConfig(n_paths=10, seed=1, dt=0.0)
    with pytest.raises(ehf.ConfigurationError):
        ehf.HestonParams(v0=-0.1, theta=0.4, kappa=1.0, mu=0.0, sigma_v=4.0, rho=-0.7)
    with pytest.raises(ehf.ConfigurationError):
        ehf.HestonParams(v0=0.4, theta=0.4, kappa=1.0, mu=0.0, sigma_v=4.0, rho=-1.5)
