"""End-to-end command-line pipeline on a miniature configuration."""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ehf
from ehf import cli, container, frontier
from ehf.cli import (RunConfig, _made_from, _parse_alpha_grid, _parse_number,
                     _scenario, _write_record, load_config, main)
from ehf.hedging_engine import DensePolicy
from ehf.signal_forest import load_forest
from reference import predict_label_matrix

ROOT = Path(__file__).resolve().parents[1]

TINY_INI = """
[scenario]
name = high_vol

[simulation]
n_paths = 220          ; total simulated
n_train = 160
n_test = 60
seed = 31415

[contract]
strike = 100
maturity_steps = 30

[labels]
beta = 0.05
n_trees = 5
max_depth = 6
min_leaf = 2
seed = 3
fit_rows = 1200

[policy]
arch = dense
hidden = 8

[training]
epochs = 1
batch_size = 64
lr = 1e-3
seed = 3

[sweep]
alphas = 0:0.08:3
cost_rates = 0.02
risk_aversions = 0.5
rf = false
mode = fast
alpha_lo = 0
alpha_hi = 0.08
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The tiny config and an output dir that `simulate` has already filled,
    so a test that needs only the paths runs without the simulate test."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert _run(ini, out, "simulate") == 0
    return ini, out


def _run(ini, out, *args):
    return main([*args, "--config", str(ini), "--out", str(out)])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_number_fractions():
    assert _parse_number("1/365") == pytest.approx(1 / 365)
    assert _parse_number("0.05") == 0.05
    assert _parse_number("2") == 2.0
    for text in ("1/0", "0/0", "nan", "inf", "-inf/2"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            _parse_number(text)


def test_parse_alpha_grid_forms():
    grid = _parse_alpha_grid("0:0.1:5")
    assert len(grid) == 5
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.1)
    assert _parse_alpha_grid("0, 0.02, 0.05") == (0.0, 0.02, 0.05)


def test_load_config_defaults_when_missing():
    cfg = load_config(None)
    assert cfg.scenario == "high_vol"
    assert cfg.n_train + cfg.n_test <= cfg.n_paths


def test_load_config_reads_sections(workdir):
    ini, _ = workdir
    cfg = load_config(str(ini))
    assert cfg.n_paths == 220          # inline comment stripped
    assert cfg.sim_seed == 31415
    assert cfg.forest.n_trees == 5
    assert cfg.train.epochs == 1
    assert len(cfg.alphas) == 3
    assert cfg.cost_rates == (0.02,)


DESK = RunConfig(
    scenario="high_vol", heston=None, gbm=None, bsm_vol=None, strike=100.0,
    maturity_steps=30, n_paths=25000, n_train=20000, n_test=5000, s0=100.0,
    dt=1 / 365, sim_seed=12345, beta=0.05,
    forest=ehf.ForestConfig(n_trees=50, max_depth=12, min_leaf=5,
                            bootstrap_fraction=1.0, seed=7),
    forest_fit_rows=15000, gate="oracle",
    policy=ehf.PolicyConfig(arch="dense", hidden=32, gru_hidden=10, gru_layers=2,
                            window=3, use_change=True, use_label=False),
    train=ehf.TrainConfig(epochs=12, batch_size=256, lr=0.001, val_fraction=0.1,
                          seed=7),
    alphas=tuple(np.linspace(0.0, 0.2, 21)), cost_rates=(0.02, 0.03, 0.05),
    risk_aversions=(0.5,), rf=False, mode="fast", alpha_lo=0.0, alpha_hi=0.1,
    out_dir="out")


def test_presets_load_to_their_run_configs():
    assert load_config(str(ROOT / "configs" / "desk.ini")) == DESK
    assert load_config(str(ROOT / "configs" / "default.ini")) == replace(
        DESK, n_paths=120000, n_train=100000, n_test=20000,
        alphas=tuple(np.linspace(0.0, 0.2, 100)), mode="retrain")


def test_readme_grammar_block_loads(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Config grammar.*?```ini\n(.*?)```", readme, re.S)
    ini = tmp_path / "readme.ini"
    ini.write_text(block.group(1))
    assert load_config(str(ini)) == DESK


def test_custom_scenario_fills_unset_heston_keys_from_high_vol(tmp_path):
    ini = tmp_path / "custom.ini"
    ini.write_text("[scenario]\nname = custom\nv0 = 0.3\nkappa = 2\nrho = -0.5\n")
    cfg = load_config(str(ini))
    assert cfg.heston == replace(ehf.HIGH_VOL, v0=0.3, kappa=2.0, rho=-0.5)
    assert cfg.gbm is None
    assert _scenario(cfg)[2] == pytest.approx(np.sqrt(ehf.HIGH_VOL.theta))


def test_gbm_scenario_reads_its_keys_and_bsm_vol(tmp_path):
    ini = tmp_path / "gbm.ini"
    ini.write_text("[scenario]\nname = gbm\ngbm_mu = 0.05\ngbm_sigma = 0.3\n")
    cfg = load_config(str(ini))
    assert cfg.gbm == ehf.GBMParams(mu=0.05, sigma=0.3) and cfg.heston is None
    assert _scenario(cfg)[0] == cfg.gbm and _scenario(cfg)[2] == 0.3
    ini.write_text("[scenario]\nname = gbm\nbsm_vol = 0.5\n")
    cfg = load_config(str(ini))
    assert cfg.gbm == ehf.GBMParams(mu=0.0, sigma=0.2)
    assert _scenario(cfg)[2] == 0.5


@pytest.mark.parametrize("name,key,owner", [
    ("high_vol", "v0 = 0.1", "custom"), ("gbm", "theta = 0.4", "custom"),
    ("custom", "gbm_sigma = 0.3", "gbm"), ("low_vol", "gbm_mu = 0.1", "gbm")])
def test_scenario_keys_of_another_scenario_exit_2(tmp_path, capsys, name, key,
                                                  owner):
    ini = tmp_path / "scenario.ini"
    ini.write_text(f"[scenario]\nname = {name}\n{key}\n")
    code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"read only under name = {owner}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new", [
    ("seed = 31415", "seed = 31415\ndt = 1/0"),
    ("seed = 31415", "seed = 31415\ndt = nan"),
    ("seed = 31415", "seed = 31415\ns0 = nan"),
    ("fit_rows = 1200", "fit_rows = -5"),
    ("cost_rates = 0.02", "cost_rates ="),
    ("strike = 100", "strike = -5"),
    ("beta = 0.05", "beta = -1"),
    ("risk_aversions = 0.5", "risk_aversions = 0"),
    ("alpha_lo = 0", "alpha_lo = 0.5"),
    ("name = high_vol", "name = high_vol\nbsm_vol = -0.1"),
    ("[sweep]", "[output]\ndir =\n\n[sweep]")],
    ids=["dt-zero-denominator", "dt-nan", "s0-nan", "fit-rows", "no-cost-rates",
         "strike", "beta", "risk-aversion", "empty-window", "bsm-vol",
         "empty-out-dir"])
def test_bad_config_exits_2_before_simulating(tmp_path, capsys, old, new):
    """Each value used to pass load, then failed at a later command, in a
    traceback, or not at all."""
    ini = tmp_path / "bad.ini"
    ini.write_text(TINY_INI.replace(old, new))
    code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old,new,at_load", [
    ("n_paths = 220", "n_paths = 100000000000000000000", True),
    ("n_paths = 220", f"n_paths = {2 ** 59 // 31 + 1}", True),
    ("maturity_steps = 30", f"maturity_steps = {2 ** 58}", True),
    ("n_paths = 220", f"n_paths = {2 ** 46}", False)],
    ids=["n-paths-1e20", "n-paths-at-bound", "n-steps-at-bound", "n-paths-2**46"])
def test_size_numpy_cannot_hold_exits_2(tmp_path, capsys, old, new, at_load):
    """A size whose [n_paths, n_steps + 1, 2] float64 normals numpy cannot
    index exits 2 at config load; one it can index but the host cannot hold
    (here 2**49 bytes of path ids) exits 2 on its MemoryError. Each used to
    end in a traceback. Every size is above 2**48 bytes, so no allocation
    touches a page before it fails."""
    ini = tmp_path / "big.ini"
    ini.write_text(TINY_INI.replace(old, new))
    code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("n_paths x (n_steps + 1) must be below 2**59" in err) == at_load
    assert not (tmp_path / "o" / "paths.ehfp").exists()


@pytest.mark.parametrize("where,value,cmd", [
    ("[simulation]", 2 ** 64, "simulate"), ("--seed", 2 ** 64, "simulate"),
    ("[training]", -3, "train"), ("[training]", -3, "sweep"),
    ("[training]", 2 ** 64, "train"), ("[training]", 2 ** 64, "sweep"),
    ("[labels]", -3, "label"), ("[labels]", 2 ** 64, "label")])
def test_seed_outside_u64_exits_2(tmp_path, capsys, where, value, cmd):
    """A seed every RNG of the pipeline can take lies in [0, 2**64); any other
    used to end its command in an OverflowError or ValueError traceback."""
    ini, out = _ini(tmp_path, TINY_INI), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    capsys.readouterr()
    if where == "--seed":
        args = (cmd, "--seed", str(value))
    else:
        start = TINY_INI.index(where)
        ini.write_text(TINY_INI[:start] + re.sub(r"seed = \d+", f"seed = {value}",
                                                 TINY_INI[start:], count=1))
        args = (cmd,)
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    assert _run(ini, out, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be in [0, 2**64)" in err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_bad_scenario_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nname = volatile\n")
    code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "label", "train", "sweep",
                                     "report", "gradcheck"])
def test_unknown_config_key_exits_2(tmp_path, capsys, command):
    """Every command checks the whole config before any work."""
    ini = tmp_path / "typo.ini"
    ini.write_text("[simulation]\nscenario = high_vol\n")  # wrong section
    code = main([command, "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_default_section_is_an_unknown_section(tmp_path, capsys):
    """configparser would hand [DEFAULT]'s keys to every other section."""
    ini = tmp_path / "default.ini"
    ini.write_text("[DEFAULT]\nseed = 3\n")
    code = main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown section [DEFAULT]" in capsys.readouterr().err


def test_missing_config_file_exits_3(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "ghost.ini"),
                 "--out", str(tmp_path / "o")]) == 3


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def test_simulate_writes_paths_and_manifest(workdir, capsys):
    ini, out = workdir
    assert _run(ini, out, "simulate") == 0
    assert (out / "paths.ehfp").exists()
    manifest = json.loads((out / "paths.manifest.json").read_text())
    assert manifest["n_paths"] == 220
    assert manifest["seed"] == 31415
    paths = ehf.load_pathset(out / "paths.ehfp")
    assert paths.n_paths == 220
    capsys.readouterr()


def test_simulate_is_byte_identical_on_rerun(workdir, capsys):
    ini, out = workdir
    first = (out / "paths.ehfp").read_bytes()
    manifest1 = (out / "paths.manifest.json").read_bytes()
    assert _run(ini, out, "simulate") == 0
    assert (out / "paths.ehfp").read_bytes() == first
    assert (out / "paths.manifest.json").read_bytes() == manifest1
    capsys.readouterr()


def test_label_builds_forest_and_reports(workdir, capsys):
    ini, out = workdir
    assert _run(ini, out, "label") == 0
    assert (out / "forest.ehff").exists()
    assert (out / "labels.csv").exists()
    report = (out / "label_report.txt").read_text()
    assert "accuracy" in report and "baseline" in report
    stdout = capsys.readouterr().out
    assert "training split" in stdout and "test split" in stdout
    forest = load_forest(out / "forest.ehff")
    assert forest.config.n_trees == 5


def test_train_writes_checkpoint_and_log(workdir, capsys):
    ini, out = workdir
    assert _run(ini, out, "train") == 0
    ckpt = out / "policy_dense_c0.02_l0.5.ehfm"
    assert ckpt.exists()
    policy = ehf.load_policy(ckpt)
    assert policy.config.arch == "dense"
    log_lines = (out / "policy_dense_c0.02_l0.5_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,train_objective,val_objective"
    assert len(log_lines) == 2  # one epoch
    capsys.readouterr()


def test_train_rerun_is_byte_identical(workdir, capsys):
    ini, out = workdir
    ckpt = out / "policy_dense_c0.02_l0.5.ehfm"
    first = ckpt.read_bytes()
    assert _run(ini, out, "train") == 0
    assert ckpt.read_bytes() == first
    capsys.readouterr()


def test_sweep_writes_baseline_and_policy_frontiers(workdir, capsys):
    ini, out = workdir
    assert _run(ini, out, "sweep") == 0
    header = ",".join(ehf.frontier.FRONTIER_COLUMNS)
    for name in ("frontier_bsm_c0.02_l0.5.csv", "frontier_dense_c0.02_l0.5.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 4  # three alphas
    pts = ehf.read_frontier_csv(out / "frontier_dense_c0.02_l0.5.csv")
    assert [p.alpha for p in pts] == [0.0, 0.04, 0.08]
    capsys.readouterr()


def test_report_emits_pareto_and_comparison(workdir, capsys):
    ini, out = workdir
    assert _run(ini, out, "report") == 0
    assert (out / "pareto_dense_c0.02_l0.5.csv").exists()
    assert (out / "report.txt").exists()
    report_csv = (out / "report.csv").read_text().splitlines()
    assert report_csv[0].startswith("config,base_mean,base_std")
    assert len(report_csv) >= 2
    capsys.readouterr()


def test_sweep_before_simulate_exits_3(tmp_path, workdir):
    ini, _ = workdir
    code = main(["sweep", "--config", str(ini), "--out", str(tmp_path / "empty")])
    assert code == 3


def test_corrupted_manifest_exits_3(workdir, tmp_path, capsys):
    ini, out = workdir
    clone = tmp_path / "corrupt"
    clone.mkdir()
    assert main(["simulate", "--config", str(ini), "--out", str(clone)]) == 0
    raw = bytearray((clone / "paths.ehfp").read_bytes())
    raw[-1] ^= 0xFF
    (clone / "paths.ehfp").write_bytes(bytes(raw))
    code = main(["label", "--config", str(ini), "--out", str(clone)])
    assert code == 3
    assert "checksum" in capsys.readouterr().err.lower()


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """An output dir with every kind of record: a forecast-gated pipeline
    through sweep, plus a plain sweep that gives report its dense base."""
    root = tmp_path_factory.mktemp("records")
    (root / "gated.ini").write_text(FORECAST_INI)
    (root / "plain.ini").write_text(TINY_INI)
    for name, cmd in (("gated", "simulate"), ("gated", "label"), ("gated", "train"),
                      ("gated", "sweep"), ("plain", "sweep")):
        assert _run(root / f"{name}.ini", root / "out", cmd) == 0, (name, cmd)
    return root


# record -> (its file, the command that reads it first)
_RECORDS = {"paths": ("paths.manifest.json", "label"),
            "forest": ("forest.manifest.json", "train"),
            "forecast": ("forecast.manifest.json", "sweep"),
            "checkpoint": ("policy_dense_rf_c0.02_l0.5.manifest.json", "sweep"),
            "frontier": ("frontier_dense_rf_c0.02_l0.5.manifest.json", "report")}
_RECORD_FAULTS = {"truncated": ('{"sha256": ', "malformed JSON"),
                  "not-an-object": ("[]", "expected a JSON object"),
                  "missing": (None, "not found")}


@pytest.mark.parametrize("record,fault", [
    pytest.param(r, f, id=f if r == "paths" else f"{r}-{f}")
    for r in _RECORDS for f in _RECORD_FAULTS])
def test_malformed_manifest_json_exits_3(recorded, tmp_path, capsys, record, fault):
    clone = tmp_path / "out"
    shutil.copytree(recorded / "out", clone)
    (name, command), (body, message) = _RECORDS[record], _RECORD_FAULTS[fault]
    if body is None:
        (clone / name).unlink()
    else:
        (clone / name).write_text(body)
    assert _run(recorded / "gated.ini", clone, command) == 3
    assert message in capsys.readouterr().err


def test_trailing_bytes_in_pathset_exits_3(workdir, tmp_path, capsys):
    """With a record that matches the damaged file, the loader itself must notice."""
    ini, _ = workdir
    clone = tmp_path / "trailing"
    assert main(["simulate", "--config", str(ini), "--out", str(clone)]) == 0
    with open(clone / "paths.ehfp", "ab") as fh:
        fh.write(b"\0" * 8)
    record = json.loads((clone / "paths.manifest.json").read_text())
    del record["sha256"]
    _write_record(clone / "paths.ehfp", record)
    assert main(["label", "--config", str(ini), "--out", str(clone)]) == 3
    assert "trailing bytes" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["label", "train", "sweep"])
def test_pathset_of_the_v2_layout_exits_3(workdir, tmp_path, capsys, command):
    """EHFP v2 (prices, variances and a seed in the meta) under a record that
    matches it: refused by its version, not read and not a traceback."""
    ini, _ = workdir
    clone = tmp_path / "v2"
    assert main(["simulate", "--config", str(ini), "--out", str(clone)]) == 0
    prices = ehf.load_pathset(clone / "paths.ehfp").prices
    container.save(clone / "paths.ehfp", "paths",
                   {"prices": prices, "variances": np.full_like(prices, 0.8)},
                   {"s0": 100.0, "seed": 31415})
    raw = bytearray((clone / "paths.ehfp").read_bytes())
    raw[4:8] = (2).to_bytes(4, "little")
    (clone / "paths.ehfp").write_bytes(bytes(raw))
    record = json.loads((clone / "paths.manifest.json").read_text())
    del record["sha256"]
    _write_record(clone / "paths.ehfp", record)
    capsys.readouterr()
    assert main([command, "--config", str(ini), "--out", str(clone)]) == 3
    err = capsys.readouterr().err
    assert "version 2" in err and "Traceback" not in err


_GOOD_ROW = ["high_vol", "dense", "0", "0.02", "0.5", "0.0", "-12.5", "1.0",
             "30.0", "60", "fast", "3"]


@pytest.mark.parametrize("row,message", [
    (",".join(_GOOD_ROW).replace("-12.5", "oops").encode(), "bad value"),
    (b"\xff\xfe" + ",".join(_GOOD_ROW).encode(), "unreadable")],
    ids=["non-numeric", "undecodable"])
def test_non_numeric_frontier_cell_exits_3(workdir, tmp_path, capsys, row, message):
    ini, _ = workdir
    out = tmp_path / "frontier"
    out.mkdir()
    header = ",".join(ehf.frontier.FRONTIER_COLUMNS).encode()
    (out / "frontier_dense_c0.02_l0.5.csv").write_bytes(header + b"\n" + row + b"\n")
    assert main(["report", "--config", str(ini), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old,new,key", [
    ("fit_rows = 1200", "fit_rows = 1200\ngate = foo", "gate source"),
    ("mode = fast", "mode = slow", "sweep mode")], ids=["gate", "mode"])
def test_train_checks_gate_and_mode_up_front(tmp_path, capsys, old, new, key):
    """gate and mode are validated at config load, even when rf = false
    means train would never consult them."""
    ini = tmp_path / "bad.ini"
    ini.write_text(TINY_INI.replace(old, new))
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown {key}" in capsys.readouterr().err


@pytest.mark.parametrize("grid,message", [
    ("0:0.2:0", "alpha grid is empty"),
    ("0.08, 0.04, 0", "alpha grid must be ascending")], ids=["empty", "descending"])
def test_train_checks_alpha_grid_up_front(tmp_path, capsys, grid, message):
    """train rejects a grid the sweep would reject, before it needs any path
    (an empty grid used to end train in an IndexError traceback)."""
    ini = tmp_path / "bad.ini"
    ini.write_text(TINY_INI.replace("alphas = 0:0.08:3", f"alphas = {grid}"))
    assert main(["train", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("old,new,clash", [
    ("cost_rates = 0.02", "cost_rates = 0.05, 0.0500000001",
     "cost_rates 0.05 and 0.0500000001"),
    ("cost_rates = 0.02", "cost_rates = 0.02, 0.03, 0.02", "cost_rates 0.02 and 0.02"),
    ("risk_aversions = 0.5", "risk_aversions = 0.5, 0.50000001",
     "risk_aversions 0.5 and 0.50000001")],
    ids=["near-cost-rates", "repeated-cost-rate", "near-lambdas"])
def test_settings_that_print_alike_exit_2_before_writing(tmp_path, capsys, old, new,
                                                         clash):
    """A setting's files are named by {rate:g} and {lambda:g}: two values
    that print alike would have train write both settings to one checkpoint,
    which sweep then refuses as trained under the other value."""
    ini, out = _ini(tmp_path, TINY_INI.replace(old, new)), tmp_path / "out"
    for cmd in ("simulate", "train", "sweep"):
        assert _run(ini, out, cmd) == 2, cmd
        assert clash in capsys.readouterr().err
    assert not out.exists()


def test_jobs_flag_is_accepted_and_changes_no_artifact(tmp_path, capsys):
    """Every command takes --jobs (benchmark scripts pass it) and writes the
    same bytes for any value; a retrain sweep with and without the forest
    gate gives report a base frontier to compare against."""
    gated = TINY_INI.replace("rf = false", "rf = true").replace(
        "mode = fast", "mode = retrain")
    inis = {"gated": tmp_path / "gated.ini", "plain": tmp_path / "plain.ini"}
    inis["gated"].write_text(gated)
    inis["plain"].write_text(gated.replace("rf = true", "rf = false"))
    steps = (("simulate", "gated"), ("label", "gated"), ("train", "gated"),
             ("sweep", "plain"), ("sweep", "gated"), ("report", "gated"))
    artifacts = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        for cmd, name in steps:
            assert main([cmd, "--config", str(inis[name]), "--out", str(out),
                         "--jobs", jobs]) == 0, (cmd, name, jobs)
        artifacts[jobs] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert "frontier_dense_rf_c0.02_l0.5.csv" in artifacts["1"]
    assert "report.csv" in artifacts["1"]
    assert artifacts["1"] == artifacts["2"]
    capsys.readouterr()


@pytest.mark.parametrize("mode,rf,forecast_gru", [
    ("fast", "false", False), ("fast", "true", False), ("retrain", "false", False),
    ("fast", "true", True)],
    ids=["fast", "fast-oracle-gate", "retrain", "fast-forecast-gate-gru"])
def test_one_sweep_over_four_settings_writes_what_four_one_setting_sweeps_do(
        tmp_path, capsys, mode, rf, forecast_gru):
    """The settings of one `ehf sweep` share its gate labels, closed-form
    deltas and, in fast mode, each alpha's mask and carry schedule: its
    frontiers and their records are byte-identical to those of one config
    per (cost rate, lambda), run one after the other in the same output
    dir, and it prints their lines in the same order."""
    text = TINY_INI.replace("rf = false", f"rf = {rf}").replace("mode = fast",
                                                                f"mode = {mode}")
    if forecast_gru:
        text = text.replace("arch = dense", "arch = gru").replace(
            "fit_rows = 1200", "fit_rows = 1200\ngate = forecast")
    settings = [(rate, lam) for rate in ("0.02", "0.05") for lam in ("0.2", "0.7")]
    combined = tmp_path / "combined.ini"
    combined.write_text(text.replace("cost_rates = 0.02", "cost_rates = 0.02, 0.05")
                        .replace("risk_aversions = 0.5", "risk_aversions = 0.2, 0.7"))
    out = tmp_path / "out"
    steps = ("simulate", "label" if forecast_gru else None, "train" if mode == "fast" else None)
    for cmd in filter(None, steps):
        assert _run(combined, out, cmd) == 0, cmd
    capsys.readouterr()

    def sweep(ini):
        assert _run(ini, out, "sweep") == 0
        frontiers = {f.name: f.read_bytes() for f in sorted(out.glob("frontier_*"))}
        for name in frontiers:
            os.remove(out / name)
        return frontiers, capsys.readouterr().out

    shared, shared_lines = sweep(combined)
    alone, alone_lines = {}, ""
    for rate, lam in settings:
        ini = tmp_path / f"c{rate}_l{lam}.ini"
        ini.write_text(text.replace("cost_rates = 0.02", f"cost_rates = {rate}")
                       .replace("risk_aversions = 0.5", f"risk_aversions = {lam}"))
        frontiers, lines = sweep(ini)
        alone.update(frontiers)
        alone_lines += lines
    assert len(shared) == 4 * 2 * 2   # per setting: baseline and policy, CSV and record
    assert shared == alone
    assert shared_lines == alone_lines
    assert len(shared_lines.splitlines()) == 4


def test_train_over_two_jobs_writes_what_one_job_does(tmp_path, capsys, monkeypatch):
    """`train --jobs 2` deals the four settings of a 2 x 2 grid over two
    processes (on any host: the usable cores are taken to be 2), and the
    caller writes every checkpoint, record and log and prints every line
    in grid order: the files and stdout of --jobs 1, byte for byte."""
    monkeypatch.setattr(frontier, "_usable_cores", lambda: 2)
    ini = _ini(tmp_path, TINY_INI.replace("cost_rates = 0.02", "cost_rates = 0.02, 0.05")
               .replace("risk_aversions = 0.5", "risk_aversions = 0.2, 0.7"))
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert _run(ini, out, "simulate") == 0
        capsys.readouterr()
        assert main(["train", "--config", str(ini), "--out", str(out), "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.replace(str(out), "OUT")
        runs[jobs] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}, lines
    files, lines = runs["1"]
    assert len([name for name in files if name.endswith(".ehfm")]) == 4
    assert len(lines.splitlines()) == 4
    assert runs["2"] == runs["1"]


# ---------------------------------------------------------------------------
# the forest gate: label fits the forest, train and sweep read it
# ---------------------------------------------------------------------------

RF_INI = TINY_INI.replace("rf = false", "rf = true")
FORECAST_INI = RF_INI.replace("fit_rows = 1200", "fit_rows = 1200\ngate = forecast")


def _ini(tmp_path, text):
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    return ini


def test_forecast_pipeline_matches_library_run(tmp_path, capsys, monkeypatch):
    """train and sweep gate with the labels `label` stored: they neither load
    the forest nor predict, and give the library run's frontier byte for byte."""
    ini, out = _ini(tmp_path, FORECAST_INI), tmp_path / "out"
    for cmd in ("simulate", "label"):
        assert _run(ini, out, cmd) == 0, cmd

    def refuse(*args, **kwargs):
        raise AssertionError("the forest was read after `ehf label`")

    with monkeypatch.context() as patched:
        for name in ("predict_labels", "load_forest"):
            patched.setattr(ehf.signal_forest, name, refuse)
        patched.setattr(ehf.frontier, "predict_labels", refuse)
        for cmd in ("train", "sweep"):
            assert _run(ini, out, cmd) == 0, cmd
    cfg = load_config(str(ini))
    paths = ehf.load_pathset(out / "paths.ehfp")
    train, test = ehf.split_pathset(paths, cfg.n_train, cfg.n_test)
    signal = ehf.prepare_signal(train, test, cfg.beta, cfg.forest,
                                fit_rows=cfg.forest_fit_rows)
    sweep = ehf.SweepConfig(alphas=cfg.alphas, rf=True, cost_rates=(0.02,),
                            risk_aversions=(0.5,), seed=cfg.train.seed)
    points = ehf.sweep_alpha(
        sweep, train, test, ehf.ContractSpec(100.0, 30), cfg.policy, cfg.train,
        gate=lambda p: predict_label_matrix(signal.forest, p))
    ehf.write_frontier_csv(tmp_path / "library.csv", points)
    assert (out / "frontier_dense_rf_c0.02_l0.5.csv").read_bytes() == \
        (tmp_path / "library.csv").read_bytes()
    capsys.readouterr()


def test_forecast_gate_without_forest_exits_3(tmp_path, capsys):
    """A forecast gate needs the forest `ehf label` writes; a forest.npz of the
    former format does not count."""
    ini, out = _ini(tmp_path, FORECAST_INI), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    (out / "forest.npz").write_bytes(b"PK\x03\x04")
    for cmd in ("train", "sweep"):
        assert _run(ini, out, cmd) == 3, cmd
        assert "run `ehf label` first" in capsys.readouterr().err
    assert not (out / "forest.ehff").exists()


@pytest.mark.parametrize("label_ini,run_ini,stale", [
    (FORECAST_INI.replace("seed = 3\nfit_rows", "seed = 9\nfit_rows"), FORECAST_INI,
     "forest settings"),
    (FORECAST_INI, FORECAST_INI.replace("beta = 0.05", "beta = 0.03"), "beta")],
    ids=["other-seed", "other-beta"])
def test_forecast_gate_with_stale_forest_exits_3(tmp_path, capsys, label_ini,
                                                 run_ini, stale):
    """The forest on disk was fit under another forest seed, or another beta
    than train and sweep now use."""
    ini, out = _ini(tmp_path, label_ini), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    assert _run(ini, out, "label") == 0
    ini.write_text(run_ini)
    for cmd in ("train", "sweep"):
        assert _run(ini, out, cmd) == 3, cmd
        err = capsys.readouterr().err
        assert stale in err and "rerun `ehf label`" in err


@pytest.mark.parametrize("fault,message", [
    ("missing", "run `ehf label` first"),
    ("other-n_test", "n_test — rerun `ehf label`"),
    ("other-forest", "forest.ehff — rerun `ehf label`"),
    ("corrupt", "checksum mismatch) — rerun `ehf label`")])
def test_forecast_gate_needs_the_labels_of_this_forest_and_split(
        tmp_path, capsys, fault, message):
    """The stored forecast labels are missing, or were predicted for another
    test split or by another forest than the one on disk, or are damaged."""
    ini, out = _ini(tmp_path, FORECAST_INI), tmp_path / "out"
    for cmd in ("simulate", "label"):
        assert _run(ini, out, cmd) == 0, cmd
    forecast = out / "forecast.ehfl"
    if fault == "missing":
        forecast.unlink()
    elif fault == "other-n_test":
        ini.write_text(FORECAST_INI.replace("n_test = 60", "n_test = 50"))
    elif fault == "other-forest":
        kept = forecast.read_bytes(), (out / "forecast.manifest.json").read_bytes()
        ini.write_text(FORECAST_INI.replace("n_trees = 5", "n_trees = 4"))
        assert _run(ini, out, "label") == 0
        forecast.write_bytes(kept[0])
        (out / "forecast.manifest.json").write_bytes(kept[1])
    else:
        raw = bytearray(forecast.read_bytes())
        raw[-1] ^= 0x01
        forecast.write_bytes(bytes(raw))
    capsys.readouterr()
    for cmd in ("train", "sweep"):
        assert _run(ini, out, cmd) == 3, cmd
        assert message in capsys.readouterr().err
    assert not list(out.glob("policy_*")) and not list(out.glob("frontier_*"))


def test_stored_forecast_refuses_path_ids_it_does_not_hold(tmp_path, capsys):
    ini, out = _ini(tmp_path, FORECAST_INI), tmp_path / "out"
    for cmd in ("simulate", "label"):
        assert _run(ini, out, cmd) == 0, cmd
    cfg = replace(load_config(str(ini)), out_dir=str(out))
    paths, digests = cli._load_paths(cfg)
    gate, _ = cli._gate(cfg, digests)
    assert np.array_equal(gate(paths), ehf.load_forecast(out / "forecast.ehfl"))
    beyond = ehf.PathSet(paths.prices[:2], 100.0, np.array([219, 220]))
    with pytest.raises(ehf.IntegrityError, match="path ids 0 to 219, not 219 to 220"):
        gate(beyond)
    capsys.readouterr()


def test_label_refuses_a_forest_too_large_to_tabulate(tmp_path, capsys, monkeypatch):
    """A forest whose lookup tables would pass the cell cap exits 2 and names
    the settings that shrink it, before it writes a forest."""
    ini, out = _ini(tmp_path, TINY_INI), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    monkeypatch.setattr(ehf.signal_forest, "_MAX_TABLE_CELLS", 10)
    assert _run(ini, out, "label") == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("max_depth", "min_leaf", "fit_rows"))
    assert not (out / "forest.ehff").exists()


def test_label_report_json_holds_the_text_reports_numbers(tmp_path, capsys):
    ini, out = _ini(tmp_path, TINY_INI), tmp_path / "out"
    for cmd in ("simulate", "label"):
        assert _run(ini, out, cmd) == 0, cmd
    first = (out / "label_report.json").read_bytes()
    report = json.loads(first)
    text = (out / "label_report.txt").read_text()
    assert sorted(report) == ["test", "train"]
    for split in report.values():
        assert sorted(split) == ["accuracy", "class_1_prevalence",
                                 "confusion_truth_x_prediction", "majority_baseline"]
        confusion = np.array(split["confusion_truth_x_prediction"])
        assert split["accuracy"] == np.trace(confusion) / confusion.sum()
        assert f"accuracy {split['accuracy']:.4f} (majority baseline " \
               f"{split['majority_baseline']:.4f}, class-1 prevalence " \
               f"{split['class_1_prevalence']:.4f})" in text
    assert report["test"]["confusion_truth_x_prediction"] != \
        report["train"]["confusion_truth_x_prediction"]
    assert _run(ini, out, "label") == 0
    assert (out / "label_report.json").read_bytes() == first
    assert (out / "label_report.txt").read_text() == text
    capsys.readouterr()


def test_oracle_gate_needs_no_forest(tmp_path, capsys):
    ini, out = _ini(tmp_path, RF_INI), tmp_path / "out"
    for cmd in ("simulate", "train", "sweep"):
        assert _run(ini, out, cmd) == 0, cmd
    assert (out / "frontier_dense_rf_c0.02_l0.5.csv").exists()
    assert not (out / "forest.ehff").exists()
    capsys.readouterr()


@pytest.mark.parametrize("fault", ["meta-key", "missing-block", "block-shape",
                                   "architecture", "float-size"])
def test_corrupt_checkpoint_exits_3(tmp_path, capsys, fault):
    """A fast sweep restores policy_*.ehfm; each fault is exit 3, not a traceback."""
    ini, out = _ini(tmp_path, TINY_INI), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    ckpt = out / "policy_dense_c0.02_l0.5.ehfm"
    ehf.save_policy(ckpt, DensePolicy.init(ehf.PolicyConfig(hidden=8), seed=0))
    arch, meta, params = container.load(ckpt, "checkpoint")
    if fault == "meta-key":
        del meta["hidden"]
    elif fault == "missing-block":
        del params["w3"]
    elif fault == "block-shape":
        params["w2"] = np.zeros((8, 9))
    elif fault == "float-size":
        meta["hidden"] = 8.0    # the block shapes still compare equal
    else:
        arch = "lstm"
    container.save(ckpt, "checkpoint", params, meta, tag=arch)
    digest = json.loads((out / "paths.manifest.json").read_text())["sha256"]
    _write_record(ckpt, _made_from(load_config(str(ini)), "policy",
                                   {"paths.ehfp": digest}, 0.02, 0.5))
    assert _run(ini, out, "sweep") == 3
    assert str(ckpt) in capsys.readouterr().err


@pytest.mark.parametrize("text,old,new", [
    (TINY_INI, "hidden = 8", "hidden = 16\nuse_change = false"),
    (TINY_INI, "seed = 31415", "seed = 27182"),
    (TINY_INI, "epochs = 1", "epochs = 2"),
    (TINY_INI, "alphas = 0:0.08:3", "alphas = 0.01, 0.04, 0.08"),
    (RF_INI, "beta = 0.05", "beta = 0.03"),
    (TINY_INI, "strike = 100", "strike = 110")],
    ids=["policy", "paths", "epochs", "first-alpha", "rf-beta", "strike"])
def test_fast_sweep_refuses_a_checkpoint_of_other_policy_settings(
        tmp_path, capsys, text, old, new):
    """The checkpoint was trained on other paths or under other settings."""
    ini, out = _ini(tmp_path, text), tmp_path / "out"
    for cmd in ("simulate", "train"):
        assert _run(ini, out, cmd) == 0, cmd
    ini.write_text(text.replace(old, new))
    assert _run(ini, out, "simulate") == 0
    assert _run(ini, out, "sweep") == 3
    assert "rerun `ehf train`" in capsys.readouterr().err
    assert not list(out.glob("frontier_dense*"))


def test_report_refuses_a_pair_swept_on_other_paths(tmp_path, capsys):
    """The variant was swept before the paths were simulated again."""
    rf, plain = _ini(tmp_path, RF_INI), tmp_path / "plain.ini"
    plain.write_text(TINY_INI)
    out = tmp_path / "out"
    assert _run(rf, out, "simulate") == 0
    assert _run(rf, out, "sweep") == 0
    assert _run(plain, out, "simulate", "--seed", "2") == 0
    assert _run(plain, out, "sweep", "--seed", "2") == 0
    assert _run(plain, out, "report") == 3
    err = capsys.readouterr().err
    assert "frontier_dense_rf_c0.02_l0.5.csv" in err and "rerun `ehf sweep`" in err


def test_report_refuses_a_pair_swept_at_other_strikes(tmp_path, capsys):
    """The variant was swept on the same paths for another contract."""
    rf = _ini(tmp_path, RF_INI.replace("strike = 100", "strike = 110"))
    plain = tmp_path / "plain.ini"
    plain.write_text(TINY_INI)
    out = tmp_path / "out"
    assert _run(plain, out, "simulate") == 0
    assert _run(rf, out, "sweep") == 0
    assert _run(plain, out, "sweep") == 0
    assert _run(plain, out, "report") == 3
    err = capsys.readouterr().err
    assert "frontier_dense_rf_c0.02_l0.5.csv: its record holds other strike" in err
    assert "rerun `ehf sweep`" in err


@pytest.mark.parametrize("old,new,value", [
    ("seed = 31415", "seed = 31415\ndt = 1/252", "dt"),
    ("name = high_vol", "name = high_vol\nbsm_vol = 0.5", "baseline vol")])
def test_report_refuses_a_baseline_swept_at_another_dt_or_vol(tmp_path, capsys,
                                                              old, new, value):
    """The closed-form frontier was swept again, alone, at another dt or
    baseline vol than the dense base it is compared with."""
    plain = _ini(tmp_path, TINY_INI)
    bsm = tmp_path / "bsm.ini"
    bsm.write_text(TINY_INI.replace(old, new).replace("arch = dense", "arch = bsm"))
    out = tmp_path / "out"
    assert _run(plain, out, "simulate") == 0
    assert _run(plain, out, "sweep") == 0
    assert _run(bsm, out, "simulate") == 0
    assert _run(bsm, out, "sweep") == 0
    assert _run(plain, out, "report") == 3
    err = capsys.readouterr().err
    assert f"frontier_bsm_c0.02_l0.5.csv: its record holds other {value}" in err
    assert "rerun `ehf sweep`" in err


@pytest.mark.parametrize("changes,stale", [
    ((("name = high_vol", "name = low_vol"), ("seed = 31415", "seed = 31415\ndt = 1/252")),
     "scenario, dt, params"),
    ((("n_paths = 220", "n_paths = 230"),), "n_paths"),
    ((("maturity_steps = 30", "maturity_steps = 20"),), "n_steps"),
    ((("seed = 31415", "seed = 31415\ns0 = 90"),), "s0"),
    ((("seed = 31415", "seed = 27"),), "seed")],
    ids=["scenario-and-dt", "n_paths", "n_steps", "s0", "seed"])
def test_paths_simulated_under_another_config_exit_3(tmp_path, capsys, changes,
                                                     stale):
    """label, train and sweep refuse a path file simulated under another
    scenario, size, s0, dt or seed than their config gives."""
    ini, out = _ini(tmp_path, TINY_INI), tmp_path / "out"
    assert _run(ini, out, "simulate") == 0
    text = TINY_INI
    for old, new in changes:
        text = text.replace(old, new)
    ini.write_text(text)
    for cmd in ("label", "train", "sweep"):
        assert _run(ini, out, cmd) == 3, cmd
        err = capsys.readouterr().err
        assert f"paths.ehfp: its record holds other {stale} — rerun `ehf simulate`" \
            in err, cmd
    assert not list(out.glob("frontier_*")) and not (out / "forest.ehff").exists()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dense: max rel error 2.076e-07 (tol 1e-05)",
        "gru: max rel error 7.164e-07 (tol 0.0001)",
        "gradient check passed for all architectures"]


@pytest.mark.parametrize("text,args", [
    ("[simulation]\nbogus = 1\n", ()), ("", ("--seed", str(2 ** 64)))],
    ids=["unknown-key", "seed-over-u64"])
def test_gradcheck_checks_its_config(tmp_path, capsys, text, args):
    """gradcheck reads no config value, but like every command it checks the
    whole config before any work; it used to pass both and exit 0."""
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    assert main(["gradcheck", "--config", str(ini), *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_seed_override_changes_artifacts(workdir, tmp_path, capsys):
    ini, _ = workdir
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(ini), "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["simulate", "--config", str(ini), "--out", str(b),
                 "--seed", "2"]) == 0
    pa = ehf.load_pathset(a / "paths.ehfp")
    pb = ehf.load_pathset(b / "paths.ehfp")
    assert not np.array_equal(pa.prices, pb.prices)
    capsys.readouterr()


def test_a_pipeline_without_a_pool_leaves_multiprocessing_unimported(tmp_path):
    """Only a retrain sweep's pool forks; the import alone costs a process
    about 0.7 MB and several ms, so the five commands of a fast pipeline,
    the sweep at --jobs 2 included, run without it."""
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    probe = ("import contextlib, io, sys\n"
             "from ehf.cli import main\n"
             "for cmd, jobs in (('simulate', 1), ('label', 1), ('train', 1),"
             " ('sweep', 2), ('report', 1)):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = main([cmd, '--config', sys.argv[1], '--out', sys.argv[2],"
             " '--jobs', str(jobs)])\n"
             "    print(cmd, code)\n"
             "print('multiprocessing' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe, str(ini), str(tmp_path / "out")],
                         env=env, check=True, capture_output=True, text=True)
    assert run.stdout.splitlines() == [
        "simulate 0", "label 0", "train 0", "sweep 0", "report 0", "False"]


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_jobs_below_one_exits_2_at_parse_time(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
