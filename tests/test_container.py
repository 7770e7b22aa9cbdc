"""The binary container that carries paths, forests and checkpoints."""

import struct

import numpy as np
import pytest

import ehf
from ehf import container
from ehf.errors import IntegrityError
from ehf.hedging_engine import DensePolicy
from ehf.signal_forest import load_forest


def test_params_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {"w1": rng.normal(size=(7, 3)), "b1": rng.normal(size=7),
              "scalarish": rng.normal(size=(1,))}
    meta = {"s0": 100.0, "note": "abc"}
    fn = tmp_path / "model.ehfm"
    container.save(fn, "checkpoint", params, meta, tag="dense")
    arch, got_meta, loaded = container.load(fn, "checkpoint")
    assert arch == "dense"
    assert got_meta == meta
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].dtype == np.float64


def test_params_file_rejects_corruption(tmp_path):
    fn = tmp_path / "model.ehfm"
    container.save(fn, "checkpoint", {"w": np.ones((2, 2))}, {}, tag="gru")
    raw = bytearray(fn.read_bytes())
    raw[:4] = b"JUNK"
    fn.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError):
        container.load(fn, "checkpoint")
    container.save(fn, "checkpoint", {"w": np.ones((2, 2))}, {}, tag="gru")
    good = fn.read_bytes()
    fn.write_bytes(good[:-8])
    with pytest.raises(IntegrityError):
        container.load(fn, "checkpoint")
    # a first dimension of 2**63 (the shape's 16 bytes precede the 32 data bytes)
    fn.write_bytes(good[:-48] + struct.pack("<Q", 2 ** 63) + good[-40:])
    with pytest.raises(IntegrityError):
        container.load(fn, "checkpoint")


def test_checkpoint_with_trailing_bytes_raises(tmp_path):
    fn = tmp_path / "policy.ehfm"
    ehf.save_policy(fn, DensePolicy.init(ehf.PolicyConfig(hidden=2), seed=0))
    with open(fn, "ab") as fh:
        fh.write(b"\0" * 64)
    with pytest.raises(IntegrityError, match="64 trailing bytes"):
        ehf.load_policy(fn)


def test_a_file_of_another_kind_is_refused_by_its_magic(tmp_path, gbm_small):
    paths_file, policy_file = tmp_path / "paths.ehfp", tmp_path / "policy.ehfm"
    ehf.save_pathset(gbm_small, paths_file)
    ehf.save_policy(policy_file,
                    DensePolicy.init(ehf.PolicyConfig(hidden=2), seed=0))
    with pytest.raises(IntegrityError, match="EHFP"):
        ehf.load_policy(paths_file)
    with pytest.raises(IntegrityError, match="EHFM"):
        load_forest(policy_file)
    with pytest.raises(IntegrityError, match="EHFP"):
        ehf.load_forecast(paths_file)
