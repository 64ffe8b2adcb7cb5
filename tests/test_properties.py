"""Property tests: malformed input fails with a named error, never a raw one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoreg.configio import parse_flat_config
from emoreg.errors import ConfigError, DataLoadError
from emoreg.model import EmotionRegressor, ModelConfig, load_checkpoint, save_checkpoint
from emoreg.tensor import Rng

# Derandomized (a fixed seed per test), no example database, no deadline.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

CONFIG_FRAGMENTS = st.sampled_from(
    ["model.d_model", "train.seed", "eliminate.audio", "=", " = ", "#", " ", "\t", "\r",
     "1", "0.5", "x", "a,b"]
)
CONFIG_LINES = st.lists(st.lists(CONFIG_FRAGMENTS, max_size=5).map("".join), max_size=6)


@PROPERTY
@given(st.one_of(st.text(), CONFIG_LINES.map("\n".join)))
def test_parse_flat_config_returns_dict_or_config_error(text):
    try:
        raw = parse_flat_config(text)
    except ConfigError:
        return
    assert isinstance(raw, dict)
    assert all(isinstance(k, str) and k and isinstance(v, str) for k, v in raw.items())


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """Path of a valid checkpoint; variants are written next to it."""
    cfg = ModelConfig(
        modalities=("a", "b"), modality_widths={"a": 3, "b": 2}, d_model=4, enc_heads=1,
        enc_layers=1, dec_heads=1, dec_layers=1, conv_layers=1, conv_kernel=2, d_ffn=4,
        head_hidden=2, mask_length=2, dropout=0.0, max_steps=4,
    )
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    norm = {"a.mean": np.zeros(3), "a.std": np.ones(3)}
    save_checkpoint(path, cfg.to_dict(), EmotionRegressor(cfg, Rng(0)).parameters(), norm)
    return path


def _loads_or_data_load_error(checkpoint, blob):
    path = checkpoint.with_name("variant.ckpt")
    path.write_bytes(blob)
    try:
        config, _, _ = load_checkpoint(path)
    except DataLoadError:
        return
    assert isinstance(config, dict)


@PROPERTY
@given(data=st.data())
def test_truncated_checkpoint_loads_or_raises_data_load_error(checkpoint, data):
    blob = checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    _loads_or_data_load_error(checkpoint, blob[:cut])


@PROPERTY
@given(data=st.data(), flip=st.integers(1, 255))
def test_flipped_byte_checkpoint_loads_or_raises_data_load_error(checkpoint, data, flip):
    corrupt = bytearray(checkpoint.read_bytes())
    corrupt[data.draw(st.integers(0, len(corrupt) - 1), label="at")] ^= flip
    _loads_or_data_load_error(checkpoint, bytes(corrupt))
