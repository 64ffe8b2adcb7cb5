"""Property tests: malformed input fails with a named error, never a raw one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoreg.configio import parse_flat_config, read_config
from emoreg.data import MultimodalSample, SynthConfig, load_sample, write_dataset
from emoreg.errors import ConfigError, DataLoadError, EmoregError
from emoreg.model import EmotionRegressor, ModelConfig, load_checkpoint, save_checkpoint
from emoreg.tensor import Rng
from emoreg.train import ExperimentConfig, TrainConfig

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


CONFIG_KEYS = st.sampled_from(
    ["model.d_model", "model.dropout", "model.modalities", "model.width.audio",
     "train.learning_rate", "train.adam_eps", "train.seed", "eliminate.audio",
     "synth.snr.video", "synth.freq_hi", "synth.width.text", "synth.modalities",
     "experiment.alpha", "experiment.seeds", "model.d_modell", "zzz.x"]
)
CONFIG_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-1", "", "a,b", "0.5", "3", "1e-300"]
)


def _floats(value):
    """Every float a config holds, per-name table values included."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in _floats(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _floats(v)]
    return [value] if isinstance(value, float) else []


@PROPERTY
@given(st.dictionaries(CONFIG_KEYS, CONFIG_VALUES, max_size=5))
def test_read_config_returns_finite_configs_or_config_error(raw):
    try:
        configs = read_config(raw, ModelConfig, TrainConfig, SynthConfig, ExperimentConfig)
    except ConfigError:
        return
    for cfg in configs:
        assert all(np.isfinite(x) for x in _floats(cfg.to_dict())), cfg


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


CSV_FRAGMENTS = st.sampled_from(
    ["timestamp", "value", "f0", "0.0", "0.5", "1.0", "-2e3", "nan", "inf", "x", ",", "\n",
     "\r\n", '"', " ", "\x00", "\ufeff", "\xe9", "1" * 140_000]
)
CSV_TEXT = st.lists(CSV_FRAGMENTS, max_size=30).map("".join)
CSV_BLOBS = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    CSV_TEXT.map(str.encode),
    CSV_TEXT.map(lambda t: t.encode("utf-16")),
)


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    """A valid two-modality sample directory; tests overwrite its files."""
    root = tmp_path_factory.mktemp("csv")
    feats = {"audio": np.ones((4, 2)), "video": np.zeros((4, 3))}
    write_dataset(root, "train", [MultimodalSample("s0", np.arange(4) * 0.5, feats, np.zeros(4))])
    return root / "train" / "s0"


@PROPERTY
@given(name=st.sampled_from(["labels.csv", "audio.csv"]), blob=CSV_BLOBS)
def test_csv_loader_returns_sample_or_named_error(sample_dir, name, blob):
    path = sample_dir / name
    original = path.read_bytes()
    path.write_bytes(blob)
    try:
        sample = load_sample(str(sample_dir), ("audio", "video"))
    except EmoregError:
        return
    finally:
        path.write_bytes(original)
    assert isinstance(sample, MultimodalSample)
