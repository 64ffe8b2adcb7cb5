"""Property tests: malformed input fails with a named error, never a raw one."""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoreg.cli import main
from emoreg.configio import parse_flat_config, read_config
from emoreg.data import (
    MultimodalSample,
    SynthConfig,
    compute_norm_stats,
    load_sample,
    write_dataset,
)
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


# ---------------------------------------------------------------------------
# Whole datasets through the CLI: a mutated split either scores (or trains)
# with finite results or exits 1/2 with a message that names a mutated file
# or sample.

FUZZ_MODALITIES = ("audio", "video")
FUZZ_CONFIG = """\
model.modalities = audio,video
model.width.audio = 3
model.width.video = 2
model.d_model = 4
model.enc_heads = 1
model.enc_layers = 1
model.dec_heads = 1
model.dec_layers = 1
model.conv_layers = 1
model.conv_kernel = 2
model.d_ffn = 4
model.head_hidden = 2
model.mask_length = 2
model.dropout = 0.0
model.max_steps = 16
train.epochs = 1
train.batch_size = 4
train.segment_length = 8
train.segment_hop = 4
"""


def _fuzz_samples(split: str, rng: Rng) -> list:
    """Three valid 12-step samples named after ``split``."""
    widths = {"audio": 3, "video": 2}
    return [
        MultimodalSample(f"{split}{i:03d}", np.arange(12) * 0.5,
                         {m: rng.normal(0.0, 1.0, (12, w)) for m, w in widths.items()},
                         rng.normal(0.0, 1.0, 12))
        for i in range(3)
    ]


@pytest.fixture(scope="module")
def fuzz_split(tmp_path_factory):
    """(dataset root, checkpoint) of a valid three-sample test split and an
    untrained model whose norm stats come from that split."""
    root = tmp_path_factory.mktemp("fuzz")
    samples = _fuzz_samples("test", Rng(7))
    write_dataset(root / "data", "test", samples)
    cfg, _ = read_config(parse_flat_config(FUZZ_CONFIG), ModelConfig, TrainConfig)
    stats = compute_norm_stats(samples, FUZZ_MODALITIES)
    ckpt = root / "model.ckpt"
    save_checkpoint(ckpt, {"model": cfg.to_dict()}, EmotionRegressor(cfg, Rng(0)).parameters(),
                    stats)
    return root / "data", ckpt


def _mutate(path, action: str, k: int):
    """Apply one mutation to the CSV file ``path`` (``k`` picks a row or a
    column); ``delete`` removes the file."""
    if action == "delete":
        path.unlink()
        return
    lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    if not rows:  # emptied by an earlier mutation
        return
    r = k % len(rows)
    if action == "drop_row":
        del rows[r]
    elif action == "truncate_row":
        rows[r] = rows[r][: len(rows[r]) // 2]
    elif action == "shift_timestamps":
        rows = [f"{float(row.split(',')[0]) + 0.25},{row.split(',', 1)[1]}" if i >= r else row
                for i, row in enumerate(rows)]
    elif action == "add_column":
        header, rows = header + ",extra", [row + ",1.0" for row in rows]
    elif action == "remove_column":
        header, rows = header.rsplit(",", 1)[0], [row.rsplit(",", 1)[0] for row in rows]
    elif action == "header_only":
        rows = []
    else:  # a value: non-finite or huge
        cells = rows[r].split(",")
        cells[1 + k % (len(cells) - 1)] = action
        rows[r] = ",".join(cells)
    path.write_text("\n".join([header] + rows) + "\n")


FILE_MUTATIONS = st.sampled_from(
    ["delete", "drop_row", "truncate_row", "shift_timestamps", "add_column", "remove_column",
     "header_only", "nan", "inf", "-inf", "1e308", "-1e300", "1e200"]
)
MUTATION = st.tuples(st.integers(0, 2), st.sampled_from(("labels",) + FUZZ_MODALITIES),
                     st.one_of(FILE_MUTATIONS, st.just("delete_sample")), st.integers(0, 20))
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=2)


def _mutate_split(split_dir, mutations) -> set:
    """Apply ``mutations`` to the samples of ``split_dir`` (``test000`` ... in
    ``test``), skipping a file or sample an earlier one deleted; returns the
    names of the samples they touched."""
    named = set()
    for index, name, action, k in mutations:
        sample_dir = split_dir / f"{split_dir.name}{index:03d}"
        if not sample_dir.exists():
            continue
        named.add(sample_dir.name)
        if action == "delete_sample":
            shutil.rmtree(sample_dir)
        elif (sample_dir / f"{name}.csv").exists():
            _mutate(sample_dir / f"{name}.csv", action, k)
    return named


def _cli(args) -> tuple:
    """``(exit code, stderr)`` of ``main(args)``; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(args)
    return rc, err.getvalue()


def _finite_outputs(command: str, out) -> list:
    """Every number the command wrote to ``out``."""
    if command == "trace":
        lines = out.read_text().splitlines()
        values = [float(x) for line in lines[1:-1] for x in line.split(",")]
        return values + [float(kv.split("=")[1]) for kv in lines[-1][2:].split()]
    report = json.loads(out.read_text())
    if command == "eval":
        return [report["ccc"], report["rmse"], *report["per_sample_ccc"].values()]
    return [x for v in report["subsets"].values() for x in v.values()] + list(
        report["importance"].values())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(mutations=MUTATIONS, command=st.sampled_from(["eval", "ablate", "trace"]))
def test_mutated_split_scores_or_names_the_fault(fuzz_split, tmp_path_factory, mutations,
                                                 command):
    pristine, ckpt = fuzz_split
    root = tmp_path_factory.mktemp("mutated") / "data"
    shutil.copytree(pristine, root)
    named = _mutate_split(root / "test", mutations)
    out = root.parent / "out"
    args = ["--model", str(ckpt), "--data", str(root), "--out", str(out)]
    if command == "trace":
        args += ["--sample", "test000"]
    rc, err = _cli([command] + args)
    assert "Traceback" not in err, err
    if rc == 0:
        assert all(np.isfinite(_finite_outputs(command, out))), (mutations, command)
    else:
        assert rc in (1, 2), (rc, err)
        assert any(sid in err for sid in named), (mutations, command, err)
    shutil.rmtree(root.parent)


@pytest.fixture(scope="module")
def training_split(tmp_path_factory):
    """(dataset root, config file): valid three-sample train, val and test
    splits, and a tiny model that trains for one epoch."""
    root = tmp_path_factory.mktemp("train_fuzz")
    rng = Rng(8)
    for split in ("train", "val", "test"):
        write_dataset(root / "data", split, _fuzz_samples(split, rng))
    (root / "fuzz.cfg").write_text(FUZZ_CONFIG)
    return root / "data", root / "fuzz.cfg"


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(["train", "val"]), MUTATION),
                          min_size=1, max_size=2))
def test_mutated_training_split_trains_or_names_the_fault(training_split, tmp_path_factory,
                                                          mutations):
    # A run that trains must leave a finite history and a checkpoint that
    # scores the pristine test split; one that fails names what it refused
    # and leaves no run directory.
    pristine, cfg = training_split
    root = tmp_path_factory.mktemp("mutated") / "data"
    shutil.copytree(pristine, root)
    named = set()
    for split, mutation in mutations:
        named |= _mutate_split(root / split, [mutation])
    run = root.parent / "run"
    rc, err = _cli(["train", "--data", str(root), "--out", str(run), "--config", str(cfg),
                    "--quiet"])
    assert "Traceback" not in err, err
    if rc == 0:
        history = json.loads((run / "history.json").read_text())
        assert np.isfinite([e[k] for e in history["epochs"] for k in ("train_loss", "val_ccc")]
                           + [history["best_val_ccc"]]).all(), mutations
        out = root.parent / "eval.json"
        rc, err = _cli(["eval", "--model", str(run / "model.ckpt"), "--data", str(pristine),
                        "--out", str(out)])
        assert rc == 0, (mutations, err)
        assert all(np.isfinite(_finite_outputs("eval", out))), mutations
    else:
        assert rc in (1, 2), (rc, err)
        assert any(sid in err for sid in named), (mutations, err)
        assert not run.exists()
    shutil.rmtree(root.parent)
