"""Datasets: synthetic benchmark generation, CSV persistence, segmentation.

A sample is a set of time-aligned feature streams (one per modality, any of
which may be missing) plus a continuous label trace, all on a fixed-step time
grid.  On disk a dataset is::

    <root>/<split>/<sample_id>/labels.csv      timestamp,value
    <root>/<split>/<sample_id>/<modality>.csv  timestamp,f0,f1,...

A header-only (or empty) modality file marks that stream as unavailable for
the sample.  Floats are written with ``repr`` so a write/read round trip is
bit-exact.

The synthetic benchmark hides a smooth latent trace (a normalized sum of
random sinusoids) inside each modality with a per-modality signal-to-noise
ratio and structured distractor signals; the label is the latent itself, so a
linear read-out exists and modality informativeness is controlled exactly.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dictconfig import DictConfig, check_int
from .errors import ConfigError, ContractError, DataLoadError, InsufficientDataError, NumericError
from .tensor import Rng

STEP_SECONDS = 0.5
_SPACING_TOL = 1e-9


@dataclass
class MultimodalSample:
    """One recording: aligned feature streams and a label trace."""

    sample_id: str
    timestamps: np.ndarray
    features: dict
    labels: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        n = self.timestamps.shape[0]
        if self.labels.shape != (n,):
            raise ContractError(
                f"sample {self.sample_id}: labels {self.labels.shape} vs {n} timestamps"
            )
        for m, x in self.features.items():
            if x is None:
                continue
            x = np.asarray(x, dtype=np.float64)
            self.features[m] = x
            if x.ndim != 2 or x.shape[0] != n:
                raise ContractError(
                    f"sample {self.sample_id}: modality {m!r} shaped {x.shape}, "
                    f"expected ({n}, width)"
                )

    @property
    def n_steps(self) -> int:
        return self.timestamps.shape[0]


@dataclass
class SynthConfig(DictConfig):
    """Parameters of the synthetic multimodal benchmark."""

    n_train: int = 20
    n_val: int = 5
    n_test: int = 5
    n_steps: int = 600
    modalities: tuple = ("audio", "video", "text")
    widths: dict = field(default_factory=lambda: {"audio": 8, "video": 8, "text": 6})
    snr: dict = field(default_factory=lambda: {"audio": 25.0, "video": 1.0, "text": 1e-4})
    n_components: int = 4
    n_distractors: int = 2
    freq_lo: float = 0.004
    freq_hi: float = 0.04

    def __post_init__(self):
        self.check_ints()
        self.modalities = tuple(self.modalities)
        if not self.modalities:
            raise ConfigError("synthetic benchmark needs at least one modality")
        for m in self.modalities:
            if m not in self.widths:
                raise ConfigError(f"no width for modality {m!r}")
            check_int(f"widths[{m!r}]", self.widths[m])
            if m not in self.snr:
                raise ConfigError(f"no snr for modality {m!r}")
            if self.snr[m] <= 0:
                raise ConfigError(f"snr for {m!r} must be > 0")
        for name in ("n_train", "n_val", "n_test", "n_steps", "n_components"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_distractors < 0:
            raise ConfigError("n_distractors must be >= 0")
        if not 0 < self.freq_lo < self.freq_hi:
            raise ConfigError("need 0 < freq_lo < freq_hi")


def _wave(rng: Rng, n_steps: int, n_components: int, freq_lo: float, freq_hi: float):
    """Normalized sum of random sinusoids in [-1, 1]."""
    t = np.arange(n_steps) * STEP_SECONDS
    z = np.zeros(n_steps)
    for _ in range(n_components):
        amp = rng.uniform(0.5, 1.0, ())
        freq = rng.uniform(freq_lo, freq_hi, ())
        phase = rng.uniform(0.0, 2.0 * math.pi, ())
        z += amp * np.sin(2.0 * math.pi * freq * t + phase)
    peak = np.max(np.abs(z))
    if peak > 0:
        z /= peak
    return z


def synth_generate(config: SynthConfig, seed: int) -> dict:
    """Generate {"train": [...], "val": [...], "test": [...]} samples.

    The latent-to-feature mixing weights are drawn once per modality and
    shared by every sample in every split, so the read-out a model must learn
    is stationary; latents, distractors, and noise are fresh per sample.
    """
    root_rng = Rng(seed)
    mixing = {}
    for m in config.modalities:
        mrng = root_rng.child(f"mixing/{m}")
        w = config.widths[m]
        c_signal = mrng.uniform(0.5, 1.5, (w,)) * np.where(
            mrng.random((w,)) < 0.5, -1.0, 1.0
        )
        c_clutter = mrng.uniform(-1.0, 1.0, (w, config.n_distractors))
        mixing[m] = (c_signal, c_clutter)

    def make_sample(split: str, index: int) -> MultimodalSample:
        srng = root_rng.child(f"sample/{split}/{index}")
        z = _wave(
            srng.child("latent"), config.n_steps, config.n_components,
            config.freq_lo, config.freq_hi,
        )
        feats = {}
        for m in config.modalities:
            c_signal, c_clutter = mixing[m]
            x = np.outer(z, c_signal)
            if config.n_distractors:
                d = np.stack(
                    [
                        _wave(
                            srng.child(f"distractor/{m}/{k}"), config.n_steps,
                            config.n_components, config.freq_lo, config.freq_hi,
                        )
                        for k in range(config.n_distractors)
                    ],
                    axis=1,
                )
                x = x + d @ c_clutter.T
            sigma = np.abs(c_signal) * z.std() / math.sqrt(config.snr[m])
            x = x + sigma * srng.child(f"noise/{m}").normal(
                0.0, 1.0, (config.n_steps, config.widths[m])
            )
            feats[m] = x
        timestamps = np.arange(config.n_steps) * STEP_SECONDS
        return MultimodalSample(f"{split}{index:03d}", timestamps, feats, z)

    counts = {"train": config.n_train, "val": config.n_val, "test": config.n_test}
    return {
        split: [make_sample(split, i) for i in range(n)] for split, n in counts.items()
    }


# ---------------------------------------------------------------------------
# CSV persistence


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def write_dataset(root, split: str, samples):
    """Write one split; a sample's None modality becomes a header-only file."""
    for sample in samples:
        d = os.path.join(root, split, sample.sample_id)
        os.makedirs(d, exist_ok=True)
        _write_csv(
            os.path.join(d, "labels.csv"),
            ["timestamp", "value"],
            np.column_stack([sample.timestamps, sample.labels]),
        )
        for m, x in sample.features.items():
            path = os.path.join(d, f"{m}.csv")
            if x is None:
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    fh.write("timestamp\n")
                continue
            header = ["timestamp"] + [f"f{j}" for j in range(x.shape[1])]
            _write_csv(path, header, np.column_stack([sample.timestamps, x]))


def _read_csv(path) -> tuple:
    """Read a numeric UTF-8 CSV; returns (header, data array) or (header, None)
    if the file holds no data rows.  NaN and infinite values are rejected.

    The rows convert in one ``np.array`` call, which parses each field by
    Python's ``float`` rules; only a file that fails there is walked row by
    row, to name the line of its first bad row."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        text = blob.decode("utf-8")
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, [])
        rows = [row for row in reader if row]
        if not rows:
            return header, None
        table = np.array(rows, dtype=np.float64)
        if table.shape[1] == len(header) and np.isfinite(table).all():
            return header, table
    except OSError as exc:
        raise DataLoadError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DataLoadError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
    except (csv.Error, ValueError):  # named by the walk below
        pass
    _raise_first_bad_row(path, text)


def _raise_first_bad_row(path, text: str):
    """Walk a CSV text that failed batch conversion row by row; raise a
    ``DataLoadError`` naming the file and line of its first bad row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != len(header):
                raise DataLoadError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataLoadError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise DataLoadError(f"{path}:{lineno}: non-finite value in {row}")
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataLoadError(f"{path}:{reader.line_num}: {exc}") from None
    raise ContractError(f"{path}: batch conversion failed on rows that each parse")


def _check_timestamps(path, ts: np.ndarray):
    if ts.shape[0] >= 2:
        gaps = np.diff(ts)
        bad = np.nonzero(np.abs(gaps - STEP_SECONDS) > _SPACING_TOL)[0]
        if bad.size:
            row = int(bad[0]) + 3  # +1 header, +1 gap index, +1 one-based
            raise DataLoadError(
                f"{path}:{row}: timestamp spacing {float(gaps[bad[0]])!r}, "
                f"expected {STEP_SECONDS}"
            )


def load_sample(sample_dir, modalities) -> MultimodalSample:
    labels_path = os.path.join(sample_dir, "labels.csv")
    header, table = _read_csv(labels_path)
    if table is None:
        raise DataLoadError(f"{labels_path}: no label rows")
    if header[:2] != ["timestamp", "value"]:
        raise DataLoadError(f"{labels_path}:1: header must be 'timestamp,value'")
    timestamps, labels = table[:, 0], table[:, 1]
    _check_timestamps(labels_path, timestamps)
    feats = {}
    for m in modalities:
        path = os.path.join(sample_dir, f"{m}.csv")
        if not os.path.exists(path):
            feats[m] = None
            continue
        mh, mt = _read_csv(path)
        if mt is None:
            feats[m] = None
            continue
        if not mh or mh[0] != "timestamp":
            raise DataLoadError(f"{path}:1: first column must be 'timestamp'")
        if mt.shape[0] != timestamps.shape[0]:
            raise DataLoadError(
                f"{path}: {mt.shape[0]} rows, labels have {timestamps.shape[0]}"
            )
        _check_timestamps(path, mt[:, 0])
        if np.max(np.abs(mt[:, 0] - timestamps)) > _SPACING_TOL:
            raise DataLoadError(f"{path}: timestamps disagree with labels.csv")
        feats[m] = mt[:, 1:]
    return MultimodalSample(os.path.basename(sample_dir), timestamps, feats, labels)


def load_dataset(root, split: str, modalities) -> list:
    """Load every sample of a split, sorted by sample id."""
    split_dir = os.path.join(root, split)
    if not os.path.isdir(split_dir):
        raise DataLoadError(f"{split_dir}: split directory not found")
    names = sorted(
        n for n in os.listdir(split_dir) if os.path.isdir(os.path.join(split_dir, n))
    )
    if not names:
        raise DataLoadError(f"{split_dir}: no sample directories")
    return [load_sample(os.path.join(split_dir, n), modalities) for n in names]


# ---------------------------------------------------------------------------
# Normalization and segmentation


def compute_norm_stats(samples, modalities) -> dict:
    """Per-modality feature mean/std over all present streams (flat keys
    "<modality>.mean" / "<modality>.std"); values too large for them raise
    ``NumericError``."""
    stats = {}
    for m in modalities:
        present = [s for s in samples if s.features.get(m) is not None]
        if not present:
            raise InsufficientDataError(f"no sample provides modality {m!r}")
        x = np.concatenate([s.features[m] for s in present], axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = x.mean(axis=0), x.std(axis=0)
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            top, sid = max((np.abs(s.features[m]).max(), s.sample_id) for s in present)
            raise NumericError(f"sample {sid}: modality {m!r} features up to {float(top)!r} "
                               "are too large to normalise")
        stats[f"{m}.mean"] = mean
        stats[f"{m}.std"] = np.maximum(std, 1e-8)
    return stats


def normalize_features(features: dict, stats: dict) -> dict:
    out = {}
    for m, x in features.items():
        if x is None:
            out[m] = None
        else:
            out[m] = (x - stats[f"{m}.mean"]) / stats[f"{m}.std"]
    return out


def segment_samples(samples, length: int, hop: int) -> list:
    """Cut each sample into overlapping windows of ``min(length, n_steps)``
    steps every ``hop`` steps, so a sample no longer than ``length`` is one
    full-sample segment.  Each window is a ``MultimodalSample`` whose arrays
    are views of its source's, so it must never be modified in place."""
    if length < 1 or hop < 1:
        raise ConfigError(f"segment length and hop must be >= 1, got {length}/{hop}")
    segments = []
    for s in samples:
        seg_len = min(length, s.n_steps)
        for start in range(0, s.n_steps - seg_len + 1, hop):
            sl = slice(start, start + seg_len)
            segments.append(
                MultimodalSample(
                    s.sample_id,
                    s.timestamps[sl],
                    {
                        m: (None if x is None else x[sl])
                        for m, x in s.features.items()
                    },
                    s.labels[sl],
                )
            )
    return segments


def collate(segments, modalities) -> tuple:
    """Stack same-length samples into fresh arrays (features [B, T, w] per
    modality, labels [B, T]).  Modality availability must be uniform."""
    if not segments:
        raise ContractError("cannot collate an empty batch")
    if any(seg.n_steps != segments[0].n_steps for seg in segments):
        raise ContractError("segment lengths disagree within a batch")
    features = {}
    for m in modalities:
        present = [seg.features.get(m) is not None for seg in segments]
        if any(present) != all(present):
            raise ContractError(
                f"modality {m!r} present for only part of the batch"
            )
        if all(present):
            features[m] = np.stack([seg.features[m] for seg in segments])
        else:
            features[m] = None
    labels = np.stack([seg.labels for seg in segments])
    return features, labels


# ---------------------------------------------------------------------------
# Modality elimination


@dataclass
class EliminationPolicy:
    """Per-modality removal probabilities for robustness training.

    At most one modality is removed per draw: with probability ``probs[m]``
    the draw removes m, and with probability 1 - sum(probs) it removes
    nothing.
    """

    probs: dict

    def __post_init__(self):
        total = 0.0
        for m, p in self.probs.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"elimination probability for {m!r} is {p}")
            total += p
        if total > 1.0 + 1e-12:
            raise ConfigError(
                f"elimination probabilities sum to {total}, must be <= 1"
            )

    def sample(self, rng: Rng):
        """Return the modality to remove for this draw, or None."""
        u = float(rng.random(()))
        cum = 0.0
        for m, p in self.probs.items():
            cum += p
            if u < cum:
                return m
        return None
