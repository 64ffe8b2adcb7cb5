"""Full model: multimodal encoder, autoregressive decoder, checkpointing.

The encoder turns each available modality's feature stream into tokens
(causal conv front + shared positional encoding + per-modality encoding),
interleaves them into one time-major sequence (token ``t * M + m`` is
modality m at step t), and runs transformer encoder layers whose
self-attention is confined to a temporal band, so every token can mix with
any modality but only within ``mask_length`` steps.  The band is computed
blockwise (``tensor.local_attention``), so encoder time and memory grow
linearly with sequence length.

The decoder is autoregressive over its own output features: the input token
for step t is the previous step's top-layer feature (a learned start vector
at t=0) plus a decoder positional encoding.  Each decoder layer applies
self-attention over the decoded past, cross-attention over the *current*
step's per-modality encoder outputs, and a feed-forward block; a small
regression head maps the top-layer feature to the predicted value.  Decoding
is free-running: gradients flow through the whole unrolled sequence.

``decode`` is one ``tensor.decoder`` node and the head: the node checks the
encodings, projects each layer's cross-attention keys and values once,
keeps the self-attention keys and values in per-layer buffers and
differentiates the whole step loop by hand, walking time in reverse.  Rows
of a batch are decoded independently, so encodings of different modality
patterns with the same modality count can share one decode loop; importance
is therefore reported per row.

``encode``, ``decode`` and ``forward`` draw dropout exactly when they are
passed an ``Rng``: training passes one, evaluation does not.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DataLoadError,
    NoModalityError,
    ShapeError,
)
from .dictconfig import DictConfig, check_int
from .layers import (
    CausalConvStack,
    DecoderLayer,
    EncoderLayer,
    EncodingTable,
    Module,
    RegressionHead,
)
from .tensor import Rng, Tensor


@dataclass
class ModelConfig(DictConfig):
    """Architecture hyperparameters; defaults follow the reference setup."""

    modalities: tuple = ("audio", "video", "text")
    modality_widths: dict = field(default_factory=lambda: {"audio": 40, "video": 30, "text": 20})
    d_model: int = 64
    enc_heads: int = 2
    enc_layers: int = 2
    dec_heads: int = 1
    dec_layers: int = 1
    conv_layers: int = 6
    conv_kernel: int = 9
    d_ffn: int = 256
    head_hidden: int = 32
    mask_length: int = 100
    dropout: float = 0.2
    max_steps: int = 2048

    def __post_init__(self):
        self.check_ints()
        self.modalities = tuple(self.modalities)
        if not self.modalities:
            raise ConfigError("model needs at least one modality")
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigError(f"duplicate modality names in {self.modalities}")
        for m in self.modalities:
            if m not in self.modality_widths:
                raise ConfigError(f"no feature width configured for modality {m!r}")
            if check_int(f"modality_widths[{m!r}]", self.modality_widths[m]) < 1:
                raise ConfigError(f"modality {m!r} has non-positive width")
        for name in ("d_model", "enc_heads", "enc_layers", "dec_heads", "dec_layers",
                     "conv_layers", "conv_kernel", "d_ffn", "head_hidden", "max_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mask_length < 0:
            raise ConfigError(f"mask_length must be >= 0, got {self.mask_length}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.enc_heads or self.d_model % self.dec_heads:
            raise ConfigError("d_model must be divisible by both head counts")


class EmotionRegressor(Module):
    """Encoder-decoder regressor over multimodal feature streams.  Its
    attribute paths are its checkpoint keys (``layers.Module``)."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        c = config
        self.conv = {
            m: CausalConvStack(
                c.modality_widths[m], c.d_model, c.conv_layers, c.conv_kernel,
                rng.child(f"conv/{m}"), c.dropout,
            )
            for m in c.modalities
        }
        self.enc_positions = EncodingTable(c.max_steps, c.d_model, rng.child("enc_pos"))
        self.modality_codes = EncodingTable(
            len(c.modalities), c.d_model, rng.child("modality_codes")
        )
        self.encoder = [
            EncoderLayer(c.d_model, c.enc_heads, c.d_ffn, rng.child(f"enc/{i}"), c.dropout)
            for i in range(c.enc_layers)
        ]
        self.dec_positions = EncodingTable(c.max_steps, c.d_model, rng.child("dec_pos"))
        self.start_vector = Tensor(
            rng.child("start").normal(0.0, 0.02, (c.d_model,)), requires_grad=True
        )
        self.decoder = [
            DecoderLayer(c.d_model, c.d_ffn, rng.child(f"dec/{i}"))
            for i in range(c.dec_layers)
        ]
        self.head = RegressionHead(c.d_model, c.head_hidden, rng.child("head"))

    # ------------------------------------------------------------------
    # Encoder

    def encode(self, features: dict, rng: Rng | None = None) -> tuple:
        """Encode available modalities into [batch, steps, n_present, width].

        ``features`` maps modality name -> array [batch, steps, feat] (absent
        or None entries are treated as missing).  Returns the grouped encoder
        output and the list of modality names actually used, in config order.
        Every stream is checked before any is embedded: a wrong rank or width,
        an empty batch, zero steps or streams that disagree on either raise
        ``ShapeError``, then a sequence longer than ``max_steps`` raises
        ``CapacityError``.  The modalities share one positional slice.
        """
        c = self.config
        present = [m for m in c.modalities if features.get(m) is not None]
        if not present:
            raise NoModalityError("no modality streams available")
        streams = []
        for m in present:
            x = np.asarray(features[m], dtype=np.float64)
            if x.ndim != 3:
                raise ShapeError(f"modality {m!r} must be [batch, steps, feat], got {x.shape}")
            if x.shape[-1] != c.modality_widths[m]:
                raise ShapeError(
                    f"modality {m!r} has width {x.shape[-1]}, expected "
                    f"{c.modality_widths[m]}"
                )
            if 0 in x.shape:
                raise ShapeError(f"modality {m!r} has an empty batch or no steps: {x.shape}")
            if streams and x.shape[1] != streams[0].shape[1]:
                raise ShapeError("modalities disagree on sequence length")
            if streams and x.shape[0] != streams[0].shape[0]:
                raise ShapeError("modalities disagree on batch size")
            streams.append(x)
        batch, n_steps = streams[0].shape[:2]
        if n_steps > c.max_steps:
            raise CapacityError(f"sequence of {n_steps} steps exceeds max_steps={c.max_steps}")
        positions = self.enc_positions.rows(0, n_steps)
        tokens = [
            self.conv[m](Tensor(x), rng) + positions
            + self.modality_codes.rows(c.modalities.index(m), 1)
            for m, x in zip(present, streams)
        ]
        # Time-major token sequence [batch, steps * n_present, width]: joined
        # on the last axis, the M tokens of step t sit at [t*M, (t+1)*M), so
        # the band is contiguous.
        n_mod = len(present)
        h = tz.reshape(tz.concat(tokens, axis=2), (batch, n_steps * n_mod, c.d_model))
        for layer in self.encoder:
            h = layer(h, (n_mod, c.mask_length), rng)
        return tz.reshape(h, (batch, n_steps, n_mod, c.d_model)), present

    # ------------------------------------------------------------------
    # Decoder

    def decode(self, encoded: Tensor, rng: Rng | None = None) -> tuple:
        """Free-running decode of [batch, steps, n_mod, d_model] encodings.

        Returns (predictions [batch, steps], importance [batch, n_mod]).  A
        row's importance is the mean cross-attention weight each modality
        receives, averaged over steps, heads, and decoder layers.
        """
        c = self.config
        feats, importance = tz.decoder(
            self.start_vector, self.dec_positions.table, encoded,
            [layer.weights() for layer in self.decoder], c.dec_heads, c.dropout, rng,
        )
        return tz.reshape(self.head(feats), encoded.data.shape[:2]), importance

    # ------------------------------------------------------------------

    def forward(self, features: dict, rng: Rng | None = None) -> tuple:
        """Full pass: returns (predictions [batch, steps], present modalities,
        importance [batch, n_present])."""
        encoded, present = self.encode(features, rng)
        preds, importance = self.decode(encoded, rng)
        return preds, present, importance


# ---------------------------------------------------------------------------
# Checkpoints

_CONFIG_MEMBER = "config_json"


def _write_deterministic_npz(path, arrays: dict):
    """Write an npz whose bytes depend only on content, not wall-clock.

    Plain ``np.savez`` stamps each zip member with the current time, which
    breaks bit-identical reruns.  This writer pins the timestamp and
    permissions and stores members uncompressed in sorted order; the result
    is still readable with ``np.load``.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.save(buf, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o600 << 16
            zf.writestr(info, buf.getvalue())


def save_checkpoint(path, config: dict, params: dict, norm_stats: dict):
    """Serialize config + parameters + normalization stats to one file."""
    arrays = {_CONFIG_MEMBER: np.array(json.dumps(config, sort_keys=True))}
    for name, p in params.items():
        arrays[f"param/{name}"] = p.data if isinstance(p, Tensor) else p
    for name, arr in norm_stats.items():
        arrays[f"norm/{name}"] = arr
    _write_deterministic_npz(path, arrays)


def load_checkpoint(path) -> tuple:
    """Read back (config dict, param arrays by name, norm stats by name).

    A missing, truncated or malformed file raises ``DataLoadError``.
    """
    try:
        with np.load(path) as data:
            config = json.loads(str(data[_CONFIG_MEMBER][()]))
            params = {}
            norm_stats = {}
            for key in data.files:
                if key.startswith("param/"):
                    params[key[len("param/"):]] = data[key]
                elif key.startswith("norm/"):
                    norm_stats[key[len("norm/"):]] = data[key]
    # RuntimeError: zipfile's answer to a corrupt method or encryption flag.
    except (OSError, ValueError, KeyError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
        raise DataLoadError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(config, dict):
        raise DataLoadError(f"cannot read checkpoint {path}: config is not a JSON object")
    return config, params, norm_stats


def is_finite_real(arr: np.ndarray) -> bool:
    """True when ``arr`` holds integers or floats, all of them finite."""
    return arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())


def load_model_state(model: EmotionRegressor, params: dict):
    """Copy named arrays into the model, demanding an exact name/shape match
    and finite real values."""
    own = model.parameters()
    missing = set(own) - set(params)
    extra = set(params) - set(own)
    if missing or extra:
        raise ContractError(
            f"checkpoint mismatch: missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]}"
        )
    for name, tensor in own.items():
        arr = np.asarray(params[name])
        if not is_finite_real(arr):
            raise ContractError(f"checkpoint parameter {name} is not all finite numbers "
                                f"(dtype {arr.dtype})")
        if arr.shape != tensor.data.shape:
            raise ContractError(
                f"checkpoint shape mismatch for {name}: "
                f"{arr.shape} vs {tensor.data.shape}"
            )
        tensor.data = arr.astype(np.float64)
