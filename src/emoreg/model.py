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

``decode`` uses per-layer key/value caches; ``decode_uncached`` recomputes
every step from raw history and exists as an independent cross-check.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field, fields

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
from .layers import (
    CausalConvStack,
    DecoderLayer,
    EncoderLayer,
    EncodingTable,
    RegressionHead,
)
from .tensor import Rng, SequenceCache, Tensor


@dataclass
class ModelConfig:
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
        self.modalities = tuple(self.modalities)
        if not self.modalities:
            raise ConfigError("model needs at least one modality")
        if len(set(self.modalities)) != len(self.modalities):
            raise ConfigError(f"duplicate modality names in {self.modalities}")
        for m in self.modalities:
            if m not in self.modality_widths:
                raise ConfigError(f"no feature width configured for modality {m!r}")
            if int(self.modality_widths[m]) < 1:
                raise ConfigError(f"modality {m!r} has non-positive width")
        for name in ("d_model", "enc_heads", "enc_layers", "dec_heads", "dec_layers",
                     "conv_layers", "conv_kernel", "d_ffn", "head_hidden", "max_steps"):
            if int(getattr(self, name)) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mask_length < 0:
            raise ConfigError(f"mask_length must be >= 0, got {self.mask_length}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.enc_heads or self.d_model % self.dec_heads:
            raise ConfigError("d_model must be divisible by both head counts")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


class EmotionRegressor:
    """Encoder-decoder regressor over multimodal feature streams."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        c = config
        self.conv_fronts = {
            m: CausalConvStack(
                c.modality_widths[m], c.d_model, c.conv_layers, c.conv_kernel,
                rng.child(f"conv/{m}"),
            )
            for m in c.modalities
        }
        self.enc_positions = EncodingTable(c.max_steps, c.d_model, rng.child("enc_pos"))
        self.modality_codes = EncodingTable(
            len(c.modalities), c.d_model, rng.child("modality_codes")
        )
        self.encoder = [
            EncoderLayer(c.d_model, c.enc_heads, c.d_ffn, rng.child(f"enc/{i}"))
            for i in range(c.enc_layers)
        ]
        self.dec_positions = EncodingTable(c.max_steps, c.d_model, rng.child("dec_pos"))
        self.start_vector = Tensor(
            rng.child("start").normal(0.0, 0.02, (c.d_model,)), requires_grad=True
        )
        self.decoder = [
            DecoderLayer(c.d_model, c.dec_heads, c.d_ffn, rng.child(f"dec/{i}"))
            for i in range(c.dec_layers)
        ]
        self.head = RegressionHead(c.d_model, c.head_hidden, rng.child("head"))
        for block in self._dropout_blocks():
            block.dropout_rate = c.dropout

    def _dropout_blocks(self):
        for stack in self.conv_fronts.values():
            yield stack
        for layer in self.encoder:
            yield layer
            yield layer.attn
            yield layer.ffn
        for layer in self.decoder:
            yield layer
            yield layer.self_attn
            yield layer.cross_attn
            yield layer.ffn

    def parameters(self) -> dict:
        out = {}
        for m, stack in self.conv_fronts.items():
            out.update(stack.parameters(f"conv.{m}"))
        out.update(self.enc_positions.parameters("enc_positions"))
        out.update(self.modality_codes.parameters("modality_codes"))
        for i, layer in enumerate(self.encoder):
            out.update(layer.parameters(f"encoder.{i}"))
        out.update(self.dec_positions.parameters("dec_positions"))
        out["start_vector"] = self.start_vector
        for i, layer in enumerate(self.decoder):
            out.update(layer.parameters(f"decoder.{i}"))
        out.update(self.head.parameters("head"))
        return out

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters().values())

    # ------------------------------------------------------------------
    # Encoder

    def available_modalities(self, features: dict) -> list:
        present = [m for m in self.config.modalities if features.get(m) is not None]
        if not present:
            raise NoModalityError("no modality streams available")
        return present

    def encode(self, features: dict, training: bool = False, rng: Rng | None = None) -> tuple:
        """Encode available modalities into [batch, steps, n_present, width].

        ``features`` maps modality name -> array [batch, steps, feat] (absent
        or None entries are treated as missing).  Returns the grouped encoder
        output and the list of modality names actually used, in config order.
        A sequence longer than ``max_steps`` raises ``CapacityError``.
        """
        c = self.config
        present = self.available_modalities(features)
        n_steps = None
        tokens = []
        for m in present:
            x = np.asarray(features[m], dtype=np.float64)
            if x.ndim != 3:
                raise ShapeError(
                    f"modality {m!r} must be [batch, steps, feat], got {x.shape}"
                )
            if x.shape[-1] != c.modality_widths[m]:
                raise ShapeError(
                    f"modality {m!r} has width {x.shape[-1]}, expected "
                    f"{c.modality_widths[m]}"
                )
            if n_steps is None:
                n_steps = x.shape[1]
                if n_steps > c.max_steps:
                    raise CapacityError(
                        f"sequence of {n_steps} steps exceeds max_steps={c.max_steps}"
                    )
            elif x.shape[1] != n_steps:
                raise ShapeError("modalities disagree on sequence length")
            front = self.conv_fronts[m](Tensor(x), training, rng)
            mi = c.modalities.index(m)
            token = front + self.enc_positions.rows(0, n_steps) + self.modality_codes.rows(mi, 1)
            tokens.append(tz.reshape(token, token.data.shape[:2] + (1, c.d_model)))
        # Time-major token sequence [batch, steps * n_present, width]: the M
        # tokens of step t sit at [t*M, (t+1)*M), so the band is contiguous.
        n_mod = len(present)
        h = tz.concat(tokens, axis=2)
        b = h.data.shape[0]
        h = tz.reshape(h, (b, n_steps * n_mod, c.d_model))
        for layer in self.encoder:
            h = layer(h, (n_mod, c.mask_length), training, rng)
        return tz.reshape(h, (b, n_steps, n_mod, c.d_model)), present

    # ------------------------------------------------------------------
    # Decoder

    def _cross_kv(self, encoded: Tensor, layer: DecoderLayer) -> tuple:
        """Project cross-attention K/V for all steps in one pass.

        ``encoded`` is [batch, steps, n_mod, width]; the flattened sequence is
        step-major, so the M tokens of step t sit at slice [t*M, (t+1)*M).
        """
        b, n_steps, n_mod, d = encoded.data.shape
        flat = tz.reshape(encoded, (b, n_steps * n_mod, d))
        return layer.cross_attn.project_kv(flat)

    def decode(
        self,
        encoded: Tensor,
        training: bool = False,
        rng: Rng | None = None,
        collect_importance: bool = False,
    ) -> tuple:
        """Free-running cached decode.

        Returns (predictions [batch, steps], importance [n_mod] or None).
        Importance is the mean cross-attention weight each modality receives,
        averaged over steps, batch, heads, and decoder layers.
        """
        c = self.config
        b, n_steps, n_mod, d = encoded.data.shape
        n_heads, d_head = c.dec_heads, d // c.dec_heads
        cross = [self._cross_kv(encoded, layer) for layer in self.decoder]
        caches = [
            (
                SequenceCache((b, n_heads), n_steps, d_head),
                SequenceCache((b, n_heads), n_steps, d_head),
            )
            for _ in self.decoder
        ]
        x = Tensor(np.zeros((b, 1, d))) + self.start_vector + self.dec_positions.rows(0, 1)
        outputs = []
        importance = np.zeros(n_mod) if collect_importance else None
        for t in range(n_steps):
            h = x
            for li, layer in enumerate(self.decoder):
                k_row, v_row = layer.self_attn.project_kv(h)
                kc, vc = caches[li]
                kc.append(k_row)
                vc.append(v_row)
                a = layer.self_attn.attend(h, kc.read(), vc.read(), None, training, rng)
                h1 = layer.norm1(h + tz.dropout(a, layer.dropout_rate, rng, training))
                k_all, v_all = cross[li]
                sl = (slice(None), slice(None), slice(t * n_mod, (t + 1) * n_mod))
                k_t, v_t = k_all[sl], v_all[sl]
                if collect_importance:
                    cr, probs = layer.cross_attn.attend(
                        h1, k_t, v_t, None, training, rng, return_probs=True
                    )
                    importance += probs.data.mean(axis=(0, 1, 2))
                else:
                    cr = layer.cross_attn.attend(h1, k_t, v_t, None, training, rng)
                h2 = layer.norm2(h1 + tz.dropout(cr, layer.dropout_rate, rng, training))
                f = layer.ffn(h2, training, rng)
                h = layer.norm3(h2 + tz.dropout(f, layer.dropout_rate, rng, training))
            outputs.append(h)
            if t + 1 < n_steps:
                x = h + self.dec_positions.rows(t + 1, 1)
        feats = tz.concat(outputs, axis=-2)
        preds = tz.reshape(self.head(feats), (b, n_steps))
        if collect_importance:
            importance /= n_steps * len(self.decoder)
        return preds, importance

    def decode_uncached(self, encoded: Tensor) -> Tensor:
        """Reference decode that rebuilds every step from raw history.

        No key/value caches: at each step the full input prefix is re-run
        through every decoder layer (causal self-attention, per-position
        cross-attention).  Exists to cross-check the incremental path;
        evaluation mode only.
        """
        c = self.config
        b, n_steps, n_mod, d = encoded.data.shape
        n_heads, d_head = c.dec_heads, d // c.dec_heads
        cross = [self._cross_kv(encoded, layer) for layer in self.decoder]
        # Regrouped cross K/V [batch, steps, heads, n_mod, d_head].
        cross_grouped = []
        for k_all, v_all in cross:
            def regroup(z):
                z = tz.transpose(z, (0, 2, 1, 3))  # [b, steps*n_mod, heads, dh]
                z = tz.reshape(z, (b, n_steps, n_mod, n_heads, d_head))
                return tz.transpose(z, (0, 1, 3, 2, 4))
            cross_grouped.append((regroup(k_all), regroup(v_all)))
        start = Tensor(np.zeros((b, 1, d))) + self.start_vector + self.dec_positions.rows(0, 1)
        inputs = [start]
        outputs = []
        for t in range(n_steps):
            h = tz.concat(inputs, axis=-2) if len(inputs) > 1 else inputs[0]
            s = t + 1
            causal = np.where(
                np.arange(s)[:, None] >= np.arange(s)[None, :], 0.0, -np.inf
            )
            for li, layer in enumerate(self.decoder):
                a = layer.self_attn(h, h, causal)
                h1 = layer.norm1(h + a)
                cr = self._positionwise_cross(layer, h1, cross_grouped[li], s)
                h2 = layer.norm2(h1 + cr)
                h = layer.norm3(h2 + layer.ffn(h2))
            last = h[:, t : t + 1]
            outputs.append(last)
            if t + 1 < n_steps:
                inputs.append(last + self.dec_positions.rows(t + 1, 1))
        feats = tz.concat(outputs, axis=-2)
        return tz.reshape(self.head(feats), (b, n_steps))

    def _positionwise_cross(self, layer, h1: Tensor, kv_grouped: tuple, s: int) -> Tensor:
        """Cross-attention where query position j sees only step j's modality
        tokens, batched over positions."""
        attn = layer.cross_attn
        b = h1.data.shape[0]
        nh, dh = attn.n_heads, attn.d_head
        q = attn.wq(h1)  # [b, s, d]
        q5 = tz.reshape(q, (b, s, nh, 1, dh))
        k5, v5 = kv_grouped
        sl = (slice(None), slice(0, s))
        k5s, v5s = k5[sl], v5[sl]  # [b, s, nh, n_mod, dh]
        scores = tz.scaled_dot_scores(q5, k5s, 1.0 / np.sqrt(dh))
        probs = tz.softmax(scores, axis=-1)
        mixed = tz.matmul(probs, v5s)  # [b, s, nh, 1, dh]
        merged = tz.reshape(mixed, (b, s, nh * dh))
        return attn.wo(merged)

    # ------------------------------------------------------------------

    def forward(
        self,
        features: dict,
        training: bool = False,
        rng: Rng | None = None,
        collect_importance: bool = False,
    ) -> tuple:
        """Full pass: returns (predictions [batch, steps], present modalities,
        importance per present modality or None)."""
        encoded, present = self.encode(features, training, rng)
        preds, importance = self.decode(encoded, training, rng, collect_importance)
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
    """Read back (config dict, param arrays by name, norm stats by name)."""
    try:
        handle = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataLoadError(f"cannot read checkpoint {path}: {exc}") from None
    with handle as data:
        config = json.loads(str(data[_CONFIG_MEMBER][()]))
        params = {}
        norm_stats = {}
        for key in data.files:
            if key.startswith("param/"):
                params[key[len("param/"):]] = data[key]
            elif key.startswith("norm/"):
                norm_stats[key[len("norm/"):]] = data[key]
    return config, params, norm_stats


def load_model_state(model: EmotionRegressor, params: dict):
    """Copy named arrays into the model, demanding an exact name/shape match."""
    own = model.parameters()
    missing = set(own) - set(params)
    extra = set(params) - set(own)
    if missing or extra:
        raise ContractError(
            f"checkpoint mismatch: missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]}"
        )
    for name, tensor in own.items():
        arr = np.asarray(params[name], dtype=np.float64)
        if arr.shape != tensor.data.shape:
            raise ContractError(
                f"checkpoint shape mismatch for {name}: "
                f"{arr.shape} vs {tensor.data.shape}"
            )
        tensor.data = arr.copy()
