"""Neural building blocks: attention, convolution stacks, transformer layers.

All layer forwards take and return batched token-major 3-D tensors
[batch, steps, width]; attention heads are split only inside the fused
``tensor.attention`` / ``tensor.local_attention`` nodes, and every residual
exit is one ``tensor.add_norm`` node.  Modules
expose their parameters through ``parameters(prefix)``, which yields a flat
name -> Tensor mapping used by the optimizer, checkpointing, and gradient
checking.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Rng, Tensor


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: Rng) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


class Linear:
    """Affine map on the last axis, Glorot-uniform weights and zero bias."""

    def __init__(self, d_in: int, d_out: int, rng: Rng):
        self.w = glorot_uniform((d_in, d_out), d_in, d_out, rng)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tz.linear(x, self.w, self.b)

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}


class AddNorm:
    """Residual exit of a sublayer: layer_norm(x + dropout(y)), one tape node."""

    def __init__(self, width: int, dropout: float = 0.0):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)
        self.dropout_rate = dropout

    def __call__(self, x: Tensor, y: Tensor, training: bool = False,
                 rng: Rng | None = None) -> Tensor:
        return tz.add_norm(x, y, self.gain, self.bias, self.dropout_rate, rng, training)

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}


class CausalConvStack:
    """Stack of dilated causal convolutions with residual connections.

    Layer i uses dilation 2**i, so n layers with kernel size k give a
    receptive field of 1 + (k-1)(2**n - 1) past steps.  Each layer applies
    conv -> ReLU -> dropout, then adds the layer input back (through a 1x1
    projection when the widths differ, i.e. at the first layer).
    """

    def __init__(self, d_in: int, d_model: int, n_layers: int, kernel_size: int, rng: Rng,
                 dropout: float = 0.0):
        if n_layers < 1:
            raise ConfigError("conv stack needs at least one layer")
        if kernel_size < 1:
            raise ConfigError(f"kernel size must be >= 1, got {kernel_size}")
        self.kernels = []
        self.biases = []
        self.dilations = []
        width = d_in
        for i in range(n_layers):
            fan_in, fan_out = kernel_size * width, kernel_size * d_model
            self.kernels.append(
                glorot_uniform((kernel_size, width, d_model), fan_in, fan_out, rng)
            )
            self.biases.append(Tensor(np.zeros(d_model), requires_grad=True))
            self.dilations.append(2**i)
            width = d_model
        self.res_proj = Linear(d_in, d_model, rng) if d_in != d_model else None
        self.dropout_rate = dropout

    @property
    def receptive_field(self) -> int:
        k = self.kernels[0].data.shape[0]
        return 1 + (k - 1) * (2 ** len(self.kernels) - 1)

    def __call__(self, x: Tensor, training: bool = False, rng: Rng | None = None) -> Tensor:
        h = x
        for i, (kernel, bias, dilation) in enumerate(
            zip(self.kernels, self.biases, self.dilations)
        ):
            y = tz.relu(tz.dilated_causal_conv1d(h, kernel, bias, dilation))
            y = tz.dropout(y, self.dropout_rate, rng, training)
            if i == 0 and self.res_proj is not None:
                h = self.res_proj(h) + y
            else:
                h = h + y
        return h

    def parameters(self, prefix: str) -> dict:
        out = {}
        for i, (kernel, bias) in enumerate(zip(self.kernels, self.biases)):
            out[f"{prefix}.conv{i}.kernel"] = kernel
            out[f"{prefix}.conv{i}.bias"] = bias
        if self.res_proj is not None:
            out.update(self.res_proj.parameters(f"{prefix}.res_proj"))
        return out


class EncodingTable:
    """Learned additive encodings (positional or modality), one row per index."""

    def __init__(self, n_rows: int, width: int, rng: Rng, std: float = 0.02):
        self.table = Tensor(rng.normal(0.0, std, (n_rows, width)), requires_grad=True)

    def rows(self, start: int, count: int) -> Tensor:
        n = self.table.data.shape[0]
        if start < 0 or start + count > n:
            raise ShapeError(
                f"encoding rows [{start}, {start + count}) outside table of {n}"
            )
        return self.table[start : start + count]

    def parameters(self, prefix: str) -> dict:
        return {f"{prefix}.table": self.table}


class MultiHeadAttention:
    """Scaled dot-product attention with per-head projections.

    Tensors stay token-major [batch, tokens, width]; ``tz.attention`` and
    ``tz.local_attention`` split heads inside their one node.  Exposes a
    one-shot ``__call__`` for full-sequence attention and a split API
    (``project_kv`` / ``attend``) so incremental decoding can cache key and
    value projections instead of recomputing them each step.
    """

    def __init__(self, d_model: int, n_heads: int, rng: Rng, dropout: float = 0.0):
        if d_model % n_heads != 0:
            raise ConfigError(
                f"model width {d_model} not divisible by {n_heads} heads"
            )
        self.n_heads = n_heads
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self.dropout_rate = dropout

    def project_kv(self, x: Tensor) -> tuple:
        return self.wk(x), self.wv(x)

    def attend(
        self,
        q_src: Tensor,
        k: Tensor,
        v: Tensor,
        additive_mask=None,
        training: bool = False,
        rng: Rng | None = None,
        return_probs: bool = False,
        band: tuple | None = None,
    ):
        """Attend from ``q_src`` to projected keys and values.

        ``return_probs`` also returns the pre-dropout weights
        [batch, heads, queries, keys] as an array.  ``band = (n_mod,
        mask_length)`` marks a time-major self-attention sequence and routes
        to ``tz.local_attention``, which confines each token to steps within
        ``mask_length`` of its own; weights are then not returned, and
        ``additive_mask`` must be None.
        """
        q = self.wq(q_src)
        if band is not None:
            if additive_mask is not None or return_probs:
                raise ContractError("banded attention takes no additive mask or return_probs")
            n_mod, mask_length = band
            mixed = tz.local_attention(
                q, k, v, self.n_heads, n_mod, mask_length, self.dropout_rate, rng, training
            )
            return self.wo(mixed)
        mixed, probs = tz.attention(
            q, k, v, self.n_heads, self.dropout_rate, rng, training, additive_mask
        )
        return (self.wo(mixed), probs) if return_probs else self.wo(mixed)

    def __call__(
        self,
        q_src: Tensor,
        kv_src: Tensor,
        additive_mask=None,
        training: bool = False,
        rng: Rng | None = None,
        band: tuple | None = None,
    ) -> Tensor:
        k, v = self.project_kv(kv_src)
        return self.attend(q_src, k, v, additive_mask, training, rng, band=band)

    def parameters(self, prefix: str) -> dict:
        out = {}
        for name, lin in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            out.update(lin.parameters(f"{prefix}.{name}"))
        return out


class FeedForward:
    """Position-wise two-layer network: linear -> ReLU -> dropout -> linear."""

    def __init__(self, d_model: int, d_hidden: int, rng: Rng, dropout: float = 0.0):
        self.w1 = Linear(d_model, d_hidden, rng)
        self.w2 = Linear(d_hidden, d_model, rng)
        self.dropout_rate = dropout

    def __call__(self, x: Tensor, training: bool = False, rng: Rng | None = None) -> Tensor:
        h = tz.dropout(tz.relu(self.w1(x)), self.dropout_rate, rng, training)
        return self.w2(h)

    def parameters(self, prefix: str) -> dict:
        out = self.w1.parameters(f"{prefix}.w1")
        out.update(self.w2.parameters(f"{prefix}.w2"))
        return out


class EncoderLayer:
    """Post-norm transformer encoder layer: self-attention then feed-forward."""

    def __init__(self, d_model: int, n_heads: int, d_ffn: int, rng: Rng,
                 dropout: float = 0.0):
        self.attn = MultiHeadAttention(d_model, n_heads, rng, dropout)
        self.ffn = FeedForward(d_model, d_ffn, rng, dropout)
        self.norm1 = AddNorm(d_model, dropout)
        self.norm2 = AddNorm(d_model, dropout)

    def __call__(
        self, x: Tensor, band: tuple | None = None, training: bool = False,
        rng: Rng | None = None,
    ) -> Tensor:
        """``band = (n_mod, mask_length)`` confines self-attention over a
        time-major token sequence to a temporal band; None attends to all."""
        a = self.attn(x, x, None, training, rng, band=band)
        h = self.norm1(x, a, training, rng)
        return self.norm2(h, self.ffn(h, training, rng), training, rng)

    def parameters(self, prefix: str) -> dict:
        out = self.attn.parameters(f"{prefix}.attn")
        out.update(self.ffn.parameters(f"{prefix}.ffn"))
        out.update(self.norm1.parameters(f"{prefix}.norm1"))
        out.update(self.norm2.parameters(f"{prefix}.norm2"))
        return out


class DecoderLayer:
    """Post-norm decoder layer: causal self-attention over the decoded past,
    cross-attention over the current step's per-modality encoder outputs,
    then feed-forward.

    ``step`` runs one decode step; the caller owns the key/value caches: it
    appends this step's self-attention KV rows, passes the prefix back in, and
    passes the cross-attention KV already sliced to the current step.
    """

    def __init__(self, d_model: int, n_heads: int, d_ffn: int, rng: Rng,
                 dropout: float = 0.0):
        self.self_attn = MultiHeadAttention(d_model, n_heads, rng, dropout)
        self.cross_attn = MultiHeadAttention(d_model, n_heads, rng, dropout)
        self.ffn = FeedForward(d_model, d_ffn, rng, dropout)
        self.norm1 = AddNorm(d_model, dropout)
        self.norm2 = AddNorm(d_model, dropout)
        self.norm3 = AddNorm(d_model, dropout)

    def step(
        self,
        x_t: Tensor,
        k_hist: Tensor,
        v_hist: Tensor,
        k_cross: Tensor,
        v_cross: Tensor,
        training: bool = False,
        rng: Rng | None = None,
    ) -> tuple:
        """One decode step; history tensors already include the current step.

        Returns the layer output and the cross-attention weights, an array
        [batch, heads, 1, n_cross].
        """
        a = self.self_attn.attend(x_t, k_hist, v_hist, None, training, rng)
        h1 = self.norm1(x_t, a, training, rng)
        c, cross_probs = self.cross_attn.attend(
            h1, k_cross, v_cross, None, training, rng, return_probs=True
        )
        h2 = self.norm2(h1, c, training, rng)
        out = self.norm3(h2, self.ffn(h2, training, rng), training, rng)
        return out, cross_probs

    def parameters(self, prefix: str) -> dict:
        out = self.self_attn.parameters(f"{prefix}.self_attn")
        out.update(self.cross_attn.parameters(f"{prefix}.cross_attn"))
        out.update(self.ffn.parameters(f"{prefix}.ffn"))
        out.update(self.norm1.parameters(f"{prefix}.norm1"))
        out.update(self.norm2.parameters(f"{prefix}.norm2"))
        out.update(self.norm3.parameters(f"{prefix}.norm3"))
        return out


class RegressionHead:
    """Small per-step head mapping decoder features to one scalar."""

    def __init__(self, d_model: int, d_hidden: int, rng: Rng):
        self.w1 = Linear(d_model, d_hidden, rng)
        self.w2 = Linear(d_hidden, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.w2(tz.relu(self.w1(x)))

    def parameters(self, prefix: str) -> dict:
        out = self.w1.parameters(f"{prefix}.w1")
        out.update(self.w2.parameters(f"{prefix}.w2"))
        return out
