"""Neural building blocks: attention, convolution stacks, transformer layers.

All layer forwards take and return batched token-major 3-D tensors
[batch, steps, width] as fused nodes: encoder self-attention is one
``tensor.local_attention`` node (heads split inside), a conv layer is one
``tensor.causal_conv_block``, a feed-forward block or the head one
``tensor.feed_forward``, and a residual exit one ``tensor.add_norm``.  A
forward draws dropout exactly when it is passed an ``Rng`` (and its rate is
above 0); without one it is deterministic.  ``DecoderLayer`` has no forward
of its own: it holds the weights that the ``tensor.decoder`` node runs.
Every layer is a ``Module``: ``parameters(prefix)`` maps each parameter's
attribute path (attribute names, list indices and dict keys joined by dots,
as in ``decoder.0.self_attn.wq.w``) to its Tensor, for the optimizer,
checkpointing and gradient checking.  ``CausalConvStack`` alone names its
own, as ``conv{i}.kernel`` and ``conv{i}.bias``.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ShapeError
from .tensor import Rng, Tensor


class Module:
    """Base class that names parameters by attribute path."""

    def parameters(self, prefix: str = "") -> dict:
        """Every ``requires_grad`` Tensor reachable through ``vars(self)``,
        in assignment order, keyed by its dotted path under ``prefix``."""
        out = {}
        for name, value in vars(self).items():
            _collect(f"{prefix}.{name}" if prefix else name, value, out)
        return out


def _collect(path: str, value, out: dict):
    # Not a closure: a recursive closure is a reference cycle, which keeps
    # ``out`` and so a discarded model's weights alive until gc runs.
    if isinstance(value, Module):
        out.update(value.parameters(path))
    elif isinstance(value, Tensor) and value.requires_grad:
        out[path] = value
    elif isinstance(value, (list, dict)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            _collect(f"{path}.{key}", item, out)


def glorot_uniform(shape, fan_in: int, fan_out: int, rng: Rng) -> Tensor:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


class Linear(Module):
    """Affine map on the last axis, Glorot-uniform weights and zero bias."""

    def __init__(self, d_in: int, d_out: int, rng: Rng):
        self.w = glorot_uniform((d_in, d_out), d_in, d_out, rng)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return tz.linear(x, self.w, self.b)


class AddNorm(Module):
    """Residual exit of a sublayer: layer_norm(x + dropout(y)), one tape node."""

    def __init__(self, width: int, dropout: float = 0.0):
        self.gain = Tensor(np.ones(width), requires_grad=True)
        self.bias = Tensor(np.zeros(width), requires_grad=True)
        self.dropout_rate = dropout

    def __call__(self, x: Tensor, y: Tensor, rng: Rng | None = None) -> Tensor:
        return tz.add_norm(x, y, self.gain, self.bias, self.dropout_rate, rng)


class CausalConvStack(Module):
    """Stack of dilated causal convolutions with residual connections.

    Layer i uses dilation 2**i, so n layers with kernel size k give a
    receptive field of 1 + (k-1)(2**n - 1) past steps.  Each layer is one
    ``tz.causal_conv_block``: conv -> ReLU -> dropout plus the layer input
    (through a 1x1 projection when the widths differ, i.e. at the first).
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

    def __call__(self, x: Tensor, rng: Rng | None = None) -> Tensor:
        h, skip = x, (x if self.res_proj is None else self.res_proj(x))
        for kernel, bias, dilation in zip(self.kernels, self.biases, self.dilations):
            h = skip = tz.causal_conv_block(h, skip, kernel, bias, dilation, self.dropout_rate, rng)
        return h

    def parameters(self, prefix: str) -> dict:
        out = {}
        for i, (kernel, bias) in enumerate(zip(self.kernels, self.biases)):
            out[f"{prefix}.conv{i}.kernel"] = kernel
            out[f"{prefix}.conv{i}.bias"] = bias
        if self.res_proj is not None:
            out.update(self.res_proj.parameters(f"{prefix}.res_proj"))
        return out


class EncodingTable(Module):
    """Learned additive encodings (positional or modality), one row per index."""

    def __init__(self, n_rows: int, width: int, rng: Rng):
        self.table = Tensor(rng.normal(0.0, 0.02, (n_rows, width)), requires_grad=True)

    def rows(self, start: int, count: int) -> Tensor:
        n = self.table.data.shape[0]
        if start < 0 or start + count > n:
            raise ShapeError(
                f"encoding rows [{start}, {start + count}) outside table of {n}"
            )
        return self.table[start : start + count]


class MultiHeadAttention(Module):
    """Banded multi-head self-attention with per-head projections.

    Tensors stay token-major [batch, tokens, width]; ``tz.local_attention``
    splits heads inside its one node and confines each token of a time-major
    sequence to steps within ``mask_length`` of its own.  ``__call__``
    projects keys and values and attends; ``project_kv`` and ``attend`` are
    its two halves.
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

    def attend(self, q_src: Tensor, k: Tensor, v: Tensor, band: tuple,
               rng: Rng | None = None) -> Tensor:
        """Attend from ``q_src`` to projected keys and values of a time-major
        sequence of ``n_mod`` tokens per step, within ``band = (n_mod,
        mask_length)``."""
        n_mod, mask_length = band
        mixed = tz.local_attention(
            self.wq(q_src), k, v, self.n_heads, n_mod, mask_length, self.dropout_rate, rng
        )
        return self.wo(mixed)

    def __call__(self, x: Tensor, band: tuple, rng: Rng | None = None) -> Tensor:
        k, v = self.project_kv(x)
        return self.attend(x, k, v, band, rng)


class FeedForward(Module):
    """Position-wise linear -> ReLU -> dropout -> linear: one ``tz.feed_forward``."""

    def __init__(self, d_model: int, d_hidden: int, rng: Rng, dropout: float = 0.0):
        self.w1 = Linear(d_model, d_hidden, rng)
        self.w2 = Linear(d_hidden, d_model, rng)
        self.dropout_rate = dropout

    def __call__(self, x: Tensor, rng: Rng | None = None) -> Tensor:
        return tz.feed_forward(x, self.w1.w, self.w1.b, self.w2.w, self.w2.b,
                               self.dropout_rate, rng)


class EncoderLayer(Module):
    """Post-norm transformer encoder layer: banded self-attention then
    feed-forward."""

    def __init__(self, d_model: int, n_heads: int, d_ffn: int, rng: Rng,
                 dropout: float = 0.0):
        self.attn = MultiHeadAttention(d_model, n_heads, rng, dropout)
        self.ffn = FeedForward(d_model, d_ffn, rng, dropout)
        self.norm1 = AddNorm(d_model, dropout)
        self.norm2 = AddNorm(d_model, dropout)

    def __call__(self, x: Tensor, band: tuple, rng: Rng | None = None) -> Tensor:
        """``band = (n_mod, mask_length)`` confines self-attention over a
        time-major token sequence to a temporal band."""
        a = self.attn(x, band, rng)
        h = self.norm1(x, a, rng)
        return self.norm2(h, self.ffn(h, rng), rng)


class DecoderLayer(Module):
    """Weights of one post-norm decoder layer: causal self-attention over the
    decoded past, cross-attention over the current step's per-modality
    encoder outputs, then feed-forward, each closed by an ``AddNorm``.

    Each attention is a dict of ``PROJECTIONS`` to ``Linear``s.  The decode
    loop runs in ``tz.decoder``, which reads them by name through ``weights``.
    """

    PROJECTIONS = ("wq", "wk", "wv", "wo")

    def __init__(self, d_model: int, d_ffn: int, rng: Rng):
        self.self_attn = {n: Linear(d_model, d_model, rng) for n in self.PROJECTIONS}
        self.cross_attn = {n: Linear(d_model, d_model, rng) for n in self.PROJECTIONS}
        self.ffn = FeedForward(d_model, d_ffn, rng)
        self.norm1 = AddNorm(d_model)
        self.norm2 = AddNorm(d_model)
        self.norm3 = AddNorm(d_model)

    def weights(self) -> tz.DecoderWeights:
        """This layer's (w, b) and (gain, bias) pairs as a ``tz.DecoderWeights``."""
        attn = [a[n] for a in (self.self_attn, self.cross_attn) for n in self.PROJECTIONS]
        linears = (*attn, self.ffn.w1, self.ffn.w2)
        norms = (self.norm1, self.norm2, self.norm3)
        return tz.DecoderWeights(*((m.w, m.b) for m in linears),
                                 *((n.gain, n.bias) for n in norms))


class RegressionHead(Module):
    """Per-step head to one scalar: a ``tz.feed_forward`` without dropout."""

    def __init__(self, d_model: int, d_hidden: int, rng: Rng):
        self.w1 = Linear(d_model, d_hidden, rng)
        self.w2 = Linear(d_hidden, 1, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return tz.feed_forward(x, self.w1.w, self.w1.b, self.w2.w, self.w2.b, 0.0, None)
