"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tape`` context records differentiable operations; ``Tape.backward``
replays it in reverse to populate ``.grad`` on every leaf that requires
gradients, releasing each intermediate gradient once its op has consumed it.
One tape records at a time.  Outside a tape, operations are plain numpy with
no recording overhead, which is what evaluation forward passes use.  Training
memory is what the tape holds, so the model's layers run as fused nodes
(``local_attention``, ``add_norm``, ``causal_conv_block``, ``feed_forward``,
``decoder``) that save only what their hand-written backward reads.  Only ops
the library runs are kept: relu and matmul run inside the fused nodes and
``linear``, never on their own.

Every op makes its node the same way: it computes its output value, defines
``bw(g)``, which accumulates the input gradients, and returns
``_node(name, value, inputs, bw)``, the one place a node is recorded.  An op
checks ``_recording`` before its forward only to save state that evaluation
must not pay for (``local_attention``'s weights, the conv block's mask, the
decoder's per-step activations).  A backward accumulates through
``_add_grad`` (reducing broadcast axes), ``_hand_over`` (a fresh array) or a
slice of ``_grad(t)``, the one place a gradient buffer starts at zeros.
``local_attention`` is the attention node; ``decoder`` reuses its kernels.

Everything is float64: gradient checks against central finite differences at
step 1e-5 only make sense at that precision.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dictconfig import check_int
from .errors import (
    ConfigError,
    ContractError,
    NumericError,
    ShapeError,
)


class Rng(np.random.Generator):
    """Deterministic random source: numpy's Generator over PCG64.

    The same seed yields the same draw sequence on every run and platform.
    ``child(label)`` derives an independent, reproducible substream from a
    string label (SHA-256 of ``"{seed}:{label}"``), so components can own
    their randomness without coupling draw orders.
    """

    def __init__(self, seed: int):
        self.seed = int(check_int("seed", seed))
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        super().__init__(np.random.PCG64(self.seed))

    def child(self, label: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))


class Tensor:
    """A dense float64 array plus optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar between Tensors; the free functions below do the work.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of differentiable operations.

    Operations executed while a tape is active (``with Tape() as t:``) are
    appended in execution order, which is automatically topological.  One
    tape records at a time: entering a tape while another is active raises
    ``ContractError`` rather than taking ops away from the outer one.  The
    backward pass walks the record in reverse, accumulating gradients with
    ``+=`` so that repeated ``backward`` calls without ``zero_grad`` on the
    leaves accumulate, as optimizer steps expect.

    Only leaves (parameters and inputs) keep ``.grad`` after a pass: each
    tape-produced tensor's gradient is released once its op has consumed it,
    so the pass holds the gradients still to be consumed, not all of them.
    """

    _active = None  # the tape recording now

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        if Tape._active is not None:
            raise ContractError("a tape is already recording; only one tape records at a time")
        Tape._active = self
        return self

    def __exit__(self, *exc):
        Tape._active = None

    def __len__(self):
        return len(self._nodes)

    def record(self, out, backward_fn, name: str):
        self._nodes.append((out, backward_fn, name))

    def backward(self, loss: Tensor):
        """Populate ``.grad`` on every recorded leaf reachable from ``loss``.

        Each tape-produced tensor's ``.grad`` is set to None once its op has
        consumed it, so afterwards only leaves hold gradients.  A pass that
        raises (``NumericError``) clears the gradients it had not consumed,
        so the next call starts clean.
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        loss.grad = np.ones((), dtype=np.float64)
        pending = reversed(self._nodes)
        try:
            for out, backward_fn, name in pending:
                g, out.grad = out.grad, None
                if g is None:
                    continue
                if not np.isfinite(g).all():
                    raise NumericError(f"non-finite gradient flowing out of op {name!r}")
                backward_fn(g)
        finally:
            for out, _, _ in pending:  # left over only when a callback raised
                out.grad = None


def current_tape() -> Tape | None:
    return Tape._active


def _recording(*tensors) -> Tape | None:
    tape = current_tape()
    if tape is None:
        return None
    for t in tensors:
        if t.requires_grad:
            return tape
    return None


def _add_grad(t: Tensor, g: np.ndarray):
    """Accumulate ``g`` into ``t.grad``, reducing over broadcast axes."""
    if not t.requires_grad:
        return
    shape = t.data.shape
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(
            i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1
        )
        if axes:
            g = g.sum(axis=axes, keepdims=True)
    grad = _grad(t)
    grad += g


def _grad(t: Tensor) -> np.ndarray:
    """``t.grad``, started at zeros when ``t`` has none yet: the buffer a
    backward adds into, whole or by slice."""
    if t.grad is None:
        t.grad = np.zeros(t.data.shape)
    return t.grad


def _node(name: str, value, inputs, backward) -> Tensor:
    """Wrap ``value`` as an op's output.  Under a tape, when an input requires
    gradients, the output does too and ``backward(g)`` is recorded as the
    op's node under ``name``; otherwise ``backward`` is dropped unused."""
    tape = _recording(*inputs)
    out = Tensor(value, requires_grad=tape is not None)
    if tape is not None:
        tape.record(out, backward, name)
    return out


# ---------------------------------------------------------------------------
# Elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _add_grad(a, g)
        _add_grad(b, g)

    return _node("add", a.data + b.data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _add_grad(a, g)
        _add_grad(b, -g)

    return _node("sub", a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g):
        _add_grad(a, g * b.data)
        _add_grad(b, g * a.data)

    return _node("mul", a.data * b.data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    quotient = a.data / b.data

    def bw(g):
        _add_grad(a, g / b.data)
        _add_grad(b, -g * quotient / b.data)

    return _node("div", quotient, (a, b), bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def bw(g):
        shape = a.data.shape
        _add_grad(a, np.broadcast_to(_expand(g, shape, axis, keepdims), shape))

    return _node("sum", a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    value = a.data.mean(axis=axis, keepdims=keepdims)

    def bw(g):
        shape = a.data.shape
        count = a.data.size // value.size
        _add_grad(a, np.broadcast_to(_expand(g, shape, axis, keepdims), shape) / count)

    return _node("mean", value, (a,), bw)


def _expand(g, shape, axis, keepdims):
    """Reinsert reduced axes so g broadcasts back to the input shape."""
    if axis is None:
        return g.reshape((1,) * len(shape))
    if keepdims:
        return g
    return np.expand_dims(g, axis)


def _keep_mask(shape, rate: float, rng: Rng | None):
    """Validate ``rate``; return the boolean keep mask of inverted dropout, or
    None unless an ``Rng`` is given and the rate is above 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    return rng.random(shape) >= rate if rng is not None and rate > 0.0 else None


def _relu_dropout(y, rate: float, rng: Rng | None) -> float:
    """ReLU, then inverted dropout at ``rate``, in place on ``y``; returns the
    scale of the kept entries (1.0 when dropout is off).  Afterwards ``y > 0``
    is exactly the relu-positive-and-kept mask, because the scale is >= 1."""
    np.maximum(y, 0.0, out=y)
    keep = _keep_mask(y.shape, rate, rng)
    if keep is not None:
        y *= keep
        y *= 1.0 / (1.0 - rate)
    return 1.0 if keep is None else 1.0 / (1.0 - rate)


def _add_norm_forward(x, y, gain, bias, rate: float, rng: Rng | None) -> tuple:
    """Array forward of ``add_norm``: (output, state for ``_add_norm_backward``)."""
    keep = _keep_mask(y.shape, rate, rng)
    scale = 1.0 / (1.0 - rate)
    s = x + (y if keep is None else y * keep * scale)
    d = s.shape[-1]
    # np.add.reduce(...) / d is what ndarray.mean computes, without its wrapper.
    mu = np.add.reduce(s, axis=-1, keepdims=True) / d
    sc = s - mu
    var = np.add.reduce(sc * sc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    sn = sc * inv
    return sn * gain + bias, (sn, inv, keep, scale)


def _add_norm_backward(g, state, gain: Tensor, bias: Tensor) -> tuple:
    """Accumulate the gain and bias gradients of one ``add_norm``; return the
    gradients (gx, gy) of its residual and sublayer inputs."""
    sn, inv, keep, scale = state
    _add_grad(gain, g * sn)
    _add_grad(bias, g)
    gsn = g * gain.data
    d = gsn.shape[-1]
    m1 = np.add.reduce(gsn, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(gsn * sn, axis=-1, keepdims=True) / d
    gs = inv * (gsn - m1 - sn * m2)
    return gs, (gs if keep is None else gs * keep * scale)


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, rate: float,
             rng: Rng | None) -> Tensor:
    """Residual exit of a sublayer as one node: ``layer_norm(x + dropout(y))``.

    ``y`` gets inverted dropout at ``rate`` when ``rng`` is given; the sum is
    normalized over the last axis to zero mean and unit variance (variance
    offset 1e-5), then scaled by ``gain`` and shifted by ``bias``.
    """
    value, state = _add_norm_forward(x.data, y.data, gain.data, bias.data, rate, rng)

    def bw(g):
        gx, gy = _add_norm_backward(g, state, gain, bias)
        _add_grad(x, gx)
        _add_grad(y, gy)

    return _node("add_norm", value, (x, y, gain, bias), bw)


# ---------------------------------------------------------------------------
# Linear algebra ops


def _linear_forward(x, w, b):
    """``x @ w + b`` on arrays."""
    y = np.matmul(x, w)
    y += b
    return y


def _linear_backward(g, x, w: Tensor, b: Tensor):
    """Accumulate the weight gradient (one GEMM over all leading axes) and the
    bias gradient of ``x @ w + b``; return the gradient of ``x``."""
    d_in, d_out = w.data.shape
    g2 = g.reshape(-1, d_out)
    _add_grad(w, np.matmul(x.reshape(-1, d_in).T, g2))
    _add_grad(b, g2.sum(axis=0))
    return np.matmul(g, w.data.T)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused ``x @ w + b`` with a single-GEMM weight gradient."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear width mismatch: {x.data.shape} @ {w.data.shape}")
    return _node("linear", _linear_forward(x.data, w.data, b.data), (x, w, b),
                 lambda g: _add_grad(x, _linear_backward(g, x.data, w, b)))


def _ffn_forward(x, f1, f2, rate: float, rng: Rng | None) -> tuple:
    """Array forward of ``feed_forward`` with (weight, bias) pairs ``f1`` and
    ``f2``: (output, post-dropout hidden, dropout scale)."""
    r = _linear_forward(x, f1[0].data, f1[1].data)
    scale = _relu_dropout(r, rate, rng)
    return _linear_forward(r, f2[0].data, f2[1].data), r, scale


def _ffn_backward(g, x, r, scale: float, f1, f2):
    """Accumulate the weight gradients of one ``feed_forward``; return the
    gradient of ``x``."""
    gr = _linear_backward(g, r, *f2)
    gr *= r > 0.0
    gr *= scale
    return _linear_backward(gr, x, *f1)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float,
                 rng: Rng | None) -> Tensor:
    """Position-wise ``linear -> relu -> dropout -> linear`` as one node, with
    dropout drawn exactly when ``rng`` is given.  Under a tape the node saves
    only the post-dropout hidden activations."""
    if x.data.shape[-1] != w1.data.shape[0] or w1.data.shape[1] != w2.data.shape[0]:
        raise ShapeError(f"feed-forward widths disagree: {x.shape}, {w1.shape}, {w2.shape}")
    f1, f2 = (w1, b1), (w2, b2)
    y, r, scale = _ffn_forward(x.data, f1, f2, rate, rng)
    return _node("feed_forward", y, (x, w1, b1, w2, b2),
                 lambda g: _add_grad(x, _ffn_backward(g, x.data, r, scale, f1, f2)))


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """View token-major [batch, tokens, width] as [batch, heads, tokens, width / heads]."""
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _block_forward(qd, k, v, mask, rate: float, rng: Rng | None, out) -> tuple:
    """Attention of one block of pre-scaled queries against its keys.

    Weights are softmax(qd k^T + mask); when ``rng`` is given they get
    inverted dropout at ``rate`` before the weighted sum of ``v`` is written
    to ``out``.  Returns the weights and the boolean keep mask (or None).
    """
    p = np.matmul(qd, np.swapaxes(k, -1, -2))
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _keep_mask(p.shape, rate, rng)
    np.matmul(p if keep is None else p * keep * (1.0 / (1.0 - rate)), v, out=out)
    return p, keep


def _block_backward(g, qd, k, v, p, keep, rate: float) -> tuple:
    """Gradients (gq, gk, gv) of one block's output; gq is taken with respect
    to the pre-scaled queries ``qd``, so it still lacks the query scale."""
    inv_keep = 1.0 / (1.0 - rate)
    pd = p if keep is None else p * keep * inv_keep
    # With one query the key and value gradients are outer products: a
    # broadcast multiply gives the same values faster than a K=1 matmul.
    one_query = p.shape[-2] == 1
    pt = np.swapaxes(pd, -1, -2)
    gv = pt * g if one_query else np.matmul(pt, g)
    gp = np.matmul(g, np.swapaxes(v, -1, -2))
    if keep is not None:
        gp *= keep
        gp *= inv_keep
    gp -= (gp * p).sum(axis=-1, keepdims=True)
    gp *= p
    gpt = np.swapaxes(gp, -1, -2)
    return np.matmul(gp, k), (gpt * qd if one_query else np.matmul(gpt, qd)), gv


def _attention_forward(q, k, v, n_heads: int, rate: float, rng: Rng | None, blocks,
                       save: bool) -> tuple:
    """Array forward of the attention node over ``blocks``, (query slice, key
    slice, additive mask or None) triples over tokens.  Returns (output
    [batch, queries, width], weights of the last block, state); the state
    keeps each block's weights and keep mask for ``_attention_backward`` only
    when ``save``."""
    scale = 1.0 / math.sqrt(q.shape[-1] // n_heads)
    qd = _heads(q, n_heads) * scale  # cheaper than scaling every score block
    kh, vh = _heads(k, n_heads), _heads(v, n_heads)
    y = np.empty((q.shape[0], q.shape[1], n_heads, v.shape[-1] // n_heads), dtype=np.float64)
    yh = y.transpose(0, 2, 1, 3)
    saved = []
    for qsl, ksl, mask in blocks:
        p, keep = _block_forward(
            qd[..., qsl, :], kh[..., ksl, :], vh[..., ksl, :], mask, rate, rng, yh[..., qsl, :]
        )
        if save:
            saved.append((qsl, ksl, p, keep))
    return y.reshape(q.shape[0], q.shape[1], -1), p, (q.shape, scale, qd, kh, vh, saved)


def _attention_backward(g, state, n_heads: int, rate: float, gk, gv):
    """Add the key and value gradients of one attention node to the
    token-major arrays ``gk`` and ``gv`` (views are fine); return the query
    gradient as a fresh array."""
    q_shape, scale, qd, kh, vh, saved = state
    gh = _heads(g, n_heads)
    gq = np.zeros(q_shape)
    gqh, gkh, gvh = _heads(gq, n_heads), _heads(gk, n_heads), _heads(gv, n_heads)
    for qsl, ksl, p, keep in saved:
        dq, dk, dv = _block_backward(
            gh[..., qsl, :], qd[..., qsl, :], kh[..., ksl, :], vh[..., ksl, :], p, keep, rate
        )
        gvh[..., ksl, :] += dv
        gqh[..., qsl, :] += dq
        gkh[..., ksl, :] += dk
    gq *= scale
    return gq


def _hand_over(t: Tensor, g: np.ndarray):
    """Accumulate ``g`` into ``t.grad``, where nothing else holds ``g``: an
    input without a gradient takes the array as is, with no zeros-plus-copy."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = g
        else:
            t.grad += g


def _chunk_steps(mask_length: int) -> int:
    """Query steps per local-attention chunk.

    A chunk's key window spans ``chunk + 2 * mask_length`` steps, so half the
    band keeps the out-of-band share of each window small, and the floor keeps
    the per-chunk Python overhead small next to the matmuls at narrow bands.
    """
    return max(16, mask_length // 2)


def _band_blocks(n_steps: int, n_mod: int, mask_length: int):
    """(query tokens, key tokens, mask) per chunk of ``_chunk_steps`` query
    steps: the key window reaches ``mask_length`` steps either side, and -inf
    masks the window corners that lie outside the band."""
    masks = {}  # by window geometry; interior chunks share one
    chunk = _chunk_steps(mask_length)
    for t0 in range(0, n_steps, chunk):
        t1 = min(t0 + chunk, n_steps)
        lo, hi = max(0, t0 - mask_length), min(n_steps, t1 + mask_length)
        key = (t0 - lo, t1 - t0, hi - lo)
        if key not in masks and max(t1 - 1 - lo, hi - 1 - t0) > mask_length:
            tq = np.repeat(np.arange(t0, t1), n_mod)
            tk = np.repeat(np.arange(lo, hi), n_mod)
            masks[key] = np.where(np.abs(tq[:, None] - tk[None, :]) > mask_length, -np.inf, 0.0)
        yield slice(t0 * n_mod, t1 * n_mod), slice(lo * n_mod, hi * n_mod), masks.get(key)


def local_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, n_mod: int,
                    mask_length: int, rate: float, rng: Rng | None) -> Tensor:
    """Band-limited multi-head self-attention over a time-major token sequence.

    ``q``, ``k`` and ``v`` are token-major [batch, steps * n_mod, width];
    token ``t * n_mod + m`` holds modality m at step t.  Per head, query token
    i attends to key token j exactly when their steps satisfy ``|t_i - t_j|
    <= mask_length``, with weights softmax(q k^T / sqrt(width / n_heads)) and
    inverted dropout on them at ``rate`` when ``rng`` is given.

    This is the attention node.  The work is blockwise (``_band_blocks``), so
    time and memory grow linearly in steps, and dropout is drawn over each key
    window only.  Under a tape, each chunk's weights and a boolean keep mask
    are saved for the backward; without one, nothing outlives its chunk.
    """
    if mask_length < 0:
        raise ConfigError(f"mask_length must be >= 0, got {mask_length}")
    qs, vs = q.data.shape, v.data.shape
    if (
        len(qs) != 3 or k.data.shape != qs or len(vs) != 3 or vs[:2] != qs[:2] or n_heads < 1
        or qs[-1] % n_heads or vs[-1] % n_heads or n_mod < 1 or qs[1] % n_mod
    ):
        raise ShapeError(
            f"local attention needs token-major [batch, steps * {n_mod}, width] q/k/v, q and "
            f"k of equal shape and widths that split into {n_heads} heads, got {qs}, "
            f"{k.data.shape}, {vs}"
        )
    blocks = _band_blocks(qs[1] // n_mod, n_mod, mask_length)
    y, _, state = _attention_forward(q.data, k.data, v.data, n_heads, rate, rng, blocks,
                                     _recording(q, k, v) is not None)

    def bw(g):
        gk, gv = np.zeros(qs), np.zeros(vs)
        gq = _attention_backward(g, state, n_heads, rate, gk, gv)
        for t, gt in zip((q, k, v), (gq, gk, gv)):
            _hand_over(t, gt)

    return _node("local_attention", y, (q, k, v), bw)


def causal_conv_block(x: Tensor, skip: Tensor, kernel: Tensor, bias: Tensor, dilation: int,
                      rate: float, rng: Rng | None) -> Tensor:
    """One residual conv layer as one node: ``skip + dropout(relu(conv(x)))``.

    ``conv`` is a causal 1-D convolution plus ``bias``: ``x`` is [T, c_in] or
    [B, T, c_in]; ``kernel`` is [k, c_in, c_out] with tap j applying to the
    input ``j * dilation`` steps in the past, so the output at t depends only
    on inputs at times <= t.  Dropout is drawn exactly when ``rng`` is given.
    Under a tape the node saves one boolean mask: relu-positive and kept.
    """
    if dilation < 1:
        raise ConfigError(f"dilation must be >= 1, got {dilation}")
    kk, c_in, c_out = kernel.data.shape
    if x.data.shape[-1] != c_in or skip.data.shape != x.data.shape[:-1] + (c_out,):
        raise ShapeError(f"conv block shapes disagree: input {x.data.shape}, skip "
                         f"{skip.data.shape}, kernel {kernel.data.shape}")
    T = x.data.shape[-2]
    inputs = (x, skip, kernel, bias)
    y = np.zeros(skip.data.shape, dtype=np.float64)
    for j in range(kk):
        off = j * dilation
        if off >= T:
            break
        y[..., off:, :] += np.matmul(x.data[..., : T - off, :], kernel.data[j])
    y += bias.data
    scale = _relu_dropout(y, rate, rng)
    mask = y > 0.0 if _recording(*inputs) is not None else None

    def bw(g):
        _add_grad(skip, g)
        gy = g * mask
        gy *= scale
        for j in range(kk):
            off = j * dilation
            if off >= T:
                break
            gpart = gy[..., off:, :]
            if x.requires_grad:
                _grad(x)[..., : T - off, :] += np.matmul(gpart, kernel.data[j].T)
            if kernel.requires_grad:
                xs = x.data[..., : T - off, :]
                _grad(kernel)[j] += np.matmul(xs.reshape(-1, c_in).T, gpart.reshape(-1, c_out))
        _add_grad(bias, gy.reshape(-1, c_out).sum(axis=0))

    return _node("causal_conv_block", skip.data + y, inputs, bw)


# ---------------------------------------------------------------------------
# Shape ops


def reshape(a: Tensor, shape) -> Tensor:
    return _node("reshape", a.data.reshape(shape), (a,),
                 lambda g: _add_grad(a, g.reshape(a.data.shape)))


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (view) indexing; backward scatter-adds into the parent's grad."""

    def bw(g):
        _grad(a)[idx] += g

    return _node("getitem", a.data[idx], (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    def bw(g):
        start = 0
        sl = [slice(None)] * g.ndim
        for t in tensors:
            size = t.data.shape[axis]
            sl[axis] = slice(start, start + size)
            _add_grad(t, g[tuple(sl)])
            start += size

    return _node("concat", np.concatenate([t.data for t in tensors], axis=axis), tensors, bw)


# ---------------------------------------------------------------------------
# Autoregressive decoder

# One decoder layer's (w, b) and (gain, bias) pairs, which ``decoder`` reads by name.
DecoderWeights = namedtuple("DecoderWeights", "self_q self_k self_v self_o cross_q cross_k "
                                              "cross_v cross_o ffn1 ffn2 norm1 norm2 norm3")


def decoder(start: Tensor, positions: Tensor, encoded: Tensor, layers, n_heads: int,
            rate: float, rng: Rng | None) -> tuple:
    """Free-running post-norm transformer decoder, the whole loop as one node.

    ``encoded`` [batch, steps, n_mod, width] holds the n_mod tokens that step
    t cross-attends to.  Step t's input is row t of ``positions`` plus
    ``start`` [width] at t = 0 and the previous step's top-layer output
    after.  ``layers`` holds one ``DecoderWeights`` per layer.

    Cross-attention keys and values are projected once per decode, those of
    self-attention once per step into [batch, steps, width] buffers.  At each
    step each layer runs self-attention over its own inputs so far,
    ``add_norm``, cross-attention over the step's tokens, ``add_norm``, the
    FFN (linear, relu, dropout, linear) and ``add_norm``, on the array
    kernels of ``linear``, ``local_attention``'s block, ``feed_forward`` and
    ``add_norm``.  Dropout is drawn exactly when ``rng`` is given.

    Returns (outputs [batch, steps, width], importance [batch, n_mod]); a
    row's importance is the mean cross-attention weight each of the n_mod
    tokens receives, averaged over steps, heads and layers.  Under a tape
    each step's activations are saved and the backward walks time in
    reverse; without one nothing outlives its step but the key/value
    buffers, so memory grows linearly in steps.
    """
    shape, pos = encoded.data.shape, positions.data.shape
    if (
        len(shape) != 4 or 0 in shape or start.data.shape != shape[-1:] or not layers
        or n_heads < 1 or shape[-1] % n_heads or pos[1:] != shape[-1:] or pos[0] < shape[1]
    ):
        raise ShapeError(
            f"decoder needs non-empty [batch, steps, n_mod, width] encodings, a [width] "
            f"start, [>= steps, width] positions and {n_heads} heads that split the width, "
            f"got {shape}, {start.data.shape} and {pos}"
        )
    b, n_steps, n_mod, d = shape
    whole = [(slice(None), slice(None), None)]

    def lin(x, wb):
        return _linear_forward(x, wb[0].data, wb[1].data)

    def norm(x, y, gb):
        return _add_norm_forward(x, y, gb[0].data, gb[1].data, rate, rng)

    weights = [t for layer in layers for pair in layer for t in pair]
    inputs = (start, positions, encoded, *weights)
    save = _recording(*inputs) is not None
    # Step-major flattening: the n_mod tokens of step t sit at [t*n_mod, (t+1)*n_mod).
    flat = encoded.data.reshape(b, n_steps * n_mod, d)
    cross = [(lin(flat, w.cross_k), lin(flat, w.cross_v)) for w in layers]
    hist = [(np.empty((b, n_steps, d)), np.empty((b, n_steps, d))) for _ in layers]
    outputs = np.empty((b, n_steps, d))
    importance = np.zeros((b, n_mod))
    saved = []
    x = np.zeros((b, 1, d)) + start.data + positions.data[:1]
    for t in range(n_steps):
        now = slice(t * n_mod, (t + 1) * n_mod)
        h = x
        for w, (kh, vh), (kc, vc) in zip(layers, hist, cross):
            kh[:, t] = lin(h, w.self_k)[:, 0]
            vh[:, t] = lin(h, w.self_v)[:, 0]
            a, _, att_self = _attention_forward(
                lin(h, w.self_q), kh[:, : t + 1], vh[:, : t + 1], n_heads, rate, rng, whole, save
            )
            h1, norm1 = norm(h, lin(a, w.self_o), w.norm1)
            c, probs, att_cross = _attention_forward(
                lin(h1, w.cross_q), kc[:, now], vc[:, now], n_heads, rate, rng, whole, save
            )
            importance += probs.mean(axis=(1, 2))
            h2, norm2 = norm(h1, lin(c, w.cross_o), w.norm2)
            ff, r, scale = _ffn_forward(h2, w.ffn1, w.ffn2, rate, rng)
            y, norm3 = norm(h2, ff, w.norm3)
            if save:
                saved.append((h, att_self, a, norm1, h1, att_cross, c, norm2, h2, r, scale, norm3))
            h = y
        outputs[:, t] = h[:, 0]
        if t + 1 < n_steps:
            x = h + positions.data[t + 1 : t + 2]
    importance /= n_steps * len(layers)

    def bw(g):
        ghist = [(np.zeros((b, n_steps, d)), np.zeros((b, n_steps, d))) for _ in layers]
        gcross = [(np.zeros(flat.shape), np.zeros(flat.shape)) for _ in layers]
        states = iter(reversed(saved))
        gh = None  # gradient of the input of the step after t
        for t in reversed(range(n_steps)):
            now = slice(t * n_mod, (t + 1) * n_mod)
            gh = g[:, t : t + 1] if gh is None else g[:, t : t + 1] + gh
            for l, w in reversed(list(enumerate(layers))):
                h, att_self, a, norm1, h1, att_cross, c, norm2, h2, r, scale, norm3 = (
                    next(states)
                )
                gk, gv = ghist[l]
                gkc, gvc = gcross[l]
                gh2, gf = _add_norm_backward(gh, norm3, *w.norm3)
                gh2 = gh2 + _ffn_backward(gf, h2, r, scale, w.ffn1, w.ffn2)
                gh1, gc = _add_norm_backward(gh2, norm2, *w.norm2)
                gq = _attention_backward(
                    _linear_backward(gc, c, *w.cross_o), att_cross, n_heads, rate,
                    gkc[:, now], gvc[:, now],
                )
                gh1 = gh1 + _linear_backward(gq, h1, *w.cross_q)
                gx, ga = _add_norm_backward(gh1, norm1, *w.norm1)
                gq = _attention_backward(
                    _linear_backward(ga, a, *w.self_o), att_self, n_heads, rate,
                    gk[:, : t + 1], gv[:, : t + 1],
                )
                gx = gx + _linear_backward(gq, h, *w.self_q)
                # Steps t..T-1 have all read row t of the history by now.
                gx += _linear_backward(gv[:, t : t + 1], h, *w.self_v)
                gx += _linear_backward(gk[:, t : t + 1], h, *w.self_k)
                if not np.isfinite(gx).all():
                    raise NumericError(
                        f"non-finite gradient flowing out of op 'decoder' at step {t}, "
                        f"layer {l}"
                    )
                gh = gx
            if positions.requires_grad:
                _grad(positions)[t : t + 1] += gh.sum(axis=(0,))
        _add_grad(start, gh)
        # Layers last to first, values before keys, one sum per layer: the
        # order of separate per-layer reshape and projection nodes.
        for w, (gkc, gvc) in zip(reversed(layers), reversed(gcross)):
            ge = _linear_backward(gvc, flat, *w.cross_v)
            ge += _linear_backward(gkc, flat, *w.cross_k)
            _add_grad(encoded, ge.reshape(shape))

    return _node("decoder", outputs, inputs, bw), importance


# ---------------------------------------------------------------------------
# Gradient checking

FD_STEP = 1e-5  # central-difference step
FD_REL_FLOOR = 1e-4  # below this, errors are compared on an absolute scale


@dataclass
class RelativeErrorReport:
    """Outcome of comparing tape gradients against central finite differences."""

    per_param: dict = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values(), default=0.0)

    def __str__(self):
        lines = [f"finite-difference check (step={FD_STEP:g})"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name}: max rel err {err:.3e}")
        lines.append(f"  overall: {self.max_rel_err:.3e}")
        return "\n".join(lines)


def finite_difference_check(f, params: dict) -> RelativeErrorReport:
    """Compare tape gradients of ``f()`` with central finite differences.

    ``f`` must be a deterministic closure over ``params`` (a name -> Tensor
    mapping) that returns a scalar Tensor.  Relative error per entry is
    |g_tape - g_fd| / max(|g_tape| + |g_fd|, FD_REL_FLOOR), at step
    ``FD_STEP``, so near-zero gradients are compared on an absolute scale.
    """
    report = RelativeErrorReport()
    if not params:
        return report
    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = {
        name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }
    for name, p in params.items():
        if not p.data.flags["C_CONTIGUOUS"]:
            p.data = np.ascontiguousarray(p.data)
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = f().item()
            flat[i] = orig - FD_STEP
            lo = f().item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * FD_STEP)
        ga = analytic[name].reshape(-1)
        denom = np.maximum(np.abs(ga) + np.abs(fd), FD_REL_FLOOR)
        report.per_param[name] = float(np.max(np.abs(ga - fd) / denom))
    return report
