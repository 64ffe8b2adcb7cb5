"""Dense float64 tensors with reverse-mode automatic differentiation.

A lightweight tape records differentiable operations while a ``Tape`` context
is active; ``Tape.backward`` replays it in reverse to populate ``.grad`` on
every leaf that requires gradients.  Outside a tape, all operations are plain
numpy computations with no recording overhead, which is what evaluation-mode
forward passes use.

Everything is float64: gradient checks against central finite differences at
step 1e-5 only make sense at that precision.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .errors import (
    ConfigError,
    ContractError,
    DegenerateAttentionError,
    NumericError,
    ShapeError,
)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Rng:
    """Deterministic random source: PCG64 behind numpy's Generator API.

    The same seed yields the same draw sequence on every run and platform.
    ``child(label)`` derives an independent, reproducible substream from a
    string label (SHA-256 of ``"{seed}:{label}"``), so components can own
    their randomness without coupling draw orders.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, label: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def normal(self, mean, std, shape):
        return self.generator.normal(mean, std, size=shape)

    def uniform(self, lo, hi, shape):
        return self.generator.uniform(lo, hi, size=shape)

    def random(self, shape):
        return self.generator.random(size=shape)

    def integers(self, lo, hi):
        return int(self.generator.integers(lo, hi))

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)


class Tensor:
    """A dense float64 array plus optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.data).all())

    def assert_finite(self, context: str = ""):
        if not self.is_finite():
            raise NumericError(f"non-finite values in tensor {self.name or context!r}")

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the free functions below do the real work.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of differentiable operations.

    Operations executed while a tape is active (``with Tape() as t:``) are
    appended in execution order, which is automatically topological.  The
    backward pass walks the record in reverse, accumulating gradients with
    ``+=`` so that repeated ``backward`` calls without ``zero_grad`` on the
    leaves accumulate, as optimizer steps expect.
    """

    def __init__(self, check_finite: bool = True):
        self._nodes = []
        self.check_finite = check_finite

    def __enter__(self):
        _push_tape(self)
        return self

    def __exit__(self, *exc):
        _pop_tape(self)
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, out, backward_fn, name: str):
        self._nodes.append((out, backward_fn, name))

    def backward(self, loss: Tensor):
        """Populate ``.grad`` on every recorded leaf reachable from ``loss``."""
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        # Reset grads of tape-produced tensors so intermediate flow does not
        # stack across repeated calls; leaf grads are left to accumulate.
        for out, _, _ in self._nodes:
            if out is not None:
                out.grad = None
        loss.grad = np.ones((), dtype=np.float64)
        for out, backward_fn, name in reversed(self._nodes):
            if out is None:
                backward_fn(None)
                continue
            if out.grad is None:
                continue
            if self.check_finite and not np.isfinite(out.grad).all():
                raise NumericError(f"non-finite gradient flowing out of op {name!r}")
            backward_fn(out.grad)

    def clear(self):
        self._nodes.clear()


_TAPE_STACK: list[Tape] = []


def _push_tape(tape: Tape):
    _TAPE_STACK.append(tape)


def _pop_tape(tape: Tape):
    if not _TAPE_STACK or _TAPE_STACK[-1] is not tape:
        raise ContractError("tape stack corrupted: exiting a tape that is not current")
    _TAPE_STACK.pop()


def current_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _recording(*tensors) -> Tape | None:
    tape = current_tape()
    if tape is None:
        return None
    for t in tensors:
        if t is not None and t.requires_grad:
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
    if t.grad is None:
        t.grad = np.zeros(shape, dtype=np.float64)
    t.grad += g


def _result(data, tape) -> Tensor:
    return Tensor(data, requires_grad=tape is not None)


# ---------------------------------------------------------------------------
# Elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _recording(a, b)
    out = _result(a.data + b.data, tape)
    if tape is not None:

        def bw(g):
            _add_grad(a, g)
            _add_grad(b, g)

        tape.record(out, bw, "add")
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    tape = _recording(a, b)
    out = _result(a.data - b.data, tape)
    if tape is not None:

        def bw(g):
            _add_grad(a, g)
            _add_grad(b, -g)

        tape.record(out, bw, "sub")
    return out


def neg(a: Tensor) -> Tensor:
    tape = _recording(a)
    out = _result(-a.data, tape)
    if tape is not None:
        tape.record(out, lambda g: _add_grad(a, -g), "neg")
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _recording(a, b)
    out = _result(a.data * b.data, tape)
    if tape is not None:

        def bw(g):
            _add_grad(a, g * b.data)
            _add_grad(b, g * a.data)

        tape.record(out, bw, "mul")
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    tape = _recording(a, b)
    out = _result(a.data / b.data, tape)
    if tape is not None:

        def bw(g):
            _add_grad(a, g / b.data)
            _add_grad(b, -g * out.data / b.data)

        tape.record(out, bw, "div")
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    tape = _recording(a)
    out = _result(a.data.sum(axis=axis, keepdims=keepdims), tape)
    if tape is not None:
        shape = a.data.shape

        def bw(g):
            _add_grad(a, np.broadcast_to(_expand(g, shape, axis, keepdims), shape))

        tape.record(out, bw, "sum")
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    tape = _recording(a)
    out = _result(a.data.mean(axis=axis, keepdims=keepdims), tape)
    if tape is not None:
        shape = a.data.shape
        count = a.data.size if axis is None else np.prod(
            [shape[i] for i in _norm_axes(axis, a.data.ndim)]
        )

        def bw(g):
            _add_grad(
                a, np.broadcast_to(_expand(g, shape, axis, keepdims), shape) / count
            )

        tape.record(out, bw, "mean")
    return out


def _norm_axes(axis, ndim):
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand(g, shape, axis, keepdims):
    """Reinsert reduced axes so g broadcasts back to the input shape."""
    if axis is None:
        return g.reshape((1,) * len(shape))
    if keepdims:
        return g
    return np.expand_dims(g, _norm_axes(axis, len(shape)))


def relu(a: Tensor) -> Tensor:
    tape = _recording(a)
    out = _result(np.maximum(a.data, 0.0), tape)
    if tape is not None:
        tape.record(out, lambda g: _add_grad(a, g * (a.data > 0.0)), "relu")
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    tape = _recording(a)
    cdf = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _result(a.data * cdf, tape)
    if tape is not None:

        def bw(g):
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
            _add_grad(a, g * (cdf + a.data * pdf))

        tape.record(out, bw, "gelu")
    return out


def _dropout_on(rate: float, rng: Rng | None, training: bool) -> bool:
    """Validate a dropout setting; True when a mask must be drawn."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    drop = training and rate > 0.0
    if drop and rng is None:
        raise ConfigError("training-mode dropout requires an Rng")
    return drop


def dropout(a: Tensor, rate: float, rng: Rng | None, training: bool) -> Tensor:
    """Inverted dropout: train-time rescale by 1/(1-rate); eval is identity."""
    if not _dropout_on(rate, rng, training):
        return a
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)
    tape = _recording(a)
    out = _result(a.data * keep, tape)
    if tape is not None:
        tape.record(out, lambda g: _add_grad(a, g * keep), "dropout")
    return out


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor, rate: float,
             rng: Rng | None, training: bool) -> Tensor:
    """Residual exit of a sublayer as one node: ``layer_norm(x + dropout(y))``.

    ``y`` gets inverted dropout at ``rate`` in training; the sum is
    normalized over the last axis to zero mean and unit variance (variance
    offset 1e-5), then scaled by ``gain`` and shifted by ``bias``.
    """
    keep = None
    if _dropout_on(rate, rng, training):
        keep = (rng.random(y.data.shape) >= rate) / (1.0 - rate)
    s = x.data + (y.data if keep is None else y.data * keep)
    mu = s.mean(axis=-1, keepdims=True)
    sc = s - mu
    var = (sc * sc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    sn = sc * inv
    tape = _recording(x, y, gain, bias)
    out = _result(sn * gain.data + bias.data, tape)
    if tape is not None:

        def bw(g):
            _add_grad(gain, g * sn)
            _add_grad(bias, g)
            gsn = g * gain.data
            m1 = gsn.mean(axis=-1, keepdims=True)
            m2 = (gsn * sn).mean(axis=-1, keepdims=True)
            gs = inv * (gsn - m1 - sn * m2)
            _add_grad(x, gs)
            _add_grad(y, gs if keep is None else gs * keep)

        tape.record(out, bw, "add_norm")
    return out


# ---------------------------------------------------------------------------
# Linear algebra ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}"
        )
    tape = _recording(a, b)
    out = _result(np.matmul(a.data, b.data), tape)
    if tape is not None:

        def bw(g):
            _add_grad(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
            _add_grad(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

        tape.record(out, bw, "matmul")
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Fused ``x @ w + b`` with a single-GEMM weight gradient."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear width mismatch: {x.data.shape} @ {w.data.shape}")
    y = np.matmul(x.data, w.data)
    if b is not None:
        y += b.data
    tape = _recording(x, w, b)
    out = _result(y, tape)
    if tape is not None:
        d_in, d_out = w.data.shape

        def bw(g):
            _add_grad(x, np.matmul(g, w.data.T))
            g2 = g.reshape(-1, d_out)
            _add_grad(w, np.matmul(x.data.reshape(-1, d_in).T, g2))
            if b is not None:
                _add_grad(b, g2.sum(axis=0))

        tape.record(out, bw, "linear")
    return out


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
    m = p.max(axis=-1, keepdims=True)
    if mask is not None and np.isneginf(m).any():
        raise DegenerateAttentionError("attention row is fully masked")
    p -= m
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = None if rng is None else rng.random(p.shape) >= rate
    np.matmul(p if keep is None else p * keep * (1.0 / (1.0 - rate)), v, out=out)
    return p, keep


def _block_backward(g, qd, k, v, p, keep, rate: float) -> tuple:
    """Gradients (gq, gk, gv) of one block's output; gq is taken with respect
    to the pre-scaled queries ``qd``, so it still lacks the query scale."""
    inv_keep = 1.0 / (1.0 - rate)
    pd = p if keep is None else p * keep * inv_keep
    gv = np.matmul(np.swapaxes(pd, -1, -2), g)
    gp = np.matmul(g, np.swapaxes(v, -1, -2))
    if keep is not None:
        gp *= keep
        gp *= inv_keep
    gp -= (gp * p).sum(axis=-1, keepdims=True)
    gp *= p
    return np.matmul(gp, k), np.matmul(np.swapaxes(gp, -1, -2), qd), gv


def _blockwise_attention(q, k, v, n_heads, rate, rng, training, blocks, name) -> tuple:
    """The node behind ``attention`` and ``local_attention``: runs the block
    forward over ``blocks``, (query slice, key slice, additive mask or None)
    triples over tokens, and records one backward for all of them.  Returns
    (output, weights of the last block)."""
    drop = _dropout_on(rate, rng, training)
    qs, ks, vs = q.data.shape, k.data.shape, v.data.shape
    if (
        len(qs) != 3 or len(ks) != 3 or len(vs) != 3 or qs[0] != ks[0] or ks[:2] != vs[:2]
        or qs[-1] != ks[-1] or n_heads < 1 or qs[-1] % n_heads or vs[-1] % n_heads
    ):
        raise ShapeError(
            f"attention needs token-major [batch, tokens, width] q/k/v whose widths "
            f"split into {n_heads} heads, got {qs}, {ks}, {vs}"
        )
    scale = 1.0 / math.sqrt(qs[-1] // n_heads)
    qd = _heads(q.data, n_heads) * scale  # cheaper than scaling every score block
    kh, vh = _heads(k.data, n_heads), _heads(v.data, n_heads)
    y = np.empty((qs[0], qs[1], n_heads, vs[-1] // n_heads), dtype=np.float64)
    yh = y.transpose(0, 2, 1, 3)
    tape = _recording(q, k, v)
    saved = []
    for qsl, ksl, mask in blocks:
        p, keep = _block_forward(
            qd[..., qsl, :], kh[..., ksl, :], vh[..., ksl, :], mask, rate,
            rng if drop else None, yh[..., qsl, :],
        )
        if tape is not None:
            saved.append((qsl, ksl, p, keep))
    out = _result(y.reshape(qs[0], qs[1], -1), tape)
    if tape is not None:

        def bw(g):
            gh = _heads(g, n_heads)
            grads = [np.zeros(t.data.shape) for t in (q, k, v)]
            gqh, gkh, gvh = (_heads(x, n_heads) for x in grads)
            for qsl, ksl, p, keep in saved:
                dq, dk, dv = _block_backward(
                    gh[..., qsl, :], qd[..., qsl, :], kh[..., ksl, :], vh[..., ksl, :],
                    p, keep, rate,
                )
                gvh[..., ksl, :] += dv
                gqh[..., qsl, :] += dq
                gkh[..., ksl, :] += dk
            grads[0] *= scale
            for t, gt in zip((q, k, v), grads):
                _add_grad(t, gt)

        tape.record(out, bw, name)
    return out, p


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, rate: float,
              rng: Rng | None, training: bool, additive_mask=None) -> tuple:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` is [batch, queries, width] and ``k``/``v`` are [batch, keys, width]
    (token-major); heads are split inside as views.  Per head the weights are
    softmax(q k^T / sqrt(width / n_heads) + additive_mask), with inverted
    dropout at ``rate`` on the weights in training; the weighted sums of
    values are merged back to [batch, queries, width].  A mask row of all
    -inf raises ``DegenerateAttentionError``.  Returns (output, weights), the
    weights being the pre-dropout [batch, heads, queries, keys] array.
    """
    mask = None if additive_mask is None else np.asarray(additive_mask, dtype=np.float64)
    whole = [(slice(None), slice(None), mask)]
    return _blockwise_attention(q, k, v, n_heads, rate, rng, training, whole, "attention")


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
                    mask_length: int, rate: float, rng: Rng | None, training: bool) -> Tensor:
    """Band-limited multi-head self-attention over a time-major token sequence.

    ``q``, ``k`` and ``v`` are token-major [batch, steps * n_mod, width], as
    for ``attention``; token ``t * n_mod + m`` holds modality m at step t.
    Query token i attends to key token j exactly when their steps satisfy
    ``|t_i - t_j| <= mask_length``; weights, dropout and output are those of
    ``attention``, with the same block forward and backward.

    The work is blockwise (``_band_blocks``), so time and memory grow linearly
    in steps, and dropout is drawn over each key window only.  Under a tape,
    each chunk's weights and a boolean keep mask are saved for the backward;
    without one, nothing outlives its chunk.
    """
    if mask_length < 0:
        raise ConfigError(f"mask_length must be >= 0, got {mask_length}")
    if q.data.shape != k.data.shape or q.data.ndim != 3:
        raise ShapeError(f"local attention needs equal [batch, tokens, width] q/k, "
                         f"got {q.data.shape}, {k.data.shape}")
    n_tok = q.data.shape[1]
    if n_mod < 1 or n_tok % n_mod:
        raise ShapeError(f"{n_tok} tokens do not split into steps of {n_mod} modalities")
    blocks = _band_blocks(n_tok // n_mod, n_mod, mask_length)
    out, _ = _blockwise_attention(
        q, k, v, n_heads, rate, rng, training, blocks, "local_attention"
    )
    return out


def dilated_causal_conv1d(
    x: Tensor, kernel: Tensor, bias: Tensor, dilation: int = 1
) -> Tensor:
    """Causal 1-D convolution with left zero-padding; length is preserved.

    ``x`` is [T, c_in] or [B, T, c_in]; ``kernel`` is [k, c_in, c_out] with
    tap j applying to the input ``j * dilation`` steps in the past, so the
    output at t depends only on inputs at times <= t.
    """
    if dilation < 1:
        raise ConfigError(f"dilation must be >= 1, got {dilation}")
    kk, c_in, c_out = kernel.data.shape
    if x.data.shape[-1] != c_in:
        raise ShapeError(
            f"conv channel mismatch: input has {x.data.shape[-1]}, kernel expects {c_in}"
        )
    T = x.data.shape[-2]
    y = np.zeros(x.data.shape[:-1] + (c_out,), dtype=np.float64)
    for j in range(kk):
        off = j * dilation
        if off >= T:
            break
        y[..., off:, :] += np.matmul(x.data[..., : T - off, :], kernel.data[j])
    y += bias.data
    tape = _recording(x, kernel, bias)
    out = _result(y, tape)
    if tape is not None:

        def bw(g):
            if x.requires_grad and x.grad is None:
                x.grad = np.zeros_like(x.data)
            gk = np.zeros_like(kernel.data) if kernel.requires_grad else None
            for j in range(kk):
                off = j * dilation
                if off >= T:
                    break
                gpart = g[..., off:, :]
                if x.requires_grad:
                    x.grad[..., : T - off, :] += np.matmul(gpart, kernel.data[j].T)
                if gk is not None:
                    xs = x.data[..., : T - off, :]
                    gk[j] = np.matmul(
                        xs.reshape(-1, c_in).T, gpart.reshape(-1, c_out)
                    )
            if gk is not None:
                _add_grad(kernel, gk)
            _add_grad(bias, g.reshape(-1, c_out).sum(axis=0))

        tape.record(out, bw, "dilated_causal_conv1d")
    return out


# ---------------------------------------------------------------------------
# Shape ops


def reshape(a: Tensor, shape) -> Tensor:
    tape = _recording(a)
    out = _result(a.data.reshape(shape), tape)
    if tape is not None:
        orig = a.data.shape
        tape.record(out, lambda g: _add_grad(a, g.reshape(orig)), "reshape")
    return out


def transpose(a: Tensor, axes) -> Tensor:
    tape = _recording(a)
    out = _result(np.transpose(a.data, axes), tape)
    if tape is not None:
        inv = np.argsort(axes)
        tape.record(out, lambda g: _add_grad(a, np.transpose(g, inv)), "transpose")
    return out


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (view) indexing; backward scatter-adds into the parent's grad."""
    tape = _recording(a)
    out = _result(a.data[idx], tape)
    if tape is not None:

        def bw(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

        tape.record(out, bw, "getitem")
    return out


def concat(tensors, axis: int = 0) -> Tensor:
    tape = _recording(*tensors)
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tape)
    if tape is not None:
        sizes = [t.data.shape[axis] for t in tensors]

        def bw(g):
            start = 0
            sl = [slice(None)] * g.ndim
            for t, size in zip(tensors, sizes):
                sl[axis] = slice(start, start + size)
                _add_grad(t, g[tuple(sl)])
                start += size

        tape.record(out, bw, "concat")
    return out


# ---------------------------------------------------------------------------
# Append-only sequence cache for incremental decoding


class SequenceCache:
    """Preallocated append-only buffer over the second-to-last axis.

    Sequential decoding appends one position per step and repeatedly reads the
    prefix written so far.  Reads return views of a single storage array, so
    neither forward nor backward copies the quadratic total of prefixes that
    per-step concatenation would.
    """

    def __init__(self, leading_shape, capacity: int, feature_dim: int):
        self.storage = np.zeros(
            tuple(leading_shape) + (capacity, feature_dim), dtype=np.float64
        )
        self.grad_storage = None
        self.capacity = capacity
        self.length = 0

    def _ensure_grad(self):
        if self.grad_storage is None:
            self.grad_storage = np.zeros_like(self.storage)
        return self.grad_storage

    def append(self, row: Tensor):
        """Write one position (shape [..., 1, feature]) at the current end."""
        if self.length >= self.capacity:
            raise ContractError("sequence cache is full")
        if row.data.shape[-2] != 1:
            raise ShapeError(f"cache rows must have length-1 axis, got {row.data.shape}")
        idx = self.length
        self.storage[..., idx, :] = row.data[..., 0, :]
        self.length += 1
        tape = _recording(row)
        if tape is not None:

            def bw(_):
                if self.grad_storage is not None:
                    _add_grad(row, self.grad_storage[..., idx : idx + 1, :])

            tape.record(None, bw, "cache_append")

    def read(self) -> Tensor:
        """View of everything appended so far ([..., length, feature])."""
        n = self.length
        tape = current_tape()
        out = Tensor(self.storage[..., :n, :], requires_grad=tape is not None)
        if tape is not None:

            def bw(g):
                self._ensure_grad()[..., :n, :] += g

            tape.record(out, bw, "cache_read")
        return out


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass
class RelativeErrorReport:
    """Outcome of comparing tape gradients against central finite differences."""

    per_param: dict = field(default_factory=dict)
    step: float = 0.0

    @property
    def max_rel_err(self) -> float:
        return max(self.per_param.values(), default=0.0)

    def __str__(self):
        lines = [f"finite-difference check (step={self.step:g})"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name}: max rel err {err:.3e}")
        lines.append(f"  overall: {self.max_rel_err:.3e}")
        return "\n".join(lines)


def finite_difference_check(
    f, params: dict, step: float = 1e-5, rel_floor: float = 1e-4
) -> RelativeErrorReport:
    """Compare tape gradients of ``f()`` with central finite differences.

    ``f`` must be a deterministic closure over ``params`` (a name -> Tensor
    mapping) that returns a scalar Tensor.  Relative error per entry is
    |g_tape - g_fd| / max(|g_tape| + |g_fd|, rel_floor), so near-zero
    gradients are compared on an absolute scale.
    """
    if step <= 0:
        raise ConfigError(f"finite-difference step must be > 0, got {step}")
    report = RelativeErrorReport(step=step)
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
            flat[i] = orig + step
            hi = f().item()
            flat[i] = orig - step
            lo = f().item()
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * step)
        ga = analytic[name].reshape(-1)
        denom = np.maximum(np.abs(ga) + np.abs(fd), rel_floor)
        report.per_param[name] = float(np.max(np.abs(ga - fd) / denom))
    return report
