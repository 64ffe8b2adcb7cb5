"""Reference implementations that tests compare the library against."""

import numpy as np

from emoreg import tensor as tz
from emoreg.tensor import Tensor


def decode_uncached(model, encoded: Tensor) -> Tensor:
    """Reference decode that rebuilds every step from raw history.

    No key/value caches: at each step the full input prefix is re-run
    through every decoder layer (causal self-attention, per-position
    cross-attention).  Exists to cross-check the incremental path;
    evaluation mode only.
    """
    c = model.config
    b, n_steps, n_mod, d = encoded.data.shape
    n_heads, d_head = c.dec_heads, d // c.dec_heads
    # Step-major flattening: the M tokens of step t sit at [t*M, (t+1)*M).
    flat = tz.reshape(encoded, (b, n_steps * n_mod, d))
    cross = [layer.cross_attn.project_kv(flat) for layer in model.decoder]
    # Regrouped cross K/V [batch, steps, heads, n_mod, d_head].
    cross_grouped = []
    for k_all, v_all in cross:
        def regroup(z):
            z = tz.transpose(z, (0, 2, 1, 3))  # [b, steps*n_mod, heads, dh]
            z = tz.reshape(z, (b, n_steps, n_mod, n_heads, d_head))
            return tz.transpose(z, (0, 1, 3, 2, 4))
        cross_grouped.append((regroup(k_all), regroup(v_all)))
    start = Tensor(np.zeros((b, 1, d))) + model.start_vector + model.dec_positions.rows(0, 1)
    inputs = [start]
    outputs = []
    for t in range(n_steps):
        h = tz.concat(inputs, axis=-2) if len(inputs) > 1 else inputs[0]
        s = t + 1
        causal = np.where(
            np.arange(s)[:, None] >= np.arange(s)[None, :], 0.0, -np.inf
        )
        for li, layer in enumerate(model.decoder):
            a = layer.self_attn(h, h, causal)
            h1 = layer.norm1(h + a)
            cr = _positionwise_cross(layer, h1, cross_grouped[li], s)
            h2 = layer.norm2(h1 + cr)
            h = layer.norm3(h2 + layer.ffn(h2))
        last = h[:, t : t + 1]
        outputs.append(last)
        if t + 1 < n_steps:
            inputs.append(last + model.dec_positions.rows(t + 1, 1))
    feats = tz.concat(outputs, axis=-2)
    return tz.reshape(model.head(feats), (b, n_steps))


def _positionwise_cross(layer, h1: Tensor, kv_grouped: tuple, s: int) -> Tensor:
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
