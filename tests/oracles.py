"""Reference implementations that tests compare the library against."""

import numpy as np

from emoreg import tensor as tz
from emoreg.tensor import Tensor


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, rate: float, rng,
              additive_mask=None) -> tuple:
    """Unbanded multi-head attention under an additive [queries, keys] mask,
    as one node on the library's block kernel with one whole block.  Returns
    (output, pre-dropout weights [batch, heads, queries, keys]); a fully
    masked row gives NaN weights."""
    mask = None if additive_mask is None else np.asarray(additive_mask, dtype=np.float64)
    whole = [(slice(None), slice(None), mask)]
    return tz._blockwise_attention(q, k, v, n_heads, rate, rng, whole, "attention")


def _attend(proj: dict, n_heads: int, q_src: Tensor, k: Tensor, v: Tensor, mask) -> tuple:
    """Masked attention through a decoder layer's ``wq``/``wo``: (output, weights)."""
    mixed, probs = attention(proj["wq"](q_src), k, v, n_heads, 0.0, None, mask)
    return proj["wo"](mixed), probs


def decode_uncached(model, encoded: Tensor) -> Tensor:
    """Reference decode that rebuilds every step from raw history.

    No key/value caches: at each step the full input prefix is re-run
    through every decoder layer, with causal self-attention and
    cross-attention in which query position j sees only step j's modality
    tokens (both as additive masks on ``attention``).  Exists to
    cross-check the decoder node's outputs and, under a tape, its gradients;
    without dropout.
    """
    b, n_steps, n_mod, d = encoded.data.shape
    # Step-major flattening: the M tokens of step t sit at [t*M, (t+1)*M).
    flat = tz.reshape(encoded, (b, n_steps * n_mod, d))
    n_heads = model.config.dec_heads
    cross = [(layer.cross_attn["wk"](flat), layer.cross_attn["wv"](flat))
             for layer in model.decoder]
    start = Tensor(np.zeros((b, 1, d))) + model.start_vector + model.dec_positions.rows(0, 1)
    inputs = [start]
    outputs = []
    for t in range(n_steps):
        h = tz.concat(inputs, axis=-2) if len(inputs) > 1 else inputs[0]
        s = t + 1
        pos = np.arange(s)
        causal = np.where(pos[:, None] >= pos[None, :], 0.0, -np.inf)
        own_step = np.where(pos[:, None] == np.repeat(pos, n_mod)[None, :], 0.0, -np.inf)
        for layer, (k_all, v_all) in zip(model.decoder, cross):
            sa = layer.self_attn
            h1 = layer.norm1(h, _attend(sa, n_heads, h, sa["wk"](h), sa["wv"](h), causal)[0])
            sl = (slice(None), slice(0, s * n_mod))
            c, _ = _attend(layer.cross_attn, n_heads, h1, k_all[sl], v_all[sl], own_step)
            h2 = layer.norm2(h1, c)
            h = layer.norm3(h2, layer.ffn(h2))
        last = h[:, t : t + 1]
        outputs.append(last)
        if t + 1 < n_steps:
            inputs.append(last + model.dec_positions.rows(t + 1, 1))
    feats = tz.concat(outputs, axis=-2)
    return tz.reshape(model.head(feats), (b, n_steps))
