"""Reference implementations that tests compare the library against."""

import numpy as np

from emoreg import tensor as tz
from emoreg.tensor import Tensor


def decode_uncached(model, encoded: Tensor) -> Tensor:
    """Reference decode that rebuilds every step from raw history.

    No key/value caches: at each step the full input prefix is re-run
    through every decoder layer, with causal self-attention and
    cross-attention in which query position j sees only step j's modality
    tokens (both as additive masks on ``tz.attention``).  Exists to
    cross-check the incremental path; evaluation mode only.
    """
    b, n_steps, n_mod, d = encoded.data.shape
    # Step-major flattening: the M tokens of step t sit at [t*M, (t+1)*M).
    flat = tz.reshape(encoded, (b, n_steps * n_mod, d))
    cross = [layer.cross_attn.project_kv(flat) for layer in model.decoder]
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
            h1 = layer.norm1(h, layer.self_attn(h, h, causal))
            sl = (slice(None), slice(0, s * n_mod))
            c = layer.cross_attn.attend(h1, k_all[sl], v_all[sl], own_step)
            h2 = layer.norm2(h1, c)
            h = layer.norm3(h2, layer.ffn(h2))
        last = h[:, t : t + 1]
        outputs.append(last)
        if t + 1 < n_steps:
            inputs.append(last + model.dec_positions.rows(t + 1, 1))
    feats = tz.concat(outputs, axis=-2)
    return tz.reshape(model.head(feats), (b, n_steps))
