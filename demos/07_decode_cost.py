"""
What one training decode costs
==============================

The decoder is free-running: step t reads its own output at step t-1, so a
training pass unrolls it step by step.  This demo times the decode alone, in
two configs, with dropout on as in training:

- tiny: the criterion-6 model (d_model 16, one decoder layer), batch 8,
  80 steps;
- paper: the default model with feature widths 8/8/6, batch 4, 250 steps.

The encoder runs first without a tape, and its output becomes a leaf that
needs a gradient, so the tape holds only the decode and a CCC loss.  Per
config the demo prints the median forward and backward milliseconds per
decode step over five repeats, the tape nodes the decode records, and a
SHA-256 digest of every parameter gradient plus the encoding's gradient.
The digest depends only on the arithmetic, so a checkout of another version
of the library that computes the same gradients bit for bit prints the same
one.

Run from the repository root with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python demos/07_decode_cost.py

It takes well under a minute on one CPU core.
"""

import hashlib
import statistics
import time

import numpy as np

from emoreg.model import EmotionRegressor, ModelConfig
from emoreg.objective import ccc_loss
from emoreg.tensor import Rng, Tape, Tensor

WIDTHS = {"audio": 8, "video": 8, "text": 6}
TINY = ModelConfig(
    modality_widths=WIDTHS, d_model=16, enc_heads=2, enc_layers=1, dec_heads=1,
    dec_layers=1, conv_layers=2, conv_kernel=3, d_ffn=32, head_hidden=8,
    mask_length=8, dropout=0.2, max_steps=256,
)
PAPER = ModelConfig(modality_widths=WIDTHS)
REPEATS = 5


def decode_cost(config: ModelConfig, batch: int, steps: int) -> dict:
    model = EmotionRegressor(config, Rng(0))
    data = Rng(1)
    features = {m: data.normal(0.0, 1.0, (batch, steps, w)) for m, w in WIDTHS.items()}
    labels = np.tanh(data.normal(0.0, 1.0, (batch, steps)).cumsum(axis=1) / 10.0)
    encoded, _ = model.encode(features, rng=Rng(2))
    params = dict(model.parameters())
    forward, backward = [], []
    for _ in range(REPEATS):
        enc = Tensor(encoded.data, requires_grad=True)
        for p in params.values():
            p.zero_grad()
        t0 = time.perf_counter()
        with Tape() as tape:
            preds, _ = model.decode(enc, rng=Rng(3))
            nodes = len(tape)
            loss = ccc_loss(preds, labels)
        t1 = time.perf_counter()
        tape.backward(loss)
        t2 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
    digest = hashlib.sha256()
    for name, p in sorted(dict(params, encoded=enc).items()):
        if p.grad is not None:
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.grad).tobytes())
    return {
        "forward_ms": 1e3 * statistics.median(forward) / steps,
        "backward_ms": 1e3 * statistics.median(backward) / steps,
        "nodes": nodes,
        "grad_sha256": digest.hexdigest()[:16],
    }


if __name__ == "__main__":
    for name, config, batch, steps in (("tiny", TINY, 8, 80), ("paper", PAPER, 4, 250)):
        r = decode_cost(config, batch, steps)
        print(f"{name:>5} B={batch} T={steps}: forward {r['forward_ms']:.3f} ms/step  "
              f"backward {r['backward_ms']:.3f} ms/step  {r['nodes']} tape nodes  "
              f"grad sha256 {r['grad_sha256']}", flush=True)
