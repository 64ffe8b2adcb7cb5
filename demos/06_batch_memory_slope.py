"""
How training memory grows with batch size
=========================================

One paper-default training step (default ModelConfig with feature widths
8/8/6, 250-step segments, all three modalities, dropout 0.2) is run per
batch size, each in a fresh child process so that its peak resident set
(``ru_maxrss``) belongs to that step alone.  Per batch size the demo prints
the peak RSS, forward and backward seconds and a SHA-256 digest of every
parameter gradient, which stays the same across versions of the library
that compute the same gradients bit for bit.

A least-squares line through B = 4, 8 and 16 gives the memory per sample.
B = 64 (the paper's batch size) is only launched when that line puts it
below 4 GB; otherwise the demo prints the estimate and stops.

Takes a minute or two on one CPU core; the B = 64 step needs about 4 GB free.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from emoreg.model import EmotionRegressor, ModelConfig
from emoreg.objective import ccc_loss
from emoreg.tensor import Rng, Tape

WIDTHS = {"audio": 8, "video": 8, "text": 6}
STEPS = 250
BUDGET_MB = 4096.0


def one_step(batch: int) -> dict:
    """Run one forward and backward at ``batch`` and report what it cost."""
    model = EmotionRegressor(ModelConfig(modality_widths=WIDTHS), Rng(0))
    data = Rng(1)
    features = {m: data.normal(0.0, 1.0, (batch, STEPS, w)) for m, w in WIDTHS.items()}
    labels = np.tanh(data.normal(0.0, 1.0, (batch, STEPS)).cumsum(axis=1) / 10.0)
    t0 = time.perf_counter()
    with Tape() as tape:
        preds, _, _ = model.forward(features, rng=Rng(2))
        loss = ccc_loss(preds, labels)
    t1 = time.perf_counter()
    tape.backward(loss)
    t2 = time.perf_counter()
    digest = hashlib.sha256()
    for name, p in sorted(model.parameters().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(p.grad).tobytes())
    return {
        "batch": batch,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "forward_s": t1 - t0,
        "backward_s": t2 - t1,
        "grad_sha256": digest.hexdigest()[:16],
    }


def in_child(batch: int) -> dict:
    """``one_step`` in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    done = subprocess.run(
        [sys.executable, __file__, str(batch)], env=env, check=True,
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def show(row: dict):
    print(f"B={row['batch']:>3}  peak RSS {row['peak_rss_mb']:7.1f} MB  "
          f"forward {row['forward_s']:6.2f} s  backward {row['backward_s']:6.2f} s  "
          f"grad sha256 {row['grad_sha256']}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) > 1:  # child: one step, one JSON line
        print(json.dumps(one_step(int(sys.argv[1]))))
        sys.exit(0)

    rows = []
    for batch in (4, 8, 16):
        rows.append(in_child(batch))
        show(rows[-1])

    # -----------------------------------------------------------------------
    # Memory per sample from a least-squares line; B = 64 only if it fits.
    slope, intercept = np.polyfit([r["batch"] for r in rows],
                                  [r["peak_rss_mb"] for r in rows], 1)
    estimate = intercept + 64 * slope
    print(f"\n{slope:.1f} MB per sample; B=64 extrapolates to {estimate:.0f} MB")
    if estimate >= BUDGET_MB:
        print(f"not running B=64: the estimate is over {BUDGET_MB:.0f} MB")
    else:
        show(in_child(64))
