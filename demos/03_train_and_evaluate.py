"""
Training the regression model
=============================

A small end-to-end run: build a model, train it with the CCC objective,
watch the plateau scheduler, and score the held-out split.  Scaled down
so it finishes in well under a minute on a laptop CPU.
"""

import numpy as np

from emoreg.data import SynthConfig, synth_generate
from emoreg.model import ModelConfig, EmotionRegressor
from emoreg.tensor import Rng
from emoreg.train import TrainConfig, evaluate, train_run

# ---------------------------------------------------------------------------
# A compact dataset and a compact model.  The model still has every piece
# of the full architecture: per-modality causal conv fronts, a banded
# bidirectional encoder over all modality tokens, and an autoregressive
# decoder that cross-attends the current step's encoder outputs.
synth = SynthConfig(n_train=6, n_val=2, n_test=2, n_steps=160,
                    widths={"audio": 8, "video": 8, "text": 6})
data = synth_generate(synth, seed=21)

model_cfg = ModelConfig(
    modality_widths={"audio": 8, "video": 8, "text": 6},
    d_model=16, enc_heads=2, enc_layers=1, dec_heads=1, dec_layers=1,
    conv_layers=2, conv_kernel=3, d_ffn=32, head_hidden=8,
    mask_length=8, dropout=0.1, max_steps=256,
)
n_params = sum(p.data.size for p in EmotionRegressor(model_cfg, Rng(0)).parameters().values())
print(f"model parameters: {n_params}")

# ---------------------------------------------------------------------------
# The loss is 1 - CCC per training segment; validation runs on the full
# sequences each epoch.  The scheduler halves the learning rate after
# `halve_patience` epochs without improvement and stops the run after
# `stop_patience`.
train_cfg = TrainConfig(
    epochs=15, batch_size=8, learning_rate=3e-3,
    halve_patience=3, stop_patience=8,
    segment_length=80, segment_hop=40, seed=1,
)
result = train_run(model_cfg, train_cfg, data["train"], data["val"], log=print)
history = result.history
print(f"\nbest epoch {history.best_epoch} "
      f"(val ccc {history.best_val_ccc:.4f}); "
      f"stopped early: {history.stopped_early}")

# ---------------------------------------------------------------------------
# evaluate() scores full sequences: global CCC/RMSE over the concatenated
# predictions plus a per-sample breakdown.
test = evaluate(result.model, data["test"], result.norm_stats)
print(f"\ntest ccc {test.ccc:.4f}, rmse {test.rmse:.4f}")
for sid, score in sorted(test.per_sample_ccc.items()):
    print(f"  {sid}  ccc {score:+.4f}")

# ---------------------------------------------------------------------------
# A crude character plot of prediction vs truth for one test sample.
sid = sorted(test.predictions)[0]
pred = test.predictions[sid]
truth = [s for s in data["test"] if s.sample_id == sid][0].labels
levels = " .:-=+*#"


def row(values):
    lo, hi = truth.min(), truth.max()
    scaled = np.clip((values - lo) / (hi - lo + 1e-12), 0, 1)
    return "".join(levels[int(v * (len(levels) - 1))] for v in scaled[::4])


print(f"\n{sid}, every 2 s:")
print(f"  truth     {row(truth)}")
print(f"  predicted {row(pred)}")
