"""
Robustness training and the multi-seed experiment harness
=========================================================

Standard training happily over-relies on the cleanest stream; when that
stream disappears at test time, performance collapses.  Robustness
training removes the dominant modality in a random quarter of training
batches, forcing the model to build a fallback path.  The experiment
harness quantifies the difference across seeds with Welch t-tests and a
Holm-Bonferroni correction.

Runs ~8 training jobs; expect a couple of minutes on a laptop CPU.
"""

from emoreg.data import SynthConfig, synth_generate
from emoreg.model import ModelConfig
from emoreg.train import TrainConfig, experiment_run, render_experiment_report

synth = SynthConfig(n_train=6, n_val=2, n_test=4, n_steps=160,
                    widths={"audio": 8, "video": 8, "text": 6})
data = synth_generate(synth, seed=21)
model_cfg = ModelConfig(
    modality_widths={"audio": 8, "video": 8, "text": 6},
    d_model=16, enc_heads=2, enc_layers=1, dec_heads=1, dec_layers=1,
    conv_layers=2, conv_kernel=3, d_ffn=32, head_hidden=8,
    mask_length=8, dropout=0.0, max_steps=256,
)
train_cfg = TrainConfig(
    epochs=20, batch_size=8, learning_rate=3e-3,
    halve_patience=4, stop_patience=10,
    segment_length=80, segment_hop=40, seed=0,
    elimination={"audio": 0.25},
)

# ---------------------------------------------------------------------------
# Two variants per seed: "standard" trains on complete streams; "robust"
# eliminates audio with probability 0.25 per batch (train_cfg.elimination).
# Four seeds keep the demo quick; the test suite runs the same experiment
# with twelve.
report = experiment_run(
    model_cfg, train_cfg, data,
    seeds=range(4),
    alpha=0.05,
    log=print,
)

print()
print(render_experiment_report(report))

# ---------------------------------------------------------------------------
# The structured result carries every comparison; pick out the headline.
gain = [
    c for c in report.comparisons
    if c.family == "robustness" and "no_audio" in c.label and c.metric == "ccc"
][0]
std = report.metric("standard", "no_audio", "ccc")
rob = report.metric("robust", "no_audio", "ccc")
print(f"\nwithout audio: standard ccc {std}, robust ccc {rob}")
print(f"one-sided Welch p = {gain.p_value:.4f} "
      f"(Holm-adjusted {gain.adjusted_p:.4f})")
