"""Tests for optimization, scheduling, training runs, and experiments."""

import json

import numpy as np
import pytest

from emoreg.data import EliminationPolicy, SynthConfig, synth_generate
from emoreg.errors import (
    CapacityError,
    ConfigError,
    ContractError,
    InsufficientDataError,
    NoModalityError,
    ShapeError,
)
from emoreg.model import EmotionRegressor, ModelConfig
from emoreg.objective import MetricValue
from emoreg.tensor import Rng, Tape, Tensor
from emoreg import tensor as tz
from emoreg import train as train_module
from emoreg.train import (
    AdamOptimizer,
    Comparison,
    ExperimentConfig,
    ExperimentReport,
    PlateauScheduler,
    TrainConfig,
    ablation_study,
    evaluate,
    experiment_run,
    linear_baseline_ccc,
    render_experiment_report,
    train_run,
)


def tiny_model_config(**overrides):
    base = dict(
        modalities=("audio", "video", "text"),
        modality_widths={"audio": 8, "video": 8, "text": 6},
        d_model=16,
        enc_heads=2,
        enc_layers=1,
        dec_heads=2,
        dec_layers=1,
        conv_layers=2,
        conv_kernel=3,
        d_ffn=32,
        head_hidden=8,
        mask_length=8,
        dropout=0.1,
        max_steps=128,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_config(**overrides):
    base = dict(
        epochs=25,
        batch_size=16,
        learning_rate=3e-3,
        segment_length=40,
        segment_hop=20,
        seed=1,
    )
    base.update(overrides)
    return TrainConfig(**base)


def _sample_bytes(s):
    """Every array of a sample as bytes, to check it is left unchanged."""
    feats = {m: None if x is None else x.tobytes() for m, x in s.features.items()}
    return s.sample_id, s.timestamps.tobytes(), s.labels.tobytes(), feats


def tiny_data(seed=0, **synth_overrides):
    base = dict(n_train=3, n_val=2, n_test=2, n_steps=80)
    base.update(synth_overrides)
    return synth_generate(SynthConfig(**base), seed=seed)


class TestConfigs:
    @pytest.mark.parametrize("overrides, field", [
        ({"batch_size": 8.5}, "batch_size"),
        ({"seed": True}, "seed"),
    ])
    def test_train_config_non_integer_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=f"^{field}: expected an integer"):
            tiny_train_config(**overrides)
        assert tiny_train_config(epochs=np.int64(3)).epochs == 3

    @pytest.mark.parametrize("seeds", [[1.5, 1], [True, 2]])
    def test_experiment_seeds_must_be_integers(self, seeds):
        # Rng(1.5) would seed 1, so [1.5, 1] would train two identical runs.
        with pytest.raises(ConfigError, match="^seeds: expected an integer"):
            ExperimentConfig(seeds=seeds)
        assert ExperimentConfig(seeds=[np.int64(1), 2]).seeds == [1, 2]


class TestAdam:
    def test_matches_textbook_reference(self):
        # Drive both my implementation and a literal transcription of the
        # Adam update equations over the same gradient sequence.
        w = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        opt = AdamOptimizer({"w": w}, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
        ref_w = np.array([0.5, -1.0])
        m = np.zeros(2)
        v = np.zeros(2)
        grad_rng = Rng(0)
        for t in range(1, 51):
            g = grad_rng.normal(0, 1, (2,)) + 2.0 * ref_w
            w.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref_w = ref_w - 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
            # Keep the two trajectories on the same gradients.
            np.testing.assert_allclose(w.data, ref_w, atol=1e-12)
            ref_w = w.data.copy()

    def test_first_step_size_is_lr(self):
        # Bias correction makes the first update a unit step times lr,
        # whatever the gradient scale (up to eps for near-zero gradients).
        for scale in (1e-4, 1.0, 1e6):
            w = Tensor(np.array([0.0]), requires_grad=True)
            opt = AdamOptimizer({"w": w}, lr=0.01)
            w.grad = np.array([scale])
            opt.step()
            assert w.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        w = Tensor(np.array([5.0, -4.0]), requires_grad=True)
        opt = AdamOptimizer({"w": w}, lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            with Tape() as tape:
                loss = tz.tsum(w * w)
            tape.backward(loss)
            opt.step()
        np.testing.assert_allclose(w.data, 0.0, atol=1e-3)

    def test_none_gradients_skipped(self):
        w = Tensor(np.ones(2), requires_grad=True)
        opt = AdamOptimizer({"w": w}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(w.data, np.ones(2))


class TestPlateauScheduler:
    def make(self, halve=5, stop=15, lr=1.0):
        w = Tensor(np.zeros(1), requires_grad=True)
        opt = AdamOptimizer({"w": w}, lr=lr)
        return opt, PlateauScheduler(opt, halve, stop)

    def test_improvement_resets(self):
        opt, sched = self.make()
        assert sched.update(0.5) == "improved"
        for _ in range(4):
            assert sched.update(0.4) == "waiting"
        assert sched.update(0.6) == "improved"
        assert sched.since_halve == 0 and sched.since_improve == 0

    def test_halving_schedule(self):
        opt, sched = self.make(halve=3, stop=100)
        sched.update(0.5)
        outcomes = [sched.update(0.1) for _ in range(7)]
        assert outcomes == [
            "waiting", "waiting", "halved",
            "waiting", "waiting", "halved",
            "waiting",
        ]
        assert opt.lr == pytest.approx(0.25)

    def test_stop_takes_precedence(self):
        opt, sched = self.make(halve=5, stop=15)
        sched.update(0.9)
        outcomes = [sched.update(0.0) for _ in range(15)]
        assert outcomes[-1] == "stopped"
        assert outcomes.count("halved") == 2  # at the 5th and 10th miss
        assert opt.lr == pytest.approx(0.25)

    def test_equal_score_is_not_improvement(self):
        opt, sched = self.make(halve=2, stop=50)
        sched.update(0.7)
        assert sched.update(0.7) == "waiting"
        assert sched.update(0.7) == "halved"


class TestTrainRun:
    def test_learns_tiny_problem(self):
        data = tiny_data(seed=0)
        res = train_run(
            tiny_model_config(), tiny_train_config(), data["train"], data["val"]
        )
        assert res.history.best_val_ccc > 0.5
        test = evaluate(res.model, data["test"], res.norm_stats)
        assert test.ccc > 0.5
        losses = [e["train_loss"] for e in res.history.epochs]
        assert losses[-1] < losses[0] * 0.6

    def test_reproducible_bit_for_bit(self):
        data = tiny_data(seed=1)
        cfg_m, cfg_t = tiny_model_config(), tiny_train_config(epochs=4)
        a = train_run(cfg_m, cfg_t, data["train"], data["val"])
        b = train_run(cfg_m, cfg_t, data["train"], data["val"])
        pa, pb = a.model.parameters(), b.model.parameters()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)
        assert a.history.to_dict() == b.history.to_dict()

    def test_seed_changes_outcome(self):
        data = tiny_data(seed=2)
        cfg_m = tiny_model_config()
        a = train_run(cfg_m, tiny_train_config(epochs=2, seed=1),
                      data["train"], data["val"])
        b = train_run(cfg_m, tiny_train_config(epochs=2, seed=2),
                      data["train"], data["val"])
        assert not np.array_equal(
            a.model.parameters()["start_vector"].data,
            b.model.parameters()["start_vector"].data,
        )

    def test_best_weights_restored(self):
        data = tiny_data(seed=3)
        res = train_run(
            tiny_model_config(), tiny_train_config(epochs=12),
            data["train"], data["val"],
        )
        val = evaluate(res.model, data["val"], res.norm_stats)
        assert val.ccc == pytest.approx(res.history.best_val_ccc, abs=1e-12)

    def test_early_stopping(self):
        # Noise labels on the validation split: the score cannot keep
        # improving, so the stop counter must run out well before epochs do.
        data = tiny_data(seed=4)
        noise = Rng(99)
        for s in data["val"]:
            s.labels = noise.normal(0, 0.5, s.labels.shape)
        res = train_run(
            tiny_model_config(),
            tiny_train_config(epochs=60, halve_patience=2, stop_patience=4),
            data["train"], data["val"],
        )
        assert res.history.stopped_early
        assert len(res.history.epochs) < 60

    def test_incomplete_training_sample_rejected(self):
        data = tiny_data(seed=5)
        data["train"][0].features["video"] = None
        with pytest.raises(ContractError, match="video"):
            train_run(tiny_model_config(), tiny_train_config(epochs=1),
                      data["train"], data["val"])

    def test_elimination_config_validated(self):
        data = tiny_data(seed=6)
        with pytest.raises(ConfigError):
            train_run(
                tiny_model_config(),
                tiny_train_config(epochs=1, elimination={"bogus": 0.5}),
                data["train"], data["val"],
            )

    def test_elimination_training_runs(self, monkeypatch):
        # Each batch loses exactly the modality its draw names, if any.
        missing, forward = [], EmotionRegressor.forward

        def recording(model, features, rng=None):
            missing.append([m for m, x in features.items() if x is None])
            return forward(model, features, rng)

        monkeypatch.setattr(EmotionRegressor, "forward", recording)
        data = tiny_data(seed=7)
        cfg = tiny_train_config(epochs=3, elimination={"audio": 0.5})
        res = train_run(tiny_model_config(), cfg, data["train"], data["val"])
        assert len(res.history.epochs) == 3
        policy, rng = EliminationPolicy(cfg.elimination), Rng(cfg.seed).child("eliminate")
        draws = [policy.sample(rng) for _ in missing]
        assert missing == [[m] if m else [] for m in draws]
        assert ["audio"] in missing and [] in missing

    def test_empty_splits_rejected(self):
        data = tiny_data(seed=8)
        with pytest.raises(InsufficientDataError):
            train_run(tiny_model_config(), tiny_train_config(), [], data["val"])
        with pytest.raises(InsufficientDataError):
            train_run(tiny_model_config(), tiny_train_config(), data["train"], [])

    def test_capacity_checked_before_first_epoch(self, monkeypatch):
        # 80-step validation samples exceed max_steps: fail before the model
        # is built, not after an epoch of training.
        built = []
        monkeypatch.setattr(train_module, "EmotionRegressor", lambda *args: built.append(args))
        data = tiny_data(seed=9)
        logged = []
        with pytest.raises(CapacityError, match="max_steps=60"):
            train_run(tiny_model_config(max_steps=60), tiny_train_config(epochs=1),
                      data["train"], data["val"], log=logged.append)
        assert built == [] and logged == []

    @pytest.mark.parametrize("split, modality", [("train", "audio"), ("val", "video")])
    def test_feature_widths_checked_before_first_epoch(self, monkeypatch, split, modality):
        built = []
        monkeypatch.setattr(train_module, "EmotionRegressor", lambda *args: built.append(args))
        data = tiny_data(seed=9)
        sample = data[split][1]
        sample.features[modality] = sample.features[modality][:, :5]
        with pytest.raises(ShapeError, match=rf"{sample.sample_id}: modality '{modality}' has 5 "
                                             r"features, model expects 8"):
            train_run(tiny_model_config(), tiny_train_config(epochs=1),
                      data["train"], data["val"])
        assert built == []

    def test_long_training_samples_fit_as_segments(self):
        # 80-step training samples run as 40-step segments, inside max_steps.
        data = tiny_data(seed=9)
        val = [
            type(s)(s.sample_id, s.timestamps[:60],
                    {m: x[:60] for m, x in s.features.items()}, s.labels[:60])
            for s in data["val"]
        ]
        res = train_run(tiny_model_config(max_steps=60), tiny_train_config(epochs=1),
                        data["train"], val)
        assert len(res.history.epochs) == 1

    def test_mixed_length_samples_batch_by_segment_length(self, monkeypatch):
        # A 40-step sample gives two 20-step segments and a 15-step one a
        # single 15-step segment; batch_size 4 would stack all three.
        shapes, real = [], train_module.collate

        def recording(chunk, modalities):
            shapes.append(sorted(seg.n_steps for seg in chunk))
            return real(chunk, modalities)

        monkeypatch.setattr(train_module, "collate", recording)
        data = tiny_data(seed=10)
        train = [
            type(s)(s.sample_id, s.timestamps[:n],
                    {m: x[:n] for m, x in s.features.items()}, s.labels[:n])
            for s, n in zip(data["train"], (40, 15))
        ]
        res = train_run(tiny_model_config(),
                        tiny_train_config(epochs=2, batch_size=4, segment_length=20),
                        train, data["val"])
        assert len(res.history.epochs) == 2
        assert sorted(shapes) == [[15], [15], [20, 20], [20, 20]]

    def test_segments_alias_the_callers_samples(self, monkeypatch):
        # Training keeps no normalised copy of the data: every collated
        # segment is a view of a caller's sample, and the caller's arrays
        # come back bitwise unchanged.
        chunks, real = [], train_module.collate

        def recording(chunk, modalities):
            chunks.append(chunk)
            return real(chunk, modalities)

        monkeypatch.setattr(train_module, "collate", recording)
        data = tiny_data(seed=10)
        before = [_sample_bytes(s) for s in data["train"] + data["val"]]
        train_run(tiny_model_config(), tiny_train_config(epochs=2, elimination={"audio": 0.5}),
                  data["train"], data["val"])
        assert [_sample_bytes(s) for s in data["train"] + data["val"]] == before
        source = {s.sample_id: s for s in data["train"]}
        segs = [seg for chunk in chunks for seg in chunk]
        assert len(segs) == 2 * 3 * len(data["train"])  # 80 steps: windows at 0, 20, 40
        for seg in segs:
            s = source[seg.sample_id]
            assert np.shares_memory(seg.labels, s.labels)
            for m, x in s.features.items():
                assert np.shares_memory(seg.features[m], x), m

    def test_validation_modalities_checked_before_first_collate(self, monkeypatch):
        collated = []
        monkeypatch.setattr(train_module, "collate", lambda *args: collated.append(args))
        data = tiny_data(seed=10)
        s = data["val"][1]
        data["val"][1] = type(s)(s.sample_id, s.timestamps, dict.fromkeys(s.features), s.labels)
        with pytest.raises(NoModalityError,
                           match=rf"sample {s.sample_id} has none of the modalities "
                                 r"audio\+video\+text$"):
            train_run(tiny_model_config(), tiny_train_config(epochs=1),
                      data["train"], data["val"])
        assert collated == []


class TestEvaluate:
    def setup(self):
        self.data = tiny_data(seed=9)
        self.model_cfg = tiny_model_config()
        self.model = EmotionRegressor(self.model_cfg, Rng(0))
        from emoreg.data import compute_norm_stats

        self.stats = compute_norm_stats(self.data["train"], self.model_cfg.modalities)

    def test_global_metrics_match_concatenation(self):
        self.setup()
        from emoreg.objective import ccc, rmse

        res = evaluate(self.model, self.data["test"], self.stats)
        ordered = sorted(self.data["test"], key=lambda s: s.sample_id)
        flat_p = np.concatenate([res.predictions[s.sample_id] for s in ordered])
        flat_t = np.concatenate([s.labels for s in ordered])
        assert res.ccc == pytest.approx(ccc(flat_p, flat_t), abs=1e-12)
        assert res.rmse == pytest.approx(rmse(flat_p, flat_t), abs=1e-12)

    def test_restriction_changes_predictions(self):
        self.setup()
        full = evaluate(self.model, self.data["test"], self.stats)
        only_audio = evaluate(
            self.model, self.data["test"], self.stats, use_modalities=("audio",)
        )
        sid = sorted(full.predictions)[0]
        assert not np.array_equal(full.predictions[sid], only_audio.predictions[sid])

    def test_mixed_availability_batching(self):
        self.setup()
        samples = self.data["test"]
        samples[0].features["video"] = None
        res = evaluate(self.model, samples, self.stats)
        assert set(res.predictions) == {s.sample_id for s in samples}
        assert np.isfinite(list(res.per_sample_ccc.values())).all()

    def test_importance_collection(self):
        self.setup()
        res = evaluate(self.model, self.data["test"], self.stats)
        assert set(res.importance) == {"audio", "video", "text"}
        assert sum(res.importance.values()) == pytest.approx(1.0, abs=1e-9)

    def test_importance_is_reported_but_not_serialized(self):
        self.setup()
        res = evaluate(self.model, self.data["test"], self.stats)
        assert sum(res.importance.values()) == pytest.approx(1.0, abs=1e-9)
        assert set(res.to_dict()) == {"ccc", "rmse", "per_sample_ccc"}

    def test_mixed_patterns_credit_the_right_modality(self):
        # Three samples, each missing a different modality, decode as one
        # batch; each modality's importance must be the mean over the samples
        # that have it, as evaluating each pattern alone gives.
        self.setup()
        samples = []
        for s, drop in zip(tiny_data(seed=12, n_test=3)["test"], ("audio", "video", "text")):
            feats = {m: (None if m == drop else x) for m, x in s.features.items()}
            samples.append(type(s)(s.sample_id, s.timestamps, feats, s.labels))
        mixed = evaluate(self.model, samples, self.stats)
        alone = [evaluate(self.model, [s], self.stats) for s in samples]
        for s, res in zip(samples, alone):
            assert np.array_equal(mixed.predictions[s.sample_id], res.predictions[s.sample_id])
        for m in self.model_cfg.modalities:
            want = np.mean([res.importance[m] for res in alone if m in res.importance])
            assert mixed.importance[m] == pytest.approx(want, rel=1e-12)

    def test_no_samples(self):
        self.setup()
        with pytest.raises(InsufficientDataError):
            evaluate(self.model, [], self.stats)

    def test_over_long_sample_named_before_any_encode(self, monkeypatch):
        # The 80-step sample exceeds max_steps; the 40-step one would be
        # encoded first if the check waited for the stacking loop.
        self.setup()
        model = EmotionRegressor(tiny_model_config(max_steps=60), Rng(0))
        encoded = []
        monkeypatch.setattr(model, "encode", lambda batch: encoded.append(batch))
        s = self.data["test"][1]
        short = type(s)("short", s.timestamps[:40],
                        {m: x[:40] for m, x in s.features.items()}, s.labels[:40])
        with pytest.raises(CapacityError, match=rf"^sample {s.sample_id}: sequence of 80 steps "
                                                r"exceeds max_steps=60$"):
            evaluate(model, [short, s], self.stats)
        assert encoded == []

    def test_sample_without_the_subset_named(self):
        self.setup()
        samples = sorted(self.data["test"], key=lambda s: s.sample_id)
        samples[1].features["text"] = None
        with pytest.raises(NoModalityError,
                           match=rf"sample {samples[1].sample_id} has none of the modalities text$"):
            evaluate(self.model, samples, self.stats, use_modalities=("text",))


class TestAblation:
    def test_all_subsets_present(self):
        data = tiny_data(seed=10)
        model_cfg = tiny_model_config()
        model = EmotionRegressor(model_cfg, Rng(1))
        from emoreg.data import compute_norm_stats

        stats = compute_norm_stats(data["train"], model_cfg.modalities)
        before = [_sample_bytes(s) for s in data["test"]]
        report = ablation_study(model, data["test"], stats)
        assert [_sample_bytes(s) for s in data["test"]] == before
        assert len(report.subsets) == 7  # 2^3 - 1 non-empty subsets
        for keep, ev in report.subsets.items():
            assert np.isfinite(ev.ccc)
            assert np.isfinite(ev.rmse)
        assert ("audio", "video", "text") in report.subsets
        d = report.to_dict()
        json.dumps(d)  # must be serializable as-is

    def test_batched_subsets_match_per_subset_evaluate(self):
        # Subsets of equal modality count share one decode loop; each must
        # still predict exactly what evaluating it alone predicts.  A shorter
        # copy of a sample puts two lengths in play.
        data = tiny_data(seed=10)
        s0 = data["test"][0]
        short = type(s0)("short", s0.timestamps[:60],
                         {m: x[:60] for m, x in s0.features.items()}, s0.labels[:60])
        samples = data["test"] + [short]
        model_cfg = tiny_model_config()
        model = EmotionRegressor(model_cfg, Rng(1))
        from emoreg.data import compute_norm_stats

        stats = compute_norm_stats(data["train"], model_cfg.modalities)
        report = ablation_study(model, samples, stats)
        for keep, got in report.subsets.items():
            want = evaluate(model, samples, stats, use_modalities=keep)
            assert got.predictions.keys() == want.predictions.keys()
            for sid, pred in want.predictions.items():
                assert np.array_equal(got.predictions[sid], pred), (keep, sid)
            assert (got.ccc, got.rmse) == (want.ccc, want.rmse)
            assert got.importance == pytest.approx(want.importance, rel=1e-12)
        full = evaluate(model, samples, stats)
        assert report.importance.keys() == full.importance.keys()
        for m, w in full.importance.items():
            assert report.importance[m] == pytest.approx(w, rel=1e-12)

    def test_row_cap_changes_no_result(self, monkeypatch):
        # At EVAL_ROWS = 2 every stack is cut, and chunks mix availability
        # patterns; predictions and importance stay byte-identical, and no
        # decode holds more than the cap.
        data = tiny_data(seed=10, n_test=3)
        model_cfg = tiny_model_config()
        model = EmotionRegressor(model_cfg, Rng(1))
        from emoreg.data import compute_norm_stats

        stats = compute_norm_stats(data["train"], model_cfg.modalities)
        want = ablation_study(model, data["test"], stats)
        rows, decode = [], model.decode
        monkeypatch.setattr(model, "decode", lambda enc: rows.append(len(enc.data)) or decode(enc))
        monkeypatch.setattr(train_module, "EVAL_ROWS", 2)
        got = ablation_study(model, data["test"], stats)
        assert max(rows) == 2 and sum(rows) == 7 * len(data["test"])
        assert got.to_dict() == want.to_dict()
        for keep, ev in want.subsets.items():
            assert ev.importance == got.subsets[keep].importance
            for sid, pred in ev.predictions.items():
                assert got.subsets[keep].predictions[sid].tobytes() == pred.tobytes()

    def test_sample_without_a_subset_named(self):
        data = tiny_data(seed=10)
        model_cfg = tiny_model_config()
        model = EmotionRegressor(model_cfg, Rng(1))
        from emoreg.data import compute_norm_stats

        stats = compute_norm_stats(data["train"], model_cfg.modalities)
        samples = sorted(data["test"], key=lambda s: s.sample_id)
        samples[1].features["text"] = None
        with pytest.raises(NoModalityError,
                           match=rf"sample {samples[1].sample_id} has none of the modalities text$"):
            ablation_study(model, samples, stats)


class TestExperiment:
    def test_structure_and_serialization(self):
        data = tiny_data(seed=11)
        report = experiment_run(
            tiny_model_config(),
            tiny_train_config(epochs=3, elimination={"audio": 0.25}),
            data,
            seeds=[0, 1],
        )
        assert report.conditions == ["all", "no_audio", "no_video", "no_text"]
        assert report.variants == ["standard", "robust"]
        assert len(report.metrics) == 2 * 4 * 2
        # 4 conditions x 2 metrics one-sided + 2 variants x 3 two-sided.
        assert len(report.comparisons) == 8 + 6
        for mv in report.metrics.values():
            assert isinstance(mv, MetricValue)
            assert len(mv.values) == 2
        json.dumps(report.to_dict())

    def test_needs_two_seeds(self):
        data = tiny_data(seed=12)
        with pytest.raises(InsufficientDataError):
            experiment_run(
                tiny_model_config(), tiny_train_config(epochs=1), data, seeds=[0],
            )

    @pytest.mark.parametrize("policy, match", [
        ({}, r"elimination policy \(eliminate\.<modality> = rho\)"),
        ({"audoi": 0.25}, r"unknown modalities: \['audoi'\]"),
        ({"audio": 1.5}, "probability for 'audio' is 1.5"),
    ])
    def test_policy_checked_before_any_training(self, monkeypatch, policy, match):
        trained = []
        monkeypatch.setattr(train_module, "train_run", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=match):
            experiment_run(tiny_model_config(), tiny_train_config(epochs=1, elimination=policy),
                           tiny_data(seed=12), seeds=[0, 1])
        assert trained == []


    def test_test_split_checked_before_any_training(self, monkeypatch):
        # An audio-only test sample has none of no_audio's streams: fail
        # before the first training run, not after it.
        trained = []
        monkeypatch.setattr(train_module, "train_run", lambda *args: trained.append(args))
        data = tiny_data(seed=12)
        s = data["test"][0]
        s.features["video"] = s.features["text"] = None
        with pytest.raises(NoModalityError,
                           match=rf"sample {s.sample_id} has none of the modalities video\+text$"):
            experiment_run(tiny_model_config(),
                           tiny_train_config(epochs=1, elimination={"audio": 0.25}),
                           data, seeds=[0, 1])
        assert trained == []


class TestReportRendering:
    def fake_report(self):
        conditions = ["all", "no_audio"]
        metrics = {}
        for v in ("standard", "robust"):
            for c in conditions:
                metrics[(v, c, "ccc")] = MetricValue([0.7, 0.72, 0.71])
                metrics[(v, c, "rmse")] = MetricValue([0.2, 0.21, 0.19])
        comparisons = [
            Comparison("robustness", "robust vs standard, no_audio", "ccc",
                       "greater", 3.2, 0.004, 0.008, True),
            Comparison("degradation", "robust: no_audio vs all", "ccc",
                       "two-sided", 0.5, 0.62, 1.0, False),
            Comparison("degradation", "standard: no_audio vs all", "ccc",
                       "two-sided", 4.0, 0.001, 0.002, True),
        ]
        return ExperimentReport(
            seeds=[0, 1, 2], conditions=conditions,
            variants=["standard", "robust"], metrics=metrics,
            comparisons=comparisons, alpha=0.05,
        )

    def test_cells_and_marks(self):
        text = render_experiment_report(self.fake_report())
        assert "0.7100 (0.0100)" in text
        # Robust survived the no_audio removal (check) and beat standard
        # significantly there (double dagger).
        assert "✓" in text
        assert "‡" in text
        # Standard degraded significantly: its no_audio cell has no check.
        for line in text.splitlines():
            if line.startswith("standard"):
                assert "✓" not in line

    def test_report_lists_all_tests(self):
        text = render_experiment_report(self.fake_report())
        assert text.count("[robustness]") == 1
        assert text.count("[degradation]") == 2


class TestLinearBaseline:
    def test_oracle_on_synthetic(self):
        data = tiny_data(seed=13, n_train=5, n_steps=200)
        c = linear_baseline_ccc(
            data["train"], data["test"], ("audio", "video", "text")
        )
        assert c > 0.9
