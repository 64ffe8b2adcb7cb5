"""Tests for the synthetic benchmark, CSV round trips, and segmentation."""

import os
import re

import numpy as np
import pytest

from emoreg.data import (
    STEP_SECONDS,
    EliminationPolicy,
    MultimodalSample,
    SynthConfig,
    collate,
    compute_norm_stats,
    load_dataset,
    load_sample,
    normalize_features,
    segment_samples,
    synth_generate,
    write_dataset,
)
from emoreg.errors import (
    ConfigError,
    ContractError,
    DataLoadError,
    InsufficientDataError,
)
from emoreg.objective import ccc
from emoreg.tensor import Rng


def small_synth(**overrides):
    base = dict(n_train=3, n_val=2, n_test=2, n_steps=80)
    base.update(overrides)
    return SynthConfig(**base)


class TestSynthConfig:
    def test_roundtrip(self):
        cfg = small_synth()
        assert SynthConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_synth(modalities=())
        with pytest.raises(ConfigError):
            small_synth(widths={"audio": 8})
        with pytest.raises(ConfigError):
            small_synth(snr={"audio": 25.0, "video": 0.0, "text": 1.0})
        with pytest.raises(ConfigError):
            small_synth(freq_lo=0.05, freq_hi=0.01)
        with pytest.raises(ConfigError):
            SynthConfig.from_dict({"n_tain": 3})

    @pytest.mark.parametrize("overrides, field", [
        ({"n_steps": 80.0}, "n_steps"),
        ({"n_distractors": False}, "n_distractors"),
        ({"widths": {"audio": 8, "video": 7.5, "text": 6}}, "widths['video']"),
    ])
    def test_non_integer_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected an integer"):
            small_synth(**overrides)
        assert small_synth(n_steps=np.int64(80)).n_steps == 80


class TestSynthGenerate:
    def test_split_sizes_and_shapes(self):
        cfg = small_synth()
        data = synth_generate(cfg, seed=1)
        assert [len(data[s]) for s in ("train", "val", "test")] == [3, 2, 2]
        s = data["train"][0]
        assert s.labels.shape == (80,)
        assert s.features["audio"].shape == (80, 8)
        assert s.features["text"].shape == (80, 6)
        np.testing.assert_allclose(np.diff(s.timestamps), 0.5, atol=1e-12)

    def test_labels_normalized(self):
        data = synth_generate(small_synth(), seed=2)
        for split in data.values():
            for s in split:
                assert np.max(np.abs(s.labels)) <= 1.0 + 1e-12
                assert np.max(np.abs(s.labels)) > 0.5  # rescaled to touch +/-1

    def test_deterministic(self):
        a = synth_generate(small_synth(), seed=3)
        b = synth_generate(small_synth(), seed=3)
        c = synth_generate(small_synth(), seed=4)
        np.testing.assert_array_equal(
            a["train"][1].features["video"], b["train"][1].features["video"]
        )
        np.testing.assert_array_equal(a["test"][0].labels, b["test"][0].labels)
        assert not np.array_equal(a["train"][1].labels, c["train"][1].labels)

    def test_samples_differ_within_split(self):
        data = synth_generate(small_synth(), seed=5)
        assert not np.array_equal(data["train"][0].labels, data["train"][1].labels)

    def test_snr_ordering_via_linear_readout(self):
        # Independent check of the informativeness design: a ridge read-out
        # recovers the label well from the high-SNR modality, and not at all
        # from the near-zero-SNR one.
        cfg = SynthConfig(n_train=6, n_val=1, n_test=3, n_steps=300)
        data = synth_generate(cfg, seed=6)

        def ridge(mods):
            def flat(split):
                X = np.concatenate(
                    [np.concatenate([s.features[m] for m in mods], 1) for s in split]
                )
                y = np.concatenate([s.labels for s in split])
                return X, y

            Xtr, ytr = flat(data["train"])
            Xte, yte = flat(data["test"])
            mu, sd = Xtr.mean(0), Xtr.std(0) + 1e-12
            Xtr, Xte = (Xtr - mu) / sd, (Xte - mu) / sd
            w = np.linalg.solve(
                Xtr.T @ Xtr + 1e-3 * np.eye(Xtr.shape[1]),
                Xtr.T @ (ytr - ytr.mean()),
            )
            return ccc(Xte @ w + ytr.mean(), yte)

        assert ridge(["audio"]) > 0.9
        assert abs(ridge(["text"])) < 0.2
        assert ridge(["audio", "video", "text"]) > 0.9


class TestCsvRoundtrip:
    def test_bit_exact(self, tmp_path):
        data = synth_generate(small_synth(), seed=7)
        write_dataset(tmp_path, "train", data["train"])
        loaded = load_dataset(tmp_path, "train", ("audio", "video", "text"))
        assert [s.sample_id for s in loaded] == ["train000", "train001", "train002"]
        for orig, back in zip(data["train"], loaded):
            np.testing.assert_array_equal(orig.labels, back.labels)
            np.testing.assert_array_equal(orig.timestamps, back.timestamps)
            for m in ("audio", "video", "text"):
                np.testing.assert_array_equal(orig.features[m], back.features[m])

    def test_missing_modality_roundtrip(self, tmp_path):
        s = MultimodalSample(
            "s0",
            np.arange(4) * 0.5,
            {"audio": np.ones((4, 2)), "video": None},
            np.zeros(4),
        )
        write_dataset(tmp_path, "test", [s])
        back = load_sample(os.path.join(tmp_path, "test", "s0"), ("audio", "video"))
        assert back.features["video"] is None
        assert back.features["audio"].shape == (4, 2)

    def test_absent_file_means_missing(self, tmp_path):
        s = MultimodalSample("s0", np.arange(3) * 0.5, {"audio": np.ones((3, 1))}, np.zeros(3))
        write_dataset(tmp_path, "test", [s])
        back = load_sample(os.path.join(tmp_path, "test", "s0"), ("audio", "video"))
        assert back.features["video"] is None


class TestLoadErrors:
    def write_sample(self, tmp_path):
        s = MultimodalSample(
            "s0", np.arange(4) * 0.5, {"audio": np.ones((4, 2))}, np.zeros(4)
        )
        write_dataset(tmp_path, "train", [s])
        return os.path.join(tmp_path, "train", "s0")

    def test_bad_column_count_names_file_and_row(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "audio.csv")
        with open(path, "a") as fh:
            fh.write("2.0,1.0\n")
        with pytest.raises(DataLoadError, match=r"audio\.csv:6"):
            load_sample(d, ("audio",))

    def test_bad_float_names_file_and_row(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "labels.csv")
        lines = open(path).read().splitlines()
        lines[2] = "0.5,oops"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=r"labels\.csv:3"):
            load_sample(d, ("audio",))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_file_and_row(self, tmp_path, value):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "labels.csv")
        lines = open(path).read().splitlines()
        lines[2] = f"0.5,{value}"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=r"labels\.csv:3: non-finite"):
            load_sample(d, ("audio",))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_row(self, tmp_path, value):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "audio.csv")
        lines = open(path).read().splitlines()
        lines[4] = f"1.5,1.0,{value}"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError, match=r"audio\.csv:5: non-finite"):
            load_sample(d, ("audio",))

    def test_non_utf8_byte_names_file_and_row(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "labels.csv")
        lines = open(path, "rb").read().splitlines()
        lines[2] = b"0.0,\xff\xfe"
        open(path, "wb").write(b"\n".join(lines) + b"\n")
        with pytest.raises(DataLoadError, match=r"labels\.csv:3: not UTF-8"):
            load_sample(d, ("audio",))

    def test_oversized_field_names_file_and_row(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "audio.csv")
        with open(path, "a") as fh:
            fh.write("2.0,1.0," + "1" * 200_000 + "\n")
        with pytest.raises(DataLoadError, match=r"audio\.csv:6: field larger"):
            load_sample(d, ("audio",))

    def test_bad_spacing_detected(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "labels.csv")
        lines = open(path).read().splitlines()
        lines[3] = "1.25,0.0"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataLoadError,
                           match=r"labels\.csv:4: timestamp spacing 0\.75, expected 0\.5$"):
            load_sample(d, ("audio",))

    def test_row_count_mismatch(self, tmp_path):
        d = self.write_sample(tmp_path)
        path = os.path.join(d, "audio.csv")
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DataLoadError, match="rows"):
            load_sample(d, ("audio",))

    def test_missing_labels(self, tmp_path):
        d = self.write_sample(tmp_path)
        os.remove(os.path.join(d, "labels.csv"))
        with pytest.raises(DataLoadError, match="labels"):
            load_sample(d, ("audio",))

    def test_missing_split(self, tmp_path):
        with pytest.raises(DataLoadError, match="val"):
            load_dataset(tmp_path, "val", ("audio",))


class TestNormalization:
    def test_stats_standardize(self):
        data = synth_generate(small_synth(), seed=8)
        stats = compute_norm_stats(data["train"], ("audio", "video", "text"))
        normed = [
            normalize_features(s.features, stats) for s in data["train"]
        ]
        x = np.concatenate([n["audio"] for n in normed])
        np.testing.assert_allclose(x.mean(0), 0.0, atol=1e-10)
        np.testing.assert_allclose(x.std(0), 1.0, atol=1e-10)

    def test_none_passthrough(self):
        stats = {"a.mean": np.zeros(2), "a.std": np.ones(2)}
        out = normalize_features({"a": None}, stats)
        assert out["a"] is None

    def test_no_provider_raises(self):
        s = MultimodalSample("x", np.arange(3) * 0.5, {"a": None}, np.zeros(3))
        with pytest.raises(InsufficientDataError):
            compute_norm_stats([s], ("a",))

    def test_constant_feature_guarded(self):
        s = MultimodalSample(
            "x", np.arange(10) * 0.5, {"a": np.full((10, 2), 3.0)}, np.zeros(10)
        )
        stats = compute_norm_stats([s], ("a",))
        out = normalize_features(s.features, stats)
        assert np.isfinite(out["a"]).all()


class TestSegmentation:
    def test_default_geometry(self):
        # 600 steps cut into length-250 windows every 50 steps: starts 0..350.
        data = synth_generate(SynthConfig(n_train=1, n_val=1, n_test=1), seed=9)
        segs = segment_samples(data["train"], 250, 50)
        assert len(segs) == 8
        starts = [int(seg.timestamps[0] / STEP_SECONDS) for seg in segs]
        assert starts == list(range(0, 400, 50))
        assert all(seg.n_steps == 250 for seg in segs)

    def test_short_sample_single_segment(self):
        data = synth_generate(small_synth(n_steps=30), seed=10)
        segs = segment_samples(data["val"], 100, 10)
        assert len(segs) == len(data["val"])
        assert segs[0].n_steps == 30

    def test_segment_content_matches_source(self):
        data = synth_generate(small_synth(), seed=11)
        s = data["train"][0]
        segs = segment_samples([s], 32, 16)
        for seg in segs:
            start = int(seg.timestamps[0] / STEP_SECONDS)
            sl = slice(start, start + 32)
            np.testing.assert_array_equal(seg.labels, s.labels[sl])
            np.testing.assert_array_equal(seg.features["audio"], s.features["audio"][sl])

    def test_segments_are_views_of_the_source(self):
        # A segment is a MultimodalSample whose arrays alias the source's:
        # segmenting copies no data.
        data = synth_generate(small_synth(), seed=11)
        s = data["train"][0]
        for seg in segment_samples([s], 32, 16) + segment_samples([s], 100, 10):
            assert isinstance(seg, MultimodalSample) and seg.sample_id == s.sample_id
            assert np.shares_memory(seg.timestamps, s.timestamps)
            assert np.shares_memory(seg.labels, s.labels)
            for m, x in s.features.items():
                assert np.shares_memory(seg.features[m], x)
            assert seg.features is not s.features

    def test_bad_geometry(self):
        with pytest.raises(ConfigError):
            segment_samples([], 0, 5)
        with pytest.raises(ConfigError):
            segment_samples([], 5, 0)


class TestCollate:
    def test_shapes(self):
        data = synth_generate(small_synth(), seed=12)
        segs = segment_samples(data["train"], 20, 20)
        feats, labels = collate(segs[:4], ("audio", "video", "text"))
        assert feats["audio"].shape == (4, 20, 8)
        assert labels.shape == (4, 20)

    def test_uniform_missing_ok(self):
        data = synth_generate(small_synth(), seed=13)
        segs = segment_samples(data["train"], 20, 20)[:3]
        for seg in segs:
            seg.features["video"] = None
        feats, _ = collate(segs, ("audio", "video", "text"))
        assert feats["video"] is None

    def test_partial_missing_rejected(self):
        data = synth_generate(small_synth(), seed=14)
        segs = segment_samples(data["train"], 20, 20)[:3]
        segs[1].features["video"] = None
        with pytest.raises(ContractError):
            collate(segs, ("audio", "video", "text"))

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            collate([], ("audio",))

    def test_lengths_checked_without_present_modalities(self):
        data = synth_generate(small_synth(), seed=15)
        segs = [segment_samples(data["train"], n, n)[0] for n in (20, 10)]
        for seg in segs:
            seg.features = dict.fromkeys(seg.features)
        with pytest.raises(ContractError, match="segment lengths disagree"):
            collate(segs, ("audio", "video", "text"))


class TestEliminationPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EliminationPolicy({"a": 0.7, "b": 0.5})
        with pytest.raises(ConfigError):
            EliminationPolicy({"a": -0.1})
        EliminationPolicy({"a": 0.6, "b": 0.4})  # exactly 1 is allowed

    def test_frequencies(self):
        policy = EliminationPolicy({"video": 0.25})
        rng = Rng(15)
        draws = [policy.sample(rng) for _ in range(20000)]
        f_video = draws.count("video") / len(draws)
        f_none = draws.count(None) / len(draws)
        assert abs(f_video - 0.25) < 0.02
        assert abs(f_none - 0.75) < 0.02

    def test_two_modality_policy(self):
        third = 1.0 / 3.0
        policy = EliminationPolicy({"audio": third, "video": third})
        rng = Rng(16)
        draws = [policy.sample(rng) for _ in range(30000)]
        for name in ("audio", "video", None):
            assert abs(draws.count(name) / len(draws) - third) < 0.02

    def test_at_most_one_removed(self):
        policy = EliminationPolicy({"a": 0.5, "b": 0.5})
        rng = Rng(17)
        for _ in range(50):
            # One name per draw, never None: the probabilities sum to 1 here.
            assert policy.sample(rng) in ("a", "b")
