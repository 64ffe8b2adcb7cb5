"""Tests for the flat key=value config format and the config reader."""

import pytest

from emoreg.configio import (
    load_config_file,
    parse_flat_config,
    parse_int_list,
    read_config,
)
from emoreg.data import SynthConfig
from emoreg.errors import ConfigError
from emoreg.model import ModelConfig
from emoreg.train import ExperimentConfig, TrainConfig


class TestParseFlatConfig:
    def test_basic(self):
        text = "a = 1\nb.c = hello\n"
        assert parse_flat_config(text) == {"a": "1", "b.c": "hello"}

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\n  # indented comment\na = 1\n"
        assert parse_flat_config(text) == {"a": "1"}

    def test_whitespace_tolerant(self):
        assert parse_flat_config("  key=  spaced value  ") == {"key": "spaced value"}

    def test_value_may_contain_equals(self):
        # partition on the first '=' only
        assert parse_flat_config("k = a=b") == {"k": "a=b"}

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_flat_config("a = 1\n# ok\nnot an assignment\n")

    def test_empty_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*empty key"):
            parse_flat_config("a = 1\n = orphan\n")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate.*'a'"):
            parse_flat_config("a = 1\nb = 2\na = 3\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(tmp_path / "nope.cfg")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("model.d_model = 16\n")
        assert load_config_file(path) == {"model.d_model": "16"}

    def test_int_list(self):
        assert parse_int_list("seeds", "3,1,4") == [3, 1, 4]
        with pytest.raises(ConfigError, match="seeds"):
            parse_int_list("seeds", "3,x")


class TestModelBuilder:
    def test_defaults_when_empty(self):
        (cfg,) = read_config({}, ModelConfig)
        assert cfg.d_model == 64 and cfg.modalities == ("audio", "video", "text")

    def test_scalars_applied(self):
        raw = {"model.d_model": "16", "model.dropout": "0.1", "model.enc_layers": "1"}
        (cfg,) = read_config(raw, ModelConfig)  # every key claimed
        assert cfg.d_model == 16
        assert cfg.dropout == pytest.approx(0.1)
        assert cfg.enc_layers == 1

    def test_width_merges_onto_default_modalities(self):
        raw = {"model.width.audio": "12"}
        (cfg,) = read_config(raw, ModelConfig)
        assert cfg.modality_widths["audio"] == 12
        assert cfg.modality_widths["video"] == 30  # default untouched

    def test_modalities_override_replaces_widths(self):
        raw = {
            "model.modalities": "eeg, gaze",
            "model.width.eeg": "7",
            "model.width.gaze": "3",
        }
        (cfg,) = read_config(raw, ModelConfig)
        assert cfg.modalities == ("eeg", "gaze")
        assert cfg.modality_widths == {"eeg": 7, "gaze": 3}

    def test_modalities_override_without_widths_rejected(self):
        with pytest.raises(ConfigError, match="no feature width"):
            read_config({"model.modalities": "eeg"}, ModelConfig)

    def test_bad_int_names_key(self):
        with pytest.raises(ConfigError, match="model.d_model.*integer"):
            read_config({"model.d_model": "sixteen"}, ModelConfig)

    def test_width_of_no_configured_modality_rejected(self):
        with pytest.raises(ConfigError, match=r"^model\.width\.audoi: "):
            read_config({"model.width.audoi": "12"}, ModelConfig)
        raw = {"model.modalities": "eeg", "model.width.eeg": "7", "model.width.gaze": "3"}
        with pytest.raises(ConfigError, match=r"^model\.width\.gaze: "):
            read_config(raw, ModelConfig)

    def test_unknown_model_key_left_unconsumed(self):
        raw = {"model.d_modell": "16"}
        with pytest.raises(ConfigError, match="unknown config keys.*model.d_modell"):
            read_config(raw, ModelConfig)


class TestTrainBuilder:
    def test_scalars_and_elimination(self):
        raw = {
            "train.epochs": "3",
            "train.learning_rate": "0.001",
            "eliminate.audio": "0.25",
            "eliminate.video": "0.1",
        }
        (cfg,) = read_config(raw, TrainConfig)  # every key claimed
        assert cfg.epochs == 3
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.elimination == {"audio": 0.25, "video": 0.1}

    def test_defaults_materialize(self):
        (cfg,) = read_config({}, TrainConfig)
        assert cfg.beta2 == pytest.approx(0.999)
        assert cfg.elimination == {}

    def test_elimination_of_no_model_modality_rejected(self):
        raw = {"eliminate.vidoe": "0.2"}
        with pytest.raises(ConfigError, match=r"^eliminate\.vidoe: 'vidoe' is not one"):
            read_config(raw, ModelConfig, TrainConfig)
        with pytest.raises(ConfigError, match=r"^eliminate\.video: "):
            read_config({"model.modalities": "audio", "model.width.audio": "4",
                         "eliminate.video": "0.2"}, TrainConfig, ModelConfig)
        # Without a model section in the same read there is nothing to check against.
        (cfg,) = read_config(raw, TrainConfig)
        assert cfg.elimination == {"vidoe": 0.2}

    def test_typo_is_rejected_by_consumption_check(self):
        raw = {"train.learning_rte": "0.001"}
        with pytest.raises(ConfigError, match="learning_rte"):
            read_config(raw, TrainConfig)


class TestSynthBuilder:
    def test_scalars_and_per_modality_merge(self):
        raw = {
            "synth.n_train": "4",
            "synth.snr.video": "2.5",
            "synth.width.text": "3",
        }
        (cfg,) = read_config(raw, SynthConfig)
        assert cfg.n_train == 4
        assert cfg.snr["video"] == pytest.approx(2.5)
        assert cfg.snr["audio"] == pytest.approx(25.0)  # default kept
        assert cfg.widths["text"] == 3
        assert cfg.widths["audio"] == 8

    def test_modalities_override_replaces_tables(self):
        raw = {
            "synth.modalities": "a, b",
            "synth.width.a": "4",
            "synth.width.b": "2",
            "synth.snr.a": "10",
            "synth.snr.b": "0.5",
        }
        (cfg,) = read_config(raw, SynthConfig)
        assert cfg.modalities == ("a", "b")
        assert set(cfg.widths) == {"a", "b"}
        assert set(cfg.snr) == {"a", "b"}

    def test_width_of_no_configured_modality_rejected(self):
        with pytest.raises(ConfigError, match=r"^synth\.width\.audoi: "):
            read_config({"synth.width.audoi": "4"}, SynthConfig)

    def test_snr_of_no_configured_modality_rejected(self):
        with pytest.raises(ConfigError, match=r"^synth\.snr\.vidoe: "):
            read_config({"synth.snr.vidoe": "0.5"}, SynthConfig)

    def test_override_missing_snr_rejected(self):
        raw = {"synth.modalities": "a", "synth.width.a": "4"}
        with pytest.raises(ConfigError, match="no snr"):
            read_config(raw, SynthConfig)


class TestConsumption:
    def test_all_builders_together(self):
        raw = {
            "model.d_model": "16",
            "train.epochs": "2",
            "eliminate.video": "0.2",
            "synth.n_steps": "50",
        }
        read_config(raw, ModelConfig, TrainConfig, SynthConfig)  # no leftovers

    def test_unknown_section_listed_sorted(self):
        raw = {"zzz.x": "1", "aaa.y": "2"}
        with pytest.raises(ConfigError, match=r"aaa\.y, zzz\.x"):
            read_config(raw)


class TestExperimentSection:
    def test_defaults(self):
        (cfg,) = read_config({}, ExperimentConfig)
        assert cfg.seeds == list(range(10))
        assert cfg.alpha == pytest.approx(0.05)

    def test_seeds_and_alpha(self):
        raw = {"experiment.seeds": "3,1,4", "experiment.alpha": "0.1"}
        (cfg,) = read_config(raw, ExperimentConfig)
        assert cfg.seeds == [3, 1, 4]
        assert cfg.alpha == pytest.approx(0.1)

    def test_repeated_seeds_and_bad_alpha_rejected_at_read(self):
        with pytest.raises(ConfigError, match=r"seeds repeat \[3\]"):
            read_config({"experiment.seeds": "3,3,3,4"}, ExperimentConfig)
        with pytest.raises(ConfigError, match="alpha must lie in"):
            read_config({"experiment.alpha": "1.5"}, ExperimentConfig)


@pytest.mark.parametrize(
    "cls, key, value",
    [
        (SynthConfig, "synth.snr.video", "nan"),
        (SynthConfig, "synth.freq_hi", "inf"),
        (TrainConfig, "train.learning_rate", "nan"),
        (TrainConfig, "train.adam_eps", "inf"),
        (TrainConfig, "eliminate.audio", "-inf"),
        (ModelConfig, "model.dropout", "1e400"),
        (ExperimentConfig, "experiment.alpha", "NaN"),
    ],
)
def test_non_finite_number_names_key_and_value(cls, key, value):
    with pytest.raises(ConfigError, match=rf"{key}: expected a finite number, got '{value}'"):
        read_config({key: value}, cls)
