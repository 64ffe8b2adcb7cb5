"""End-to-end tests of the command-line interface.

A tiny dataset is synthesized once and a tiny model trained once (module
scope); the read-only commands are exercised against those artifacts.
"""

import json
import os
import shutil
import zipfile

import numpy as np
import pytest

from emoreg.cli import main
from emoreg.data import load_dataset
from emoreg.model import load_checkpoint, save_checkpoint

SYNTH_CFG = """\
# tiny benchmark for CLI tests
synth.n_train = 3
synth.n_val = 2
synth.n_test = 2
synth.n_steps = 60
synth.width.audio = 4
synth.width.video = 4
synth.width.text = 3
"""

TRAIN_CFG = """\
model.d_model = 16
model.enc_heads = 2
model.enc_layers = 1
model.dec_heads = 1
model.dec_layers = 1
model.conv_layers = 2
model.conv_kernel = 3
model.d_ffn = 32
model.head_hidden = 8
model.mask_length = 8
model.dropout = 0.1
model.width.audio = 4
model.width.video = 4
model.width.text = 3

train.epochs = 4
train.batch_size = 8
train.learning_rate = 0.003
train.segment_length = 40
train.segment_hop = 20
train.seed = 1
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.cfg").write_text(SYNTH_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    return root


@pytest.fixture(scope="module")
def dataset(workspace):
    out = workspace / "data"
    rc = main(
        ["synth", "--config", str(workspace / "synth.cfg"),
         "--out", str(out), "--seed", "5"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(workspace, dataset):
    out = workspace / "run"
    rc = main(
        ["train", "--data", str(dataset), "--out", str(out),
         "--config", str(workspace / "train.cfg"), "--quiet"]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_layout(self, dataset):
        for split, count in (("train", 3), ("val", 2), ("test", 2)):
            sample_dirs = sorted(os.listdir(dataset / split))
            assert len(sample_dirs) == count
            first = dataset / split / sample_dirs[0]
            names = sorted(os.listdir(first))
            assert names == ["audio.csv", "labels.csv", "text.csv", "video.csv"]

    def test_manifest(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert manifest["synth"]["n_steps"] == 60
        # defaults are materialized, not left implicit
        assert manifest["synth"]["n_components"] == 4

    def test_refuses_existing_dir(self, dataset, workspace, capsys):
        rc = main(
            ["synth", "--config", str(workspace / "synth.cfg"),
             "--out", str(dataset), "--seed", "5"]
        )
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2(self, workspace, capsys):
        path = workspace / "a_file"
        path.write_text("mine")
        rc = main(
            ["synth", "--config", str(workspace / "synth.cfg"),
             "--out", str(path), "--force"]
        )
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err
        assert path.read_text() == "mine"

    def test_unknown_config_key(self, workspace, capsys):
        bad = workspace / "bad.cfg"
        bad.write_text("synth.n_stepss = 60\n")
        rc = main(
            ["synth", "--config", str(bad), "--out", str(workspace / "d2")]
        )
        assert rc == 2
        assert "n_stepss" in capsys.readouterr().err

    def test_negative_seed_exits_2_and_writes_nothing(self, workspace, capsys):
        out = workspace / "d_negative_seed" / "sub"  # the missing parent goes too
        rc = main(["synth", "--config", str(workspace / "synth.cfg"), "--out", str(out),
                   "--seed=-1"])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_non_finite_number_exits_2_and_writes_nothing(self, workspace, capsys):
        bad = workspace / "nan.cfg"
        bad.write_text(SYNTH_CFG + "synth.snr.video = nan\n")
        out = workspace / "d_nan"
        rc = main(["synth", "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert "synth.snr.video" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_artifacts(self, run_dir):
        names = sorted(os.listdir(run_dir))
        assert names == ["history.json", "manifest.json", "model.ckpt"]

    def test_manifest_materializes_defaults(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["model"]["d_model"] == 16
        assert manifest["train"]["epochs"] == 4
        # keys absent from the config file appear with their defaults
        assert manifest["train"]["beta2"] == pytest.approx(0.999)
        assert manifest["n_train"] == 3 and manifest["n_val"] == 2

    def test_history(self, run_dir):
        history = json.loads((run_dir / "history.json").read_text())
        assert 1 <= len(history["epochs"]) <= 4
        first = history["epochs"][0]
        assert set(first) >= {"epoch", "train_loss", "val_ccc", "learning_rate"}
        assert history["best_epoch"] >= 1

    def test_checkpoint_is_a_zip(self, run_dir):
        with zipfile.ZipFile(run_dir / "model.ckpt") as zf:
            names = zf.namelist()
        assert "config_json" in {n.split(".")[0] for n in names} or any(
            "config_json" in n for n in names
        )

    def test_refuses_existing_dir(self, run_dir, dataset, workspace, capsys):
        rc = main(
            ["train", "--data", str(dataset), "--out", str(run_dir),
             "--config", str(workspace / "train.cfg"), "--quiet"]
        )
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_seed_override_recorded(self, dataset, workspace):
        out = workspace / "seed-run"
        rc = main(
            ["train", "--data", str(dataset), "--out", str(out),
             "--config", str(workspace / "train.cfg"), "--seed", "7", "--quiet"]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["train"]["seed"] == 7

    def test_negative_seed_exits_2_and_writes_nothing(self, dataset, workspace, capsys):
        out = workspace / "r_negative_seed"
        rc = main(["train", "--data", str(dataset), "--out", str(out),
                   "--config", str(workspace / "train.cfg"), "--seed=-1", "--quiet"])
        assert rc == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_bit_identical(self, run_dir, dataset, workspace):
        out = workspace / "run-repeat"
        rc = main(
            ["train", "--data", str(dataset), "--out", str(out),
             "--config", str(workspace / "train.cfg"), "--quiet"]
        )
        assert rc == 0
        assert (out / "model.ckpt").read_bytes() == (
            run_dir / "model.ckpt"
        ).read_bytes()
        assert (out / "history.json").read_bytes() == (
            run_dir / "history.json"
        ).read_bytes()

    def test_sequence_over_max_steps_exits_1(self, dataset, workspace, capsys):
        # Validation samples (60 steps) exceed max_steps: a capacity error.
        cfg = workspace / "short.cfg"
        cfg.write_text(TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
                       + "model.max_steps = 50\n")
        rc = main(
            ["train", "--data", str(dataset), "--out", str(workspace / "short"),
             "--config", str(cfg), "--quiet"]
        )
        assert rc == 1
        assert "max_steps=50" in capsys.readouterr().err

    def test_rejected_run_leaves_no_directory(self, dataset, workspace, capsys):
        out = workspace / "rejected"
        cfg = workspace / "rejected.cfg"
        cfg.write_text(TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
                       + "model.max_steps = 50\n")
        args = ["train", "--data", str(dataset), "--out", str(out),
                "--config", str(cfg), "--quiet"]
        assert main(args) == 1
        assert not out.exists()
        # An existing directory reused under --force is never removed.
        out.mkdir()
        (out / "keep.txt").write_text("mine")
        assert main(args + ["--force"]) == 1
        assert (out / "keep.txt").read_text() == "mine"

    def test_rejected_run_leaves_forced_manifest_untouched(self, dataset, workspace, capsys):
        # 40-step training segments exceed max_steps: train_run rejects the
        # run, and the earlier run's manifest must survive it.
        out = workspace / "train_forced"
        out.mkdir()
        (out / "manifest.json").write_text("earlier run\n")
        cfg = workspace / "tiny_max_steps.cfg"
        cfg.write_text(TRAIN_CFG + "model.max_steps = 20\n")
        rc = main(["train", "--data", str(dataset), "--out", str(out),
                   "--config", str(cfg), "--force", "--quiet"])
        assert rc == 1
        assert "exceeds max_steps=20" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "earlier run\n"


class TestEval:
    def test_stdout_and_json(self, run_dir, dataset, workspace, capsys):
        out = workspace / "eval.json"
        rc = main(
            ["eval", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--split", "test", "--out", str(out)]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "ccc" in text and "rmse" in text
        payload = json.loads(out.read_text())
        assert set(payload) >= {"ccc", "rmse", "per_sample_ccc", "split"}
        assert len(payload["per_sample_ccc"]) == 2
        assert np.isfinite(payload["ccc"])

    def test_restricted_modalities(self, run_dir, dataset, capsys):
        rc = main(
            ["eval", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--modalities", "audio"]
        )
        assert rc == 0
        assert "audio" in capsys.readouterr().out

    def test_unknown_modality(self, run_dir, dataset, capsys):
        rc = main(
            ["eval", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--modalities", "sonar"]
        )
        assert rc == 2
        assert "sonar" in capsys.readouterr().err

    def test_missing_checkpoint(self, dataset, workspace, capsys):
        rc = main(
            ["eval", "--model", str(workspace / "absent.ckpt"),
             "--data", str(dataset)]
        )
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [
        "no_model_config", "non_integer_d_model", "fractional_d_ffn", "bool_head_hidden",
        "no_norm_stats", "norm_stats_too_narrow", "zero_std", "nan_mean",
    ])
    def test_malformed_checkpoint(self, run_dir, dataset, workspace, capsys, fault):
        config, params, norm_stats = load_checkpoint(run_dir / "model.ckpt")
        if fault == "no_model_config":
            del config["model"]
        elif fault == "non_integer_d_model":
            config["model"]["d_model"] = "abc"
        elif fault == "fractional_d_ffn":
            config["model"]["d_ffn"] = 8.5
        elif fault == "bool_head_hidden":
            config["model"]["head_hidden"] = True
        elif fault == "no_norm_stats":
            del norm_stats["audio.mean"]
        elif fault == "zero_std":
            norm_stats["audio.std"] = np.zeros_like(norm_stats["audio.std"])
        elif fault == "nan_mean":
            norm_stats["video.mean"][1] = np.nan
        else:
            norm_stats["video.std"] = norm_stats["video.std"][:2]
        bad = workspace / f"{fault}.ckpt"
        save_checkpoint(bad, config, params, norm_stats)
        rc = main(["eval", "--model", str(bad), "--data", str(dataset)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    @pytest.mark.parametrize("bad", [np.array([np.nan]), np.array(["x"])])
    def test_bad_parameter_is_named(self, run_dir, dataset, workspace, capsys, bad):
        config, params, norm_stats = load_checkpoint(run_dir / "model.ckpt")
        params["head.w2.b"] = bad
        path = workspace / "bad_parameter.ckpt"
        save_checkpoint(path, config, params, norm_stats)
        rc = main(["eval", "--model", str(path), "--data", str(dataset)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "head.w2.b" in err

    @pytest.mark.parametrize("command", [["eval"], ["eval", "--modalities", "video"], ["ablate"]])
    def test_wrong_feature_width_is_named(self, run_dir, dataset, tmp_path, capsys, command):
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "test" / "test000" / "audio.csv"  # 4 features -> 3
        rows = [line.split(",")[:4] for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        rc = main([*command, "--model", str(run_dir / "model.ckpt"), "--data", str(data)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "test000" in err and "'audio'" in err

    @pytest.mark.parametrize("command", [["eval"], ["ablate"], ["trace", "--sample", "test000"]])
    @pytest.mark.parametrize("name, message", [
        ("labels.csv", "sample test000: labels up to 1e+300 are too large to score"),
        ("audio.csv", "sample test000: non-finite predictions from audio"),
    ], ids=["labels", "features"])
    def test_value_too_large_to_score_is_named(self, run_dir, dataset, tmp_path, capsys,
                                               command, name, message):
        # Finite values that overflow the model or the metrics: once scored
        # as an inf RMSE or NaN CCC with exit 0.
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
        path = data / "test" / "test000" / name
        lines = path.read_text().splitlines()
        lines[1] = lines[1].split(",")[0] + ",1e300" + "".join(
            "," + x for x in lines[1].split(",")[2:])
        path.write_text("\n".join(lines) + "\n")
        rc = main([*command, "--model", str(run_dir / "model.ckpt"), "--data", str(data),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        last = capsys.readouterr().err.splitlines()[-1]  # after any numpy overflow warning
        assert last.startswith("error: ") and message in last


    @pytest.mark.parametrize("command", [["eval"], ["ablate"]])
    def test_sequence_over_max_steps_is_named(self, run_dir, dataset, workspace, capsys,
                                              command):
        # A 40-step copy of the checkpoint against 60-step test samples.
        config, params, norm_stats = load_checkpoint(run_dir / "model.ckpt")
        config["model"]["max_steps"] = 40
        for name in ("enc_positions.table", "dec_positions.table"):
            params[name] = params[name][:40]
        path = workspace / "max_steps_40.ckpt"
        save_checkpoint(path, config, params, norm_stats)
        rc = main([*command, "--model", str(path), "--data", str(dataset)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: sample test000: sequence of 60 steps exceeds max_steps=40\n"


class TestOutFile:
    def test_missing_parent_is_created(self, run_dir, dataset, tmp_path):
        out = tmp_path / "nodir" / "x.json"
        rc = main(["eval", "--model", str(run_dir / "model.ckpt"), "--data", str(dataset),
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["split"] == "test"

    @pytest.mark.parametrize("command", [["eval"], ["ablate"], ["trace", "--sample", "test000"]])
    def test_failed_command_removes_the_parents_it_created(self, tmp_path, capsys, command):
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "newdir" / "sub" / "x.json", tmp_path / "kept" / "sub" / "x.json"):
            rc = main([*command, "--model", str(tmp_path / "missing.ckpt"),
                       "--data", str(tmp_path / "nodata"), "--out", str(out)])
            assert rc == 1 and capsys.readouterr().err.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["kept"]
        assert os.listdir(tmp_path / "kept") == []

    @pytest.mark.parametrize("command", [["eval"], ["ablate"], ["trace", "--sample", "test000"]])
    def test_directory_rejected_before_the_model_loads(self, dataset, tmp_path, capsys,
                                                       command):
        rc = main([*command, "--model", str(tmp_path / "absent.ckpt"), "--data", str(dataset),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "is an existing directory" in capsys.readouterr().err


class TestAblate:
    def test_report(self, run_dir, dataset, workspace, capsys):
        out = workspace / "ablate.json"
        rc = main(
            ["ablate", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--split", "val", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["subsets"]) == 7  # 2^3 - 1 subsets
        assert set(payload["importance"]) == {"audio", "video", "text"}
        assert sum(payload["importance"].values()) == pytest.approx(1.0, abs=1e-6)
        assert "audio+video+text" in payload["subsets"]


class TestTrace:
    def test_csv(self, run_dir, dataset, workspace):
        out = workspace / "trace.csv"
        rc = main(
            ["trace", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--split", "test",
             "--sample", "test000", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,predicted,truth"
        assert lines[-1].startswith("# ccc=") and "rmse=" in lines[-1]
        body = lines[1:-1]
        assert len(body) == 60
        t, pred, truth = np.array(
            [[float(v) for v in row.split(",")] for row in body]
        ).T
        assert np.allclose(np.diff(t), 0.5)
        assert np.all(np.isfinite(pred))
        # truth column reproduces the stored labels bit-for-bit
        sample = [
            s for s in load_dataset(dataset, "test", ("audio", "video", "text"))
            if s.sample_id == "test000"
        ][0]
        assert np.array_equal(truth, sample.labels)

    def test_unknown_sample(self, run_dir, dataset, workspace, capsys):
        rc = main(
            ["trace", "--model", str(run_dir / "model.ckpt"),
             "--data", str(dataset), "--split", "test",
             "--sample", "nope", "--out", str(workspace / "t2.csv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "nope" in err and "test000" in err


class TestExperimentCommand:
    def test_smoke(self, dataset, workspace, capsys):
        cfg = workspace / "exp.cfg"
        cfg.write_text(
            TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
            + "eliminate.audio = 0.3\nexperiment.alpha = 0.1\n"
        )
        out = workspace / "exp"
        rc = main(
            ["experiment", "--data", str(dataset), "--out", str(out),
             "--config", str(cfg), "--seeds", "0,1", "--quiet"]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        assert report["alpha"] == pytest.approx(0.1)
        text = (out / "report.txt").read_text()
        assert "robust" in text and "standard" in text
        printed = capsys.readouterr().out
        assert "robust" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["elimination"] == {"audio": 0.3}

    @pytest.mark.parametrize("alpha", ["abc", "7"])
    def test_bad_alpha_exits_2(self, dataset, workspace, capsys, alpha):
        cfg = workspace / "alpha.cfg"
        cfg.write_text(
            TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
            + f"eliminate.audio = 0.3\nexperiment.alpha = {alpha}\n"
        )
        rc = main(
            ["experiment", "--data", str(dataset),
             "--out", str(workspace / f"exp_alpha_{alpha}"), "--config", str(cfg),
             "--seeds", "0,1"]
        )
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_rerun_after_rejected_alpha_needs_no_force(self, dataset, workspace, capsys):
        out = workspace / "exp_rerun"
        cfg = workspace / "rerun.cfg"
        base = TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1") + "eliminate.audio = 0.3\n"
        args = ["experiment", "--data", str(dataset), "--out", str(out),
                "--config", str(cfg), "--seeds", "0,1", "--quiet"]
        cfg.write_text(base + "experiment.alpha = 7\n")
        assert main(args) == 2
        assert not out.exists()
        cfg.write_text(base + "experiment.alpha = 0.1\n")
        assert main(args) == 0
        assert json.loads((out / "report.json").read_text())["alpha"] == pytest.approx(0.1)

    def test_repeated_seeds_exit_2_before_any_output(self, dataset, workspace, capsys):
        cfg = workspace / "seeds.cfg"
        cfg.write_text(TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
                       + "eliminate.audio = 0.3\n")
        out = workspace / "exp_seeds"
        rc = main(["experiment", "--data", str(dataset), "--out", str(out),
                   "--config", str(cfg), "--seeds", "3,3,4", "--quiet"])
        assert rc == 2
        assert not out.exists()
        assert "seeds repeat [3]" in capsys.readouterr().err

    def test_negative_seed_exits_2_before_any_output(self, dataset, workspace, capsys):
        cfg = workspace / "seeds.cfg"
        cfg.write_text(TRAIN_CFG.replace("train.epochs = 4", "train.epochs = 1")
                       + "eliminate.audio = 0.3\n")
        out = workspace / "exp_negative_seed"
        rc = main(["experiment", "--data", str(dataset), "--out", str(out),
                   "--config", str(cfg), "--seeds=3,-1"])
        assert rc == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seeds must be >= 0, got [3, -1]" in captured.err

    def test_requires_elimination(self, dataset, workspace, capsys):
        cfg = workspace / "noelim.cfg"
        cfg.write_text("train.epochs = 1\n")
        rc = main(
            ["experiment", "--data", str(dataset),
             "--out", str(workspace / "exp2"), "--config", str(cfg),
             "--seeds", "0,1"]
        )
        assert rc == 2
        assert "eliminate" in capsys.readouterr().err

    @pytest.mark.parametrize("config, seeds, code", [
        ("train.epochs = 1\n", "0,1", 2),
        ("train.epochs = 1\neliminate.audio = 0.3\n", "0", 1),
    ], ids=["no-policy", "one-seed"])
    def test_rejected_run_leaves_forced_dir_untouched(self, dataset, workspace, config, seeds,
                                                      code):
        cfg = workspace / "rejected.cfg"
        cfg.write_text(config)
        out = workspace / "exp_forced"
        out.mkdir(exist_ok=True)
        (out / "manifest.json").write_text("earlier run\n")
        rc = main(["experiment", "--data", str(dataset), "--out", str(out),
                   "--config", str(cfg), "--seeds", seeds, "--force", "--quiet"])
        assert rc == code
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_text() == "earlier run\n"


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "somewhere"])  # --out missing
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip()
