"""Command-line interface.

Subcommands::

    synth       generate a synthetic benchmark dataset as CSV files
    train       train a model on a dataset directory
    eval        score a trained model on a split
    ablate      evaluate every modality subset + attention importance
    experiment  multi-seed standard-vs-robust comparison with statistics
    trace       write one sample's predicted and true traces as CSV

Exit codes: 0 on success, 2 for configuration/usage mistakes, 1 for runtime
failures.  Commands that produce a directory write a ``manifest.json`` once
their run has succeeded, so a rejected run leaves an earlier manifest intact
(the manifest records the fully materialized configuration and a wall-clock
stamp; all other outputs are bit-reproducible for a fixed config and seed).
A directory a command created (its output directory, or the missing parents
of its output file) is removed again when the command fails with an emoreg
error, so a rejected run does not block its corrected rerun.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import sys
import traceback
from dataclasses import replace

import numpy as np

from . import __version__
from .configio import load_config_file, parse_int_list, parse_name_list, read_config
from .data import SynthConfig, load_dataset, synth_generate, write_dataset
from .errors import ConfigError, DataLoadError, EmoregError
from .model import (
    EmotionRegressor,
    ModelConfig,
    is_finite_real,
    load_checkpoint,
    load_model_state,
    save_checkpoint,
)
from .tensor import Rng
from .train import (
    ExperimentConfig,
    TrainConfig,
    ablation_study,
    evaluate,
    experiment_run,
    render_experiment_report,
    train_run,
)

CHECKPOINT_NAME = "model.ckpt"


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _made_dir(path):
    """Create the directory ``path`` and its missing parents for the body; if
    the body raises an ``EmoregError``, remove what this call created."""
    created, missing = None, os.path.abspath(path)
    while not os.path.exists(missing):  # ends with the outermost one to create
        created, missing = missing, os.path.dirname(missing)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc}") from None
    try:
        yield
    except EmoregError:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise


def _output_dir(out, force: bool):
    """``_made_dir(out)``, where ``out`` must not exist unless ``force``."""
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output path {out} exists and is not a directory")
    if os.path.exists(out) and not force:
        raise ConfigError(
            f"output directory {out} already exists; pass --force to reuse it"
        )
    return _made_dir(out)


def _write_manifest(out, command: str, payload: dict):
    manifest = {
        "tool": "emoreg",
        "version": __version__,
        "command": command,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest.update(payload)
    _write_json(os.path.join(out, "manifest.json"), manifest)


def _load_raw_config(path) -> dict:
    return load_config_file(path) if path else {}


def _output_file(out):
    """Check ``out`` can take an output file before any work is done: an
    existing directory there is a ``ConfigError``.  Returns ``_made_dir`` of
    its parent, so a failed command leaves no new directory behind."""
    if out is None:
        return contextlib.nullcontext()
    if os.path.isdir(out):
        raise ConfigError(f"output file {out} is an existing directory")
    return _made_dir(os.path.dirname(os.path.abspath(out)))


def _modalities_arg(value, known):
    if value is None:
        return None
    names = parse_name_list("--modalities", value)
    unknown = [m for m in names if m not in known]
    if unknown:
        raise ConfigError(
            f"--modalities: unknown {', '.join(unknown)} "
            f"(model has {', '.join(known)})"
        )
    return names


def _load_trained(path):
    config, params, norm_stats = load_checkpoint(path)
    try:
        model_cfg = ModelConfig.from_dict(config["model"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise DataLoadError(f"checkpoint {path}: bad model config: {exc!r}") from None
    for m in model_cfg.modalities:
        width = model_cfg.modality_widths[m]
        for stat, positive in ((f"{m}.mean", False), (f"{m}.std", True)):
            value = norm_stats.get(stat)
            if np.shape(value) != (width,):
                raise DataLoadError(
                    f"checkpoint {path}: norm stats {stat!r} missing or not of shape ({width},)"
                )
            if not is_finite_real(value) or (positive and (value <= 0).any()):
                raise DataLoadError(f"checkpoint {path}: norm stats {stat!r} must be finite"
                                    f"{' and > 0' if positive else ''}")
    model = EmotionRegressor(model_cfg, Rng(0))
    load_model_state(model, params)
    return model, norm_stats


@contextlib.contextmanager
def _eval_inputs(args):
    """Check ``--out``, then load the model and the split; the eval command's
    body gets (model, norm_stats, samples) and runs under ``_output_file``."""
    with _output_file(args.out):
        model, norm_stats = _load_trained(args.model)
        yield model, norm_stats, load_dataset(args.data, args.split, model.config.modalities)


def _find_sample(samples, sample_id: str):
    for s in samples:
        if s.sample_id == sample_id:
            return s
    raise DataLoadError(
        f"sample {sample_id!r} not found; available: "
        + ", ".join(s.sample_id for s in samples)
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    (synth_cfg,) = read_config(_load_raw_config(args.config), SynthConfig)
    with _output_dir(args.out, args.force):
        data = synth_generate(synth_cfg, args.seed)
        for split, samples in data.items():
            write_dataset(args.out, split, samples)
            print(f"wrote {len(samples)} samples to {os.path.join(args.out, split)}")
        _write_manifest(
            args.out, "synth", {"seed": args.seed, "synth": synth_cfg.to_dict()}
        )
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg = read_config(_load_raw_config(args.config), ModelConfig, TrainConfig)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    train_samples = load_dataset(args.data, "train", model_cfg.modalities)
    val_samples = load_dataset(args.data, "val", model_cfg.modalities)
    with _output_dir(args.out, args.force):
        log = None if args.quiet else print
        result = train_run(model_cfg, train_cfg, train_samples, val_samples, log=log)
        _write_manifest(
            args.out,
            "train",
            {
                "data": os.path.abspath(args.data),
                "n_train": len(train_samples),
                "n_val": len(val_samples),
                "model": model_cfg.to_dict(),
                "train": train_cfg.to_dict(),
            },
        )
        ckpt = os.path.join(args.out, CHECKPOINT_NAME)
        save_checkpoint(
            ckpt,
            {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()},
            result.model.parameters(),
            result.norm_stats,
        )
        _write_json(os.path.join(args.out, "history.json"), result.history.to_dict())
    print(
        f"best val ccc {result.history.best_val_ccc:.4f} "
        f"(epoch {result.history.best_epoch}); checkpoint at {ckpt}"
    )
    return 0


def cmd_eval(args) -> int:
    with _eval_inputs(args) as (model, norm_stats, samples):
        keep = _modalities_arg(args.modalities, model.config.modalities)
        result = evaluate(model, samples, norm_stats, use_modalities=keep)
        print(f"split      {args.split}")
        print(f"modalities {','.join(keep) if keep else 'all'}")
        print(f"ccc        {result.ccc:.4f}")
        print(f"rmse       {result.rmse:.4f}")
        print("per-sample ccc:")
        for sid in sorted(result.per_sample_ccc):
            print(f"  {sid}  {result.per_sample_ccc[sid]:.4f}")
        if args.out:
            payload = result.to_dict()
            payload["split"] = args.split
            payload["modalities"] = list(keep) if keep else "all"
            _write_json(args.out, payload)
            print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    with _eval_inputs(args) as (model, norm_stats, samples):
        report = ablation_study(model, samples, norm_stats)
        width = max(len("+".join(k)) for k in report.subsets)
        print(f"{'modalities'.ljust(width)}  {'ccc':>8}  {'rmse':>8}")
        for keep in sorted(report.subsets, key=lambda k: (len(k), k)):
            ev = report.subsets[keep]
            print(f"{'+'.join(keep).ljust(width)}  {ev.ccc:8.4f}  {ev.rmse:8.4f}")
        print("cross-attention importance:")
        for m, w in sorted(report.importance.items()):
            print(f"  {m}  {w:.4f}")
        if args.out:
            _write_json(args.out, {**report.to_dict(), "split": args.split})
            print(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    model_cfg, train_cfg, exp_cfg = read_config(
        _load_raw_config(args.config), ModelConfig, TrainConfig, ExperimentConfig
    )
    if args.seeds is not None:
        exp_cfg = replace(exp_cfg, seeds=parse_int_list("--seeds", args.seeds))
    seeds = exp_cfg.seeds
    datasets = {
        split: load_dataset(args.data, split, model_cfg.modalities)
        for split in ("train", "val", "test")
    }
    with _output_dir(args.out, args.force):
        log = None if args.quiet else print
        # experiment_run checks the seeds and the policy before it trains.
        report = experiment_run(
            model_cfg, train_cfg, datasets, seeds, exp_cfg.alpha, log=log
        )
        _write_manifest(
            args.out,
            "experiment",
            {
                "data": os.path.abspath(args.data),
                "model": model_cfg.to_dict(),
                "train": train_cfg.to_dict(),
                "seeds": seeds,
                "alpha": exp_cfg.alpha,
                "elimination": train_cfg.elimination,
            },
        )
        text = render_experiment_report(report)
        _write_json(os.path.join(args.out, "report.json"), report.to_dict())
        with open(os.path.join(args.out, "report.txt"), "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def cmd_trace(args) -> int:
    with _eval_inputs(args) as (model, norm_stats, samples):
        sample = _find_sample(samples, args.sample)
        keep = _modalities_arg(args.modalities, model.config.modalities)
        result = evaluate(model, [sample], norm_stats, use_modalities=keep)
        pred = result.predictions[sample.sample_id]
        with open(args.out, "w") as fh:
            fh.write("t,predicted,truth\n")
            for t, p, y in zip(sample.timestamps, pred, sample.labels):
                fh.write(f"{repr(float(t))},{repr(float(p))},{repr(float(y))}\n")
            fh.write(f"# ccc={repr(float(result.ccc))} rmse={repr(float(result.rmse))}\n")
        print(f"{sample.sample_id}: ccc {result.ccc:.4f}, rmse {result.rmse:.4f}; wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoreg",
        description="Time-continuous multimodal emotion regression.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Arguments shared by the commands that read a trained model ...
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--model", required=True, help="checkpoint file")
    scoring.add_argument("--data", required=True, help="dataset root directory")
    scoring.add_argument("--split", default="test")
    # ... and by the commands that train into a new run directory.
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--data", required=True, help="dataset root directory")
    training.add_argument("--out", required=True, help="run directory to create")
    training.add_argument("--config", help="flat key=value config file")
    training.add_argument("--force", action="store_true")
    training.add_argument("--quiet", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[training], help="train a model")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[scoring], help="evaluate a trained model")
    p.add_argument("--modalities", help="comma list restricting the streams used")
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[scoring], help="evaluate every modality subset")
    p.add_argument("--out", help="write report JSON here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser(
        "experiment", parents=[training],
        help="multi-seed robustness comparison with statistics",
    )
    p.add_argument("--seeds", help="comma list of seeds (default 0..9)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("trace", parents=[scoring], help="write predicted vs true trace CSV")
    p.add_argument("--sample", required=True, help="sample id")
    p.add_argument("--modalities", help="comma list restricting the streams used")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EmoregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
