"""One workload in one process: build its inputs, run closed-loop operations
for a fixed time, check the outputs and print the result as JSON.

``run.py`` starts this file as a child process with the BLAS thread count set
in its environment; the result is the last line of its standard output.
Every input comes from this file's own seeded generator, never from
``emoreg.data.synth_generate``, so a change to the program cannot change
what the benchmark feeds it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from emoreg import data, model, tensor, train

from spans import Tracer
from stats import median, tail_percentile

STEP_SECONDS = 0.5  # the time grid the CSV loader expects
WIDTHS = {"audio": 8, "video": 8, "text": 6}
# Clean audio, noisy video, near-noise text: one dominant modality.
SNR = {"audio": 25.0, "video": 1.0, "text": 1e-4}
SETUP_REPEATS = 11
# Timed operations an untraced run makes at least, after its warm-up.
MIN_OPS = 3
TRAIN_SEED = 0  # fixed, so every input seed replays the same elimination draws


@dataclass
class Workload:
    kind: str  # "train" or "eval"
    splits: dict  # split -> (n_samples, n_steps)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)


WORKLOADS = {
    "train-paper": Workload(
        "train", {"train": (4, 450), "val": (1, 450)},
        train=dict(epochs=1, batch_size=4, segment_length=250, segment_hop=50,
                   elimination={"audio": 0.3}),
    ),
    "eval-long": Workload("eval", {"test": (3, 600)}),
}


# ---------------------------------------------------------------------------
# Inputs


def _wave(rng, n_steps):
    """Sum of four random sinusoids (periods 25-250 s), scaled into [-1, 1]."""
    t = np.arange(n_steps) * STEP_SECONDS
    z = np.zeros(n_steps)
    for _ in range(4):
        amp, freq, phase = rng.uniform(0.5, 1.0), rng.uniform(0.004, 0.04), rng.uniform(0, 2 * math.pi)
        z += amp * np.sin(2 * math.pi * freq * t + phase)
    return z / np.max(np.abs(z))


def generate(seed: int, splits: dict) -> dict:
    """split -> list of (sample_id, labels [T], {modality: features [T, w]}).

    Each modality is a fixed linear read-out of a latent trace (the label)
    plus two distractor traces and white noise at the modality's SNR.
    """
    rng = np.random.default_rng(seed)
    mixing = {
        m: (rng.uniform(0.5, 1.5, w) * rng.choice([-1.0, 1.0], w), rng.uniform(-1, 1, (w, 2)))
        for m, w in WIDTHS.items()
    }
    out = {}
    for split, (n_samples, n_steps) in splits.items():
        samples = []
        for i in range(n_samples):
            z = _wave(rng, n_steps)
            feats = {}
            for m, (signal, clutter) in mixing.items():
                distract = np.stack([_wave(rng, n_steps), _wave(rng, n_steps)], axis=1)
                sigma = np.abs(signal) * z.std() / math.sqrt(SNR[m])
                noise = rng.normal(0.0, 1.0, (n_steps, WIDTHS[m])) * sigma
                feats[m] = np.outer(z, signal) + distract @ clutter.T + noise
            samples.append((f"{split}{i:03d}", z, feats))
        out[split] = samples
    return out


def _write_csv(path, header, columns):
    table = np.column_stack(columns)
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_inputs(root, generated: dict):
    """Write samples in emoreg's documented CSV dataset layout."""
    for split, samples in generated.items():
        for sample_id, labels, feats in samples:
            d = os.path.join(root, split, sample_id)
            os.makedirs(d)
            ts = np.arange(labels.shape[0]) * STEP_SECONDS
            _write_csv(os.path.join(d, "labels.csv"), ["timestamp", "value"], [ts, labels])
            for m, x in feats.items():
                header = ["timestamp"] + [f"f{j}" for j in range(x.shape[1])]
                _write_csv(os.path.join(d, f"{m}.csv"), header, [ts, x])


def model_config(spec: Workload) -> model.ModelConfig:
    return model.ModelConfig(modality_widths=dict(WIDTHS), **spec.model)


# ---------------------------------------------------------------------------
# Operations


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def _ccc(pred, truth) -> float:
    """Lin's concordance correlation with population moments; an oracle
    written independently of emoreg.objective."""
    mp, mt = pred.mean(), truth.mean()
    cov = np.mean((pred - mp) * (truth - mt))
    return 2 * cov / (pred.var() + truth.var() + (mp - mt) ** 2 + 1e-8)


class TrainOp:
    """One ``train_run``; epochs are stamped through its ``log`` callback."""

    def __init__(self, spec: Workload, root: str):
        mods = tuple(WIDTHS)
        self.model_cfg = model_config(spec)
        epochs = spec.train["epochs"]
        self.train_cfg = train.TrainConfig(
            **spec.train, stop_patience=epochs, seed=TRAIN_SEED
        )
        self.train_samples = data.load_dataset(root, "train", mods)
        self.val_samples = data.load_dataset(root, "val", mods)
        length, hop = self.train_cfg.segment_length, self.train_cfg.segment_hop
        self.timesteps_per_epoch = sum(
            ((s.n_steps - length) // hop + 1) * length if s.n_steps > length else s.n_steps
            for s in self.train_samples
        )

    def __call__(self) -> dict:
        stamps = [time.perf_counter()]
        result = train.train_run(
            self.model_cfg, self.train_cfg, self.train_samples, self.val_samples,
            log=lambda _line: stamps.append(time.perf_counter()),
        )
        wall = time.perf_counter() - stamps[0]
        hist = result.history.to_dict()
        values = [e["train_loss"] for e in hist["epochs"]] + [e["val_ccc"] for e in hist["epochs"]]
        params = result.model.parameters()
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite loss or validation CCC: {values}")
        if not all(np.isfinite(p.data).all() for p in params.values()):
            raise CheckFailed("non-finite trained parameters")
        # Equal weights give equal predictions, so the digest covers them.
        digest = _digest(hist, *(params[k].data.tobytes() for k in sorted(params)))
        return {
            "wall": wall,
            "passes": np.diff(stamps).tolist(),
            "timesteps": self.timesteps_per_epoch * len(hist["epochs"]),
            "digest": digest,
            "ccc": hist["best_val_ccc"],
        }


class EvalOp:
    """What ``emoreg ablate`` does: load checkpoint and split, run every subset."""

    def __init__(self, root: str, ckpt: str):
        self.root, self.ckpt = root, ckpt

    def __call__(self) -> dict:
        t0 = time.perf_counter()
        config, params, norm_stats = model.load_checkpoint(self.ckpt)
        net = model.EmotionRegressor(model.ModelConfig.from_dict(config["model"]), tensor.Rng(0))
        model.load_model_state(net, params)
        samples = data.load_dataset(self.root, "test", net.config.modalities)
        report = train.ablation_study(net, samples, norm_stats)
        wall = time.perf_counter() - t0
        truth = np.concatenate([s.labels for s in samples])
        parts = []
        for keep in sorted(report.subsets):
            ev = report.subsets[keep]
            pred = np.concatenate([ev.predictions[s.sample_id] for s in samples])
            if not np.isfinite(pred).all():
                raise CheckFailed(f"non-finite predictions with modalities {keep}")
            if not abs(_ccc(pred, truth) - ev.ccc) <= 1e-9:
                raise CheckFailed(f"CCC {ev.ccc} disagrees with the oracle for {keep}")
            parts.append(pred.tobytes())
        weights = sum(report.importance.values())
        if not abs(weights - 1.0) <= 1e-9:
            raise CheckFailed(f"modality importance sums to {weights}, not 1")
        full = report.subsets[tuple(net.config.modalities)]
        return {
            "wall": wall,
            "passes": [wall],
            "timesteps": truth.size * len(report.subsets),
            "digest": _digest(report.importance, *parts),
            "ccc": full.ccc,
        }


# ---------------------------------------------------------------------------
# Set-up and the closed loop


def setup(spec: Workload, seed: int, work: str):
    """Generate and write the inputs (and, for eval, build and save the
    model).  Returns (operation, seconds taken)."""
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    generated = generate(seed, spec.splits)
    write_inputs(work, generated)
    if spec.kind == "train":
        op = TrainOp(spec, work)
    else:
        cfg = model_config(spec)
        net = model.EmotionRegressor(cfg, tensor.Rng(seed))
        stats = {}
        for m in cfg.modalities:
            x = np.concatenate([feats[m] for _, _, feats in generated["test"]])
            stats[f"{m}.mean"] = x.mean(axis=0)
            stats[f"{m}.std"] = np.maximum(x.std(axis=0), 1e-8)
        ckpt = os.path.join(work, "model.ckpt")
        model.save_checkpoint(ckpt, {"model": cfg.to_dict()}, net.parameters(), stats)
        op = EvalOp(work, ckpt)
    return op, time.perf_counter() - t0


class SetupRepeats:
    """Times SETUP_REPEATS set-ups in all.  The repeats go to a side directory
    at evenly spaced moments of the run, so one burst of load on the machine
    cannot set the median."""

    def __init__(self, spec: Workload, seed: int, side: str, seconds: float, first: float):
        self.spec, self.seed, self.side, self.seconds = spec, seed, side, seconds
        self.times = [first]

    def _once(self):
        self.times.append(setup(self.spec, self.seed, self.side)[1])

    def __call__(self, elapsed: float):
        while (len(self.times) < SETUP_REPEATS
               and elapsed >= self.seconds * len(self.times) / SETUP_REPEATS):
            self._once()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self._once()
        shutil.rmtree(self.side, ignore_errors=True)
        return self.times


class Loop:
    """Closed loop, one caller: the next operation starts when one ends."""

    def __init__(self, op):
        self.op = op
        self.results = []
        self.errors = []
        self.attempted = 0
        self.reference = None

    def run(self, seconds: float, min_ops: int = 1, tracer: Tracer | None = None,
            op_span: str = "", between=None):
        """Run operations until the next one would end past ``seconds`` and
        ``min_ops`` have been attempted; ``between(elapsed)`` runs before each."""
        start = time.perf_counter()
        first = self.attempted
        while True:
            if between is not None:
                between(time.perf_counter() - start)
            t0 = time.perf_counter()
            self.attempted += 1
            try:
                if tracer is None:
                    res = self.op()
                else:
                    with tracer.op(op_span):
                        res = self.op()
                if self.reference is None:
                    self.reference = res["digest"]
                elif res["digest"] != self.reference:
                    raise CheckFailed("repeated operation gave different outputs")
                self.results.append(res)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.errors.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            now = time.perf_counter()
            if self.attempted - first >= min_ops and now - start + (now - t0) > seconds:
                break


def _passes(results) -> list:
    return [p for r in results for p in r["passes"]]


def end_to_end(loop: Loop, setup_times: list) -> tuple:
    res = loop.results
    passes = _passes(res)
    metrics = {
        "setup_s": median(setup_times),
        "pass_s_p50": median(passes),
        "timesteps_per_s": sum(r["timesteps"] for r in res) / sum(r["wall"] for r in res),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "pass_s_p50": len(passes),
               "timesteps_per_s": len(res), "peak_rss_mb": 1}
    tail = tail_percentile(passes)
    extra = {"pass_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
             "pass_s": passes, "setup_s": setup_times}
    return metrics, samples, extra


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(spec: Workload, seed: int, seconds: float, trace: bool, work: str,
            spans_out: str | None = None, min_ops: int = MIN_OPS,
            warm_up: bool = True) -> dict:
    """Set up, run the closed loop and return the result as a dict.  A traced
    run needs only one operation and starts cold, so that its first operation
    raises the peak RSS; ``min_ops`` and ``warm_up`` apply to untraced runs.
    The warm-up operation is checked like the others and counted as
    attempted, but not timed; it comes out of ``seconds``."""
    start = time.perf_counter()
    op, first_setup = setup(spec, seed, work)
    loop = Loop(op)
    out = {"versions": versions(), "extra": {}}
    if trace:
        tracer = Tracer()
        op_span = "train.train_run" if spec.kind == "train" else "bench.ablate"
        unit = "train.step" if spec.kind == "train" else op_span
        with tracer.installed():
            loop.run(seconds, tracer=tracer, op_span=op_span)
        metrics = tracer.layer_metrics(unit)
        samples = {"units": sum(1 for n in tracer.names if n == unit)}
        out["extra"] = {"pass_s": _passes(loop.results)}
        out["spans"] = tracer.spans_table()
        if spans_out:
            with open(spans_out, "w") as fh:
                json.dump(out["spans"], fh)
    else:
        if warm_up:
            loop.run(0.0)
            loop.results.clear()
        seconds = max(seconds - (time.perf_counter() - start), 0.0)
        repeats = SetupRepeats(spec, seed, work + "-side", seconds, first_setup)
        loop.run(seconds, min_ops, between=repeats)
        setup_times = repeats.finish()
        metrics, samples, out["extra"] = end_to_end(loop, setup_times) if loop.results else ({}, {}, {})
    shutil.rmtree(work, ignore_errors=True)
    out.update(
        attempted=loop.attempted,
        failed=len(loop.errors),
        errors=loop.errors,
        metrics=metrics,
        samples=samples,
        ccc=loop.results[0]["ccc"] if loop.results else None,
        digest=loop.reference,
    )
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True, help="directory for the generated inputs")
    p.add_argument("--spans-out", help="where a traced run writes its spans")
    p.add_argument("--min-ops", type=int, default=MIN_OPS,
                   help="fewest timed operations an untraced run makes")
    p.add_argument("--warm-up", type=int, choices=(0, 1), default=1,
                   help="whether an untraced run makes one untimed operation first")
    args = p.parse_args(argv)
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                  args.work, args.spans_out, args.min_ops, bool(args.warm_up))
    out.pop("spans", None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
