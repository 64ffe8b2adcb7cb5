"""Training, evaluation, ablation, and multi-seed experiments.

Training minimizes 1 - CCC over overlapping segments with Adam, validates on
full held-out sequences each epoch, halves the learning rate after 5 epochs
without validation improvement, stops after 15, and restores the best
weights.  The "robust" variant draws a modality to eliminate for each batch,
teaching the model to predict from incomplete inputs.

Training and evaluation share one input check (``_check_inputs``, run before
any work) and one modality mask (``_restrict``, for elimination draws and
evaluation subsets alike).

Experiments train both variants over many seeds, evaluate every
missing-modality condition, and compare groups with Welch's t-test under
Holm-Bonferroni correction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from itertools import groupby

import numpy as np

from . import objective as ob
from .data import (
    EliminationPolicy,
    collate,
    compute_norm_stats,
    normalize_features,
    segment_samples,
)
from .dictconfig import DictConfig, check_int
from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DegenerateTestError,
    InsufficientDataError,
    NoModalityError,
    NumericError,
    ShapeError,
)
from .model import EmotionRegressor, ModelConfig
from .objective import MetricValue, ccc_loss, holm_bonferroni, welch_t_test
from .tensor import Rng, Tape, Tensor

EVAL_ROWS = 64  # most rows one evaluation encode or decode holds: the paper's batch size


@dataclass
class TrainConfig(DictConfig):
    """Optimization hyperparameters; defaults follow the reference setup."""

    epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    halve_patience: int = 5
    stop_patience: int = 15
    segment_length: int = 250
    segment_hop: int = 50
    seed: int = 0
    elimination: dict = field(default_factory=dict)

    def __post_init__(self):
        self.check_ints()
        for name in ("epochs", "batch_size", "halve_patience", "stop_patience",
                     "segment_length", "segment_hop"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be > 0")


@dataclass
class ExperimentConfig(DictConfig):
    """Seeds each variant trains with, and the Holm-corrected alpha."""

    seeds: list = field(default_factory=lambda: list(range(10)))
    alpha: float = 0.05

    def __post_init__(self):
        self.seeds = [check_int("seeds", s) for s in self.seeds]
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds repeat {repeated}: a repeated seed is not an independent run")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")


class AdamOptimizer:
    """Adam with bias correction, operating on a name -> Tensor mapping."""

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


class PlateauScheduler:
    """Validation-plateau policy: halve the learning rate, then give up.

    Tracks the best validation score seen so far (strict improvement).  Two
    counters run off the same signal: one resets on improvement *or* halving
    and triggers a halving at ``halve_patience``; the other resets only on
    improvement and ends training at ``stop_patience`` (stopping wins when
    both fire at once).
    """

    def __init__(self, optimizer: AdamOptimizer, halve_patience: int = 5,
                 stop_patience: int = 15):
        self.optimizer = optimizer
        self.halve_patience = halve_patience
        self.stop_patience = stop_patience
        self.best = -np.inf
        self.since_halve = 0
        self.since_improve = 0

    def update(self, score: float) -> str:
        """Feed one validation score; returns "improved", "waiting",
        "halved", or "stopped"."""
        if score > self.best:
            self.best = score
            self.since_halve = 0
            self.since_improve = 0
            return "improved"
        self.since_halve += 1
        self.since_improve += 1
        if self.since_improve >= self.stop_patience:
            return "stopped"
        if self.since_halve >= self.halve_patience:
            self.optimizer.lr /= 2.0
            self.since_halve = 0
            return "halved"
        return "waiting"


@dataclass
class RunHistory:
    """Per-epoch training record (no wall-clock: reruns must be identical)."""

    epochs: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_ccc: float = -np.inf
    stopped_early: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalResult:
    """Evaluation over full sequences, ordered by sample id; ``to_dict``
    holds the scores only."""

    ccc: float
    rmse: float
    per_sample_ccc: dict
    predictions: dict
    importance: dict

    def to_dict(self) -> dict:
        return {
            "ccc": self.ccc,
            "rmse": self.rmse,
            "per_sample_ccc": self.per_sample_ccc,
        }


def _restrict(features: dict, keep) -> dict:
    if keep is None:
        return features
    return {m: (x if m in keep else None) for m, x in features.items()}


def _check_inputs(samples, config: ModelConfig, subsets):
    """Check ``samples`` can be run under every entry of ``subsets`` before
    any work is done: the list is not empty, every stream has the width
    ``config`` gives it, no sample is longer than ``max_steps`` and every
    sample keeps at least one modality under every subset."""
    if not samples:
        raise InsufficientDataError("evaluate called with no samples")
    for s in samples:
        for m in config.modalities:
            x = s.features.get(m)
            if x is not None and x.shape[1] != config.modality_widths[m]:
                raise ShapeError(
                    f"sample {s.sample_id}: modality {m!r} has {x.shape[1]} "
                    f"features, model expects {config.modality_widths[m]}"
                )
        if s.n_steps > config.max_steps:
            raise CapacityError(
                f"sample {s.sample_id}: sequence of {s.n_steps} steps exceeds "
                f"max_steps={config.max_steps}"
            )
    for keep in subsets:
        for s in samples:
            feats = _restrict(s.features, keep)
            if all(feats.get(m) is None for m in config.modalities):
                raise NoModalityError(f"sample {s.sample_id} has none of the modalities "
                                      f"{'+'.join(keep or config.modalities)}")


def _evaluate_subsets(model: EmotionRegressor, samples, norm_stats: dict, subsets) -> list:
    """One ``EvalResult`` per entry of ``subsets`` (``use_modalities`` values).

    Jobs (a sample under a subset) of one length and modality count, across
    subsets too, are stacked by availability pattern, then job, and cut into
    chunks of at most ``EVAL_ROWS`` rows.  A chunk's jobs of one pattern are
    normalised and encoded as one batch; the chunk is decoded in one loop.
    """
    mods = model.config.modalities
    ordered = sorted(samples, key=lambda s: s.sample_id)
    _check_inputs(ordered, model.config, subsets)
    jobs = [(s, _restrict(s.features, keep)) for keep in subsets for s in ordered]
    stacks = {}
    for i, (s, feats) in enumerate(jobs):
        pattern = tuple(m for m in mods if feats.get(m) is not None)
        stacks.setdefault((s.n_steps, len(pattern)), []).append((pattern, i))
    preds, imps = [None] * len(jobs), [None] * len(jobs)
    for _, stack in sorted(stacks.items()):
        stack.sort()
        for lo in range(0, len(stack), EVAL_ROWS):
            rows, parts = [], []
            for pattern, group in groupby(stack[lo : lo + EVAL_ROWS], key=lambda job: job[0]):
                indices = [i for _, i in group]
                batch = {
                    m: np.stack([jobs[i][1][m] for i in indices]) if m in pattern else None
                    for m in mods
                }
                encoded, present = model.encode(normalize_features(batch, norm_stats))
                parts.append(encoded.data)
                rows += [(i, present) for i in indices]
            stacked = Tensor(np.concatenate(parts))
            del encoded, parts  # hold only the stacked copy while decoding,
            out, imp = model.decode(stacked)
            del stacked  # and none of it while encoding the next chunk
            for r, (i, present) in enumerate(rows):
                if not np.isfinite(out.data[r]).all():
                    raise NumericError(f"sample {jobs[i][0].sample_id}: non-finite predictions "
                                       f"from {'+'.join(present)}; are its features far "
                                       "outside the training range?")
                preds[i] = out.data[r]
                imps[i] = dict(zip(present, imp[r]))
    truth = np.concatenate([s.labels for s in ordered])
    results = []
    for lo in range(0, len(jobs), len(ordered)):
        row_preds = preds[lo : lo + len(ordered)]
        flat = np.concatenate(row_preds)
        weights = {}
        for row_imp in imps[lo : lo + len(ordered)]:
            for m, w in row_imp.items():
                weights.setdefault(m, []).append(w)
        importance = {m: sum(ws) / len(ws) for m, ws in weights.items()}
        ccc, rmse = ob.ccc(flat, truth), ob.rmse(flat, truth)
        if not np.isfinite([ccc, rmse]).all():  # the predictions are finite
            worst = max(ordered, key=lambda s: np.abs(s.labels).max())
            raise NumericError(f"sample {worst.sample_id}: labels up to "
                               f"{float(np.abs(worst.labels).max())!r} are too large to score")
        results.append(EvalResult(
            ccc=ccc,
            rmse=rmse,
            per_sample_ccc={s.sample_id: ob.ccc(p, s.labels) for s, p in zip(ordered, row_preds)},
            predictions={s.sample_id: p for s, p in zip(ordered, row_preds)},
            importance=importance,
        ))
    return results


def evaluate(model: EmotionRegressor, samples, norm_stats: dict,
             use_modalities=None) -> EvalResult:
    """Run the model over whole sequences and score globally.

    ``use_modalities`` restricts the available streams (simulating missing
    modalities); CCC/RMSE are computed over the concatenation of all
    predictions in sample-id order.  The result always carries importance:
    each sample's cross-attention weights, averaged over the samples that
    have the modality.
    """
    return _evaluate_subsets(model, samples, norm_stats, [use_modalities])[0]


@dataclass
class TrainResult:
    model: EmotionRegressor
    history: RunHistory
    norm_stats: dict


def _elimination_policy(model_cfg: ModelConfig, train_cfg: TrainConfig):
    """``train_cfg``'s ``EliminationPolicy``, or None when it has none; an
    unknown modality, a bad probability or a single-modality model raises
    ``ConfigError``."""
    if not train_cfg.elimination:
        return None
    unknown = set(train_cfg.elimination) - set(model_cfg.modalities)
    if unknown:
        raise ConfigError(f"elimination names unknown modalities: {sorted(unknown)}")
    if len(model_cfg.modalities) < 2:
        raise ConfigError("modality elimination needs at least two modalities")
    return EliminationPolicy(dict(train_cfg.elimination))


def train_run(model_cfg: ModelConfig, train_cfg: TrainConfig, train_samples,
              val_samples, log=None) -> TrainResult:
    """Train a model from scratch; returns the best-validation weights.

    All randomness (init, shuffling, dropout, elimination draws) derives from
    ``train_cfg.seed``, so a rerun with the same configs and data reproduces
    the result bit for bit.
    """
    if not train_samples:
        raise InsufficientDataError("no training samples")
    if not val_samples:
        raise InsufficientDataError("no validation samples")
    for s in train_samples:
        missing = [m for m in model_cfg.modalities if s.features.get(m) is None]
        if missing:
            raise ContractError(
                f"training sample {s.sample_id} lacks modalities {missing}; "
                "training requires complete streams"
            )
    policy = _elimination_policy(model_cfg, train_cfg)
    segments = segment_samples(train_samples, train_cfg.segment_length, train_cfg.segment_hop)
    _check_inputs(segments, model_cfg, [None])
    _check_inputs(val_samples, model_cfg, [None])

    rng = Rng(train_cfg.seed)
    model = EmotionRegressor(model_cfg, rng.child("init"))
    dropout_rng = rng.child("dropout")
    eliminate_rng = rng.child("eliminate")
    norm_stats = compute_norm_stats(train_samples, model_cfg.modalities)
    params = model.parameters()
    optimizer = AdamOptimizer(
        params, train_cfg.learning_rate, train_cfg.beta1, train_cfg.beta2,
        train_cfg.adam_eps,
    )
    scheduler = PlateauScheduler(
        optimizer, train_cfg.halve_patience, train_cfg.stop_patience
    )
    history = RunHistory()
    best_state = None
    for epoch in range(train_cfg.epochs):
        # A batch stacks segments of one length (samples shorter than
        # segment_length give shorter ones), taken in order of first appearance.
        by_length = {}
        for i in rng.child(f"shuffle/{epoch}").permutation(len(segments)):
            by_length.setdefault(segments[i].n_steps, []).append(segments[i])
        size = train_cfg.batch_size
        batches = [group[lo : lo + size] for group in by_length.values()
                   for lo in range(0, len(group), size)]
        losses = []
        for chunk in batches:
            features, labels = collate(chunk, model_cfg.modalities)
            features = normalize_features(features, norm_stats)
            if policy is not None:
                removed = policy.sample(eliminate_rng)
                features = _restrict(features, [m for m in features if m != removed])
            optimizer.zero_grad()
            with Tape() as tape:
                preds, _, _ = model.forward(features, rng=dropout_rng)
                loss = ccc_loss(preds, labels)
            if not loss.is_finite():
                raise NumericError(f"non-finite training loss at epoch {epoch}")
            tape.backward(loss)
            optimizer.step()
            losses.append(loss.item())
        val = evaluate(model, val_samples, norm_stats)
        action = scheduler.update(val.ccc)
        history.epochs.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_ccc": val.ccc,
                "learning_rate": optimizer.lr,
                "action": action,
            }
        )
        if action == "improved":
            history.best_epoch = epoch
            history.best_val_ccc = val.ccc
            best_state = {k: p.data.copy() for k, p in params.items()}
        if log is not None:
            log(
                f"epoch {epoch:3d}  loss {np.mean(losses):.4f}  "
                f"val_ccc {val.ccc:.4f}  lr {optimizer.lr:.2e}  {action}"
            )
        if action == "stopped":
            history.stopped_early = True
            break
    if best_state is not None:
        for k, p in params.items():
            p.data = best_state[k]
    return TrainResult(model=model, history=history, norm_stats=norm_stats)


# ---------------------------------------------------------------------------
# Ablation


@dataclass
class AblationReport:
    """Metrics for every non-empty modality subset plus attention importance;
    ``to_dict`` holds each subset's CCC and RMSE and the importance."""

    subsets: dict
    importance: dict

    def to_dict(self) -> dict:
        return {
            "subsets": {
                "+".join(k): {"ccc": v.ccc, "rmse": v.rmse} for k, v in self.subsets.items()
            },
            "importance": self.importance,
        }


def ablation_study(model: EmotionRegressor, samples, norm_stats: dict) -> AblationReport:
    """Evaluate the model under every non-empty subset of its modalities.

    All subsets run in one ``_evaluate_subsets`` call, so subsets of equal
    modality count share a decode loop; the importance is the full set's.
    """
    mods = model.config.modalities
    keeps = [
        tuple(m for i, m in enumerate(mods) if bits >> i & 1)
        for bits in range(1, 2 ** len(mods))
    ]
    results = _evaluate_subsets(model, samples, norm_stats, keeps)
    importance = results[-1].importance  # the last subset is the full set
    return AblationReport(subsets=dict(zip(keeps, results)), importance=importance)


# ---------------------------------------------------------------------------
# Multi-seed experiments


@dataclass
class Comparison:
    """One tested hypothesis with its Holm-adjusted outcome."""

    family: str
    label: str
    metric: str
    alternative: str
    statistic: float
    p_value: float
    adjusted_p: float = 1.0
    reject: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    """Outcome of a standard-vs-robust multi-seed comparison."""

    seeds: list
    conditions: list
    variants: list
    metrics: dict  # (variant, condition, metric) -> MetricValue
    comparisons: list
    alpha: float

    def metric(self, variant: str, condition: str, name: str) -> MetricValue:
        return self.metrics[(variant, condition, name)]

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "conditions": self.conditions,
            "variants": self.variants,
            "alpha": self.alpha,
            "metrics": {
                f"{v}/{c}/{m}": {"values": list(mv.values), "mean": mv.mean,
                                  "std": mv.std}
                for (v, c, m), mv in sorted(self.metrics.items())
            },
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


def _safe_welch(a, b, alternative: str):
    """Welch test that treats a fully degenerate comparison as no evidence."""
    try:
        r = welch_t_test(a, b, alternative)
        return r.statistic, r.p_value
    except DegenerateTestError:
        return 0.0, 1.0


def experiment_run(model_cfg: ModelConfig, train_cfg: TrainConfig, datasets: dict,
                   seeds, alpha: float = 0.05, log=None) -> ExperimentReport:
    """Train standard and elimination-trained variants across seeds and
    compare them under every missing-modality condition.

    The robust variant trains with ``train_cfg.elimination``, which must not
    be empty, and the standard one without elimination.

    Two hypothesis families, each Holm-corrected on its own:

    * robustness: one-sided, the elimination-trained variant scores better
      than standard (higher CCC / lower RMSE) under each condition;
    * degradation: two-sided, within each variant, does removing a modality
      shift CCC relative to the all-modalities condition.
    """
    seeds = ExperimentConfig(seeds, alpha).seeds
    if len(seeds) < 2:
        raise InsufficientDataError("experiments need at least two seeds")
    if _elimination_policy(model_cfg, train_cfg) is None:
        raise ConfigError(
            "experiment needs an elimination policy (eliminate.<modality> = rho)"
        )
    mods = model_cfg.modalities
    conditions = [("all", None)] + [
        (f"no_{m}", tuple(x for x in mods if x != m)) for m in mods
    ]
    _check_inputs(datasets["test"], model_cfg, [keep for _, keep in conditions])
    variants = {"standard": {}, "robust": dict(train_cfg.elimination)}
    values = {}  # (variant, condition, metric) -> list over seeds
    for variant, policy in variants.items():
        for si, seed in enumerate(seeds):
            tc = replace(train_cfg, seed=seed, elimination=policy)
            result = train_run(model_cfg, tc, datasets["train"], datasets["val"])
            evals = _evaluate_subsets(
                result.model, datasets["test"], result.norm_stats,
                [keep for _, keep in conditions],
            )
            for (cond_name, _), ev in zip(conditions, evals):
                values.setdefault((variant, cond_name, "ccc"), []).append(ev.ccc)
                values.setdefault((variant, cond_name, "rmse"), []).append(ev.rmse)
            if log is not None:
                best = result.history.best_val_ccc
                log(f"{variant} seed {seed}: best val ccc {best:.4f} "
                    f"({si + 1}/{len(seeds)})")
    metrics = {k: MetricValue(v) for k, v in values.items()}

    comparisons = []
    for cond_name, _ in conditions:
        for metric, alternative in (("ccc", "greater"), ("rmse", "less")):
            stat, p = _safe_welch(
                values[("robust", cond_name, metric)],
                values[("standard", cond_name, metric)],
                alternative,
            )
            comparisons.append(
                Comparison("robustness", f"robust vs standard, {cond_name}",
                           metric, alternative, stat, p)
            )
    for variant in variants:
        for cond_name, keep in conditions[1:]:
            stat, p = _safe_welch(
                values[(variant, cond_name, "ccc")],
                values[(variant, "all", "ccc")],
                "two-sided",
            )
            comparisons.append(
                Comparison("degradation", f"{variant}: {cond_name} vs all",
                           "ccc", "two-sided", stat, p)
            )
    for family in ("robustness", "degradation"):
        members = [c for c in comparisons if c.family == family]
        reject, adjusted = holm_bonferroni([c.p_value for c in members], alpha)
        for c, r, a in zip(members, reject, adjusted):
            c.reject = bool(r)
            c.adjusted_p = float(a)
    return ExperimentReport(
        seeds=seeds,
        conditions=[c for c, _ in conditions],
        variants=list(variants),
        metrics=metrics,
        comparisons=comparisons,
        alpha=alpha,
    )


def render_experiment_report(report: ExperimentReport) -> str:
    """Fixed-width text table: mean (std) per cell, with significance marks.

    Within a variant's row, a check mark after a missing-modality cell means
    the degradation test did *not* reject (performance statistically
    indistinguishable from the all-modalities condition); a double dagger
    means the robustness test found the elimination-trained variant
    significantly better than standard under that condition.
    """
    marks = {}
    for c in report.comparisons:
        if c.family == "degradation" and not c.reject:
            variant, rest = c.label.split(": ")
            cond = rest.split(" vs ")[0]
            marks.setdefault((variant, cond), []).append("✓")
        if c.family == "robustness" and c.reject and c.metric == "ccc":
            cond = c.label.split(", ")[1]
            marks.setdefault(("robust", cond), []).append("‡")
    lines = []
    for metric in ("ccc", "rmse"):
        lines.append(f"{metric.upper()} by condition (mean (std) over "
                     f"{len(report.seeds)} seeds)")
        header = ["variant"] + report.conditions
        rows = []
        for variant in report.variants:
            row = [variant]
            for cond in report.conditions:
                cell = str(report.metric(variant, cond, metric))
                if metric == "ccc":
                    cell += "".join(marks.get((variant, cond), []))
                row.append(cell)
            rows.append(row)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows))
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append("")
    lines.append("✓ no significant change vs all modalities "
                 f"(Holm-corrected alpha {report.alpha})")
    lines.append("‡ significantly better than standard (one-sided)")
    lines.append("")
    lines.append("hypothesis tests:")
    for c in report.comparisons:
        flag = "reject" if c.reject else "keep"
        lines.append(
            f"  [{c.family}] {c.label} ({c.metric}, {c.alternative}): "
            f"t={c.statistic:+.3f} p={c.p_value:.4f} "
            f"adj={c.adjusted_p:.4f} -> {flag}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Linear baseline


def linear_baseline_ccc(train_samples, eval_samples, modalities, ridge: float = 1e-3):
    """Ridge regression from concatenated features to labels; a floor any
    trained model should clear and a ceiling check for the synthetic data."""

    def flatten(samples):
        X = np.concatenate(
            [np.concatenate([s.features[m] for m in modalities], axis=1)
             for s in samples]
        )
        y = np.concatenate([s.labels for s in samples])
        return X, y

    Xtr, ytr = flatten(train_samples)
    Xte, yte = flatten(eval_samples)
    mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0) + 1e-12
    Xtr = (Xtr - mu) / sd
    Xte = (Xte - mu) / sd
    gram = Xtr.T @ Xtr + ridge * np.eye(Xtr.shape[1])
    w = np.linalg.solve(gram, Xtr.T @ (ytr - ytr.mean()))
    return ob.ccc(Xte @ w + ytr.mean(), yte)
