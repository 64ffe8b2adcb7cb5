"""Agreement metrics and statistical tests.

The training objective is concordance-based: 1 - CCC, where CCC is Lin's
concordance correlation coefficient computed with population (1/n) moments
and a small stabilizer in the denominator.  Unlike Pearson correlation, CCC
penalizes scale and offset errors, so optimizing it pushes predictions onto
the identity line rather than just onto *some* line.  The metric ``ccc`` and
the loss ``ccc_loss`` share one formula, ``_ccc_rows``.

Multi-seed comparisons use Welch's unequal-variance t-test (two constant,
equal groups give t = 0, p = 1) with Holm-Bonferroni correction per family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from . import tensor as tz
from .errors import ContractError, InsufficientDataError, ShapeError
from .tensor import Tensor

CCC_EPS = 1e-8


def _metric_args(name: str, pred, truth) -> tuple:
    """``pred`` and ``truth`` as flat float64 arrays of one non-zero length."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    truth = np.asarray(truth, dtype=np.float64).reshape(-1)
    if pred.shape != truth.shape:
        raise ShapeError(f"{name} length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise InsufficientDataError(f"{name} of empty sequences")
    return pred, truth


def ccc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Concordance correlation: 2*cov / (var_p + var_t + (mu_p - mu_t)^2)."""
    pred, truth = _metric_args("ccc", pred, truth)
    return float(_ccc_rows(Tensor(pred), truth).data)


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    pred, truth = _metric_args("rmse", pred, truth)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def truth_moments(truth: np.ndarray) -> tuple:
    """CCC's truth-side terms over the last axis: mean (axis kept), deviations, variance."""
    mt = truth.mean(axis=-1, keepdims=True)
    dt = truth - mt
    return mt, dt, (dt * dt).mean(axis=-1)


def _ccc_rows(pred: Tensor, truth: np.ndarray) -> Tensor:
    """CCC of each row of ``pred`` against ``truth``'s, over the last axis; the
    truth-side moments are constants, so only prediction statistics are taped."""
    mt, dt, vt = truth_moments(truth)
    mp = tz.tmean(pred, axis=-1, keepdims=True)
    dp = pred - mp
    cov = tz.tmean(dp * Tensor(dt), axis=-1)
    vp = tz.tmean(dp * dp, axis=-1)
    mean_gap = tz.reshape(mp, mp.data.shape[:-1]) - Tensor(mt.reshape(mt.shape[:-1]))
    denom = vp + Tensor(vt) + mean_gap * mean_gap + Tensor(np.float64(CCC_EPS))
    return (Tensor(np.float64(2.0)) * cov) / denom


def ccc_loss(pred: Tensor, truth: np.ndarray) -> Tensor:
    """Differentiable 1 - CCC, averaged over leading (segment) axes of ``pred``
    ([T] or [B, T]; ``truth`` matches)."""
    truth = np.asarray(truth, dtype=np.float64)
    if pred.data.shape != truth.shape:
        raise ShapeError(
            f"loss shape mismatch: pred {pred.data.shape} vs truth {truth.shape}"
        )
    if truth.shape[-1] < 1:
        raise InsufficientDataError("loss over empty time axis")
    return Tensor(np.float64(1.0)) - tz.tmean(_ccc_rows(pred, truth))


@dataclass
class MetricValue:
    """A metric across seeds: kept as raw values plus mean/std for reporting."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        # Sample std (ddof=1); a single value reports spread 0.
        if self.values.size < 2:
            return 0.0
        return float(self.values.std(ddof=1))

    def __str__(self):
        return f"{self.mean:.4f} ({self.std:.4f})"


@dataclass
class StatTestResult:
    statistic: float
    dof: float
    p_value: float
    alternative: str


def welch_t_test(a, b, alternative: str = "two-sided") -> StatTestResult:
    """Welch's unequal-variance t-test of mean(a) against mean(b).

    ``alternative`` is "two-sided", "less" (H1: mean a < mean b) or "greater"
    (H1: mean a > mean b).  Uses the Welch-Satterthwaite degrees of freedom
    and the Student-t CDF for the p-value; two constant, equal groups give
    t = 0, p = 1 under every alternative and na + nb - 2 degrees of freedom.
    """
    if alternative not in ("two-sided", "less", "greater"):
        raise ContractError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        raise InsufficientDataError(
            f"welch t-test needs >= 2 observations per group, got {na} and {nb}"
        )
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / na, vb / nb
    gap = a.mean() - b.mean()
    if sa + sb == 0.0:
        # Zero spread in both groups: identical means carry no evidence
        # either way; distinct means are unambiguous at any level.
        if gap == 0.0:
            return StatTestResult(0.0, float(na + nb - 2), 1.0, alternative)
        t = math.inf if gap > 0 else -math.inf
        dof = float(na + nb - 2)
    else:
        t = gap / math.sqrt(sa + sb)
        dof = (sa + sb) ** 2 / (sa * sa / (na - 1) + sb * sb / (nb - 1))
    cdf = float(stdtr(dof, t))  # 1 or 0 at t = +-inf
    if alternative == "less":
        p = cdf
    elif alternative == "greater":
        p = 1.0 - cdf
    else:
        p = 2.0 * min(cdf, 1.0 - cdf)
    return StatTestResult(float(t), float(dof), float(p), alternative)


def holm_bonferroni(p_values, alpha: float = 0.05):
    """Holm's step-down multiple-comparison procedure.

    Returns ``(reject, adjusted)`` in the original order: ``reject[i]`` is the
    decision for hypothesis i at family level ``alpha`` and ``adjusted[i]`` is
    its Holm-adjusted p-value (monotone, clipped to 1).

    Families are small, so the walk is plain Python over one sorted order:
    per call that costs a few microseconds where array set-up would cost tens.
    """
    p = np.asarray(p_values, dtype=np.float64).ravel().tolist()
    m = len(p)
    reject = [False] * m
    adjusted = [0.0] * m
    # Adjusted p is the running max of (m - rank) * p over increasing rank,
    # clipped to 1; clipping commutes with the running max.  Rejection stops
    # at the first rank whose unclipped step exceeds alpha.
    running = -1.0
    stepping = True
    for rank, i in enumerate(sorted(range(m), key=p.__getitem__)):
        if not 0.0 <= p[i] <= 1.0:  # also catches nan, which breaks the sort
            raise ContractError("p-values must lie in [0, 1]")
        step = (m - rank) * p[i]
        if stepping and step <= alpha:
            reject[i] = True
        else:
            stepping = False
        clipped = step if step <= 1.0 else 1.0
        if clipped > running:
            running = clipped
        adjusted[i] = running
    return np.array(reject, dtype=bool), np.array(adjusted, dtype=np.float64)
