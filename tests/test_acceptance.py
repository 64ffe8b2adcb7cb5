"""Acceptance suite: one test per release criterion.

Each test states its criterion and tolerance in the docstring, is numbered,
and prints a single summary line when it passes.  Thresholds are frozen; do
not loosen them to make a failing build pass.

1. Gradient suite: every differentiable primitive and the full model pass
   finite-difference checks with max relative error < 1e-5 in < 2 minutes.
2. Architecture invariants over >= 20 random configurations: band-mask
   reachability (1e-9), decoder future-blindness (exact), modality-block
   permutation invariance (1e-9), cached vs uncached decode (1e-10).
3. Missing-modality continuity: finite outputs for all 7 nonempty subsets
   of a 3-modality model.
4. Metric/statistics oracles: CCC vs the direct formula (1e-10, 1000 pairs);
   the anti-correlated example -> -1; Welch vs a frozen reference computed
   with an independent statistical library (tol 0.01 on p, checked much
   tighter); Holm-Bonferroni vs brute-force step-down enumeration for all
   p-vectors of length <= 4 on a 0.01 grid.
5. Learning sanity: overfit one sample to train CCC > 0.99 within 300
   epochs (< 5 minutes); d_model=32 on the default benchmark reaches
   held-out CCC >= 0.7 where the ridge oracle on the dominant modality
   attains >= 0.9 (precondition asserted first).
6. Robustness experiment over >= 10 seeds: standard training degrades
   significantly without the dominant modality but not without the
   near-zero-SNR one (two-sided Welch + Holm, alpha 0.05); elimination
   training beats standard on the missing-dominant condition (one-sided
   Welch p < 0.05).  Budget < 60 minutes.
7. Elimination sampler frequencies within +-1% absolute over 1e5 draws for
   both reference policies.
8. Reproducibility: identical (config, seed) -> bit-identical datasets,
   checkpoints, histories, reports, and traces across two CLI runs.
"""

import itertools
import os
import time

import numpy as np
import pytest

from emoreg import tensor as tz
from emoreg.cli import main as cli_main
from emoreg.data import (
    EliminationPolicy,
    SynthConfig,
    synth_generate,
)
from emoreg.model import EmotionRegressor, ModelConfig, load_model_state
from emoreg.objective import ccc, ccc_loss, holm_bonferroni, welch_t_test
from emoreg.tensor import (
    Rng,
    SequenceCache,
    Tensor,
    finite_difference_check,
)
from emoreg.train import (
    TrainConfig,
    evaluate,
    experiment_run,
    linear_baseline_ccc,
    train_run,
)

from oracles import decode_uncached

GRAD_TOL = 1e-5
BAND_TOL = 1e-9
PERM_TOL = 1e-9
CACHE_TOL = 1e-10
CCC_TOL = 1e-10


def _param(rng, shape, scale=0.5):
    return Tensor(rng.normal(0.0, scale, shape), requires_grad=True)


def _away_from_zero(rng, shape, lo=0.2, hi=1.2):
    """Random values bounded away from 0 (for kinked activations)."""
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(rng.uniform(lo, hi, shape) * signs, requires_grad=True)


def _sq(t):
    return tz.tsum(tz.mul(t, t))


def _primitive_cases():
    """(name, params dict, scalar-loss closure) for every differentiable op."""
    rng = Rng(101)
    cases = []

    a = _param(rng, (3, 4))
    b = _param(rng, (3, 4))
    cases.append(("add", {"a": a, "b": b}, lambda a=a, b=b: _sq(tz.add(a, b))))

    a = _param(rng, (3, 4))
    b = _param(rng, (4,))  # exercises broadcasting in backward
    cases.append(("sub", {"a": a, "b": b}, lambda a=a, b=b: _sq(tz.sub(a, b))))

    a = _param(rng, (5,))
    cases.append(("neg", {"a": a}, lambda a=a: _sq(tz.neg(a))))

    a = _param(rng, (2, 3))
    b = _param(rng, (2, 3))
    cases.append(("mul", {"a": a, "b": b}, lambda a=a, b=b: _sq(tz.mul(a, b))))

    a = _param(rng, (2, 3))
    b = _away_from_zero(rng, (2, 3), lo=0.5, hi=1.5)
    cases.append(("div", {"a": a, "b": b}, lambda a=a, b=b: _sq(tz.div(a, b))))

    a = _param(rng, (2, 3, 4))
    cases.append(
        ("tsum", {"a": a}, lambda a=a: _sq(tz.tsum(a, axis=(0, 2))))
    )

    a = _param(rng, (2, 3, 4))
    cases.append(
        ("tmean", {"a": a},
         lambda a=a: _sq(tz.tmean(a, axis=1, keepdims=True)))
    )

    a = _away_from_zero(rng, (3, 5))
    cases.append(("relu", {"a": a}, lambda a=a: _sq(tz.relu(a))))

    a = _param(rng, (3, 5))
    cases.append(("gelu", {"a": a}, lambda a=a: _sq(tz.gelu(a))))

    a = _param(rng, (4, 6))

    def f_dropout(a=a):
        # fresh child stream per call -> identical mask on every evaluation
        return _sq(tz.dropout(a, 0.35, Rng(55), training=True))

    cases.append(("dropout", {"a": a}, f_dropout))

    for rate in (0.0, 0.35):
        x, y = _param(rng, (2, 5, 6)), _param(rng, (2, 5, 6))
        gain = Tensor(rng.uniform(0.5, 1.5, (6,)), requires_grad=True)
        bias = _param(rng, (6,))

        def f_add_norm(x=x, y=y, gain=gain, bias=bias, rate=rate):
            return _sq(tz.add_norm(x, y, gain, bias, rate, Rng(57), training=True))

        cases.append((f"add_norm[dropout={rate}]",
                      {"x": x, "y": y, "gain": gain, "bias": bias}, f_add_norm))

    # Fused multi-head attention: the decode shape (one query against seven
    # keys) with two heads and dropout, a causal -inf mask with dropout, and
    # one head under a finite additive mask.
    causal = np.where(np.arange(5)[:, None] >= np.arange(5)[None, :], 0.0, -np.inf)
    for label, n_q, n_k, n_heads, mask, rate in (
        ("decode,heads=2", 1, 7, 2, None, 0.3),
        ("causal,heads=2", 5, 5, 2, causal, 0.3),
        ("masked,heads=1", 3, 5, 1, np.where(Rng(10).random((3, 5)) < 0.3, -2.5, 0.0), 0.0),
    ):
        q, k = _param(rng, (2, n_q, 4)), _param(rng, (2, n_k, 4))
        v = _param(rng, (2, n_k, 6))

        def f_attention(q=q, k=k, v=v, h=n_heads, mask=mask, rate=rate):
            # fresh Rng per call -> identical dropout on every evaluation
            out, _ = tz.attention(q, k, v, h, rate, Rng(58), True, mask)
            return _sq(out)

        cases.append((f"attention[{label}]", {"q": q, "k": k, "v": v}, f_attention))

    a = _param(rng, (2, 3, 4))
    b = _param(rng, (4, 5))
    cases.append(("matmul", {"a": a, "b": b},
                  lambda a=a, b=b: _sq(tz.matmul(a, b))))

    x = _param(rng, (3, 4))
    w = _param(rng, (4, 2))
    bb = _param(rng, (2,))
    cases.append(("linear", {"x": x, "w": w, "b": bb},
                  lambda x=x, w=w, b=bb: _sq(tz.linear(x, w, b))))

    x = _param(rng, (2, 7, 3))
    kern = _param(rng, (3, 3, 4))
    cb = _param(rng, (4,))
    cases.append(
        ("dilated_causal_conv1d", {"x": x, "kernel": kern, "bias": cb},
         lambda x=x, k=kern, b=cb: _sq(tz.dilated_causal_conv1d(x, k, b, 2)))
    )

    a = _param(rng, (2, 6))
    cases.append(("reshape", {"a": a},
                  lambda a=a: _sq(tz.reshape(a, (3, 2, 2)))))

    a = _param(rng, (2, 3, 4))
    cases.append(("transpose", {"a": a},
                  lambda a=a: _sq(tz.transpose(a, (2, 0, 1)))))

    a = _param(rng, (4, 6))
    cases.append(("getitem", {"a": a},
                  lambda a=a: _sq(tz.getitem(a, (slice(1, None), slice(None, None, 2))))))

    a = _param(rng, (2, 3))
    b = _param(rng, (2, 2))
    cases.append(("concat", {"a": a, "b": b},
                  lambda a=a, b=b: _sq(tz.concat([a, b], axis=1))))

    r0 = _param(rng, (2, 1, 4))
    r1 = _param(rng, (2, 1, 4))
    r2 = _param(rng, (2, 1, 4))

    def f_cache(r0=r0, r1=r1, r2=r2):
        cache = SequenceCache((2,), 3, 4)
        for r in (r0, r1, r2):
            cache.append(r)
        return _sq(cache.read())

    cases.append(("sequence_cache", {"r0": r0, "r1": r1, "r2": r2}, f_cache))

    # Banded attention over time-major tokens: 40 steps span three or more
    # query chunks; M=1 and M=3, a zero band and one wider than the sequence.
    for n_steps, n_mod, mask_length, rate in (
        (40, 3, 5, 0.3), (40, 1, 0, 0.0), (12, 3, 12, 0.25),
    ):
        n = n_steps * n_mod
        q, k = _param(rng, (1, n, 4)), _param(rng, (1, n, 4))
        v = _param(rng, (1, n, 6))

        def f_local(q=q, k=k, v=v, m=n_mod, L=mask_length, rate=rate):
            # fresh Rng per call -> identical dropout on every evaluation
            return _sq(tz.local_attention(q, k, v, 2, m, L, rate, Rng(56), True))

        cases.append((f"local_attention[T={n_steps},M={n_mod},L={mask_length}]",
                      {"q": q, "k": k, "v": v}, f_local))
    assert 40 > 2 * tz._chunk_steps(5)  # the first case really spans 3 chunks
    return cases


def test_criterion_1_gradient_suite():
    """Every primitive and the full model: FD max rel err < 1e-5, < 2 min."""
    t0 = time.monotonic()
    worst = {}
    for name, params, f in _primitive_cases():
        report = finite_difference_check(f, params)
        worst[name] = report.max_rel_err
        assert report.max_rel_err < GRAD_TOL, f"{name}:\n{report}"

    # Full model: T=4, d_model=8, M=2, 1 encoder layer, 1 decoder layer.
    cfg = ModelConfig(
        modalities=("a", "b"),
        modality_widths={"a": 3, "b": 2},
        d_model=8, enc_heads=2, enc_layers=1, dec_heads=2, dec_layers=1,
        conv_layers=2, conv_kernel=3, d_ffn=16, head_hidden=8,
        mask_length=2, dropout=0.0, max_steps=8,
    )
    model = EmotionRegressor(cfg, Rng(42))
    data_rng = Rng(43)
    features = {
        "a": data_rng.normal(0.0, 1.0, (2, 4, 3)),
        "b": data_rng.normal(0.0, 1.0, (2, 4, 2)),
    }
    truth = data_rng.normal(0.0, 1.0, (2, 4))

    def f():
        preds, _, _ = model.forward(features)
        return ccc_loss(preds, truth)

    report = finite_difference_check(f, model.parameters())
    worst["full_model"] = report.max_rel_err
    assert report.max_rel_err < GRAD_TOL, str(report)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    top = max(worst, key=worst.get)
    print(f"[criterion 1] PASS: {len(worst)} checks, worst {top} "
          f"rel err {worst[top]:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------


_HEAD_CHOICES = [(8, 1), (8, 2), (8, 4), (12, 2), (16, 2), (16, 4)]


def _random_config(i):
    """A small random-but-valid architecture, seeded by the case index."""
    rng = Rng(2000 + i)
    n_mod = int(rng.integers(2, 4))
    names = ("audio", "video", "text")[:n_mod]
    widths = {m: int(rng.integers(2, 6)) for m in names}
    d_model, enc_heads = _HEAD_CHOICES[int(rng.integers(0, len(_HEAD_CHOICES)))]
    dec_choices = [h for d, h in _HEAD_CHOICES if d == d_model]
    dec_heads = dec_choices[int(rng.integers(0, len(dec_choices)))]
    cfg = ModelConfig(
        modalities=names,
        modality_widths=widths,
        d_model=d_model,
        enc_heads=enc_heads,
        enc_layers=int(rng.integers(1, 3)),
        dec_heads=dec_heads,
        dec_layers=int(rng.integers(1, 3)),
        conv_layers=int(rng.integers(1, 3)),
        conv_kernel=int(rng.integers(1, 4)),
        d_ffn=int(rng.integers(8, 17)),
        head_hidden=int(rng.integers(4, 9)),
        mask_length=int(rng.integers(1, 4)),
        dropout=0.0,
        max_steps=32,
    )
    return cfg, rng


def _permuted_twin(model):
    """Same weights under a rotated modality order."""
    c = model.config
    new_order = tuple(c.modalities[1:]) + (c.modalities[0],)
    cfg_b = ModelConfig(**{**c.to_dict(), "modalities": new_order})
    twin = EmotionRegressor(cfg_b, Rng(0))
    load_model_state(twin, {k: t.data for k, t in model.parameters().items()})
    row_idx = [c.modalities.index(m) for m in new_order]
    twin.modality_codes.table.data = model.modality_codes.table.data[row_idx].copy()
    return twin


def test_criterion_2_architecture_invariants():
    """Band reachability (1e-9), future-blindness (exact), permutation
    invariance (1e-9), cached vs uncached (1e-10), over 20 random configs."""
    t0 = time.monotonic()
    n_configs = 20
    for i in range(n_configs):
        cfg, rng = _random_config(i)
        model = EmotionRegressor(cfg, Rng(3000 + i))
        reach = cfg.enc_layers * cfg.mask_length
        rfield = model.conv_fronts[cfg.modalities[0]].receptive_field
        n_steps = reach + rfield + 6
        batch = 2
        features = {
            m: rng.normal(0.0, 1.0, (batch, n_steps, w))
            for m, w in cfg.modality_widths.items()
        }
        grouped, present = model.encode(features)
        preds, _ = model.decode(grouped)

        # (a) band reachability.  A perturbation at input time s can move
        # encoder outputs only inside [s - reach, s + rfield - 1 + reach]
        # (causal conv smears it rfield-1 steps forward, each banded encoder
        # layer spreads it mask_length steps both ways), and predictions only
        # at t >= s - reach (the decoder reads all earlier encoder steps).
        bump_mod = cfg.modalities[int(rng.integers(0, len(cfg.modalities)))]
        for s, check_past in ((n_steps - 3, True), (2, False)):
            bumped = {m: x.copy() for m, x in features.items()}
            bumped[bump_mod][:, s, :] += 1.0
            grouped_b, _ = model.encode(bumped)
            diff = np.max(
                np.abs(grouped_b.data - grouped.data), axis=(0, 2, 3)
            )
            assert diff[s] > 0.0, "perturbation had no effect"
            if check_past:
                quiet = diff[: s - reach]
                assert quiet.size > 0 and np.max(quiet) < BAND_TOL, (
                    f"config {i}: encoder leak into the past, "
                    f"max {np.max(quiet):.2e}"
                )
                preds_b, _ = model.decode(grouped_b)
                pdiff = np.max(
                    np.abs(preds_b.data[:, : s - reach]
                           - preds.data[:, : s - reach])
                )
                assert pdiff < BAND_TOL, (
                    f"config {i}: prediction depends on inputs beyond the "
                    f"band, diff {pdiff:.2e}"
                )
            else:
                quiet = diff[s + rfield + reach:]
                assert quiet.size > 0 and np.max(quiet) < BAND_TOL, (
                    f"config {i}: encoder leak into the future, "
                    f"max {np.max(quiet):.2e}"
                )

        # (b) decoder future-blindness is exact: bumping encoder outputs at
        # times > cut cannot change predictions at times <= cut at all.
        cut = n_steps // 2
        grouped_f = Tensor(grouped.data.copy())
        grouped_f.data[:, cut + 1:] += 3.0
        preds_f, _ = model.decode(grouped_f)
        assert np.array_equal(
            preds_f.data[:, : cut + 1], preds.data[:, : cut + 1]
        ), f"config {i}: decoder looked ahead"
        assert not np.array_equal(
            preds_f.data[:, cut + 1:], preds.data[:, cut + 1:]
        ), "future bump had no effect at all"

        # (c) modality-block permutation invariance.
        twin = _permuted_twin(model)
        preds_p, _, _ = twin.forward(features)
        base, _, _ = model.forward(features)
        pdiff = np.max(np.abs(preds_p.data - base.data))
        assert pdiff < PERM_TOL, f"config {i}: permutation moved predictions by {pdiff:.2e}"

        # (d) cached vs uncached decode.
        preds_u = decode_uncached(model, grouped)
        cdiff = np.max(np.abs(preds_u.data - preds.data))
        assert cdiff < CACHE_TOL, f"config {i}: cache drift {cdiff:.2e}"

    elapsed = time.monotonic() - t0
    print(f"[criterion 2] PASS: 4 invariants x {n_configs} random configs, "
          f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------


def test_criterion_3_missing_modality_continuity():
    """Finite predictions for every nonempty subset of 3 modalities."""
    cfg = ModelConfig(
        modality_widths={"audio": 5, "video": 4, "text": 3},
        d_model=8, enc_heads=2, enc_layers=1, dec_heads=1, dec_layers=1,
        conv_layers=2, conv_kernel=3, d_ffn=16, head_hidden=8,
        mask_length=3, dropout=0.0, max_steps=16,
    )
    model = EmotionRegressor(cfg, Rng(7))
    rng = Rng(8)
    full = {
        m: rng.normal(0.0, 1.0, (2, 12, w))
        for m, w in cfg.modality_widths.items()
    }
    n_checked = 0
    for r in (1, 2, 3):
        for keep in itertools.combinations(cfg.modalities, r):
            features = {m: (x if m in keep else None) for m, x in full.items()}
            preds, present, _ = model.forward(features)
            assert tuple(present) == keep
            assert preds.data.shape == (2, 12)
            assert np.all(np.isfinite(preds.data)), f"non-finite for {keep}"
            n_checked += 1
    assert n_checked == 7
    print("[criterion 3] PASS: finite predictions for all 7 modality subsets")


# ---------------------------------------------------------------------------

# Reference Welch example, frozen from an independent statistical library
# (scipy.stats.ttest_ind, equal_var=False) run on these arrays before the
# implementation existed.
WELCH_A = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6,
           23.1, 19.6, 19.0, 21.7, 21.4]
WELCH_B = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2,
           21.9, 22.8, 23.0, 22.8, 22.5]
WELCH_T = -2.6171141788393313
WELCH_DOF = 23.74284506988018
WELCH_P_TWO_SIDED = 0.015182185496493307


def _direct_ccc(pred, truth):
    """Concordance written straight from its defining formula."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    mp, mt = pred.mean(), truth.mean()
    vp = np.mean((pred - mp) ** 2)
    vt = np.mean((truth - mt) ** 2)
    cov = np.mean((pred - mp) * (truth - mt))
    return 2.0 * cov / (vp + vt + (mp - mt) ** 2 + 1e-8)


def _stepdown_oracle(p_values, alpha):
    """Literal textbook Holm step-down walk."""
    m = len(p_values)
    order = sorted(range(m), key=lambda j: p_values[j])
    reject = [False] * m
    for k, j in enumerate(order):
        if p_values[j] <= alpha / (m - k):
            reject[j] = True
        else:
            break
    return reject


def test_criterion_4_metric_and_statistics_oracles():
    """CCC 1e-10 x 1000 pairs; anti-correlated -> -1; frozen Welch reference;
    Holm vs brute force on the full 0.01 grid up to length 4."""
    t0 = time.monotonic()
    rng = Rng(404)
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        scale = float(rng.uniform(0.1, 10.0, ()))
        pred = rng.normal(float(rng.uniform(-2, 2, ())), scale, (n,))
        truth = rng.normal(float(rng.uniform(-2, 2, ())), scale, (n,))
        assert abs(ccc(pred, truth) - _direct_ccc(pred, truth)) < CCC_TOL

    anti = ccc([1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0])
    assert abs(anti - (-1.0)) < 1e-8, f"anti-correlated ccc {anti}"

    res = welch_t_test(WELCH_A, WELCH_B, "two-sided")
    assert abs(res.statistic - WELCH_T) < 1e-9
    assert abs(res.dof - WELCH_DOF) < 1e-9
    assert abs(res.p_value - WELCH_P_TWO_SIDED) < 1e-9  # inside tol 0.01
    res_less = welch_t_test(WELCH_A, WELCH_B, "less")
    assert abs(res_less.p_value - WELCH_P_TWO_SIDED / 2.0) < 1e-12

    # Holm-Bonferroni: sorted enumeration over the grid covers every multiset;
    # order insensitivity is checked separately on random permutations.
    grid = [round(0.01 * g, 2) for g in range(101)]
    alpha = 0.05
    n_vectors = 0
    for m in (1, 2, 3, 4):
        for combo in itertools.combinations_with_replacement(grid, m):
            reject, adjusted = holm_bonferroni(list(combo), alpha)
            expect = _stepdown_oracle(combo, alpha)
            if reject.tolist() != expect:
                pytest.fail(f"holm mismatch on {combo}: "
                            f"{reject.tolist()} vs {expect}")
            n_vectors += 1

    perm_rng = Rng(405)
    for _ in range(2000):
        m = int(perm_rng.integers(1, 7))
        ps = [float(p) for p in perm_rng.random((m,))]
        a = float(perm_rng.uniform(0.01, 0.5, ()))
        reject, adjusted = holm_bonferroni(ps, a)
        assert reject.tolist() == _stepdown_oracle(ps, a)
        assert np.array_equal(reject, adjusted <= a)

    elapsed = time.monotonic() - t0
    print(f"[criterion 4] PASS: 1000 ccc pairs, frozen Welch reference, "
          f"{n_vectors} holm vectors, {elapsed:.0f}s")


# ---------------------------------------------------------------------------


def _tiny_model_config(dropout=0.0, d_model=16):
    return ModelConfig(
        modality_widths={"audio": 8, "video": 8, "text": 6},
        d_model=d_model, enc_heads=2, enc_layers=1, dec_heads=1, dec_layers=1,
        conv_layers=2, conv_kernel=3, d_ffn=32, head_hidden=8,
        mask_length=8, dropout=dropout, max_steps=256,
    )


def test_criterion_5_learning_sanity():
    """(a) overfit one sample to CCC > 0.99 in <= 300 epochs, < 5 min;
    (b) d_model=32 on the default benchmark: held-out CCC >= 0.7 where the
    dominant-modality ridge oracle scores >= 0.9."""
    t0 = time.monotonic()
    synth = SynthConfig(n_train=1, n_val=1, n_test=1, n_steps=200,
                        widths={"audio": 8, "video": 8, "text": 6})
    data = synth_generate(synth, seed=11)
    # Validating on the training sample itself: the point is memorization.
    train_cfg = TrainConfig(
        epochs=80, batch_size=4, learning_rate=3e-3,
        halve_patience=10, stop_patience=300,
        segment_length=100, segment_hop=50, seed=3,
    )
    result = train_run(_tiny_model_config(), train_cfg,
                       data["train"], data["train"])
    train_ccc = evaluate(result.model, data["train"], result.norm_stats).ccc
    overfit_time = time.monotonic() - t0
    assert train_ccc > 0.99, f"overfit ccc {train_ccc:.4f}"
    assert len(result.history.epochs) <= 300
    assert overfit_time < 300.0, f"overfit took {overfit_time:.0f}s"

    data = synth_generate(SynthConfig(), seed=4)  # default 20/5/5, T=600
    oracle = linear_baseline_ccc(data["train"], data["test"], ("audio",))
    assert oracle >= 0.9, f"ridge oracle precondition failed: {oracle:.4f}"
    model_cfg = ModelConfig(
        modality_widths={"audio": 8, "video": 8, "text": 6},
        d_model=32, enc_heads=2, enc_layers=2, dec_heads=1, dec_layers=1,
        conv_layers=4, conv_kernel=5, d_ffn=128, head_hidden=16,
        mask_length=50, dropout=0.1, max_steps=1024,
    )
    train_cfg = TrainConfig(
        epochs=10, batch_size=32, learning_rate=1e-3,
        halve_patience=4, stop_patience=10,
        segment_length=100, segment_hop=100, seed=5,
    )
    result = train_run(model_cfg, train_cfg, data["train"], data["val"])
    test_ccc = evaluate(result.model, data["test"], result.norm_stats).ccc
    assert test_ccc >= 0.7, f"held-out ccc {test_ccc:.4f} (oracle {oracle:.4f})"
    elapsed = time.monotonic() - t0
    print(f"[criterion 5] PASS: overfit ccc {train_ccc:.4f} in "
          f"{overfit_time:.0f}s; default-benchmark test ccc {test_ccc:.4f} "
          f"(ridge oracle {oracle:.4f}), total {elapsed:.0f}s")


# ---------------------------------------------------------------------------


def test_criterion_6_robustness_experiment():
    """Over 12 seeds: standard training collapses without audio (dominant)
    but not without text (SNR ~ 0); elimination training (rho = 0.25 on
    audio) is significantly better on the missing-audio condition."""
    t0 = time.monotonic()
    synth = SynthConfig(n_train=6, n_val=2, n_test=4, n_steps=160,
                        widths={"audio": 8, "video": 8, "text": 6})
    data = synth_generate(synth, seed=21)
    train_cfg = TrainConfig(
        epochs=20, batch_size=8, learning_rate=3e-3,
        halve_patience=4, stop_patience=10,
        segment_length=80, segment_hop=40, seed=0,
    )
    report = experiment_run(
        _tiny_model_config(), train_cfg, data, seeds=range(12),
        elimination={"audio": 0.25}, alpha=0.05,
    )

    by_label = {
        (c.family, c.label, c.metric): c for c in report.comparisons
    }
    drop_audio = by_label[("degradation", "standard: no_audio vs all", "ccc")]
    drop_text = by_label[("degradation", "standard: no_text vs all", "ccc")]
    gain = by_label[("robustness", "robust vs standard, no_audio", "ccc")]

    std_all = report.metric("standard", "all", "ccc")
    std_no_audio = report.metric("standard", "no_audio", "ccc")
    rob_no_audio = report.metric("robust", "no_audio", "ccc")

    # (a) checkmark pattern: dominant-modality removal hurts, near-zero-SNR
    # removal does not (Holm-corrected two-sided tests).
    assert std_no_audio.mean < std_all.mean
    assert drop_audio.reject, (
        f"missing-audio drop not significant: p {drop_audio.p_value:.4f}, "
        f"adjusted {drop_audio.adjusted_p:.4f}"
    )
    assert not drop_text.reject, (
        f"missing-text drop unexpectedly significant: "
        f"adjusted p {drop_text.adjusted_p:.4f}"
    )
    # (b) elimination training wins on the missing-dominant condition.
    assert rob_no_audio.mean > std_no_audio.mean
    assert gain.alternative == "greater"
    assert gain.p_value < 0.05, (
        f"robust-vs-standard one-sided p {gain.p_value:.4f}"
    )

    elapsed = time.monotonic() - t0
    assert elapsed < 3600.0, f"experiment took {elapsed:.0f}s (budget 1h)"
    print(f"[criterion 6] PASS: standard ccc {std_all.mean:.3f} -> "
          f"{std_no_audio.mean:.3f} without audio (adj p "
          f"{drop_audio.adjusted_p:.4f}); robust {rob_no_audio.mean:.3f} "
          f"(one-sided p {gain.p_value:.4f}); text drop adj p "
          f"{drop_text.adjusted_p:.2f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------


def test_criterion_7_elimination_sampler_statistics():
    """Empirical frequencies within +-1% absolute over 1e5 draws for both
    reference policies."""
    n = 100_000
    for seed, probs, targets in (
        (11, {"video": 0.25}, {"video": 0.25, None: 0.75}),
        (12, {"audio": 0.333, "video": 0.333},
         {"audio": 0.333, "video": 0.333, None: 0.334}),
    ):
        policy = EliminationPolicy(probs)
        rng = Rng(seed)
        counts = {}
        for _ in range(n):
            pick = policy.sample(rng)
            counts[pick] = counts.get(pick, 0) + 1
        for outcome, target in targets.items():
            freq = counts.get(outcome, 0) / n
            assert abs(freq - target) < 0.01, (
                f"policy {probs}: outcome {outcome} frequency {freq:.4f} "
                f"vs {target}"
            )
    print(f"[criterion 7] PASS: both policies within 1% over {n} draws")


# ---------------------------------------------------------------------------

_SYNTH_CFG_TEXT = """\
synth.n_train = 2
synth.n_val = 1
synth.n_test = 1
synth.n_steps = 50
synth.width.audio = 4
synth.width.video = 4
synth.width.text = 3
"""

_TRAIN_CFG_TEXT = """\
model.d_model = 8
model.enc_heads = 2
model.enc_layers = 1
model.dec_heads = 1
model.dec_layers = 1
model.conv_layers = 2
model.conv_kernel = 3
model.d_ffn = 16
model.head_hidden = 8
model.mask_length = 4
model.dropout = 0.1
model.width.audio = 4
model.width.video = 4
model.width.text = 3

train.epochs = 3
train.batch_size = 4
train.learning_rate = 0.003
train.segment_length = 30
train.segment_hop = 20
train.seed = 9
"""


def _tree_bytes(root, skip=("manifest.json",)):
    """{relative path: file bytes} for a directory, minus excluded names."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_8_reproducibility(tmp_path):
    """Same (config, seed) twice through the CLI: every artifact except the
    wall-clock-stamped manifest is bit-identical."""
    t0 = time.monotonic()
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(_SYNTH_CFG_TEXT)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(_TRAIN_CFG_TEXT)
    exp_cfg = tmp_path / "exp.cfg"
    exp_cfg.write_text(
        _TRAIN_CFG_TEXT.replace("train.epochs = 3", "train.epochs = 1")
        + "eliminate.audio = 0.3\n"
    )

    artifacts = {}
    for tag in ("one", "two"):
        base = tmp_path / tag
        data = base / "data"
        run = base / "run"
        assert cli_main(["synth", "--config", str(synth_cfg),
                         "--out", str(data), "--seed", "13"]) == 0
        assert cli_main(["train", "--data", str(data), "--out", str(run),
                         "--config", str(train_cfg), "--quiet"]) == 0
        assert cli_main(["eval", "--model", str(run / "model.ckpt"),
                         "--data", str(data), "--split", "test",
                         "--out", str(base / "eval.json")]) == 0
        assert cli_main(["trace", "--model", str(run / "model.ckpt"),
                         "--data", str(data), "--split", "test",
                         "--sample", "test000",
                         "--out", str(base / "trace.csv")]) == 0
        assert cli_main(["experiment", "--data", str(data),
                         "--out", str(base / "exp"), "--config", str(exp_cfg),
                         "--seeds", "0,1", "--quiet"]) == 0
        artifacts[tag] = _tree_bytes(base)

    first, second = artifacts["one"], artifacts["two"]
    assert set(first) == set(second)
    unequal = [rel for rel in first if first[rel] != second[rel]]
    assert not unequal, f"artifacts differ between runs: {unequal}"
    checked = len(first)
    # Sanity: the comparison covered every artifact class.
    assert any(rel.endswith("model.ckpt") for rel in first)
    assert any(rel.endswith("history.json") for rel in first)
    assert any(rel.endswith("report.json") for rel in first)
    assert any(rel.endswith("trace.csv") for rel in first)
    assert any(rel.endswith("labels.csv") for rel in first)
    elapsed = time.monotonic() - t0
    print(f"[criterion 8] PASS: {checked} artifacts bit-identical across "
          f"two runs, {elapsed:.0f}s")
