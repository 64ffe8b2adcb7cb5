"""Tests for the autodiff core: op semantics, gradients, determinism."""

import ast
from pathlib import Path

import numpy as np
import pytest

from emoreg import tensor as tz
from emoreg.errors import (
    ConfigError,
    ContractError,
    NumericError,
    ShapeError,
)
from emoreg.model import EmotionRegressor, ModelConfig
from emoreg.objective import ccc_loss
from emoreg.tensor import (
    Rng,
    Tape,
    Tensor,
    finite_difference_check,
)
from oracles import attention

FD_TOL = 1e-5
SRC = Path(__file__).resolve().parents[1] / "src" / "emoreg"


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of [rows, n] logits, read out of
    ``oracles.attention`` as its weights for zero queries under the logits as
    additive mask."""
    rows, n = logits.shape
    kv = Tensor(np.ones((1, n, 2)))
    _, weights = attention(Tensor(np.zeros((1, rows, 2))), kv, kv, 1, 0.0, None, logits)
    return weights[0, 0]


def _identity_ffn(x: Tensor, rate: float, rng) -> Tensor:
    """``tz.feed_forward`` with identity weights and zero biases: relu, then
    dropout, of ``x``."""
    eye, zero = Tensor(np.eye(x.shape[-1])), Tensor(np.zeros(x.shape[-1]))
    return tz.feed_forward(x, eye, zero, eye, zero, rate, rng)


def _conv(x: Tensor, kernel: Tensor, bias: Tensor, dilation: int = 1) -> Tensor:
    """``tz.causal_conv_block`` over a zero skip input and without dropout:
    relu of the causal convolution."""
    skip = Tensor(np.zeros(x.shape[:-1] + kernel.shape[-1:]))
    return tz.causal_conv_block(x, skip, kernel, bias, dilation, 0.0, None)


def check(f, params, tol=FD_TOL):
    report = finite_difference_check(f, params)
    assert report.max_rel_err < tol, str(report)
    return report


def test_no_unbanded_attention_in_the_library():
    # Unbanded masked attention is a test oracle (tests/oracles.py); without
    # it no library path can build a fully masked row.
    import emoreg

    assert not hasattr(tz, "attention")
    assert not hasattr(emoreg, "DegenerateAttentionError")


class TestForwardSemantics:
    def test_linear_matches_matmul_plus_bias(self):
        rng = Rng(0)
        x = Tensor(rng.normal(0, 1, (4, 3)))
        w = Tensor(rng.normal(0, 1, (3, 5)))
        b = Tensor(rng.normal(0, 1, (5,)))
        out = tz.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        y = _softmax(Rng(1).normal(0, 3, (6, 7)))
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(6), atol=1e-12)

    def test_softmax_uniform_logits(self):
        y = _softmax(np.full((2, 4), 1.7))
        np.testing.assert_allclose(y, np.full((2, 4), 0.25), atol=1e-15)

    def test_softmax_shift_invariance(self):
        x = Rng(2).normal(0, 1, (3, 5))
        np.testing.assert_allclose(_softmax(x), _softmax(x + 100.0), atol=1e-12)

    def test_softmax_masked_entries_are_exactly_zero(self):
        logits = np.zeros((2, 4))
        logits[:, 2] = -np.inf
        y = _softmax(logits)
        assert np.all(y[:, 2] == 0.0)
        np.testing.assert_allclose(y.sum(axis=-1), np.ones(2), atol=1e-12)

    def test_large_logits_do_not_overflow(self):
        y = _softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[0, :2], [0.5, 0.5], atol=1e-12)

    def test_layer_norm_constant_input(self):
        # Constant rows normalize to zero, leaving only the bias.
        gain = Tensor(np.full(6, 2.0))
        bias = Tensor(np.full(6, 0.3))
        x, y = Tensor(np.full((2, 6), 3.0)), Tensor(np.full((2, 6), 2.0))
        out = tz.add_norm(x, y, gain, bias, 0.0, None)
        np.testing.assert_allclose(out.data, np.full((2, 6), 0.3), atol=1e-9)

    def test_layer_norm_standardizes(self):
        x = Tensor(Rng(3).normal(2, 5, (4, 32)))
        y = Tensor(Rng(4).normal(0, 1, (4, 32)))
        out = tz.add_norm(x, y, Tensor(np.ones(32)), Tensor(np.zeros(32)), 0.0, None)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_add_norm_dropout_only_in_training(self):
        rng = Rng(6)
        x, y = Tensor(rng.normal(0, 1, (3, 8))), Tensor(rng.normal(0, 1, (3, 8)))
        gain, bias = Tensor(np.ones(8)), Tensor(np.zeros(8))
        plain = tz.add_norm(x, y, gain, bias, 0.0, None).data
        np.testing.assert_array_equal(tz.add_norm(x, y, gain, bias, 0.5, None).data, plain)
        dropped = tz.add_norm(x, y, gain, bias, 0.5, Rng(7)).data
        keep = (Rng(7).random((3, 8)) >= 0.5) / 0.5
        want = tz.add_norm(x, Tensor(y.data * keep), gain, bias, 0.0, None).data
        np.testing.assert_array_equal(dropped, want)

    def test_attention_matches_per_head_oracle(self):
        rng = Rng(8)
        q, k = rng.normal(0, 1, (2, 3, 6)), rng.normal(0, 1, (2, 5, 6))
        v = rng.normal(0, 1, (2, 5, 4))
        mask = np.where(rng.random((3, 5)) < 0.3, -np.inf, 0.0)
        mask[:, 0] = 0.0
        out, weights = attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.0, None, mask)
        for h in range(2):
            qh, kh = q[..., 3 * h : 3 * h + 3], k[..., 3 * h : 3 * h + 3]
            vh = v[..., 2 * h : 2 * h + 2]
            scores = qh @ np.swapaxes(kh, -1, -2) / np.sqrt(3.0) + mask
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(weights[:, h], w, atol=1e-12)
            np.testing.assert_allclose(out.data[..., 2 * h : 2 * h + 2], w @ vh, atol=1e-12)

    def test_attention_shape_errors(self):
        x = Tensor(np.ones((1, 3, 4)))
        with pytest.raises(ShapeError):
            attention(x, x, x, 3, 0.0, None)  # width 4 over 3 heads
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.ones((1, 3, 2))), x, 1, 0.0, None)
        with pytest.raises(ShapeError):
            attention(Tensor(np.ones((1, 1, 3, 4))), x, x, 1, 0.0, None)

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(Rng(4).normal(0, 1, (5, 5)))
        out = _identity_ffn(x, 0.5, None)
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0.0))

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert tz._keep_mask(x.shape, 0.0, Rng(0)) is None
        np.testing.assert_array_equal(_identity_ffn(x, 0.0, Rng(0)).data, x.data)

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = _identity_ffn(x, 0.3, Rng(5))
        kept = out.data != 0.0
        assert abs(kept.mean() - 0.7) < 0.01
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.7)

    def test_dropout_bad_rate(self):
        x = Tensor(np.ones((1, 3)))
        with pytest.raises(ConfigError):
            _identity_ffn(x, 1.0, Rng(0))
        with pytest.raises(ConfigError):
            tz.causal_conv_block(x, x, Tensor(np.ones((1, 3, 3))), Tensor(np.zeros(3)), 1,
                                 1.0, Rng(0))

    def test_an_rng_alone_turns_dropout_on(self):
        x = Tensor(np.ones((20, 20)))
        np.testing.assert_array_equal(_identity_ffn(x, 0.3, None).data, x.data)
        keep = (Rng(5).random((20, 20)) >= 0.3) / 0.7
        np.testing.assert_array_equal(_identity_ffn(x, 0.3, Rng(5)).data, keep)
        q = Tensor(Rng(6).normal(0, 1, (1, 8, 4)))
        for attend in (
            lambda rate, rng: attention(q, q, q, 2, rate, rng)[0],
            lambda rate, rng: tz.local_attention(q, q, q, 2, 2, 1, rate, rng),
        ):
            plain = attend(0.0, None).data
            np.testing.assert_array_equal(attend(0.5, None).data, plain)
            assert not np.array_equal(attend(0.5, Rng(7)).data, plain)


class TestCausalConv:
    def test_identity_kernel(self):
        x = Tensor(Rng(6).normal(0, 1, (10, 3)))
        kernel = np.zeros((3, 3, 3))
        kernel[0] = np.eye(3)  # tap 0 touches the current step only
        out = _conv(x, Tensor(kernel), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0.0), atol=1e-15)

    def test_causality(self):
        # Perturbing the input at time t must not change outputs before t.
        rng = Rng(7)
        x = rng.normal(0, 1, (12, 2))
        kernel = Tensor(rng.normal(0, 1, (4, 2, 2)))
        bias = Tensor(rng.normal(0, 1, (2,)))
        base = _conv(Tensor(x), kernel, bias, dilation=2).data
        for t in [0, 5, 11]:
            bumped = x.copy()
            bumped[t] += 10.0
            got = _conv(Tensor(bumped), kernel, bias, dilation=2).data
            assert np.array_equal(got[:t], base[:t])
            assert not np.array_equal(got[t:], base[t:])

    def test_dilation_reach(self):
        # With kernel size 2 and dilation 4, output t sees inputs {t, t-4}.
        x = np.zeros((10, 1))
        x[2, 0] = 1.0
        kernel = np.zeros((2, 1, 1))
        kernel[1, 0, 0] = 1.0  # pick out the delayed tap only
        out = _conv(Tensor(x), Tensor(kernel), Tensor(np.zeros(1)), dilation=4)
        expected = np.zeros((10, 1))
        expected[6, 0] = 1.0
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_batched_matches_loop(self):
        rng = Rng(8)
        xb = rng.normal(0, 1, (3, 9, 2))
        kernel = Tensor(rng.normal(0, 1, (3, 2, 4)))
        bias = Tensor(rng.normal(0, 1, (4,)))
        together = _conv(Tensor(xb), kernel, bias, dilation=2).data
        for i in range(3):
            one = _conv(Tensor(xb[i]), kernel, bias, dilation=2).data
            np.testing.assert_allclose(together[i], one, atol=1e-14)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            _conv(Tensor(np.ones((5, 3))), Tensor(np.ones((2, 4, 4))), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):  # a skip input of the wrong width
            tz.causal_conv_block(Tensor(np.ones((5, 3))), Tensor(np.ones((5, 3))),
                                 Tensor(np.ones((2, 3, 4))), Tensor(np.zeros(4)), 1, 0.0, None)


class TestGradients:
    """Central finite differences against the tape for every primitive."""

    def setup_method(self):
        self.rng = Rng(123)

    def p(self, shape, scale=1.0):
        return Tensor(self.rng.normal(0, scale, shape), requires_grad=True)

    def test_add_mul_sub_div_neg(self):
        a, b = self.p((3, 4)), self.p((3, 4))
        b.data += 3.0  # keep the divisor away from zero
        params = {"a": a, "b": b}
        check(lambda: tz.tsum(a + b), params)
        check(lambda: tz.tsum(a * b), params)
        check(lambda: tz.tsum(a - b), params)
        check(lambda: tz.tsum(a / b), params)

    def test_broadcast_gradients(self):
        a = self.p((4, 5))
        b = self.p((5,))
        c = self.p((4, 1))
        check(lambda: tz.tsum(a * b + c), {"a": a, "b": b, "c": c})

    def test_scalar_broadcast(self):
        a = self.p((3, 3))
        s = self.p(())
        check(lambda: tz.tsum(a * s), {"a": a, "s": s})

    def test_sum_mean_axes(self):
        a = self.p((3, 4, 2))
        check(
            lambda: tz.tsum(tz.tmean(a, axis=1)) * tz.tsum(tz.tmean(a, axis=(0, 2))),
            {"a": a},
        )
        check(lambda: tz.tmean(a), {"a": a})
        check(lambda: tz.tsum(tz.tsum(a, axis=-1, keepdims=True)), {"a": a})

    def test_linear(self):
        x, w, b = self.p((2, 6, 3)), self.p((3, 4)), self.p((4,))
        check(lambda: tz.tsum(tz.linear(x, w, b)), {"x": x, "w": w, "b": b})

    def test_softmax(self):
        q, k, v = self.p((2, 3, 4)), self.p((2, 6, 4)), self.p((2, 6, 4))
        w = self.p((2, 3, 4))
        check(
            lambda: tz.tsum(attention(q, k, v, 1, 0.0, None)[0] * w),
            {"q": q, "k": k, "v": v, "w": w},
        )

    def test_softmax_masked(self):
        mask = np.zeros((3, 6))
        mask[:, 4:] = -np.inf
        q, k, v = self.p((2, 3, 4)), self.p((2, 6, 4)), self.p((2, 6, 4))
        w = self.p((2, 3, 4))
        check(
            lambda: tz.tsum(attention(q, k, v, 2, 0.0, None, mask)[0] * w),
            {"q": q, "k": k, "v": v, "w": w},
        )

    def test_layer_norm(self):
        x, y, g, b = self.p((3, 8)), self.p((3, 8)), self.p((8,)), self.p((8,))
        w = self.p((3, 8))
        check(
            lambda: tz.tsum(tz.add_norm(x, y, g, b, 0.0, None) * w),
            {"x": x, "y": y, "g": g, "b": b},
        )

    def test_scaled_dot_scores(self):
        # Finite additive bias on the scores, two heads of width 3.
        q, k, v = self.p((2, 4, 6)), self.p((2, 5, 6)), self.p((2, 5, 2))
        mask = np.zeros((4, 5))
        mask[0, 3:] = -2.5
        check(
            lambda: tz.tsum(attention(q, k, v, 2, 0.0, None, mask)[0]),
            {"q": q, "k": k, "v": v},
        )

    def test_masked_attention_composite(self):
        # Scores, -inf mask, softmax, dropout and mix, all in one node.
        q, k, v = self.p((2, 4, 3)), self.p((2, 5, 3)), self.p((2, 5, 3))
        mask = np.zeros((4, 5))
        mask[:, 4] = -np.inf

        def f():
            out, _ = attention(q, k, v, 1, 0.25, Rng(12), mask)
            return tz.tsum(out * out)

        check(f, {"q": q, "k": k, "v": v})

    def test_conv(self):
        x = self.p((7, 2))
        kernel = self.p((3, 2, 3))
        bias = self.p((3,))
        check(
            lambda: tz.tsum(_conv(x, kernel, bias, 2) * _conv(x, kernel, bias, 2)),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_conv_batched(self):
        x = self.p((2, 6, 2))
        kernel = self.p((2, 2, 2))
        bias = self.p((2,))
        check(
            lambda: tz.tsum(_conv(x, kernel, bias)),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_reshape_getitem_concat(self):
        a = self.p((4, 6))
        b = self.p((2, 6))

        def f():
            r = tz.reshape(a, (2, 2, 6))
            top = tz.getitem(r, (slice(None), 0))
            return tz.tsum(tz.concat([top, b], axis=0) * tz.concat([top, b], axis=0))

        check(f, {"a": a, "b": b})

    def test_getitem_overlapping_reads_accumulate(self):
        a = self.p((5, 3))
        check(lambda: tz.tsum(a[1:4] * a[1:4]) + tz.tsum(a[2:5]), {"a": a})

    def test_reused_tensor_accumulates(self):
        a = self.p((3, 3))
        check(lambda: tz.tsum(a * a) + tz.tsum(a), {"a": a})

    def test_quadratic_is_exact_for_fd(self):
        # FD is exact (to roundoff) on quadratics, so the bound tightens.
        a = self.p((4, 4))
        report = finite_difference_check(lambda: tz.tsum(a * a), {"a": a})
        assert report.max_rel_err < 1e-8

    def test_dropout_gradient_with_fixed_mask(self):
        # Re-seed inside the closure so the mask is identical on every call.
        x = self.p((4, 4))
        w1, b1, w2, b2 = self.p((4, 5)), self.p((5,)), self.p((5, 3)), self.p((3,))

        def f():
            return tz.tsum(tz.feed_forward(x, w1, b1, w2, b2, 0.4, Rng(99)))

        check(f, {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2})


class TestTape:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_no_recording_outside_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            pass
        y = tz.tsum(x * x)
        assert len(tape) == 0
        assert y.requires_grad is False

    def test_only_node_records(self):
        # Every op records through tensor._node; a second recording path
        # would bypass what _node does for every node.
        def record_calls(tree):
            return sum(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                       and c.func.attr == "record" for c in ast.walk(tree))

        total = sum(record_calls(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
        in_node = sum(record_calls(fn) for fn in ast.parse((SRC / "tensor.py").read_text()).body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_node")
        assert (total, in_node) == (1, 1)

    def test_nested_tape_is_refused_and_the_outer_keeps_recording(self):
        x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
        with Tape() as outer:
            y = x * x
            with pytest.raises(ContractError, match="only one tape records at a time"):
                with Tape():
                    pass
            assert tz.current_tape() is outer
            loss = tz.tsum(y * y)
        assert tz.current_tape() is None
        outer.backward(loss)
        np.testing.assert_array_equal(x.grad, 4.0 * x.data ** 3)

    def test_no_tape_is_active_after_a_body_raises(self):
        with pytest.raises(NumericError):
            with Tape():
                with pytest.raises(ContractError):
                    with Tape():
                        pass
                raise NumericError("body failed")
        assert tz.current_tape() is None

    def test_repeated_backward_accumulates_on_leaves(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            loss = tz.tsum(x * x)
        tape.backward(loss)
        g1 = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * g1, atol=1e-15)

    def test_nonfinite_gradient_is_reported(self):
        x = Tensor(np.array([1e300, 1e300]), requires_grad=True)
        with Tape() as tape:
            y = x * x
            loss = tz.tsum(y * y)  # overflows to inf
        with pytest.raises(NumericError, match="mul"):
            tape.backward(loss)

    def test_constant_branches_get_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        with Tape() as tape:
            loss = tz.tsum(x * c)
        tape.backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_failed_backward_leaves_no_stale_gradient(self):
        # y1's gradient is set before y2's op raises, and y1's own op has
        # not run yet; the next pass on this tape must not start from it.
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
        with Tape() as tape:
            y1 = x * w
            y2 = x * w
            bad = tz.tsum(y1) + tz.tsum(y2 * Tensor(np.array([np.inf, 1.0])))
        with pytest.raises(NumericError):
            tape.backward(bad)
        assert all(out is None or out.grad is None for out, _, _ in tape._nodes)
        x.zero_grad()
        w.zero_grad()
        with tape:
            good = tz.tsum(y1 * y1)
        tape.backward(good)
        np.testing.assert_array_equal(x.grad, 2.0 * (x.data * w.data) * w.data)
        np.testing.assert_array_equal(w.grad, 2.0 * (x.data * w.data) * x.data)


def _tiny_train_step(dropout: float):
    """One encoder-decoder training step: (tape, loss, parameters)."""
    cfg = ModelConfig(
        modalities=("a", "b"), modality_widths={"a": 3, "b": 2}, d_model=8,
        enc_heads=2, enc_layers=1, dec_heads=2, dec_layers=2, conv_layers=2,
        conv_kernel=3, d_ffn=16, head_hidden=4, mask_length=3, dropout=dropout,
        max_steps=64,
    )
    model = EmotionRegressor(cfg, Rng(0))
    data = Rng(1)
    feats = {m: data.normal(0, 1, (2, 6, w)) for m, w in cfg.modality_widths.items()}
    labels = np.tanh(data.normal(0, 1, (2, 6)).cumsum(axis=1))
    with Tape() as tape:
        preds, _, _ = model.forward(feats, rng=Rng(2) if dropout else None)
        loss = ccc_loss(preds, labels)
    return tape, loss, model.parameters()


class TestFreedState:
    def test_only_leaves_keep_gradients_after_a_train_step(self):
        tape, loss, params = _tiny_train_step(dropout=0.3)
        tape.backward(loss)
        held = [name for out, _, name in tape._nodes if out is not None and out.grad is not None]
        assert held == []
        assert all(p.grad is not None for p in params.values())

    def test_repeated_backward_through_decoder_caches_doubles(self):
        tape, loss, params = _tiny_train_step(dropout=0.0)
        tape.backward(loss)
        first = {k: p.grad.copy() for k, p in params.items()}
        scale = max(np.abs(g).max() for g in first.values())
        tape.backward(loss)
        for k, p in params.items():
            assert np.abs(p.grad - 2.0 * first[k]).max() <= 1e-12 * scale, k

    def test_dropout_matches_float_mask_formula(self):
        rng = Rng(30)
        a = Tensor(rng.normal(0, 1, (3, 5, 7)), requires_grad=True)
        w = rng.normal(0, 1, (3, 5, 7))
        rate = 0.3
        with Tape() as tape:
            out = _identity_ffn(a, rate, Rng(31))
            loss = tz.tsum(out * Tensor(w))
        tape.backward(loss)
        mask = (Rng(31).random(a.shape) >= rate) / (1.0 - rate)
        assert out.data.tobytes() == (np.maximum(a.data, 0.0) * mask).tobytes()
        np.testing.assert_array_equal(a.grad, w * mask * (a.data > 0.0))

    def test_add_norm_matches_float_mask_formula(self):
        rng = Rng(32)
        x = Tensor(rng.normal(0, 1, (2, 4, 6)), requires_grad=True)
        y = Tensor(rng.normal(0, 1, (2, 4, 6)), requires_grad=True)
        gain = Tensor(rng.normal(1, 0.1, (6,)), requires_grad=True)
        bias = Tensor(rng.normal(0, 0.1, (6,)), requires_grad=True)
        w = Tensor(rng.normal(0, 1, (2, 4, 6)))
        rate = 0.35
        with Tape() as tape:
            out = tz.add_norm(x, y, gain, bias, rate, Rng(33))
            loss = tz.tsum(out * w)
        tape.backward(loss)
        got = [out.data, x.grad, y.grad, gain.grad, bias.grad]
        # The same node without dropout, fed y times the float mask.
        mask = (Rng(33).random(y.shape) >= rate) / (1.0 - rate)
        ym = Tensor(y.data * mask, requires_grad=True)
        for p in (x, gain, bias):
            p.zero_grad()
        with Tape() as tape:
            ref = tz.add_norm(x, ym, gain, bias, rate, None)
            loss = tz.tsum(ref * w)
        tape.backward(loss)
        want = [ref.data, x.grad, ym.grad * mask, gain.grad, bias.grad]
        assert got[0].tobytes() == want[0].tobytes()
        for g, e in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(g, e)

    def test_attention_input_used_three_times_accumulates(self):
        # q, k and v are one tensor: the first gradient handed over must
        # then take the other two with +=, as three separate inputs would.
        rng = Rng(34)
        data = rng.normal(0, 1, (2, 5, 4))
        w = Tensor(rng.normal(0, 1, (2, 5, 4)))
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out, _ = attention(x, x, x, 2, 0.2, Rng(35))
            loss = tz.tsum(out * w)
        tape.backward(loss)
        parts = [Tensor(data.copy(), requires_grad=True) for _ in range(3)]
        with Tape() as tape:
            out, _ = attention(*parts, 2, 0.2, Rng(35))
            loss = tz.tsum(out * w)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, parts[0].grad + parts[1].grad + parts[2].grad)


class TestDecoderNode:
    def test_non_finite_gradient_inside_raises(self, monkeypatch):
        # A NaN born inside the decoder's backward (here in the lower layer's
        # cross-attention at the last step) is caught before it leaves.
        tape, loss, _ = _tiny_train_step(dropout=0.0)
        real, calls = tz._block_backward, []

        def poisoned(*args):
            dq, dk, dv = real(*args)
            calls.append(None)
            return (dq * np.nan if len(calls) == 3 else dq), dk, dv

        monkeypatch.setattr(tz, "_block_backward", poisoned)
        with pytest.raises(NumericError, match="'decoder' at step 5, layer 0"):
            tape.backward(loss)

    def test_records_one_node_and_checks_shapes(self):
        rng = Rng(40)
        start = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
        positions = Tensor(rng.normal(0, 1, (3, 4)))
        encoded = Tensor(rng.normal(0, 1, (2, 3, 2, 4)))
        pairs = [(Tensor(rng.normal(0, 1, (a, b))), Tensor(np.zeros(b)))
                 for a, b in [(4, 4)] * 8 + [(4, 5), (5, 4)]]
        pairs += [(Tensor(np.ones(4)), Tensor(np.zeros(4))) for _ in range(3)]
        layers = [tz.DecoderWeights(*pairs)]
        with Tape() as tape:
            out, importance = tz.decoder(start, positions, encoded, layers, 2, 0.0, None)
        assert len(tape) == 1
        assert out.data.shape == (2, 3, 4)
        np.testing.assert_allclose(importance.sum(axis=-1), 1.0, atol=1e-12)
        with pytest.raises(ShapeError):  # 3-D encodings
            tz.decoder(start, positions, Tensor(encoded.data[:, 0]), layers, 2, 0.0, None)
        with pytest.raises(ShapeError):  # width 4 against a width-3 start
            tz.decoder(Tensor(start.data[:3]), positions, encoded, layers, 2, 0.0, None)
        with pytest.raises(ShapeError):  # 3 steps, 2 positions
            tz.decoder(start, Tensor(positions.data[:2]), encoded, layers, 2, 0.0, None)
        with pytest.raises(ShapeError):  # width 4 does not split into 3 heads
            tz.decoder(start, positions, encoded, layers, 3, 0.0, None)


class TestRngAndInit:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            Rng(-1)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="^seed: expected an integer"):
            Rng(seed)

    def test_numpy_integer_seed_gives_the_same_stream(self):
        assert np.array_equal(Rng(np.int64(42)).normal(0, 1, (8,)), Rng(42).normal(0, 1, (8,)))

    def test_same_seed_same_stream(self):
        a = Rng(42).normal(0, 1, (100,))
        b = Rng(42).normal(0, 1, (100,))
        assert np.array_equal(a, b)

    def test_children_are_independent_and_stable(self):
        r = Rng(7)
        c1 = r.child("encoder").normal(0, 1, (10,))
        c2 = r.child("decoder").normal(0, 1, (10,))
        c1_again = Rng(7).child("encoder").normal(0, 1, (10,))
        assert np.array_equal(c1, c1_again)
        assert not np.array_equal(c1, c2)

    def test_child_does_not_disturb_parent(self):
        r1, r2 = Rng(5), Rng(5)
        r1.child("x")
        assert np.array_equal(r1.normal(0, 1, (8,)), r2.normal(0, 1, (8,)))

    def test_finite_checks(self):
        t = Tensor(np.array([1.0, np.inf]))
        assert not t.is_finite()
