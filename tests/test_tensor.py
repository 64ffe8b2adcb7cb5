"""Tests for the autodiff core: op semantics, gradients, determinism."""

import numpy as np
import pytest

from emoreg import tensor as tz
from emoreg.errors import (
    ConfigError,
    ContractError,
    DegenerateAttentionError,
    NumericError,
    ShapeError,
)
from emoreg.tensor import (
    Rng,
    SequenceCache,
    Tape,
    Tensor,
    finite_difference_check,
)

FD_TOL = 1e-5


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of [rows, n] logits, read out of
    ``tz.attention`` as its weights for zero queries under the logits as
    additive mask."""
    rows, n = logits.shape
    kv = Tensor(np.ones((1, n, 2)))
    _, weights = tz.attention(Tensor(np.zeros((1, rows, 2))), kv, kv, 1, 0.0, None, False, logits)
    return weights[0, 0]


def check(f, params, tol=FD_TOL):
    report = finite_difference_check(f, params)
    assert report.max_rel_err < tol, str(report)
    return report


class TestForwardSemantics:
    def test_matmul_known_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = tz.matmul(a, b)
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            tz.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            tz.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

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

    def test_softmax_fully_masked_slice_raises(self):
        with pytest.raises(DegenerateAttentionError):
            _softmax(np.full((1, 3), -np.inf))

    def test_large_logits_do_not_overflow(self):
        y = _softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[0, :2], [0.5, 0.5], atol=1e-12)

    def test_layer_norm_constant_input(self):
        # Constant rows normalize to zero, leaving only the bias.
        gain = Tensor(np.full(6, 2.0))
        bias = Tensor(np.full(6, 0.3))
        x, y = Tensor(np.full((2, 6), 3.0)), Tensor(np.full((2, 6), 2.0))
        out = tz.add_norm(x, y, gain, bias, 0.0, None, False)
        np.testing.assert_allclose(out.data, np.full((2, 6), 0.3), atol=1e-9)

    def test_layer_norm_standardizes(self):
        x = Tensor(Rng(3).normal(2, 5, (4, 32)))
        y = Tensor(Rng(4).normal(0, 1, (4, 32)))
        out = tz.add_norm(x, y, Tensor(np.ones(32)), Tensor(np.zeros(32)), 0.0, None, False)
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_add_norm_dropout_only_in_training(self):
        rng = Rng(6)
        x, y = Tensor(rng.normal(0, 1, (3, 8))), Tensor(rng.normal(0, 1, (3, 8)))
        gain, bias = Tensor(np.ones(8)), Tensor(np.zeros(8))
        plain = tz.add_norm(x, y, gain, bias, 0.0, None, False).data
        np.testing.assert_array_equal(tz.add_norm(x, y, gain, bias, 0.5, None, False).data, plain)
        dropped = tz.add_norm(x, y, gain, bias, 0.5, Rng(7), True).data
        keep = (Rng(7).random((3, 8)) >= 0.5) / 0.5
        want = tz.add_norm(x, Tensor(y.data * keep), gain, bias, 0.0, None, False).data
        np.testing.assert_array_equal(dropped, want)
        with pytest.raises(ConfigError):
            tz.add_norm(x, y, gain, bias, 0.5, None, True)

    def test_attention_matches_per_head_oracle(self):
        rng = Rng(8)
        q, k = rng.normal(0, 1, (2, 3, 6)), rng.normal(0, 1, (2, 5, 6))
        v = rng.normal(0, 1, (2, 5, 4))
        mask = np.where(rng.random((3, 5)) < 0.3, -np.inf, 0.0)
        mask[:, 0] = 0.0
        out, weights = tz.attention(Tensor(q), Tensor(k), Tensor(v), 2, 0.0, None, False, mask)
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
            tz.attention(x, x, x, 3, 0.0, None, False)  # width 4 over 3 heads
        with pytest.raises(ShapeError):
            tz.attention(x, Tensor(np.ones((1, 3, 2))), x, 1, 0.0, None, False)
        with pytest.raises(ShapeError):
            tz.attention(Tensor(np.ones((1, 1, 3, 4))), x, x, 1, 0.0, None, False)

    def test_relu_clamps_negatives(self):
        out = tz.relu(Tensor([-2.0, 0.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 3.0])

    def test_gelu_known_values(self):
        # gelu(0) = 0, and gelu is ~identity for large positive inputs.
        out = tz.gelu(Tensor([0.0, 10.0, -10.0]))
        np.testing.assert_allclose(out.data, [0.0, 10.0, 0.0], atol=1e-8)

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(Rng(4).normal(0, 1, (5, 5)))
        out = tz.dropout(x, 0.5, None, training=False)
        assert out is x

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert tz.dropout(x, 0.0, Rng(0), training=True) is x

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = tz.dropout(x, 0.3, Rng(5), training=True)
        kept = out.data != 0.0
        assert abs(kept.mean() - 0.7) < 0.01
        np.testing.assert_allclose(out.data[kept], 1.0 / 0.7)

    def test_dropout_bad_rate(self):
        with pytest.raises(ConfigError):
            tz.dropout(Tensor(np.ones(3)), 1.0, Rng(0), training=True)


class TestCausalConv:
    def test_identity_kernel(self):
        x = Tensor(Rng(6).normal(0, 1, (10, 3)))
        kernel = np.zeros((3, 3, 3))
        kernel[0] = np.eye(3)  # tap 0 touches the current step only
        out = tz.dilated_causal_conv1d(x, Tensor(kernel), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x.data, atol=1e-15)

    def test_causality(self):
        # Perturbing the input at time t must not change outputs before t.
        rng = Rng(7)
        x = rng.normal(0, 1, (12, 2))
        kernel = Tensor(rng.normal(0, 1, (4, 2, 2)))
        bias = Tensor(rng.normal(0, 1, (2,)))
        base = tz.dilated_causal_conv1d(Tensor(x), kernel, bias, dilation=2).data
        for t in [0, 5, 11]:
            bumped = x.copy()
            bumped[t] += 10.0
            got = tz.dilated_causal_conv1d(Tensor(bumped), kernel, bias, dilation=2).data
            assert np.array_equal(got[:t], base[:t])
            assert not np.array_equal(got[t:], base[t:])

    def test_dilation_reach(self):
        # With kernel size 2 and dilation 4, output t sees inputs {t, t-4}.
        x = np.zeros((10, 1))
        x[2, 0] = 1.0
        kernel = np.zeros((2, 1, 1))
        kernel[1, 0, 0] = 1.0  # pick out the delayed tap only
        out = tz.dilated_causal_conv1d(
            Tensor(x), Tensor(kernel), Tensor(np.zeros(1)), dilation=4
        )
        expected = np.zeros((10, 1))
        expected[6, 0] = 1.0
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_batched_matches_loop(self):
        rng = Rng(8)
        xb = rng.normal(0, 1, (3, 9, 2))
        kernel = Tensor(rng.normal(0, 1, (3, 2, 4)))
        bias = Tensor(rng.normal(0, 1, (4,)))
        together = tz.dilated_causal_conv1d(Tensor(xb), kernel, bias, dilation=2).data
        for i in range(3):
            one = tz.dilated_causal_conv1d(Tensor(xb[i]), kernel, bias, dilation=2).data
            np.testing.assert_allclose(together[i], one, atol=1e-14)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            tz.dilated_causal_conv1d(
                Tensor(np.ones((5, 3))), Tensor(np.ones((2, 4, 4))), Tensor(np.zeros(4))
            )


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
        check(lambda: tz.tsum(-a * b), params)

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

    def test_matmul(self):
        a, b = self.p((4, 3)), self.p((3, 5))
        check(lambda: tz.tsum(tz.matmul(a, b)), {"a": a, "b": b})

    def test_matmul_batched(self):
        a, b = self.p((2, 4, 3)), self.p((2, 3, 5))
        check(lambda: tz.tsum(tz.matmul(a, b)), {"a": a, "b": b})

    def test_matmul_broadcast_batch(self):
        a, b = self.p((2, 4, 3)), self.p((3, 5))
        check(lambda: tz.tsum(tz.matmul(a, b)), {"a": a, "b": b})

    def test_linear(self):
        x, w, b = self.p((2, 6, 3)), self.p((3, 4)), self.p((4,))
        check(lambda: tz.tsum(tz.linear(x, w, b)), {"x": x, "w": w, "b": b})

    def test_relu(self):
        x = self.p((4, 4))
        x.data += 0.05 * np.sign(x.data)  # keep clear of the kink at 0
        check(lambda: tz.tsum(tz.relu(x) * tz.relu(x)), {"x": x})

    def test_gelu(self):
        x = self.p((4, 4))
        check(lambda: tz.tsum(tz.gelu(x)), {"x": x})

    def test_softmax(self):
        q, k, v = self.p((2, 3, 4)), self.p((2, 6, 4)), self.p((2, 6, 4))
        w = self.p((2, 3, 4))
        check(
            lambda: tz.tsum(tz.attention(q, k, v, 1, 0.0, None, False)[0] * w),
            {"q": q, "k": k, "v": v, "w": w},
        )

    def test_softmax_masked(self):
        mask = np.zeros((3, 6))
        mask[:, 4:] = -np.inf
        q, k, v = self.p((2, 3, 4)), self.p((2, 6, 4)), self.p((2, 6, 4))
        w = self.p((2, 3, 4))
        check(
            lambda: tz.tsum(tz.attention(q, k, v, 2, 0.0, None, False, mask)[0] * w),
            {"q": q, "k": k, "v": v, "w": w},
        )

    def test_layer_norm(self):
        x, y, g, b = self.p((3, 8)), self.p((3, 8)), self.p((8,)), self.p((8,))
        w = self.p((3, 8))
        check(
            lambda: tz.tsum(tz.add_norm(x, y, g, b, 0.0, None, False) * w),
            {"x": x, "y": y, "g": g, "b": b},
        )

    def test_scaled_dot_scores(self):
        # Finite additive bias on the scores, two heads of width 3.
        q, k, v = self.p((2, 4, 6)), self.p((2, 5, 6)), self.p((2, 5, 2))
        mask = np.zeros((4, 5))
        mask[0, 3:] = -2.5
        check(
            lambda: tz.tsum(tz.attention(q, k, v, 2, 0.0, None, False, mask)[0]),
            {"q": q, "k": k, "v": v},
        )

    def test_masked_attention_composite(self):
        # Scores, -inf mask, softmax, dropout and mix, all in one node.
        q, k, v = self.p((2, 4, 3)), self.p((2, 5, 3)), self.p((2, 5, 3))
        mask = np.zeros((4, 5))
        mask[:, 4] = -np.inf

        def f():
            out, _ = tz.attention(q, k, v, 1, 0.25, Rng(12), True, mask)
            return tz.tsum(out * out)

        check(f, {"q": q, "k": k, "v": v})

    def test_conv(self):
        x = self.p((7, 2))
        kernel = self.p((3, 2, 3))
        bias = self.p((3,))
        check(
            lambda: tz.tsum(
                tz.dilated_causal_conv1d(x, kernel, bias, dilation=2)
                * tz.dilated_causal_conv1d(x, kernel, bias, dilation=2)
            ),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_conv_batched(self):
        x = self.p((2, 6, 2))
        kernel = self.p((2, 2, 2))
        bias = self.p((2,))
        check(
            lambda: tz.tsum(tz.dilated_causal_conv1d(x, kernel, bias)),
            {"x": x, "kernel": kernel, "bias": bias},
        )

    def test_reshape_transpose_getitem_concat(self):
        a = self.p((4, 6))
        b = self.p((2, 6))

        def f():
            r = tz.reshape(a, (2, 2, 6))
            t = tz.transpose(r, (1, 0, 2))
            top = tz.getitem(t, (0,))
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

        def f():
            return tz.tsum(tz.dropout(x, 0.4, Rng(99), training=True))

        check(f, {"x": x})


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


class TestSequenceCache:
    def test_append_read_roundtrip(self):
        cache = SequenceCache((2,), capacity=5, feature_dim=3)
        rows = [Rng(i).normal(0, 1, (2, 1, 3)) for i in range(4)]
        for r in rows:
            cache.append(Tensor(r))
        got = cache.read().data
        np.testing.assert_allclose(got, np.concatenate(rows, axis=1), atol=1e-15)

    def test_capacity_enforced(self):
        cache = SequenceCache((), capacity=1, feature_dim=2)
        cache.append(Tensor(np.ones((1, 2))))
        with pytest.raises(ContractError):
            cache.append(Tensor(np.ones((1, 2))))

    def test_gradient_matches_concat(self):
        # An incremental cached reduction must backprop exactly like the
        # equivalent concat-based computation.
        rng = Rng(11)
        rows = [Tensor(rng.normal(0, 1, (1, 4)), requires_grad=True) for _ in range(3)]
        w = Tensor(rng.normal(0, 1, (4, 1)), requires_grad=True)

        with Tape() as tape:
            cache = SequenceCache((), capacity=3, feature_dim=4)
            total = None
            for r in rows:
                cache.append(r)
                part = tz.tsum(tz.matmul(cache.read(), w))
                total = part if total is None else total + part
        tape.backward(total)
        cached_grads = [r.grad.copy() for r in rows] + [w.grad.copy()]

        for r in rows:
            r.zero_grad()
        w.zero_grad()
        with Tape() as tape2:
            total2 = None
            for n in range(1, 4):
                prefix = tz.concat(rows[:n], axis=0)
                part = tz.tsum(tz.matmul(prefix, w))
                total2 = part if total2 is None else total2 + part
        tape2.backward(total2)
        np.testing.assert_allclose(total.data, total2.data, atol=1e-12)
        for got, r in zip(cached_grads, rows):
            np.testing.assert_allclose(got, r.grad, atol=1e-12)
        np.testing.assert_allclose(cached_grads[-1], w.grad, atol=1e-12)


class TestRngAndInit:
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
        with pytest.raises(NumericError):
            t.assert_finite("probe")
        Tensor(np.ones(3)).assert_finite()
