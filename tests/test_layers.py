"""Tests for the neural building blocks."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from emoreg import layers as ly
from emoreg import tensor as tz
from emoreg.errors import ConfigError, ShapeError
from emoreg.tensor import Rng, Tensor, finite_difference_check


class TestLinear:
    def test_shapes_and_param_names(self):
        lin = ly.Linear(3, 5, Rng(0))
        out = lin(Tensor(np.ones((2, 4, 3))))
        assert out.data.shape == (2, 4, 5)
        assert set(lin.parameters("p")) == {"p.w", "p.b"}

    def test_glorot_bounds(self):
        lin = ly.Linear(10, 10, Rng(1))
        limit = np.sqrt(6.0 / 20.0)
        assert np.all(np.abs(lin.w.data) <= limit)
        assert np.all(lin.b.data == 0.0)


class TestModule:
    def test_parameters_free_with_their_module(self):
        # Weights must be freed by reference counting once the module goes,
        # not kept by a reference cycle until the collector runs.
        gc.disable()
        try:
            layer = ly.EncoderLayer(8, 2, 16, Rng(0))
            weights = weakref.ref(layer.parameters("enc")["enc.attn.wq.w"].data)
            del layer
            assert weights() is None
        finally:
            gc.enable()


class TestCausalConvStack:
    def test_output_shape_and_projection(self):
        stack = ly.CausalConvStack(d_in=5, d_model=8, n_layers=3, kernel_size=3, rng=Rng(2))
        out = stack(Tensor(np.ones((2, 20, 5))))
        assert out.data.shape == (2, 20, 8)
        assert stack.res_proj is not None

    def test_no_projection_when_widths_match(self):
        stack = ly.CausalConvStack(4, 4, 2, 3, Rng(3))
        assert stack.res_proj is None

    def test_stack_is_causal(self):
        rng = Rng(5)
        stack = ly.CausalConvStack(2, 4, 3, 3, rng)
        x = rng.normal(0, 1, (1, 16, 2))
        base = stack(Tensor(x)).data
        bumped = x.copy()
        bumped[0, 9] += 5.0
        got = stack(Tensor(bumped)).data
        assert np.array_equal(got[0, :9], base[0, :9])
        assert not np.array_equal(got[0, 9:], base[0, 9:])

    def test_gradients(self):
        rng = Rng(6)
        stack = ly.CausalConvStack(2, 3, 2, 3, rng)
        x = Tensor(rng.normal(0, 1, (1, 6, 2)), requires_grad=True)
        params = dict(stack.parameters("stack"), x=x)
        report = finite_difference_check(
            lambda: tz.tsum(stack(x) * stack(x)), params
        )
        assert report.max_rel_err < 1e-5, str(report)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ly.CausalConvStack(2, 4, 0, 3, Rng(0))
        with pytest.raises(ConfigError):
            ly.CausalConvStack(2, 4, 2, 0, Rng(0))


class TestEncodingTable:
    def test_row_slice(self):
        table = ly.EncodingTable(10, 4, Rng(7))
        rows = table.rows(2, 3)
        np.testing.assert_allclose(rows.data, table.table.data[2:5], atol=1e-15)

    def test_out_of_range(self):
        table = ly.EncodingTable(10, 4, Rng(8))
        with pytest.raises(ShapeError):
            table.rows(8, 3)
        with pytest.raises(ShapeError):
            table.rows(-1, 2)

    def test_init_scale(self):
        table = ly.EncodingTable(2000, 8, Rng(9))
        assert abs(table.table.data.std() - 0.02) < 0.002


def _dense_band_attention(q, k, v, n_mod, mask_length):
    """Oracle: softmax over every token pair of a time-major sequence, with
    -inf wherever the two tokens' steps differ by more than mask_length."""
    steps = np.arange(q.shape[-2]) // n_mod
    mask = np.where(np.abs(steps[:, None] - steps[None, :]) <= mask_length, 0.0, -np.inf)
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(q.shape[-1]) + mask
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True) @ v


def _band_weights(n_steps, n_mod, mask_length):
    """Attention weights of tz.local_attention, read out through one-hot
    values: token j's value is e_j, so output row i is weight row i."""
    rng = Rng(30)
    n = n_steps * n_mod
    q = Tensor(rng.normal(0, 1, (1, n, 4)))
    k = Tensor(rng.normal(0, 1, (1, n, 4)))
    v = Tensor(np.eye(n)[None])
    return tz.local_attention(q, k, v, 1, n_mod, mask_length, 0.0, None).data[0]


class TestBandMask:
    """The temporal band of encoder self-attention (``tz.local_attention``)."""

    def test_small_known_case(self):
        # Two steps, two modalities, band 0: attention only within a timestep,
        # but across both modalities.
        weights = _band_weights(2, 2, 0)
        # Time-major token order: (t0,m0), (t0,m1), (t1,m0), (t1,m1).
        expected = np.array(
            [
                [1, 1, 0, 0],
                [1, 1, 0, 0],
                [0, 0, 1, 1],
                [0, 0, 1, 1],
            ],
            dtype=bool,
        )
        np.testing.assert_array_equal(weights > 0.0, expected)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_band_width(self):
        # 40 steps span several query chunks, so the band crosses chunk edges.
        weights = _band_weights(40, 1, 2)
        i, j = np.indices(weights.shape)
        np.testing.assert_array_equal(weights > 0.0, np.abs(i - j) <= 2)

    def test_symmetric_and_zero_on_allowed(self):
        # The band is symmetric, out-of-band weights are exactly 0, and the
        # band adds nothing to allowed scores: each row is the plain softmax
        # renormalised over its allowed entries.
        weights = _band_weights(37, 3, 1)
        np.testing.assert_array_equal(weights > 0.0, (weights > 0.0).T)
        full = _band_weights(37, 3, 100)
        allowed = np.where(weights > 0.0, full, 0.0)
        np.testing.assert_allclose(
            weights, allowed / allowed.sum(axis=-1, keepdims=True), atol=1e-12
        )

    def test_wide_band_allows_everything(self):
        assert (_band_weights(4, 2, 100) > 0.0).all()

    def test_every_mask_row_keeps_a_key(self):
        # Each query step's own step lies inside its chunk's key window, so
        # no mask row is all -inf and the softmax never meets an empty row.
        # The grid covers band 0, sequences shorter than one chunk and
        # chunks that do not divide the sequence.
        n_masks = 0
        for n_steps, n_mod, mask_length in itertools.product(
            (1, 5, 16, 17, 40, 101), (1, 3), (0, 1, 7, 24, 40, 100)
        ):
            for qsl, ksl, mask in tz._band_blocks(n_steps, n_mod, mask_length):
                if mask is not None:
                    n_masks += 1
                    assert mask.shape == (qsl.stop - qsl.start, ksl.stop - ksl.start)
                    assert np.isfinite(mask).any(axis=-1).all(), (n_steps, n_mod, mask_length)
        assert n_masks > 0

    def test_negative_length_rejected(self):
        x = Tensor(np.zeros((1, 4, 2)))
        with pytest.raises(ConfigError):
            tz.local_attention(x, x, x, 1, 2, -1, 0.0, None)

    @pytest.mark.parametrize(
        "n_steps, n_mod, mask_length",
        [(2, 2, 0), (40, 1, 0), (40, 3, 5), (37, 2, 17), (50, 3, 24), (6, 3, 100)],
    )
    def test_matches_dense_oracle(self, n_steps, n_mod, mask_length):
        rng = Rng(31)
        n = n_steps * n_mod
        q, k = rng.normal(0, 1, (2, 2, n, 4)), rng.normal(0, 1, (2, 2, n, 4))
        v = rng.normal(0, 1, (2, 2, n, 3))

        def tokens(x):  # [batch, heads, n, w] -> token-major [batch, n, heads * w]
            return Tensor(np.swapaxes(x, 1, 2).reshape(2, n, -1))

        got = tz.local_attention(
            tokens(q), tokens(k), tokens(v), 2, n_mod, mask_length, 0.0, None
        )
        want = _dense_band_attention(q, k, v, n_mod, mask_length)
        np.testing.assert_allclose(got.data, tokens(want).data, rtol=0, atol=1e-12)


class TestMultiHeadAttention:
    def setup_method(self):
        self.rng = Rng(10)
        self.mha = ly.MultiHeadAttention(8, 2, self.rng)

    def test_output_shape(self):
        x = Tensor(self.rng.normal(0, 1, (3, 7, 8)))
        assert self.mha(x, (1, 2)).data.shape == (3, 7, 8)

    def test_split_kv_path_matches_call(self):
        # attend on keys and values from project_kv is __call__, bit for bit.
        x = Tensor(self.rng.normal(0, 1, (2, 6, 8)))
        k, v = self.mha.project_kv(x)
        np.testing.assert_array_equal(self.mha.attend(x, k, v, (2, 1)).data,
                                      self.mha(x, (2, 1)).data)

    def test_banded_attend_returns_no_weights(self):
        # attend returns the output alone, not an (output, weights) pair, and
        # it is the dense band oracle run per head on the layer's projections.
        x = Tensor(self.rng.normal(0, 1, (1, 6, 8)))
        k, v = self.mha.project_kv(x)
        out = self.mha.attend(x, k, v, (2, 1))
        assert isinstance(out, Tensor)

        def heads(t):  # token-major [1, 6, 8] -> [1, 2 heads, 6, 4]
            return np.swapaxes(t.data.reshape(1, 6, 2, 4), 1, 2)

        mixed = _dense_band_attention(heads(self.mha.wq(x)), heads(k), heads(v), 2, 1)
        want = self.mha.wo(Tensor(np.swapaxes(mixed, 1, 2).reshape(1, 6, 8))).data
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ly.MultiHeadAttention(7, 2, Rng(0))

    def test_gradients(self):
        rng = Rng(11)
        mha = ly.MultiHeadAttention(4, 2, rng)
        x = Tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True)
        params = dict(mha.parameters("mha"), x=x)
        report = finite_difference_check(lambda: tz.tsum(mha(x, (1, 1)) * mha(x, (1, 1))), params)
        assert report.max_rel_err < 1e-5, str(report)


class TestTransformerLayers:
    def test_encoder_layer_shape(self):
        layer = ly.EncoderLayer(8, 2, 16, Rng(12))
        x = Tensor(Rng(13).normal(0, 1, (2, 6, 8)))
        assert layer(x, (2, 1)).data.shape == (2, 6, 8)

    def test_encoder_layer_gradients(self):
        rng = Rng(14)
        layer = ly.EncoderLayer(4, 2, 8, rng)
        x = Tensor(rng.normal(0, 1, (1, 3, 4)), requires_grad=True)
        params = dict(layer.parameters("enc"), x=x)
        report = finite_difference_check(lambda: tz.tsum(layer(x, (1, 1)) * layer(x, (1, 1))),
                                         params)
        assert report.max_rel_err < 1e-5, str(report)

    def test_decoder_step_shape(self):
        rng = Rng(15)
        layer = ly.DecoderLayer(8, 16, rng)
        start = Tensor(rng.normal(0, 1, (8,)))
        encoded = Tensor(rng.normal(0, 1, (2, 1, 4, 8)))
        positions = Tensor(rng.normal(0, 1, (1, 8)))
        out, importance = tz.decoder(start, positions, encoded, [layer.weights()], 2, 0.0, None)
        assert out.data.shape == (2, 1, 8)
        assert importance.shape == (2, 4)
        np.testing.assert_allclose(importance.sum(axis=-1), 1.0, atol=1e-12)

    def test_decoder_step_gradients(self):
        # Three decode steps of one layer: each step's self-attention reads
        # the keys and values of the steps before it.
        rng = Rng(16)
        layer = ly.DecoderLayer(4, 8, rng)
        start = Tensor(rng.normal(0, 1, (4,)), requires_grad=True)
        positions = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        encoded = Tensor(rng.normal(0, 1, (1, 3, 1, 4)), requires_grad=True)

        def f():
            out, _ = tz.decoder(start, positions, encoded, [layer.weights()], 2, 0.0, None)
            return tz.tsum(out * out)

        params = dict(layer.parameters("dec"), start=start, positions=positions,
                      encoded=encoded)
        report = finite_difference_check(f, params)
        assert report.max_rel_err < 1e-5, str(report)

    def test_dropout_only_in_training(self):
        layer = ly.EncoderLayer(8, 2, 16, Rng(17), dropout=0.5)
        x = Tensor(Rng(18).normal(0, 1, (1, 4, 8)))
        a = layer(x, (1, 3)).data
        b = layer(x, (1, 3)).data
        np.testing.assert_array_equal(a, b)  # eval mode: deterministic
        c = layer(x, (1, 3), Rng(19)).data
        assert not np.array_equal(a, c)


class TestRegressionHead:
    def test_shape_and_gradients(self):
        rng = Rng(20)
        head = ly.RegressionHead(6, 4, rng)
        x = Tensor(rng.normal(0, 1, (2, 5, 6)), requires_grad=True)
        assert head(x).data.shape == (2, 5, 1)
        params = dict(head.parameters("head"), x=x)
        report = finite_difference_check(lambda: tz.tsum(head(x)), params)
        assert report.max_rel_err < 1e-5, str(report)
