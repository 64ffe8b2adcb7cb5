"""Tests for the full encoder-decoder model and checkpointing."""

import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from emoreg import tensor as tz
from emoreg.errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DataLoadError,
    NoModalityError,
    ShapeError,
)
from emoreg.layers import CausalConvStack
from emoreg.model import (
    EmotionRegressor,
    ModelConfig,
    load_checkpoint,
    load_model_state,
    save_checkpoint,
)
from emoreg.objective import ccc_loss
from emoreg.tensor import Rng, Tape, Tensor, finite_difference_check

from oracles import decode_uncached


def tiny_config(**overrides):
    base = dict(
        modalities=("a", "b"),
        modality_widths={"a": 3, "b": 2},
        d_model=8,
        enc_heads=2,
        enc_layers=1,
        dec_heads=2,
        dec_layers=1,
        conv_layers=2,
        conv_kernel=3,
        d_ffn=16,
        head_hidden=4,
        mask_length=3,
        dropout=0.0,
        max_steps=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_features(config, rng, batch=2, steps=6):
    return {
        m: rng.normal(0, 1, (batch, steps, config.modality_widths[m]))
        for m in config.modalities
    }


class TestModelConfig:
    def test_defaults_are_valid(self):
        cfg = ModelConfig()
        assert cfg.d_model == 64
        assert cfg.mask_length == 100

    def test_roundtrip(self):
        cfg = tiny_config()
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"d_modell": 32})

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(modalities=())
        with pytest.raises(ConfigError):
            tiny_config(modalities=("a", "a"))
        with pytest.raises(ConfigError):
            tiny_config(modality_widths={"a": 3})  # no width for "b"
        with pytest.raises(ConfigError):
            tiny_config(d_model=9)  # not divisible by 2 heads
        with pytest.raises(ConfigError):
            tiny_config(dropout=1.0)
        with pytest.raises(ConfigError):
            tiny_config(mask_length=-2)

    @pytest.mark.parametrize("overrides, field", [
        ({"d_ffn": 8.5}, "d_ffn"),
        ({"head_hidden": True}, "head_hidden"),
        ({"mask_length": 3.0}, "mask_length"),
        ({"modality_widths": {"a": 3, "b": 2.5}}, "modality_widths['b']"),
    ])
    def test_non_integer_rejected(self, overrides, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: expected an integer"):
            tiny_config(**overrides)

    def test_numpy_integers_accepted(self):
        cfg = tiny_config(d_ffn=np.int64(16), modality_widths={"a": np.int32(3), "b": 2})
        assert cfg.d_ffn == 16 and cfg.modality_widths["a"] == 3


class TestForward:
    def setup_method(self):
        self.cfg = tiny_config()
        self.model = EmotionRegressor(self.cfg, Rng(0))
        self.rng = Rng(1)

    def test_prediction_shape(self):
        feats = make_features(self.cfg, self.rng, batch=2, steps=6)
        preds, present, _ = self.model.forward(feats)
        assert preds.data.shape == (2, 6)
        assert present == ["a", "b"]
        assert np.isfinite(preds.data).all()

    def test_all_modality_subsets_run(self):
        feats = make_features(self.cfg, self.rng, batch=1, steps=5)
        for subset in (["a"], ["b"], ["a", "b"]):
            sub = {m: feats[m] for m in subset}
            preds, present, _ = self.model.forward(sub)
            assert present == sorted(subset)
            assert np.isfinite(preds.data).all()

    def test_missing_as_none(self):
        feats = make_features(self.cfg, self.rng, batch=1, steps=5)
        feats["b"] = None
        _, present, _ = self.model.forward(feats)
        assert present == ["a"]

    def test_no_modalities_raises(self):
        with pytest.raises(NoModalityError):
            self.model.forward({"a": None})

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.model.forward({"a": np.ones((1, 4, 7))})

    def test_length_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.model.forward({"a": np.ones((1, 4, 3)), "b": np.ones((1, 5, 2))})

    def test_empty_batch_or_no_steps_raises(self):
        for shape in ((0, 4, 3), (1, 0, 3)):
            with pytest.raises(ShapeError):
                self.model.forward({"a": np.ones(shape)})
        with pytest.raises(ShapeError):
            self.model.forward({"a": np.ones((1, 4, 3)), "b": np.ones((2, 4, 2))})

    def test_every_stream_is_checked_before_any_is_embedded(self, monkeypatch):
        # A malformed second stream is found before the first one's conv
        # front runs, and ahead of the first one's capacity error.
        embedded = []
        conv = CausalConvStack.__call__
        monkeypatch.setattr(CausalConvStack, "__call__",
                            lambda self, *args: embedded.append(self) or conv(self, *args))
        for steps in (4, 65):
            with pytest.raises(ShapeError, match="'b' has width 3"):
                self.model.encode({"a": np.ones((1, steps, 3)), "b": np.ones((1, steps, 3))})
        assert embedded == []

    def test_decode_rejects_misshaped_encodings(self):
        for shape in ((2, 5, 8), (2, 5, 2, 7), (0, 5, 2, 8), (2, 0, 2, 8), (2, 5, 0, 8)):
            with pytest.raises(ShapeError):
                self.model.decode(Tensor(np.ones(shape)))

    def test_too_long_sequence_raises(self):
        # A capacity limit, not a config mistake: the CLI exits 1, not 2.
        with pytest.raises(CapacityError) as info:
            self.model.forward({"a": np.ones((1, 65, 3))})
        assert not isinstance(info.value, ConfigError)
        preds, _, _ = self.model.forward({"a": np.ones((1, 64, 3))})
        assert preds.data.shape == (1, 64)

    def test_eval_encode_memory_is_linear_in_steps(self):
        # Banded attention is computed blockwise, so doubling the sequence
        # at most doubles eval-mode peak memory (a dense (M*T)^2 score matrix
        # would quadruple it); 2.5x leaves room for fixed overheads.
        model = EmotionRegressor(tiny_config(max_steps=512), Rng(0))
        peaks = []
        for steps in (200, 400):
            feats = make_features(model.config, Rng(1), batch=1, steps=steps)
            tracemalloc.start()
            try:
                model.encode(feats)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2.5 * peaks[0], peaks

    def test_training_tape_saves_only_what_backward_reads(self):
        # A paper-default training forward (default architecture, widths
        # 8/8/6, B=2, T=120, dropout 0.2): one node per conv layer and per
        # feed-forward block, each saving a mask or one hidden array.  A node
        # per conv, relu, dropout and add would hold 142 nodes and 40 MB.
        widths = {"audio": 8, "video": 8, "text": 6}
        model = EmotionRegressor(ModelConfig(modality_widths=widths), Rng(0))
        data = Rng(1)
        feats = {m: data.normal(0.0, 1.0, (2, 120, w)) for m, w in widths.items()}
        labels = np.tanh(data.normal(0.0, 1.0, (2, 120)).cumsum(axis=1) / 10.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                preds, _, _ = model.forward(feats, rng=Rng(2))
                loss = ccc_loss(preds, labels)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        assert len(tape) <= 82
        assert held <= 32 * 2**20, f"tape holds {held / 2**20:.1f} MB"

    def test_eval_forward_is_deterministic(self):
        feats = make_features(self.cfg, self.rng)
        a, _, _ = self.model.forward(feats)
        b, _, _ = self.model.forward(feats)
        np.testing.assert_array_equal(a.data, b.data)

    def test_training_dropout_reproducible_by_seed(self):
        cfg = tiny_config(dropout=0.2)
        model = EmotionRegressor(cfg, Rng(2))
        feats = make_features(cfg, self.rng)
        a, _, _ = model.forward(feats, rng=Rng(7))
        b, _, _ = model.forward(feats, rng=Rng(7))
        c, _, _ = model.forward(feats, rng=Rng(8))
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_importance_sums_to_one(self):
        feats = make_features(self.cfg, self.rng)
        _, present, imp = self.model.forward(feats)
        assert imp.shape == (2, 2)  # [batch, n_present]
        np.testing.assert_allclose(imp.sum(axis=-1), 1.0, atol=1e-10)
        _, _, imp1 = self.model.forward({"a": feats["a"]})
        np.testing.assert_allclose(imp1[:, 0], 1.0, atol=1e-12)


class TestDecoderSemantics:
    def encoded(self, model, rng, batch=1, steps=7):
        cfg = model.config
        feats = make_features(cfg, rng, batch, steps)
        enc, _ = model.encode(feats)
        return enc

    def test_cached_matches_uncached(self):
        for dec_layers, dec_heads, seed in [(1, 2, 0), (2, 1, 1), (2, 4, 2)]:
            cfg = tiny_config(dec_layers=dec_layers, dec_heads=dec_heads)
            model = EmotionRegressor(cfg, Rng(seed))
            enc = self.encoded(model, Rng(seed + 100), batch=2, steps=7)
            cached, _ = model.decode(enc)
            uncached = decode_uncached(model, enc)
            np.testing.assert_allclose(cached.data, uncached.data, atol=1e-10)

    def test_training_decode_node_count_does_not_depend_on_steps(self):
        # Paper-default architecture in training mode (dropout on): the whole
        # decode loop is one node, so the tape does not grow with steps.
        model = EmotionRegressor(ModelConfig(), Rng(5))
        counts = []
        for steps in (10, 40):
            feats = make_features(model.config, Rng(6), batch=2, steps=steps)
            with Tape() as tape:
                enc, _ = model.encode(feats, rng=Rng(7))
                before = len(tape)
                model.decode(enc, rng=Rng(8))
            counts.append(len(tape) - before)
        assert counts == [3, 3], counts  # decoder, head feed_forward, reshape

    def test_gradients_match_uncached_decode(self):
        # The decoder's hand-written reverse-time backward against the tape
        # through the uncached oracle, for the same loss.
        cfg = tiny_config(dec_layers=2)
        model = EmotionRegressor(cfg, Rng(22))
        enc = Tensor(self.encoded(model, Rng(23), batch=2, steps=5).data, requires_grad=True)
        weights = Tensor(Rng(24).normal(0, 1, (2, 5)))
        params = dict(model.parameters(), encoded=enc)
        grads = []
        for decode in (lambda: model.decode(enc)[0], lambda: decode_uncached(model, enc)):
            for p in params.values():
                p.zero_grad()
            with Tape() as tape:
                loss = tz.tsum(decode() * weights)
            tape.backward(loss)
            grads.append({k: p.grad for k, p in params.items() if p.grad is not None})
        assert grads[0].keys() == grads[1].keys()
        assert "decoder.1.self_attn.wk.w" in grads[0] and "encoded" in grads[0]
        for k, g in grads[0].items():
            np.testing.assert_allclose(g, grads[1][k], rtol=0, atol=1e-10, err_msg=k)

    def test_future_blindness_is_exact(self):
        # Changing encoder outputs at steps >= t must leave predictions
        # before t bit-identical: the decoder reads strictly step-local
        # cross-attention context plus its own past.
        cfg = tiny_config(dec_layers=2)
        model = EmotionRegressor(cfg, Rng(3))
        enc = self.encoded(model, Rng(4), batch=1, steps=8)
        base, _ = model.decode(enc)
        for cut in [2, 5]:
            bumped = enc.data.copy()
            bumped[:, cut:] += 3.0
            got, _ = model.decode(Tensor(bumped))
            assert np.array_equal(got.data[:, :cut], base.data[:, :cut])
            assert not np.array_equal(got.data[:, cut:], base.data[:, cut:])

    def test_decode_is_autoregressive(self):
        # Perturbing only the *first* encoder step must ripple forward into
        # later predictions through the decoder's own history.
        cfg = tiny_config()
        model = EmotionRegressor(cfg, Rng(5))
        enc = self.encoded(model, Rng(6), batch=1, steps=6)
        base, _ = model.decode(enc)
        bumped = enc.data.copy()
        bumped[:, 0] += 1.0
        got, _ = model.decode(Tensor(bumped))
        assert not np.array_equal(got.data[:, 3:], base.data[:, 3:])


class TestModalityPermutation:
    def test_reordered_modalities_same_predictions(self):
        # Two models with modalities declared in opposite order but identical
        # weights must agree: attention has no token-order preference.
        cfg_ab = tiny_config()
        cfg_ba = tiny_config(modalities=("b", "a"))
        model_ab = EmotionRegressor(cfg_ab, Rng(7))
        model_ba = EmotionRegressor(cfg_ba, Rng(8))
        pa, pb = model_ab.parameters(), model_ba.parameters()
        for name, tensor in pb.items():
            if name == "modality_codes.table":
                # Rows follow config order: swap to keep codes tied to names.
                tensor.data = pa[name].data[[1, 0]].copy()
            else:
                tensor.data = pa[name].data.copy()
        feats = make_features(cfg_ab, Rng(9), batch=2, steps=6)
        out_ab, _, _ = model_ab.forward(feats)
        out_ba, _, _ = model_ba.forward(feats)
        np.testing.assert_allclose(out_ab.data, out_ba.data, atol=1e-9)


class TestEncoderLocality:
    def test_band_limits_single_layer_reach(self):
        # One encoder layer, band L: a perturbation at time tp cannot move
        # encoder outputs at times t with t < tp - L (conv fronts are causal,
        # so the backward direction is the only one that matters here).
        cfg = tiny_config(enc_layers=1, mask_length=2, conv_layers=1, conv_kernel=1)
        model = EmotionRegressor(cfg, Rng(10))
        rng = Rng(11)
        feats = make_features(cfg, rng, batch=1, steps=10)
        base, _ = model.encode(feats)
        tp = 6
        bumped = {m: f.copy() for m, f in feats.items()}
        bumped["a"][:, tp:] += 4.0
        got, _ = model.encode(bumped)
        assert np.array_equal(got.data[:, : tp - 2], base.data[:, : tp - 2])
        assert not np.array_equal(got.data[:, tp:], base.data[:, tp:])


class TestFullModelGradient:
    def test_finite_difference_whole_model(self):
        cfg = tiny_config(
            modalities=("a", "b"),
            modality_widths={"a": 2, "b": 2},
            d_model=4,
            enc_heads=2,
            dec_heads=2,
            conv_layers=1,
            conv_kernel=2,
            d_ffn=6,
            head_hidden=3,
            mask_length=2,
            max_steps=8,
        )
        model = EmotionRegressor(cfg, Rng(12))
        rng = Rng(13)
        feats = make_features(cfg, rng, batch=1, steps=3)
        truth = rng.normal(0, 1, (1, 3))

        def f():
            preds, _, _ = model.forward(feats)
            diff = preds - Tensor(truth)
            return tz.tsum(diff * diff)

        params = model.parameters()
        report = finite_difference_check(f, params)
        assert report.max_rel_err < 1e-5, str(report)

    def test_backward_populates_all_parameters(self):
        cfg = tiny_config()
        model = EmotionRegressor(cfg, Rng(14))
        feats = make_features(cfg, Rng(15), batch=2, steps=5)
        with Tape() as tape:
            preds, _, _ = model.forward(feats)
            loss = tz.tsum(preds * preds)
        tape.backward(loss)
        for name, p in model.parameters().items():
            assert p.grad is not None, f"no gradient reached {name}"
            assert np.isfinite(p.grad).all(), f"non-finite gradient at {name}"

    def test_training_op_names_are_pinned(self):
        # Criterion 1's full-model check: the backward tracer and per-op
        # profiles key on these names, so a renamed, split or fused op shows.
        cfg = tiny_config(head_hidden=8, mask_length=2, max_steps=8)
        model = EmotionRegressor(cfg, Rng(42))
        rng = Rng(43)
        feats = make_features(cfg, rng, batch=2, steps=4)
        with Tape() as tape:
            preds, _, _ = model.forward(feats)
            ccc_loss(preds, rng.normal(0.0, 1.0, (2, 4)))
        assert Counter(name for _, _, name in tape._nodes) == Counter(
            add=7, add_norm=2, causal_conv_block=4, concat=1, decoder=1, div=1,
            feed_forward=2, getitem=3, linear=6, local_attention=1, mean=4, mul=4,
            reshape=4, sub=3,
        )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg = tiny_config()
        model = EmotionRegressor(cfg, Rng(16))
        norm = {"a.mean": np.zeros(3), "a.std": np.ones(3)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg.to_dict(), model.parameters(), norm)
        config2, params2, norm2 = load_checkpoint(path)
        assert ModelConfig.from_dict(config2).to_dict() == cfg.to_dict()
        assert set(norm2) == {"a.mean", "a.std"}
        model2 = EmotionRegressor(ModelConfig.from_dict(config2), Rng(99))
        load_model_state(model2, params2)
        feats = make_features(cfg, Rng(17))
        a, _, _ = model.forward(feats)
        b, _, _ = model2.forward(feats)
        np.testing.assert_array_equal(a.data, b.data)

    def test_bytes_are_deterministic(self, tmp_path):
        cfg = tiny_config()
        model = EmotionRegressor(cfg, Rng(18))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, cfg.to_dict(), model.parameters(), {})
        save_checkpoint(p2, cfg.to_dict(), model.parameters(), {})
        assert p1.read_bytes() == p2.read_bytes()

    def test_mismatch_detected(self, tmp_path):
        cfg = tiny_config()
        model = EmotionRegressor(cfg, Rng(19))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg.to_dict(), model.parameters(), {})
        _, params, _ = load_checkpoint(path)
        del params["start_vector"]
        with pytest.raises(ContractError):
            load_model_state(EmotionRegressor(cfg, Rng(20)), params)

    @pytest.mark.parametrize("bad", [np.array([np.nan]), np.array(["x"])])
    def test_non_finite_or_non_numeric_parameter_rejected(self, bad):
        model = EmotionRegressor(tiny_config(), Rng(19))
        params = {k: t.data for k, t in model.parameters().items()}
        params["head.w2.b"] = bad
        with pytest.raises(ContractError, match="head.w2.b"):
            load_model_state(EmotionRegressor(tiny_config(), Rng(20)), params)

    def test_missing_config_is_a_load_error(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, **{"param/start_vector": np.zeros(8)})
        with pytest.raises(DataLoadError, match="model.npz"):
            load_checkpoint(path)

    def test_config_not_json_is_a_load_error(self, tmp_path):
        path = tmp_path / "model.npz"
        np.savez(path, config_json=np.array("{not json"))
        with pytest.raises(DataLoadError, match="model.npz"):
            load_checkpoint(path)

    def test_parameter_names_are_pinned(self):
        # The names are checkpoint keys and their order is the optimizer's:
        # changing either breaks saved checkpoints or reproducible training.
        model = EmotionRegressor(tiny_config(), Rng(0))
        conv = [f"conv.{m}.{n}" for m in ("a", "b") for n in (
            "conv0.kernel", "conv0.bias", "conv1.kernel", "conv1.bias",
            "res_proj.w", "res_proj.b")]
        linears = ["wq.w", "wq.b", "wk.w", "wk.b", "wv.w", "wv.b", "wo.w", "wo.b"]
        ffn = ["ffn.w1.w", "ffn.w1.b", "ffn.w2.w", "ffn.w2.b"]
        expected = (
            conv + ["enc_positions.table", "modality_codes.table"]
            + [f"encoder.0.attn.{n}" for n in linears]
            + [f"encoder.0.{n}" for n in ffn]
            + ["encoder.0.norm1.gain", "encoder.0.norm1.bias",
               "encoder.0.norm2.gain", "encoder.0.norm2.bias",
               "dec_positions.table", "start_vector"]
            + [f"decoder.0.self_attn.{n}" for n in linears]
            + [f"decoder.0.cross_attn.{n}" for n in linears]
            + [f"decoder.0.{n}" for n in ffn]
            + ["decoder.0.norm1.gain", "decoder.0.norm1.bias",
               "decoder.0.norm2.gain", "decoder.0.norm2.bias",
               "decoder.0.norm3.gain", "decoder.0.norm3.bias",
               "head.w1.w", "head.w1.b", "head.w2.w", "head.w2.b"]
        )
        assert list(model.parameters()) == expected
        layer = [n for n in expected if n.startswith("decoder.0.")]
        assert list(model.decoder[0].parameters("decoder.0")) == layer
