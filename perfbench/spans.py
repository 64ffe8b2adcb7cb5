"""Span tracing around emoreg's public calls, recorded from outside the package.

``Tracer.installed()`` replaces a fixed set of library functions and methods
with wrappers that open a span (name, start, end, parent, operation id) around
the original call and pass arguments and results through untouched.  Spans
are kept in memory; ``spans_table`` and ``layer_metrics`` turn them into self
times and per-operation figures when the run ends.

Backward time is attributed without touching the autodiff engine's logic:
each wrapped forward call notes the range of tape nodes it recorded
(``len(tape)`` before and after), and the wrapped ``Tape.backward`` swaps every
recorded callback for a timing shim that calls the original, keyed by the
innermost span that recorded the node and by the op name.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

from emoreg import data, layers, model, tensor, train

# Innermost span name of a tape node -> the forward pass that owns it.
GROUP = {
    "model.encode": "encode",
    "layers.conv_front": "encode",
    "layers.encoder_attn": "encode",
    "layers.encoder_ffn": "encode",
    "model.decode": "decode",
    "layers.decoder_attn": "decode",
    "layers.decoder_ffn": "decode",
    "layers.head": "decode",
}

# Ops whose backward time is reported on its own.
BACKWARD_OPS = (
    "matmul", "softmax", "dropout", "scaled_dot_scores", "linear", "layer_norm",
    "dilated_causal_conv1d",
)

# Spans whose per-operation time is a per-layer metric, by metric name.
SPAN_METRICS = {
    "model.encode_s": "model.encode",
    "layers.conv_front_s": "layers.conv_front",
    "layers.encoder_attn_s": "layers.encoder_attn",
    "layers.encoder_ffn_s": "layers.encoder_ffn",
    "model.decode_s": "model.decode",
    "layers.decoder_attn_s": "layers.decoder_attn",
    "layers.decoder_ffn_s": "layers.decoder_ffn",
    "layers.head_s": "layers.head",
    "tensor.backward_s": "tensor.backward",
    "train.adam_step_s": "train.adam_step",
    "data.collate_s": "data.collate",
    "objective.ccc_loss_s": "objective.ccc_loss",
    "data.load_dataset_s": "data.load_dataset",
    "model.load_checkpoint_s": "model.load_checkpoint",
}

_MB = 1024.0  # ru_maxrss is in KiB on Linux


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def band_entries(n_steps: int, mask_length: int) -> int:
    """Number of (t, s) pairs in [0, n_steps)^2 with |t - s| <= mask_length."""
    reach = min(mask_length, n_steps - 1)
    return n_steps + 2 * (reach * n_steps - reach * (reach + 1) // 2)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.extra: dict[int, dict] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._ranges: dict[int, list] = {}  # id(tape) -> [(depth, name, lo, hi)]
        self._band = None  # (n_modalities, n_steps, mask_length) inside encode
        self._encode_rss0 = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        now = time.perf_counter()
        # Closing an outer span also closes anything an exception left open.
        while self._stack:
            top = self._stack.pop()
            self.ends[top] = now
            if top == idx:
                return

    def _top(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    @contextmanager
    def op(self, name: str):
        """A span that starts a new operation id."""
        self.op_id += 1
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, namer, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            name = namer(args)
            if name is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            tape = tensor.current_tape()
            lo = len(tape) if tape is not None else 0
            depth = len(tracer._stack)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if tape is not None:
                    hi = len(tape)
                    tracer._ranges.setdefault(id(tape), []).append((depth, name, lo, hi))
                    tracer.extra.setdefault(idx, {})["nodes"] = hi - lo
                if after is not None:
                    after(args, idx)

        return wrapper

    def _by_context(self, encoder_name: str, decoder_name: str):
        def namer(_args):
            for i in reversed(self._stack):
                if self.names[i] == "model.encode":
                    return encoder_name
                if self.names[i] == "model.decode":
                    return decoder_name
            return None

        return namer

    def _enter_encode(self, args):
        regressor, features = args[0], args[1]
        present = [m for m in regressor.config.modalities if features.get(m) is not None]
        n_steps = np.shape(features[present[0]])[1] if present else 0
        self._band = (len(present), n_steps, regressor.config.mask_length)
        self._encode_rss0 = _maxrss_kib()

    def _leave_encode(self, _args, idx):
        self._band = None
        rise = (_maxrss_kib() - self._encode_rss0) / _MB
        self.extra.setdefault(idx, {})["rss_rise_mb"] = rise

    def _count_band(self, args, idx):
        """Score entries an encoder attention call computed, and how many of
        them lie inside the band (derived from shapes, not from the mask)."""
        if self._band is None or len(args) < 3:
            return
        q_src, k_heads = args[1], args[2]
        n_mod, n_steps, mask_length = self._band
        b, h, n_k = k_heads.data.shape[:3]
        computed = b * h * q_src.data.shape[1] * n_k
        in_band = b * h * n_mod * n_mod * band_entries(n_steps, mask_length)
        self.extra.setdefault(idx, {}).update(computed=computed, in_band=in_band)

    def _collate_namer(self, _args):
        if self._top() == "train.train_run":
            self._ranges.clear()  # drop what a failed step left behind
            self._open("train.step")  # closed after the optimizer step
        return "data.collate"

    def _close_step(self, _args, _idx):
        if self._top() == "train.step":
            self._close(self._stack[-1])

    def _timed_backward(self, original):
        tracer = self

        def backward(tape, loss):
            nodes = tape._nodes
            ranges = sorted(tracer._ranges.pop(id(tape), []))
            label = np.full(len(nodes), -1)
            names = []
            for _depth, name, lo, hi in ranges:  # outer first; inner overwrite
                if name not in names:
                    names.append(name)
                label[lo:hi] = names.index(name)
            times: dict = {}

            def shim(fn, key):
                def timed(g):
                    t0 = time.perf_counter()
                    fn(g)
                    times[key] = times.get(key, 0.0) + time.perf_counter() - t0

                return timed

            tape._nodes = [
                (out, shim(fn, (names[lab] if lab >= 0 else None, op)), op)
                for (out, fn, op), lab in zip(nodes, label.tolist())
            ]
            rss0 = _maxrss_kib()
            idx = tracer._open("tensor.backward")
            try:
                return original(tape, loss)
            finally:
                tracer._close(idx)
                tape._nodes = nodes
                tracer.extra[idx] = {
                    "nodes": len(nodes),
                    "callbacks": times,
                    "rss_rise_mb": (_maxrss_kib() - rss0) / _MB,
                }

        return backward

    @contextmanager
    def installed(self):
        """Wrap the traced library calls; restore the originals on exit."""
        fixed = lambda name: lambda _args: name  # noqa: E731
        attn = self._by_context("layers.encoder_attn", "layers.decoder_attn")
        patches = [
            (model.EmotionRegressor, "encode", fixed("model.encode"),
             self._enter_encode, self._leave_encode),
            (model.EmotionRegressor, "decode", fixed("model.decode"), None, None),
            (layers.CausalConvStack, "__call__", fixed("layers.conv_front"), None, None),
            (layers.MultiHeadAttention, "project_kv", attn, None, None),
            (layers.MultiHeadAttention, "attend", attn, None, self._count_band),
            (layers.FeedForward, "__call__",
             self._by_context("layers.encoder_ffn", "layers.decoder_ffn"), None, None),
            (layers.RegressionHead, "__call__", fixed("layers.head"), None, None),
            (train, "collate", self._collate_namer, None, None),
            (train, "ccc_loss", fixed("objective.ccc_loss"), None, None),
            (train, "evaluate", fixed("train.evaluate"), None, None),
            (train.AdamOptimizer, "step", fixed("train.adam_step"), None, self._close_step),
            (model, "load_checkpoint", fixed("model.load_checkpoint"), None, None),
            (model, "load_model_state", fixed("model.load_model_state"), None, None),
            (data, "load_dataset", fixed("data.load_dataset"), None, None),
        ]
        saved = []
        try:
            for owner, attr, namer, before, after in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, namer, before, after))
            original = tensor.Tape.__dict__["backward"]
            saved.append((tensor.Tape, "backward", original))
            tensor.Tape.backward = self._timed_backward(original)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans_table(self) -> dict:
        """Spans as columns, with self time = duration minus child durations."""
        start = np.asarray(self.starts)
        dur = np.asarray(self.ends) - start
        parent = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": list(self.names),
            "parent": parent.tolist(),
            "op": list(self.ops),
            "start_s": (start - (start.min() if start.size else 0.0)).tolist(),
            "duration_s": dur.tolist(),
            "self_s": (dur - child).tolist(),
        }

    def _ancestor(self, target: str) -> np.ndarray:
        """Index of each span's nearest ancestor-or-self named ``target``."""
        out = np.full(len(self.names), -1)
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            out[i] = i if name == target else (out[p] if p >= 0 else -1)
        return out

    def layer_metrics(self, unit: str) -> dict:
        """Per-layer figures per operation; ``unit`` names the span that is
        one operation (a train step, or one whole eval operation)."""
        table = self.spans_table()
        names = np.asarray(table["name"], dtype=object)
        dur = np.asarray(table["duration_s"])
        self_s = np.asarray(table["self_s"])
        in_unit = self._ancestor(unit) >= 0
        units = names == unit
        n = max(int(units.sum()), 1)
        out = {
            "bench.op_s": float(dur[units].sum() / n),
            "bench.op.unattributed_s": float(self_s[units].sum() / n),
        }
        for metric, span in SPAN_METRICS.items():
            out[metric] = float(dur[in_unit & (names == span)].sum() / n)
        # Validation runs between train steps, so it is counted per operation
        # of the enclosing run rather than inside a step.
        in_op = np.asarray(self.ops) >= 0
        out["train.evaluate_s"] = float(dur[in_op & (names == "train.evaluate")].sum() / n)

        extras = [(names[i], e) for i, e in self.extra.items() if in_unit[i]]
        by_group: dict = {}
        by_layer: dict = {}
        by_op: dict = {}
        callbacks = 0.0
        nodes = backwards = decode_nodes = computed = in_band = 0
        rss = {"model.encode": 0.0, "tensor.backward": 0.0}
        for name, e in extras:
            if name in rss:
                rss[name] = max(rss[name], e["rss_rise_mb"])
            if name == "tensor.backward":
                backwards += 1
                nodes += e["nodes"]
                for (layer, op), t in e["callbacks"].items():
                    callbacks += t
                    group = GROUP.get(layer)
                    by_group[group] = by_group.get(group, 0.0) + t
                    by_layer[layer] = by_layer.get(layer, 0.0) + t
                    by_op[op] = by_op.get(op, 0.0) + t
            elif name == "model.decode":
                decode_nodes += e.get("nodes", 0)
            computed += e.get("computed", 0)
            in_band += e.get("in_band", 0)
        out["tensor.backward.unattributed_s"] = (
            out["tensor.backward_s"] - callbacks / n
        )
        out["tensor.backward.encode_s"] = by_group.get("encode", 0.0) / n
        out["tensor.backward.decode_s"] = by_group.get("decode", 0.0) / n
        out["tensor.backward.encoder_attn_s"] = by_layer.get("layers.encoder_attn", 0.0) / n
        out["tensor.backward.decoder_attn_s"] = by_layer.get("layers.decoder_attn", 0.0) / n
        for op in BACKWARD_OPS:
            out[f"tensor.backward.op.{op}_s"] = by_op.get(op, 0.0) / n
        out["tensor.nodes_per_step"] = nodes / max(backwards, 1)
        out["model.decode.nodes"] = decode_nodes / max(backwards, 1)
        out["layers.encoder_attn.band_fraction"] = in_band / computed if computed else 0.0
        out["model.encode.maxrss_delta_mb"] = rss["model.encode"]
        out["tensor.backward.maxrss_delta_mb"] = rss["tensor.backward"]
        return out
