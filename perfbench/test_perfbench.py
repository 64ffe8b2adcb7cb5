"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, band_entries  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    REGISTRY = json.load(_fh)

# emoreg's README "small" model, shrunk further in sequence length.
SMALL_MODEL = dict(
    d_model=16, enc_heads=2, enc_layers=1, dec_heads=1, dec_layers=1,
    conv_layers=2, conv_kernel=3, d_ffn=32, head_hidden=8, mask_length=8,
    dropout=0.1, max_steps=64,
)

TINY = {
    "train": workloads.Workload(
        "train", {"train": (2, 40), "val": (1, 40)}, SMALL_MODEL,
        dict(epochs=2, batch_size=2, learning_rate=3e-3, segment_length=20, segment_hop=10,
             elimination={"audio": 0.5}),
    ),
    "eval": workloads.Workload("eval", {"test": (2, 30)}, SMALL_MODEL),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def traced(request, tmp_path_factory):
    work = str(tmp_path_factory.mktemp("work") / "inputs")
    return workloads.measure(TINY[request.param], seed=3, seconds=0.0, trace=True, work=work)


def _names(section):
    return {m["name"] for m in REGISTRY[section]}


def test_registry_follows_the_contract():
    assert set(REGISTRY) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    every = [w["name"] for w in REGISTRY["workloads"]]
    every += [m["name"] for m in REGISTRY["end_to_end"] + REGISTRY["per_layer"]]
    assert len(every) == len(set(every)) and all(name.match(n) for n in every)
    assert {w["name"] for w in REGISTRY["workloads"]} == set(workloads.WORKLOADS)
    for m in REGISTRY["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in REGISTRY["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in REGISTRY["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in REGISTRY["end_to_end"])


def test_readme_maps_every_per_layer_metric():
    with open(os.path.join(HERE, "README.md")) as fh:
        section = fh.read().split("## Per-layer metrics")[1]
    rows = {line.split("|")[1].strip().strip("`") for line in section.splitlines()
            if line.startswith("| `")}
    assert rows == _names("per_layer")


def test_traced_run_emits_the_registered_per_layer_metrics(traced):
    assert traced["failed"] == 0, traced["errors"]
    # run.py adds the overhead figure from an untraced child of the same length.
    assert set(traced["metrics"]) | {"bench.trace_overhead_share"} == _names("per_layer")
    assert all(np.isfinite(v) for v in traced["metrics"].values())


def test_untraced_run_emits_the_registered_end_to_end_metrics(tmp_path):
    out = workloads.measure(TINY["train"], seed=4, seconds=0.0, trace=False,
                            work=str(tmp_path / "inputs"))
    assert out["failed"] == 0, out["errors"]
    assert set(out["metrics"]) == _names("end_to_end")
    assert all(v > 0 for v in out["metrics"].values())
    assert out["samples"]["setup_s"] == workloads.SETUP_REPEATS
    # The warm-up operation is attempted but not timed.
    assert out["samples"]["timesteps_per_s"] == out["attempted"] - 1 >= workloads.MIN_OPS


def test_span_tree_is_well_formed(traced):
    t = traced["spans"]
    start = np.asarray(t["start_s"])
    end = start + np.asarray(t["duration_s"])
    parent = np.asarray(t["parent"])
    assert len(start) > 0 and np.isfinite(end).all()
    assert (np.asarray(t["self_s"]) >= -1e-9).all()
    child = parent >= 0
    assert (parent[child] < np.nonzero(child)[0]).all()
    assert (start[child] >= start[parent[child]]).all()
    assert (end[child] <= end[parent[child]] + 1e-12).all()
    # Every span belongs to an operation, and children share their parent's.
    ops = np.asarray(t["op"])
    assert (ops >= 0).all() and (ops[child] == ops[parent[child]]).all()


def test_backward_attribution_adds_up(traced):
    m = traced["metrics"]
    if m["tensor.nodes_per_step"] == 0:  # forward-only workload
        assert m["tensor.backward_s"] == 0
        return
    assert 0 < m["model.decode.nodes"] < m["tensor.nodes_per_step"]
    assert m["tensor.backward.unattributed_s"] > 0
    parts = m["tensor.backward.encode_s"] + m["tensor.backward.decode_s"]
    assert parts + m["tensor.backward.unattributed_s"] <= m["tensor.backward_s"] + 1e-12
    assert m["tensor.backward.encoder_attn_s"] <= m["tensor.backward.encode_s"]
    assert m["bench.op.unattributed_s"] <= m["bench.op_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-paper"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracing_restores_the_library():
    from emoreg import layers, model, tensor, train

    before = (model.EmotionRegressor.encode, layers.MultiHeadAttention.attend,
              train.evaluate, tensor.Tape.backward)
    with Tracer().installed():
        assert model.EmotionRegressor.encode is not before[0]
    assert (model.EmotionRegressor.encode, layers.MultiHeadAttention.attend,
            train.evaluate, tensor.Tape.backward) == before


def test_band_entries_counts_pairs_within_reach():
    for n, reach in [(1, 0), (5, 0), (5, 2), (5, 9), (250, 100), (600, 100)]:
        t = np.arange(n)
        assert band_entries(n, reach) == int((abs(t[:, None] - t[None, :]) <= reach).sum())


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 10, 57):
        xs = rng.normal(size=n)
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert stats.percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(list(range(39))) is None
    assert stats.tail_percentile(list(range(40)))[0] == 75.0
    assert stats.tail_percentile(list(range(100)))[0] == 90.0
    assert stats.tail_percentile(list(range(1000)))[0] == 99.0
