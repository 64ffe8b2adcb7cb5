"""Benchmark entry point: run emoreg's workloads and print their metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 48 --trace 0

``--workload all`` (the default) runs every workload in turn.  Each workload
runs in its own child process (``workloads.py``) with the BLAS thread count
fixed in its environment.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table and the provenance of the run.  The full
result, spans included for ``--trace 1``, is also written under
``.bench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".bench_out"
# One BLAS thread: most of each step is single-threaded Python over small
# matrices, and a second BLAS thread competes with other load on the machine,
# which makes run-to-run times spread more.
BLAS_THREADS = 1
WORKLOAD_TIMEOUT_S = 170  # a workload's children together must end by then


def load_registry() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "emoreg")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_child(name: str, seed: int, seconds: float, trace: int, deadline: float,
              min_ops=None, warm_up=True) -> dict:
    """Run one workload in a child process and return its parsed result; the
    child is killed if it is still running at ``deadline`` (monotonic time)."""
    work = os.path.abspath(os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}"))
    spans = os.path.abspath(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json"))
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n,
               PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", work]
    if trace:
        cmd += ["--spans-out", spans]
    if min_ops is not None:
        cmd += ["--min-ops", str(min_ops)]
    if not warm_up:
        cmd += ["--warm-up", "0"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    finally:  # a killed child leaves its inputs behind
        for path in (work, work + "-side"):
            shutil.rmtree(path, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["blas_threads"] = int(n)
    if trace:
        result["spans_file"] = os.path.relpath(spans)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Untraced: one child, warmed up.  Traced: a traced child for the
    per-layer figures, then an untraced child run the same way; each starts
    cold, so the ratio of their median passes is the tracing overhead."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if not trace:
        return run_child(name, seed, seconds, 0, deadline)
    result = run_child(name, seed, seconds / 2, 1, deadline)
    plain = run_child(name, seed, seconds / 2, 0, deadline, min_ops=1, warm_up=False)
    for key in ("attempted", "failed", "errors"):
        result[key] += plain[key]
    if result["digest"] != plain["digest"]:
        result["failed"] += 1
        result["errors"].append("traced and untraced operations gave different outputs")
    traced_passes, plain_passes = result["extra"]["pass_s"], plain["extra"].get("pass_s", [])
    if traced_passes and plain_passes:
        result["metrics"]["bench.trace_overhead_share"] = (
            median(traced_passes) / median(plain_passes) - 1.0
        )
    result["samples"].update(traced_passes=len(traced_passes), plain_passes=len(plain_passes))
    return result


def report(name: str, seed: int, trace: int, result: dict, registry: dict) -> dict:
    """Print the table and provenance; return the contract's result object."""
    wanted = registry["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if not got:
        raise RuntimeError(f"workload {name}: all {result['attempted']} operations failed")
    if set(got) != set(units):
        raise RuntimeError(
            f"workload {name} metrics disagree with BENCHMARK.json: "
            f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}"
        )
    metrics = {k: {"value": got[k], "unit": units[k]} for k in units}
    print(f"== {name}  seed {seed}  trace {trace}  operations {result['attempted']}"
          f"  failed {result['failed']}")
    for k in units:
        n = result["samples"].get(k, result["samples"].get("units", ""))
        print(f"  {k:40s} {got[k]:>14.6g} {units[k]:8s} n={n}")
    tail = result["extra"].get("pass_s_tail")
    if tail:
        print(f"  pass_s p{tail['percentile']:g} {tail['value']:.6g} s")
    print(f"  samples {json.dumps(result['samples'])}")
    print(f"  first operation's CCC {result['ccc']}")
    for err in result["errors"]:
        print(f"  error: {err}")
    provenance = {
        "nproc": os.cpu_count(),
        "blas_threads": result["blas_threads"],
        **result["versions"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": name,
        "seed": seed,
        "samples": result["samples"],
    }
    print(f"  provenance {json.dumps(provenance)}")
    out = {"correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({**out, "provenance": provenance, "extra": result["extra"],
                   "ccc": result["ccc"], "errors": result["errors"],
                   "spans_file": result.get("spans_file")}, fh, indent=1)
    return out


def main(argv=None) -> int:
    registry = load_registry()
    names = [w["name"] for w in registry["workloads"]]
    p = argparse.ArgumentParser(description="Run the emoreg benchmark.")
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=registry["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "emoreg", "__init__.py")):
        print(f"error: no emoreg sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    chosen = names if args.workload == "all" else [args.workload]
    outs = {}
    try:
        for name in chosen:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            outs[name] = report(name, args.seed, args.trace, result, registry)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outs) == 1:
        final = outs[chosen[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in outs.values()),
            "attempted": sum(o["attempted"] for o in outs.values()),
            "failed": sum(o["failed"] for o in outs.values()),
            "metrics": {f"{n}/{k}": v for n, o in outs.items() for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
