"""
Reverse-mode autodiff on plain numpy arrays
===========================================

The library trains its models with a small tape-based autodiff engine.
This demo builds a two-layer network from one fused feed-forward node
(linear, relu, linear), runs a backward pass, and then corroborates every
gradient with central finite differences.
"""

import numpy as np

from emoreg import tensor as tz
from emoreg.tensor import Rng, Tape, Tensor, finite_difference_check

# ---------------------------------------------------------------------------
# Parameters are Tensors with requires_grad=True.  Rng, a numpy Generator, gives
# named, reproducible random streams.
rng = Rng(0)
w1 = Tensor(rng.normal(0.0, 0.5, (3, 8)), requires_grad=True)
b1 = Tensor(np.zeros(8), requires_grad=True)
w2 = Tensor(rng.normal(0.0, 0.5, (8, 1)), requires_grad=True)
b2 = Tensor(np.zeros(1), requires_grad=True)
x = rng.normal(0.0, 1.0, (16, 3))
y = np.sin(x.sum(axis=1, keepdims=True))

# ---------------------------------------------------------------------------
# Any ops executed inside a Tape context are recorded; Tape.backward walks
# the recording in reverse and accumulates gradients into .grad.  One tape
# records at a time.  The feed-forward node runs x @ w1 + b1, relu, then
# @ w2 + b2 (dropout is off at rate 0 and without an Rng).
with Tape() as tape:
    pred = tz.feed_forward(Tensor(x), w1, b1, w2, b2, 0.0, None)
    err = pred - Tensor(y)
    loss = tz.tmean(tz.mul(err, err))
tape.backward(loss)

print(f"loss            : {loss.data:.6f}")
print(f"dloss/dw2 norm  : {np.linalg.norm(w2.grad):.6f}")
print(f"dloss/db1       : {np.round(b1.grad, 4)}")

# ---------------------------------------------------------------------------
# The same closure, handed to the finite-difference checker.  It perturbs
# every parameter entry by +-1e-5 and compares the numeric slope against
# the tape gradient.


def f():
    pred = tz.feed_forward(Tensor(x), w1, b1, w2, b2, 0.0, None)
    err = pred - Tensor(y)
    return tz.tmean(tz.mul(err, err))


report = finite_difference_check(f, {"w1": w1, "b1": b1, "w2": w2, "b2": b2})
print()
print(report)
assert report.max_rel_err < 1e-5
print("\ntape gradients match finite differences.")
