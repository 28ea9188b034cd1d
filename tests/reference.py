"""Unfused operations for the tests' reference composites.

The package's graphs need none of these: each fused node does their work in
one node (see ``adadfq.tensor``). The composites in ``test_fused.py``, the
gradient checks and the acceptance criteria still spell the math out with
them, so they live here, built on ``Tensor._op`` as the engine's own
operations are: one node each, with the same forward and backward numpy
operations as when they were methods of ``Tensor``. That keeps every
composite's bytes, so the fused nodes are compared with them bit for bit.
"""

import numpy as np

from adadfq.errors import NumericError
from adadfq.tensor import Tensor


def transpose(x: Tensor) -> Tensor:
    def bw(g):
        x._accum(g.T)

    return Tensor._op(x.data.T, (x,), bw)


def power(x: Tensor, exponent: float) -> Tensor:
    """``x ** exponent`` for a constant exponent."""
    def bw(g):
        x._accum(g * exponent * x.data ** (exponent - 1))

    return Tensor._op(x.data ** exponent, (x,), bw)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def bw(g):
        x._accum(g * out_data)

    return Tensor._op(out_data, (x,), bw)


def log(x: Tensor) -> Tensor:
    def bw(g):
        x._accum(g / x.data)

    return Tensor._op(np.log(x.data), (x,), bw)


def sqrt(x: Tensor) -> Tensor:
    out_data = np.sqrt(x.data)

    def bw(g):
        x._accum(g * 0.5 / out_data)

    return Tensor._op(out_data, (x,), bw)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise (last-axis) softmax with max-subtraction for overflow safety."""
    if not np.all(np.isfinite(logits.data)):
        raise NumericError("softmax received non-finite logits")
    shift = logits - Tensor(logits.data.max(axis=-1, keepdims=True))
    e = exp(shift)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax from the max-shifted logits, as separate nodes."""
    shift = logits - Tensor(logits.data.max(axis=-1, keepdims=True))
    return shift - log(exp(shift).sum(axis=-1, keepdims=True))
