"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit and CPU-only; the networks in this project are small
enough that precision is cheap and finite-difference gradient checks can be
held to tight tolerances. Graph construction is single-threaded: an operation
records its parents and a closure that routes the incoming gradient to them,
and ``backward`` replays those closures in reverse topological order.

Gradients accumulate: calling ``backward`` twice without ``zero_grad`` doubles
them. This is deliberate (it is what makes shared subexpressions work). An
optimizer step takes the gradients it applies and leaves each ``p.grad``
``None`` (``nn._gather_grads``), so the next backward starts from nothing.

Inside ``with no_grad():`` operations record nothing: every result is a
constant, with the same bits. Forwards that are only read run there.

The engine keeps the operations the package records: ``+``, ``-`` (and
negation), ``*``, ``/``, ``relu``, ``matmul``, ``sum`` and ``mean``,
``concat_cols`` and the fused nodes below. A broadcast operand's gradient is
summed back to its shape (``_unbroadcast``).

Fused nodes. The hot composites are single nodes with a hand-written
backward: ``softmax_entropy`` (the entropy of ``softmax(.)``,
``adaptability.info_entropy``), ``cross_entropy_from_logits`` (log-softmax
with the batch-mean cross-entropy), the network block ``nn.bn_relu_linear``
(batch norm, ReLU and a linear layer, or a lone linear layer
``x @ w.T + b``; the only node a network records, for the student's
``quant.QuantLinear`` too) and the statistics loss ``adaptability.loss_bns``.
Same-bits rule: each runs the numpy operations of the composite it replaces,
on the same operands and in the same order, and accumulates into each parent
in the order the composite did, so every output byte is the composite's. The
composites stay in the tests as the reference (``tests/test_fused.py``),
built from this engine and the unfused operations of ``tests/reference.py``
(transpose, power, exp, log, sqrt, softmax, log-softmax), compared bit for bit.

Hot-path numpy calls skip numpy's Python-level wrappers: ``np.add.reduce``
stands for ``ndarray.sum``, ``np.maximum.reduce`` for ``.max``, ``[..., None]``
for ``np.expand_dims``, and an elementwise op broadcasts its operands itself
instead of through ``np.broadcast_to``. Each is the same ufunc loop the
wrapper would run, so the bits are the same.

Fewer array passes in the block. ``nn.bn_relu_linear``'s ReLU is
``np.fmax(h, 0.0)`` followed by ``+= 0.0``, in place of the branching
``np.where(h > 0.0, h, 0.0)``, which costs several times more per element.
``fmax`` maps NaN to 0.0 as the ``where`` does, but it alone is not enough:
numpy's SIMD loops return ``-0.0`` for some lanes of ``fmax(-0.0, 0.0)``
(seen on numpy 2.4.6, contiguous and strided), where the ``where`` gives
``+0.0``. Adding ``0.0`` turns ``-0.0`` into ``+0.0`` under IEEE rules and
leaves every other value as it is, so the two are equal bit for bit. The
``records`` rule: a node builds backward-only state (the ReLU's ``h > 0.0``
mask, the activation fake-quant's STE mask) only when ``records(parents)``
holds, the same predicate ``Tensor._op`` applies, so a forward under
``no_grad`` or over frozen inputs builds no mask.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError, NumericError


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block; nests, and restores on any exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def records(parents) -> bool:
    """Whether ``Tensor._op`` records a node over ``parents``: grad mode is on
    (not ``no_grad``) and some parent requires grad. A node builds the state
    only its backward reads, such as a mask, when this holds."""
    if _grad_enabled:
        for p in parents:
            if p.requires_grad:
                return True
    return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


class Tensor:
    """A dense array plus an optional position in a differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward_fn = None

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _op(data: np.ndarray, parents, backward_fn) -> "Tensor":
        """Build a graph node; collapses to a constant unless it ``records``."""
        out = Tensor(data)
        if records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accum(self, g) -> None:
        if not self.requires_grad:
            return
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.data.shape:
            g = np.broadcast_to(_unbroadcast(g, self.data.shape), self.data.shape)
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    # -- basic properties --------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _wrap(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = Tensor._wrap(other)

        def bw(g):
            self._accum(g)
            other._accum(g)

        return Tensor._op(self.data + other.data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(g):
            self._accum(-g)

        return Tensor._op(-self.data, (self,), bw)

    def __sub__(self, other):
        return self + (-Tensor._wrap(other))

    def __rsub__(self, other):
        return Tensor._wrap(other) + (-self)

    def __mul__(self, other):
        other = Tensor._wrap(other)

        def bw(g):
            self._accum(g * other.data)
            other._accum(g * self.data)

        return Tensor._op(self.data * other.data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._wrap(other)

        def bw(g):
            self._accum(g / other.data)
            other._accum(-g * self.data / (other.data ** 2))

        return Tensor._op(self.data / other.data, (self, other), bw)

    def relu(self):
        # Subgradient is 0 exactly at the kink; gradient checks stay away
        # from it.
        mask = self.data > 0.0

        def bw(g):
            self._accum(g * mask)

        return Tensor._op(np.where(mask, self.data, 0.0), (self,), bw)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor._wrap(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise DimensionError(
                f"matmul expects 2-D operands, got {self.data.shape} and {other.data.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise DimensionError(
                f"matmul inner extents differ: {self.data.shape} vs {other.data.shape}"
            )

        def bw(g):
            if self.requires_grad:
                self._accum(g @ other.data.T)
            if other.requires_grad:
                other._accum(self.data.T @ g)

        return Tensor._op(self.data @ other.data, (self, other), bw)

    # -- reductions --------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = np.add.reduce(self.data, axis=axis, keepdims=keepdims)

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._op(out_data, (self,), bw)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)


def concat_cols(tensors: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)

    def bw(g):
        start = 0
        for t, w in zip(tensors, widths):
            t._accum(g[:, start : start + w])
            start += w

    return Tensor._op(out_data, tuple(tensors), bw)


def _shifted_exp(logits: Tensor, name: str):
    """Max-shifted logits, their exponentials and the row sums of those."""
    ld = logits.data
    if not np.logical_and.reduce(np.isfinite(ld), axis=None):
        raise NumericError(f"{name} received non-finite logits")
    shift = ld + (-np.maximum.reduce(ld, axis=-1, keepdims=True))
    e = np.exp(shift)
    return shift, e, np.add.reduce(e, axis=-1, keepdims=True)


def softmax_entropy(logits: Tensor) -> Tensor:
    """``info_entropy(softmax(logits))`` as one node: the entropy of each
    row's softmax, in nats."""
    _, e, s = _shifted_exp(logits, "softmax")
    p = e / s
    positive = p > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(positive, np.log(np.where(positive, p, 1.0)), 0.0)

    def bw(g):
        gp = g[..., None] * np.where(positive, -(logp + 1.0), 0.0)
        gs = np.add.reduce(-gp * e / (s ** 2), axis=-1, keepdims=True)
        logits._accum((gp / s + gs) * e)

    return Tensor._op(-np.add.reduce(p * logp, axis=-1), (logits,), bw)


def cross_entropy_from_logits(logits: Tensor, y: Tensor) -> Tensor:
    """Batch mean of -log softmax(logits)[y] as one node; y is one-hot and
    receives no gradient."""
    shift, e, s = _shifted_exp(logits, "log_softmax")
    rows = np.add.reduce(y.data * (shift + (-np.log(s))), axis=1)
    count = float(rows.size)

    def bw(g):
        g_log = (-g / count) * y.data  # every row's gradient is -g / count
        g_sum = -np.add.reduce(g_log, axis=1, keepdims=True) / s
        logits._accum(g_log + g_sum * e)

    return Tensor._op(-(np.add.reduce(rows, axis=None) / count), (logits,), bw)


def backward(loss: Tensor) -> None:
    """Populate gradients of every reachable ``requires_grad`` tensor.

    Accumulates into existing gradients; zero first if you want fresh ones.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    visited: set[Tensor] = set()  # Tensor hashes by identity
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and parent not in visited:
                stack.append((parent, False))

    loss._accum(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
    # Intermediate grads are not needed once routed; free them so leaves are
    # the only tensors holding state between steps.
    for node in topo:
        if node._backward_fn is not None:
            node.grad = None
