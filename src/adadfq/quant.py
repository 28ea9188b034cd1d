"""Symmetric linear quantization with straight-through gradients.

The mapping from a real value to an n-bit integer code is

    code = round((2^n - 1) * (x - lo) / (hi - lo) - 2^(n-1))

with round-half-away-from-zero (round(.) is otherwise ambiguous; every
expected value in the tests was computed under this rule). Codes live in
[-2^(n-1), 2^(n-1) - 1]. Inputs are clamped into [lo, hi] before mapping, and
the training-time gradient is the clipping straight-through estimator: 1
inside the range, 0 outside.

Weight ranges are the latent weights' dynamic per-tensor min/max. A
QuantLinear memoizes its fake-quantized weight against a copy of the latent
weight and recomputes it only when the weight's bits change: once per
optimizer step, with no invalidation call after a checkpoint load or an
in-place write. A degenerate range (min == max, e.g. a constant tensor)
passes through unquantized. The weight's gradient needs no STE mask: over
its own min and max the clamp changes no finite weight, so the mask would be
all True, and a non-finite weight makes the logits non-finite, which the
loss nodes reject (``NumericError``).

``_fake_quant_arrays`` is the fake-quant the weights and the activations
share: ``quantize_array`` then the dequantization, operation for operation,
but worked in place on one temporary of its own (the input is never
written). Its STE mask is ``clamped == x``, which equals
``(x >= lo) & (x <= hi)`` for every finite ``x`` and is False for NaN. The
mask is built only where a backward will read it: never for the memoized
weight, and for an activation only when the block's node records
(``tensor.records``), so a forward under ``no_grad`` builds none.

The student is the teacher's MlpNetwork, walked by the same forward, with
each LinearLayer swapped for a QuantLinear and each batch norm for a
FixedStatsBatchNorm by ``build_quantized_student``. Its two rules live in
those layers: a QuantLinear observes its output into the activation range's
exponential moving average only in training mode (eval leaves every range
as it is), and a FixedStatsBatchNorm always normalizes with the running
statistics copied from the teacher, never with batch statistics. A
QuantLinear is one graph node (fake-quantized weight, linear and activation
fake-quant), and so is each batch norm -> ReLU -> QuantLinear block; both
are built by ``nn.bn_relu_linear``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateRangeError
from .nn import BatchNormLayer, LinearLayer, MlpNetwork, Relu
from .tensor import Tensor


# Decay of the activation ranges' exponential moving average. Checkpoints
# record it; the loader accepts no other value.
ACT_EMA_DECAY = 0.9
# Widest bit width; RunConfig and the checkpoint loader reject wider ones. At
# 32 bits the codes and their rounding are still exact in float64.
MAX_BITS = 32


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest, ties away from zero: ``floor(x + 0.5)`` for
    ``x >= 0`` and ``ceil(x - 0.5)`` below, in three ufuncs. An input of
    ``-0.0`` rounds to ``-0.0``; ``quantize_array`` never makes one."""
    return np.trunc(x + np.copysign(0.5, x))


def quantize_array(x: np.ndarray, lo: float, hi: float, bits: int) -> np.ndarray:
    """Map reals to integer codes; clamps first, so any finite input is legal.
    The clamp bounds the codes too: the scaled value lies in [0, levels]
    because each rounding step is monotone, so no second clip is needed."""
    if lo >= hi:
        raise DegenerateRangeError(f"quantization range [{lo}, {hi}] is degenerate")
    levels = float(2 ** bits - 1)
    half = float(2 ** (bits - 1))
    clamped = np.minimum(np.maximum(x, lo), hi)
    # t - half is never -0.0, so round_half_away's signed zero cannot arise
    return round_half_away(levels * (clamped - lo) / (hi - lo) - half)


def dequantize_array(codes: np.ndarray, lo: float, hi: float, bits: int) -> np.ndarray:
    if lo >= hi:
        raise DegenerateRangeError(f"quantization range [{lo}, {hi}] is degenerate")
    half = 2 ** (bits - 1)
    codes = np.asarray(codes, dtype=np.float64)
    if np.any(codes < -half) or np.any(codes > half - 1):
        raise ContractError(f"code outside [{-half}, {half - 1}] for {bits}-bit grid")
    return (codes + 2 ** (bits - 1)) * (hi - lo) / float(2 ** bits - 1) + lo


def _fake_quant_arrays(x: np.ndarray, lo: float, hi: float, bits: int,
                       with_mask: bool = True):
    """Quantize-dequantize of ``x`` and its STE mask (None unless
    ``with_mask``); needs ``lo < hi``. The operations of quantize_array and
    dequantize_array in their order, in place on the clamped copy; its codes
    are in range, so dequantize's range check is left out."""
    levels = float(2 ** bits - 1)
    half = float(2 ** (bits - 1))
    out = np.maximum(x, lo)
    np.minimum(out, hi, out=out)
    mask = out == x if with_mask else None  # lo <= x <= hi
    out -= lo
    out *= levels
    out /= hi - lo
    out -= half
    out += np.copysign(0.5, out)  # round_half_away
    np.trunc(out, out=out)
    out += half
    out *= hi - lo
    out /= levels
    out += lo
    return out, mask


def _ste(x: Tensor, out_data: np.ndarray, mask: np.ndarray) -> Tensor:
    def bw(g):
        x._accum(g * mask)

    return Tensor._op(out_data, (x,), bw)


def fake_quant(x: Tensor, lo: float, hi: float, bits: int) -> Tensor:
    """quantize-dequantize forward with a clipping STE backward.

    Degenerate ranges return ``x`` unchanged.
    """
    if lo >= hi:
        return x
    return _ste(x, *_fake_quant_arrays(x.data, lo, hi, bits))


@dataclass
class FakeQuantState:
    """Observed activation range at one quantization site."""

    observed_min: float | None = None
    observed_max: float | None = None

    def observe(self, batch: np.ndarray) -> None:
        lo = float(np.minimum.reduce(batch, axis=None))
        hi = float(np.maximum.reduce(batch, axis=None))
        if self.observed_min is None:
            self.observed_min, self.observed_max = lo, hi
        else:
            self.observed_min = ACT_EMA_DECAY * self.observed_min + (1.0 - ACT_EMA_DECAY) * lo
            self.observed_max = ACT_EMA_DECAY * self.observed_max + (1.0 - ACT_EMA_DECAY) * hi

    @property
    def has_range(self) -> bool:
        return (
            self.observed_min is not None
            and self.observed_max is not None
            and self.observed_min < self.observed_max
        )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(
        np.logical_and.reduce(a.view(np.int64) == b.view(np.int64), axis=None))


class QuantLinear(LinearLayer):
    """Linear layer holding latent full-precision weights.

    Forward fake-quantizes the weights over their dynamic per-tensor range and
    the output activations over the EMA-tracked range, in one graph node whose
    backward applies the activation mask; the weight's gradient passes
    straight through. The bias stays full precision.
    """

    def __init__(self, source: LinearLayer, bits: int):
        self.weight = Tensor(source.weight.data.copy(), requires_grad=True)
        self.bias = Tensor(source.bias.data.copy(), requires_grad=True)
        self.bits = bits
        self.act_state = FakeQuantState()
        self._memo: tuple | None = None  # (latent copy, bit width, weight in use)

    def _weight_array(self) -> np.ndarray:
        """The fake-quantized weight, from the memo."""
        w = self.weight.data
        if (self._memo is None or self._memo[1] != self.bits
                or not _same_bits(w, self._memo[0])):
            latent = w.copy()
            lo = float(np.minimum.reduce(w, axis=None))
            hi = float(np.maximum.reduce(w, axis=None))
            self._memo = (latent, self.bits, latent if lo >= hi
                          else _fake_quant_arrays(w, lo, hi, self.bits, with_mask=False)[0])
        return self._memo[2]

    def _activate(self, out: np.ndarray, training: bool,
                  recording: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Observes ``out`` in training, then fake-quantizes it over the
        activation range once there is one; the STE mask only if the node
        is ``recording``."""
        state = self.act_state
        if training:
            state.observe(out)
        if not state.has_range:
            return out, None
        return _fake_quant_arrays(out, state.observed_min, state.observed_max, self.bits,
                                  with_mask=recording)


class FixedStatsBatchNorm(BatchNormLayer):
    """A copy of ``source`` that normalizes with its running statistics in
    both modes, so a student forward never changes them."""

    def __init__(self, source: BatchNormLayer):
        self.gamma = Tensor(source.gamma.data.copy(), requires_grad=True)
        self.beta = Tensor(source.beta.data.copy(), requires_grad=True)
        self.running_mean = source.running_mean.copy()
        self.running_var = source.running_var.copy()

    def _normalize(self, x: Tensor, training: bool):
        return super()._normalize(x, False)


class QuantizedMlp(MlpNetwork):
    """Student network: the teacher's architecture with the layers above. A
    new student starts in eval mode. Trainable state is the latent linear
    weights plus the batch-norm affine parameters."""

    def __init__(self, layers: list):
        super().__init__(layers)
        self.bits = layers[0].bits
        self.training = False

    # The walk itself, not a super() call, so a per-method profile
    # (perfbench/layers.py) counts a student forward once, under its own name.
    forward = MlpNetwork.forward

    def quant_linears(self) -> list[QuantLinear]:
        return [l for l in self.layers if isinstance(l, QuantLinear)]

    def act_states(self) -> list[FakeQuantState]:
        return [l.act_state for l in self.quant_linears()]


def build_quantized_student(teacher: MlpNetwork, bits: int) -> QuantizedMlp:
    """Clone the teacher into a fake-quantized ``bits``-wide student with shared
    architecture. ``2 <= bits <= MAX_BITS`` is the caller's to ensure:
    ``RunConfig`` checks it for the commands and the checkpoint loader for a
    saved student. Exact types, so a student's layers are not requantized."""
    layers: list = []
    for layer in teacher.layers:
        if type(layer) is LinearLayer:
            layers.append(QuantLinear(layer, bits))
        elif type(layer) is BatchNormLayer:
            layers.append(FixedStatsBatchNorm(layer))
        elif type(layer) is Relu:
            layers.append(Relu())
        else:
            raise ContractError(f"cannot quantize layer of type {type(layer).__name__}")
    return QuantizedMlp(layers)
