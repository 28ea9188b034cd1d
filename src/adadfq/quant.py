"""Symmetric linear quantization with straight-through gradients.

The mapping from a real value to an n-bit integer code is

    code = round((2^n - 1) * (x - lo) / (hi - lo) - 2^(n-1))

with round-half-away-from-zero (round(.) is otherwise ambiguous; every
expected value in the tests was computed under this rule). Codes live in
[-2^(n-1), 2^(n-1) - 1]. Inputs are clamped into [lo, hi] before mapping, and
the training-time gradient is the clipping straight-through estimator: 1
inside the range, 0 outside.

Weight ranges are the latent weights' dynamic per-tensor min/max. A
QuantLinear memoizes its fake-quantized weight and STE mask against a copy
of the latent weight and recomputes them only when the weight's bits change:
once per optimizer step, with no invalidation call after a checkpoint load
or an in-place write. A degenerate range (min == max, e.g. a constant
tensor) passes through unquantized.

The student is the teacher's MlpNetwork with each LinearLayer swapped for a
QuantLinear by ``build_quantized_student``; it shares the network's layer
protocol, parameter names, train/eval flag and widths, and reads its bit
width off its QuantLinears. Two rules differ from the teacher: a QuantLinear
observes its output into the activation range's exponential moving average
only while the student is training (eval leaves every range as it is), and
batch norm always normalizes with the running statistics copied from the
teacher, never with batch statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateRangeError
from .nn import BatchNormLayer, LinearLayer, MlpNetwork, Relu
from .tensor import Tensor, linear


# Decay of the activation ranges' exponential moving average. Checkpoints
# record it; the loader accepts no other value.
ACT_EMA_DECAY = 0.9


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


def _dequantize_unchecked(codes: np.ndarray, lo: float, hi: float, bits: int) -> np.ndarray:
    return (codes + 2 ** (bits - 1)) * (hi - lo) / float(2 ** bits - 1) + lo


def dequantize_array(codes: np.ndarray, lo: float, hi: float, bits: int) -> np.ndarray:
    if lo >= hi:
        raise DegenerateRangeError(f"quantization range [{lo}, {hi}] is degenerate")
    half = 2 ** (bits - 1)
    codes = np.asarray(codes, dtype=np.float64)
    if np.any(codes < -half) or np.any(codes > half - 1):
        raise ContractError(f"code outside [{-half}, {half - 1}] for {bits}-bit grid")
    return _dequantize_unchecked(codes, lo, hi, bits)


def quantize_value(x: float, lo: float, hi: float, bits: int) -> int:
    return int(quantize_array(np.float64(x), lo, hi, bits))


def dequantize_value(code: int, lo: float, hi: float, bits: int) -> float:
    return float(dequantize_array(np.float64(code), lo, hi, bits))


def _fake_quant_arrays(x: np.ndarray, lo: float, hi: float, bits: int):
    """Quantize-dequantize of ``x`` and its STE mask; needs ``lo < hi``.
    quantize_array's codes are in range, so no range check is needed."""
    out = _dequantize_unchecked(quantize_array(x, lo, hi, bits), lo, hi, bits)
    return out, (x >= lo) & (x <= hi)


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
        lo = float(batch.min())
        hi = float(batch.max())
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
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


class QuantLinear:
    """Linear layer holding latent full-precision weights.

    Forward fake-quantizes the weights over their dynamic per-tensor range and
    the output activations over the EMA-tracked range. The bias stays full
    precision.
    """

    def __init__(self, source: LinearLayer, bits: int):
        self.weight = Tensor(source.weight.data.copy(), requires_grad=True)
        self.bias = Tensor(source.bias.data.copy(), requires_grad=True)
        self.bits = bits
        self.act_state = FakeQuantState()
        self._memo: tuple | None = None  # (latent copy, weight data, STE mask)

    def _quantized_weight(self) -> Tensor:
        w = self.weight.data
        if self._memo is None or not _same_bits(w, self._memo[0]):
            lo, hi = float(w.min()), float(w.max())
            if lo >= hi:
                self._memo = (w.copy(), None, None)
            else:
                self._memo = (w.copy(), *_fake_quant_arrays(w, lo, hi, self.bits))
        _, out_data, mask = self._memo
        if out_data is None:
            return self.weight
        return _ste(self.weight, out_data, mask)

    def forward(self, x: Tensor, observe: bool) -> Tensor:
        out = linear(x, self._quantized_weight(), self.bias)
        if observe:
            self.act_state.observe(out.data)
        if self.act_state.has_range:
            out = fake_quant(out, self.act_state.observed_min,
                             self.act_state.observed_max, self.bits)
        return out

    def named_parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class QuantizedMlp(MlpNetwork):
    """Student network: teacher architecture with fake-quantized linears.

    ``forward`` follows the two student rules in the module docstring, so
    batch norm never updates its copied running statistics. A new student
    starts in eval mode. Trainable state is the latent linear weights plus
    the batch-norm affine parameters.
    """

    def __init__(self, layers: list):
        super().__init__(layers)
        self.bits = layers[0].bits
        self.training = False

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.layers:
            if isinstance(layer, QuantLinear):
                out = layer.forward(out, observe=self.training)
            elif isinstance(layer, BatchNormLayer):
                out = layer.forward(out, training=False)
            else:
                out = layer.forward(out)
        return out

    def quant_linears(self) -> list[QuantLinear]:
        return [l for l in self.layers if isinstance(l, QuantLinear)]

    def act_states(self) -> list[FakeQuantState]:
        return [l.act_state for l in self.quant_linears()]


def build_quantized_student(teacher: MlpNetwork, bits: int) -> QuantizedMlp:
    """Clone the teacher into a fake-quantized ``bits``-wide student with shared
    architecture. ``bits >= 2`` is the caller's to ensure: ``RunConfig`` checks
    it for the commands and the checkpoint loader for a saved student."""
    layers: list = []
    for layer in teacher.layers:
        if isinstance(layer, LinearLayer):
            layers.append(QuantLinear(layer, bits))
        elif isinstance(layer, BatchNormLayer):
            bn = BatchNormLayer(layer.gamma.data.size)
            bn.gamma = Tensor(layer.gamma.data.copy(), requires_grad=True)
            bn.beta = Tensor(layer.beta.data.copy(), requires_grad=True)
            bn.running_mean = layer.running_mean.copy()
            bn.running_var = layer.running_var.copy()
            layers.append(bn)
        elif isinstance(layer, Relu):
            layers.append(Relu())
        else:
            raise ContractError(f"cannot quantize layer of type {type(layer).__name__}")
    return QuantizedMlp(layers)
