#!/usr/bin/env python3
"""A tour of the symmetric linear quantizer.

Run me directly:  python3 demos/quantizer_tour.py

We map real values in [theta_min, theta_max] onto signed n-bit integer
codes, look at what the rounding grid does to a batch of values, and then
watch the straight-through estimator pass gradients through the rounding
step as if it were the identity.
"""

import numpy as np

from adadfq.quant import dequantize_array, fake_quant, quantize_array
from adadfq.tensor import Tensor, backward

# ---------------------------------------------------------------------------
# 1. Codes for a 3-bit quantizer
# ---------------------------------------------------------------------------
# With n bits the codes run from -2^(n-1) to 2^(n-1)-1, so 3 bits gives the
# eight integers -4..3. The two range endpoints land exactly on the two
# extreme codes.

bits = 3
code_min, code_max = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
print(f"3-bit code range: [{code_min}, {code_max}]")

theta = np.linspace(-1.0, 1.0, 9)
codes = quantize_array(theta, -1.0, 1.0, 3)
for t, c in zip(theta, codes):
    print(f"  theta={t:+.3f}  ->  code {int(c):+d}")

# ---------------------------------------------------------------------------
# 2. Round trip: code -> value -> code is lossless
# ---------------------------------------------------------------------------

all_codes = np.arange(code_min, code_max + 1)
grid = dequantize_array(all_codes, -1.0, 1.0, 3)
back = quantize_array(grid, -1.0, 1.0, 3)
print("\ngrid points:", np.array2string(grid, precision=3))
print("round trip exact:", bool(np.array_equal(back, all_codes)))

# ---------------------------------------------------------------------------
# 3. Quantization error is at most half a step
# ---------------------------------------------------------------------------

rng = np.random.default_rng(0)
x = rng.uniform(-1.0, 1.0, 10_000)
x_hat = dequantize_array(quantize_array(x, -1.0, 1.0, 8), -1.0, 1.0, 8)
step = 2.0 / (2**8 - 1)
print(f"\n8-bit worst error {np.abs(x - x_hat).max():.3e}  (half step {step / 2:.3e})")

# ---------------------------------------------------------------------------
# 4. Straight-through gradients
# ---------------------------------------------------------------------------
# The rounding step has zero derivative almost everywhere, so training with
# the true gradient would go nowhere. fake_quant instead passes the incoming
# gradient through unchanged for values inside the range and blocks it for
# values that were clamped.

v = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]), requires_grad=True)
out = fake_quant(v, -1.0, 1.0, 3)
backward(out.sum())
print("\ninput:         ", v.data)
print("fake-quantized:", np.round(out.data, 3))
print("gradient mask: ", v.grad)  # 1 inside the range, 0 where clamped
