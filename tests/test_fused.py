"""Each fused node against the composite it replaced, bit for bit.

The composites below are the graphs the package built before the nodes were
fused; they stay here as the reference, with the unfused operations they
need from ``reference.py``. A fused node must give the same
forward bytes, the same bytes in every input gradient and, for batch norm,
the same running statistics, and its gradient must pass a finite-difference
check. The network block ``bn_relu_linear`` (batch norm -> ReLU -> linear,
or a lone linear layer, for the teacher, the generator and the student) is
checked against the composites of its layers; the in-place fake-quant
against quantize_array and dequantize_array.
"""

import contextlib
import copy

import numpy as np
import pytest

from conftest import check_gradients
from reference import log_softmax, power, softmax, sqrt, transpose

from adadfq.adaptability import info_entropy, loss_bns
from adadfq.nn import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormLayer,
    LinearLayer,
    _relu,
    bn_relu_linear,
    make_mlp,
)
from adadfq.quant import (
    ACT_EMA_DECAY,
    FixedStatsBatchNorm,
    QuantLinear,
    _fake_quant_arrays,
    _ste,
    dequantize_array,
    fake_quant,
    quantize_array,
)
from adadfq.tensor import (
    Tensor,
    backward,
    cross_entropy_from_logits,
    no_grad,
    softmax_entropy,
)


# -- the composites -----------------------------------------------------------

def composite_linear(x, w, b):
    return x.matmul(transpose(w)) + b


def composite_batch_norm(layer, x, training):
    if training:
        mu = x.mean(axis=0)
        var = power(x - mu, 2).mean(axis=0)
        m = BN_MOMENTUM
        layer.running_mean = (1.0 - m) * layer.running_mean + m * mu.data
        layer.running_var = (1.0 - m) * layer.running_var + m * var.data
    else:
        mu = Tensor(layer.running_mean)
        var = Tensor(layer.running_var)
    return (x - mu) / sqrt(var + BN_EPS) * layer.gamma + layer.beta


def composite_softmax_entropy(logits):
    return info_entropy(softmax(logits))


def composite_cross_entropy(logits, y):
    return -(y * log_softmax(logits)).sum(axis=1).mean()


def reference_fake_quant_arrays(x, lo, hi, bits):
    """What _fake_quant_arrays computed before it worked in place."""
    codes = quantize_array(x, lo, hi, bits)
    return dequantize_array(codes, lo, hi, bits), (x >= lo) & (x <= hi)


def composite_linear_layer(layer, x, training):
    """A LinearLayer or a QuantLinear as separate nodes: for the latter, the
    weight's straight-through node (with the three-comparison mask the fused
    node leaves out), then ``composite_linear`` and ``fake_quant``."""
    if not isinstance(layer, QuantLinear):
        return composite_linear(x, layer.weight, layer.bias)
    w = layer.weight.data
    lo, hi = float(w.min()), float(w.max())
    weight = layer.weight
    if lo < hi:
        weight = _ste(weight, *reference_fake_quant_arrays(w, lo, hi, layer.bits))
    out = composite_linear(x, weight, layer.bias)
    if training:  # the range's exponential moving average, spelled out
        lo, hi = float(out.data.min()), float(out.data.max())
        if layer.act_min is None:
            layer.act_min, layer.act_max = lo, hi
        else:
            layer.act_min = ACT_EMA_DECAY * layer.act_min + (1.0 - ACT_EMA_DECAY) * lo
            layer.act_max = ACT_EMA_DECAY * layer.act_max + (1.0 - ACT_EMA_DECAY) * hi
    if layer.act_min is not None and layer.act_min < layer.act_max:
        out = fake_quant(out, layer.act_min, layer.act_max, layer.bits)
    return out


def composite_block(bn, layer, x, training):
    """``bn_relu_linear`` as separate nodes; a FixedStatsBatchNorm always
    normalizes with its running statistics."""
    if bn is not None:
        bn_training = training and not isinstance(bn, FixedStatsBatchNorm)
        x = composite_batch_norm(bn, x, bn_training).relu()
    return composite_linear_layer(layer, x, training)


def composite_loss_bns(bn_inputs, bn_layers):
    total = Tensor(0.0)
    for x, layer in zip(bn_inputs, bn_layers):
        mu = x.mean(axis=0)
        var = power(x - mu, 2).mean(axis=0)
        std = sqrt(var + BN_EPS)
        target_std = Tensor(np.sqrt(layer.running_var + BN_EPS))
        total = total + power(mu - Tensor(layer.running_mean), 2).sum() \
                      + power(std - target_std, 2).sum()
    return total


# -- helpers ------------------------------------------------------------------

def leaves(rng, *shapes):
    return [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def run(node, inputs, weight):
    """Forward bytes and every input gradient of ``sum(node(*inputs) * weight)``;
    the weight makes the upstream gradient non-uniform."""
    for t in inputs:
        t.zero_grad()
    out = node(*inputs)
    backward((out * weight).sum())
    return out.data.copy(), [t.grad.copy() for t in inputs]


def assert_same_bits(fused, composite, inputs, weight):
    out_f, grads_f = run(fused, inputs, weight)
    out_c, grads_c = run(composite, inputs, weight)
    np.testing.assert_array_equal(out_f, out_c)
    assert len(grads_f) == len(grads_c)
    for gf, gc in zip(grads_f, grads_c):
        np.testing.assert_array_equal(gf, gc)


def logits_with_underflow(rng, rows=6, cols=5):
    """Random logits whose first row's softmax has an exact 0 entry."""
    z = rng.normal(scale=2.0, size=(rows, cols))
    z[0, 1] = -800.0
    assert np.exp(z[0, 1] - z[0].max()) == 0.0
    return Tensor(z, requires_grad=True)


def bn_layer(rng, dim):
    layer = BatchNormLayer(dim)
    layer.gamma.data[...] = rng.normal(1.0, 0.3, size=dim)
    layer.beta.data[...] = rng.normal(size=dim)
    layer.running_mean = rng.normal(size=dim)
    layer.running_var = rng.uniform(0.5, 2.0, size=dim)
    return layer


def block_params(bn, layer):
    return ([] if bn is None else [bn.gamma, bn.beta]), [layer.weight, layer.bias]


def assert_block_same_bits(bn, layer, training, rng, x_requires_grad=True):
    """``bn_relu_linear`` against ``composite_block``, each on its own copy of
    the layers and the same input bytes: the output, every gradient, the
    running statistics and the activation range, bit for bit. Returns the
    fused side's output and gradients (the input's first)."""
    out_dim, in_dim = layer.weight.data.shape
    x_data = rng.normal(0.3, 1.5, size=(6, in_dim))
    weight = rng.normal(size=(6, out_dim))
    results = []
    for block, (bn_copy, layer_copy) in ((bn_relu_linear, (bn, layer)),
                                         (composite_block, copy.deepcopy((bn, layer)))):
        x = Tensor(x_data.copy(), requires_grad=x_requires_grad)
        bn_params, layer_params = block_params(bn_copy, layer_copy)
        out = block(bn_copy, layer_copy, x, training)
        backward((out * weight).sum())
        grads = [t.grad for t in [x, *bn_params, *layer_params]]
        state = [] if bn_copy is None else [bn_copy.running_mean, bn_copy.running_var]
        if isinstance(layer_copy, QuantLinear):
            state.append(np.array([layer_copy.act_min, layer_copy.act_max], dtype=float))
        results.append((out.data, grads, state))
    (out_f, grads_f, state_f), (out_c, grads_c, state_c) = results
    np.testing.assert_array_equal(out_f, out_c)
    assert [g is None for g in grads_f] == [g is None for g in grads_c]
    for gf, gc in zip(grads_f, grads_c):
        if gf is not None:
            np.testing.assert_array_equal(gf, gc)
    for sf, sc in zip(state_f, state_c):
        np.testing.assert_array_equal(sf, sc)
    return out_f, grads_f


def block_gradient_error(bn, layer, x, training, rng):
    """The worst finite-difference error of ``bn_relu_linear``'s gradient
    into ``x`` and the layers' parameters, under a random upstream weight."""
    weight = rng.normal(size=(x.data.shape[0], layer.weight.data.shape[0]))
    bn_params, layer_params = block_params(bn, layer)

    def f():
        # train mode folds each call into the running statistics; keep
        # them fixed, as every call must be the same function
        stats = None if bn is None else (bn.running_mean.copy(), bn.running_var.copy())
        out = bn_relu_linear(bn, layer, x, training)
        if stats is not None:
            bn.running_mean, bn.running_var = stats
        return (out * weight).sum()

    return check_gradients(f, [x, *bn_params, *layer_params])


SEEDS = [0, 1, 2]


# -- the nodes ----------------------------------------------------------------

class TestLinear:
    """A lone LinearLayer, every network's first layer: ``bn_relu_linear``
    with no batch norm, against ``composite_linear``."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        layer = LinearLayer(5, 3, rng)
        layer.bias.data[...] = rng.normal(size=3)
        assert_block_same_bits(None, layer, False, rng)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        layer = LinearLayer(5, 3, rng)
        layer.bias.data[...] = rng.normal(size=3)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        assert block_gradient_error(None, layer, x, False, rng) < 1e-6


class TestBatchNorm:
    """Batch norm in both modes, in a block whose linear layer is the
    identity and whose ``beta`` is high enough that the ReLU passes every
    value, so the block's output is the batch norm's: against
    ``composite_batch_norm``, with the running statistics."""

    @staticmethod
    def layers(rng):
        bn, identity = bn_layer(rng, 4), LinearLayer(4, 4, rng)
        bn.beta.data += 30.0
        identity.weight.data[...] = np.eye(4)
        return bn, identity

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bits_and_running_statistics(self, seed, training):
        rng = np.random.default_rng(seed)
        out, _ = assert_block_same_bits(*self.layers(rng), training, rng)
        assert np.all(out > 0.0)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_gradient(self, training):
        rng = np.random.default_rng(4)
        bn, identity = self.layers(rng)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        assert block_gradient_error(bn, identity, x, training, rng) < 1e-6


class TestSoftmaxEntropy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        logits = logits_with_underflow(rng)
        assert_same_bits(softmax_entropy, composite_softmax_entropy, [logits],
                         rng.normal(size=6))

    def test_gradient(self):
        rng = np.random.default_rng(5)
        logits = logits_with_underflow(rng, rows=4, cols=4)
        weight = rng.normal(size=4)
        err = check_gradients(lambda: (softmax_entropy(logits) * weight).sum(), [logits])
        assert err < 1e-6


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        logits = logits_with_underflow(rng)
        # the underflowing class is the first row's label
        y = Tensor(np.eye(5)[np.r_[1, rng.integers(0, 5, size=5)]])
        assert_same_bits(lambda z: cross_entropy_from_logits(z, y),
                         lambda z: composite_cross_entropy(z, y), [logits], rng.normal())

    def test_gradient(self):
        rng = np.random.default_rng(6)
        logits = logits_with_underflow(rng, rows=4, cols=4)
        y = Tensor(np.eye(4)[[1, 0, 3, 2]])
        # a wider step: with 1e-5, rounding dominates the 1.7e-4 entry
        err = check_gradients(lambda: cross_entropy_from_logits(logits, y), [logits],
                              step=1e-4)
        assert err < 1e-6


class TestLossBns:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bits(self, seed):
        rng = np.random.default_rng(seed)
        layers = [bn_layer(rng, 4), bn_layer(rng, 3)]
        inputs = leaves(rng, (6, 4), (6, 3))
        assert_same_bits(lambda *xs: loss_bns(list(xs), layers),
                         lambda *xs: composite_loss_bns(list(xs), layers), inputs,
                         rng.normal())

    def test_gradient(self):
        rng = np.random.default_rng(7)
        layers = [bn_layer(rng, 3), bn_layer(rng, 2)]
        inputs = leaves(rng, (5, 3), (5, 2))
        assert check_gradients(lambda: loss_bns(inputs, layers), inputs) < 1e-6


class TestBlock:
    """``bn_relu_linear`` on a batch norm -> ReLU -> linear block against
    ``composite_block``."""

    @staticmethod
    def layers(rng, kind, bits=3):
        bn, layer = bn_layer(rng, 5), LinearLayer(5, 4, rng)
        if kind == "student":
            bn, layer = FixedStatsBatchNorm(bn), QuantLinear(layer, bits)
        return bn, layer

    @pytest.mark.parametrize("seed", SEEDS)
    def test_teacher_block_in_eval_mode(self, seed):
        rng = np.random.default_rng(seed)
        assert_block_same_bits(*self.layers(rng, "teacher"), False, rng)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generator_block_in_train_mode(self, seed):
        rng = np.random.default_rng(seed)
        assert_block_same_bits(*self.layers(rng, "teacher"), True, rng)

    @pytest.mark.parametrize("frozen", [False, True], ids=["unfrozen", "frozen"])
    @pytest.mark.parametrize("act_range", [None, (-0.8, 0.9)], ids=["no_range", "range"])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_student_block(self, seed, training, act_range, frozen):
        rng = np.random.default_rng(seed)
        bn, layer = self.layers(rng, "student")
        if act_range is not None:  # narrow enough to clip some outputs
            layer.act_min, layer.act_max = act_range
        bn_params, layer_params = block_params(bn, layer)
        for p in bn_params + layer_params:
            p.requires_grad = not frozen
        _, grads = assert_block_same_bits(bn, layer, training, rng)
        assert all((g is None) == frozen for g in grads[1:])

    @pytest.mark.parametrize("with_bn", [False, True], ids=["quant_linear", "block"])
    def test_student_with_a_constant_weight(self, with_bn):
        """A degenerate weight range passes the weight through unquantized."""
        rng = np.random.default_rng(9)
        bn, layer = self.layers(rng, "student")
        layer.weight.data[...] = 0.25
        layer.act_min, layer.act_max = -0.5, 0.5
        assert_block_same_bits(bn if with_bn else None, layer, True, rng)

    @pytest.mark.parametrize("bits", [2, 3, 32])
    def test_quant_linear_alone(self, bits):
        """The student's first layer: a QuantLinear with no block around it,
        on a constant input (step (b)'s samples)."""
        rng = np.random.default_rng(10)
        _, layer = self.layers(rng, "student", bits)
        layer.act_min, layer.act_max = -1.0, 1.2
        assert_block_same_bits(None, layer, True, rng, x_requires_grad=False)

    @pytest.mark.parametrize("bits", [2, 3, 32])
    def test_quant_linear_alone_on_generated_samples(self, bits):
        """Step (a): the generator's output enters the student's first layer,
        so its gradient goes back through the fake-quantized weight."""
        rng = np.random.default_rng(12)
        _, layer = self.layers(rng, "student", bits)
        layer.act_min, layer.act_max = -1.0, 1.2
        assert_block_same_bits(None, layer, True, rng)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_gradient(self, training):
        rng = np.random.default_rng(11)
        bn, layer = bn_layer(rng, 3), LinearLayer(3, 2, rng)
        x = Tensor(rng.normal(0.2, 1.0, size=(5, 3)), requires_grad=True)
        assert block_gradient_error(bn, layer, x, training, rng) < 1e-6


class TestRelu:
    """The block's branch-free ReLU against ``np.where(h > 0.0, h, 0.0)``, bit
    for bit. numpy's SIMD ``fmax`` keeps ``-0.0`` in some lanes, so a
    ``-0.0`` goes to every index of every short length, contiguous and
    strided, with the other special values."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310]

    @staticmethod
    def assert_same_bits(h):
        want = np.where(h > 0.0, h, 0.0)
        got = _relu(h)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("step", [1, 2], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("fill", [1.0, -1.0, "normal"])
    def test_special_values_at_every_index(self, step, fill):
        rng = np.random.default_rng(14)
        for n in range(1, 80):
            for value in self.SPECIAL:
                for i in range(n):
                    h = (rng.normal(size=n * step) if fill == "normal"
                         else np.full(n * step, fill))[::step]
                    h[i] = value
                    self.assert_same_bits(h)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_wide_batch(self, order):
        """A 64x256 batch with every special value scattered through it."""
        rng = np.random.default_rng(15)
        h = rng.normal(size=(64, 256))
        spots = rng.choice(h.size, size=(len(self.SPECIAL), 40), replace=False)
        for value, at in zip(self.SPECIAL, spots):
            h.flat[at] = value
        self.assert_same_bits(np.asarray(h, order=order))


class TestNoMaskWithoutRecording:
    """A node that does not record builds no mask and gives the bytes of one
    that does."""

    @pytest.mark.parametrize("bits", [2, 3, 32])
    def test_fake_quant_arrays_without_a_mask(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-2.0, 2.0, size=(8, 5))
        out, mask = _fake_quant_arrays(x, -1.0, 1.5, bits)
        bare, no_mask = _fake_quant_arrays(x, -1.0, 1.5, bits, with_mask=False)
        assert mask is not None and no_mask is None
        assert bare.tobytes() == out.tobytes()

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_activate_returns_no_mask(self, training):
        rng = np.random.default_rng(16)
        layers = [QuantLinear(LinearLayer(5, 4, rng), 3) for _ in range(2)]
        for layer in layers:
            layer.act_min, layer.act_max = -0.8, 0.9
        out = rng.normal(size=(6, 4))
        got, mask = layers[0]._activate(out, training, False)
        want, recorded_mask = layers[1]._activate(out, training, True)
        assert mask is None and recorded_mask is not None
        assert got.tobytes() == want.tobytes()
        assert (layers[0].act_min, layers[0].act_max) == (layers[1].act_min, layers[1].act_max)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("kind", ["teacher", "student", "quant_linear"])
    def test_no_grad_block_gives_the_recorded_bytes(self, kind, training):
        """Under ``no_grad`` the block records nothing and builds no mask, but
        its output, running statistics and activation range are those of a
        recording block."""
        rng = np.random.default_rng(17)
        bn, layer = TestBlock.layers(rng, "teacher" if kind == "teacher" else "student")
        if kind == "quant_linear":
            bn = None
        if kind != "teacher":
            layer.act_min, layer.act_max = -0.8, 0.9
        x_data = rng.normal(0.3, 1.5, size=(6, 5))
        results = []
        for recording, (bn_copy, layer_copy) in ((True, (bn, layer)),
                                                 (False, copy.deepcopy((bn, layer)))):
            x = Tensor(x_data.copy(), requires_grad=True)
            with contextlib.nullcontext() if recording else no_grad():
                out = bn_relu_linear(bn_copy, layer_copy, x, training)
            assert out.requires_grad == recording
            state = [] if bn_copy is None else [bn_copy.running_mean, bn_copy.running_var]
            if kind != "teacher":
                state.append(np.array([layer_copy.act_min, layer_copy.act_max]))
            results.append([out.data, *state])
        for recorded, bare in zip(*results):
            assert recorded.tobytes() == bare.tobytes()


class TestFakeQuantArrays:
    """The in-place fake-quant against quantize_array + dequantize_array and
    the three-comparison mask, bit for bit, on ties, signed zeros, the range
    ends and one ulp either side of them."""

    @staticmethod
    def edge_values(lo, hi, bits):
        levels, half = 2.0 ** bits - 1, 2.0 ** (bits - 1)
        # x whose scaled value lo + (t + half) * (hi - lo) / levels sits at a
        # tie t = +-k + 0.5 (exactly so when hi - lo == levels)
        ties = [lo + (half + k + 0.5) * (hi - lo) / levels for k in (-3, -2, -1, 0, 1, 2)]
        ties += [lo + (half - k - 0.5) * (hi - lo) / levels for k in (0, 1, 2)]
        ends = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
                np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf)]
        far = [lo - 10.0, hi + 10.0, 0.0, -0.0]
        return np.array(ties + ends + far, dtype=float)

    @pytest.mark.parametrize("bits", [2, 3, 4, 32])
    @pytest.mark.parametrize("lo,hi", [(0.0, None), (-1.3, 2.7), (-0.0, 0.75), (-2.5, 0.0)])
    def test_same_bits_as_quantize_then_dequantize(self, bits, lo, hi):
        if hi is None:  # hi - lo == levels: the scaled values are exact
            hi = 2.0 ** bits - 1
        rng = np.random.default_rng(bits)
        x = np.concatenate([self.edge_values(lo, hi, bits),
                            rng.uniform(lo - 1.0, hi + 1.0, size=64)])
        before = x.copy()
        out, mask = _fake_quant_arrays(x, lo, hi, bits)
        ref_out, ref_mask = reference_fake_quant_arrays(x, lo, hi, bits)
        np.testing.assert_array_equal(out.view(np.int64), ref_out.view(np.int64))
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(x.view(np.int64), before.view(np.int64))

    @pytest.mark.parametrize("bits", [2, 3, 4, 32])
    @pytest.mark.parametrize("lo,hi", [(0.0, None), (-1.3, 2.7), (-0.0, 0.75), (-2.5, 0.0)])
    def test_mask_over_own_range_is_all_true(self, bits, lo, hi):
        """Why a QuantLinear's weight needs no STE mask: over the array's own
        min and max the clamp changes no value."""
        if hi is None:
            hi = 2.0 ** bits - 1
        x = np.concatenate([self.edge_values(lo, hi, bits), [5e-324, -5e-324]])
        _, mask = _fake_quant_arrays(x, float(x.min()), float(x.max()), bits)
        assert mask.all()

    def test_ties_round_away_from_zero(self):
        # 3 bits on [0, 7]: the code is x - 4, so x = 4 +- 0.5 are ties
        out, _ = _fake_quant_arrays(np.array([4.5, 3.5, 5.5, 2.5]), 0.0, 7.0, 3)
        np.testing.assert_array_equal(out, [5.0, 3.0, 6.0, 2.0])

    def test_nan_is_masked_out(self):
        x = np.array([np.nan, 0.5])
        out, mask = _fake_quant_arrays(x, 0.0, 1.0, 3)
        ref_out, ref_mask = reference_fake_quant_arrays(x, 0.0, 1.0, 3)
        np.testing.assert_array_equal(mask, ref_mask)
        np.testing.assert_array_equal(out, ref_out)
        assert mask.tolist() == [False, True]


@pytest.mark.parametrize("hidden", [(), (6,), (6, 6), (6, 6, 6)],
                         ids=["0_hidden", "1_hidden", "2_hidden", "3_hidden"])
def test_shared_batch_norm_inputs_accumulate_in_the_composite_order(hidden):
    """The game's hardest case: each BN input of the eval-mode teacher feeds
    both its batch-norm layer and loss_bns, so three gradient contributions
    meet there; the fused graph must add them in the composite's order."""
    rng = np.random.default_rng(8)
    net = make_mlp(5, hidden, 3, rng).eval()
    for layer in net.bn_layers:
        layer.running_mean = rng.normal(size=6)
        layer.running_var = rng.uniform(0.5, 2.0, size=6)
    y = Tensor(np.eye(3)[rng.integers(0, 3, size=8)])
    x = Tensor(rng.normal(size=(8, 5)), requires_grad=True)

    def composite_forward(inp):
        bn_inputs, out = [], composite_block(None, net.linears[0], inp, False)
        for bn, layer in zip(net.bn_layers, net.linears[1:]):
            bn_inputs.append(out)
            out = composite_block(bn, layer, out, False)
        return out, bn_inputs

    def fused_forward(inp):
        bn_inputs = []
        return net.forward(inp, bn_inputs), bn_inputs

    results = []
    for forward, ce, bns, entropy in (
            (fused_forward, cross_entropy_from_logits, loss_bns, softmax_entropy),
            (composite_forward, composite_cross_entropy, composite_loss_bns,
             composite_softmax_entropy)):
        x.zero_grad()
        for p in net.parameters():
            p.zero_grad()
        z, bn_inputs = forward(x)
        score = entropy(z).mean() - 0.5 * ce(z, y) - 0.1 * bns(bn_inputs, net.bn_layers)
        backward(-score)
        results.append([score.data.copy(), x.grad.copy()]
                       + [p.grad.copy() for p in net.parameters()])
    for fused, composite in zip(*results):
        np.testing.assert_array_equal(fused, composite)
