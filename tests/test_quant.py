import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import power, transpose

from adadfq import quant
from adadfq.checkpoint import _decoded, _load_state, save_student
from adadfq.cli import RunConfig, evaluate_network, train_teacher_network
from adadfq.data import apply_standardization, make_blobs, standardize
from adadfq.errors import ContractError, DegenerateRangeError
from adadfq.nn import LinearLayer, SgdMomentum, bn_relu_linear
from adadfq.quant import (
    QuantLinear,
    build_quantized_student,
    dequantize_array,
    fake_quant,
    quantize_array,
)
from adadfq.tensor import Tensor, backward


class TestQuantizeValue:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_lower_boundary(self, bits):
        assert quantize_array(np.float64(-1.0), -1.0, 1.0, bits) == -(2 ** (bits - 1))

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_upper_boundary(self, bits):
        assert quantize_array(np.float64(1.0), -1.0, 1.0, bits) == 2 ** (bits - 1) - 1

    def test_2bit_direct_arithmetic(self):
        # round(3 * (1/3) - 2) = round(-1) = -1
        assert quantize_array(np.float64(1.0), 0.0, 3.0, 2) == -1

    def test_degenerate_range_signalled(self):
        with pytest.raises(DegenerateRangeError):
            quantize_array(np.float64(0.5), 1.0, 1.0, 4)

    def test_clamps_out_of_range(self):
        assert quantize_array(np.float64(1e308), -1.0, 1.0, 4) == 7
        assert quantize_array(np.float64(-1e308), -1.0, 1.0, 4) == -8

    @given(
        st.integers(2, 8),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_codes_stay_in_range_and_monotone(self, bits, values):
        codes = quantize_array(np.array(values), -100.0, 100.0, bits)
        assert codes.min() >= -(2 ** (bits - 1))
        assert codes.max() <= 2 ** (bits - 1) - 1
        order = np.argsort(values)
        assert np.all(np.diff(codes[order]) >= 0)


def reference_quantize(x, lo, hi, bits):
    """The mapping as first written: np.clip, then np.where rounding."""
    levels, half = float(2 ** bits - 1), float(2 ** (bits - 1))
    t = levels * (np.clip(x, lo, hi) - lo) / (hi - lo) - half
    return np.where(t >= 0.0, np.floor(t + 0.5), np.ceil(t - 0.5))


class TestQuantizeArrayMatchesReference:
    @staticmethod
    def probes(lo, hi, bits):
        levels, half = 2 ** bits - 1, 2 ** (bits - 1)
        step = (hi - lo) / levels
        grid = lo + step * np.arange(levels + 1)
        ties = lo + step * (np.arange(levels) + 0.5)
        return np.concatenate([
            grid, ties, np.arange(-half, half) + 0.5, np.arange(-half, half, dtype=float),
            [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), lo - 1.0, hi + 1.0,
             0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-17, -1e-17],
            np.random.default_rng(bits).uniform(lo - 0.5, hi + 0.5, size=64),
        ])

    @pytest.mark.parametrize("bits", [2, 3, 4])
    @pytest.mark.parametrize("lo_hi", ["unit", "code_grid", "shifted", "odd"])
    def test_bit_for_bit_after_dequantization(self, bits, lo_hi):
        half = 2 ** (bits - 1)
        # "code_grid" makes the scaled value equal the input, so the +-k+0.5
        # probes are exact rounding ties
        lo, hi = {"unit": (-1.0, 1.0), "code_grid": (-half, half - 1.0),
                  "shifted": (0.0, 2.0 ** bits - 1.0), "odd": (-0.37, 1.91)}[lo_hi]
        x = self.probes(lo, hi, bits)
        codes, expected = quantize_array(x, lo, hi, bits), reference_quantize(x, lo, hi, bits)
        np.testing.assert_array_equal(codes, expected)
        assert (dequantize_array(codes, lo, hi, bits).tobytes()
                == dequantize_array(expected, lo, hi, bits).tobytes())

    def test_ties_round_away_from_zero(self):
        x = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
        np.testing.assert_array_equal(quantize_array(x, -4.0, 3.0, 3), [-3, -2, -1, 1, 2, 3])


class TestDequantize:
    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_code_boundaries_map_to_range_boundaries(self, bits):
        lo_code, hi_code = np.float64(-(2 ** (bits - 1))), np.float64(2 ** (bits - 1) - 1)
        assert dequantize_array(lo_code, -1.0, 1.0, bits) == pytest.approx(-1.0, abs=1e-12)
        assert dequantize_array(hi_code, -1.0, 1.0, bits) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_exhaustive_3bit(self):
        for code in range(-4, 4):
            theta = dequantize_array(np.float64(code), -1.0, 1.0, 3)
            assert quantize_array(theta, -1.0, 1.0, 3) == code

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_round_trip_exhaustive_all_acceptance_widths(self, bits):
        codes = np.arange(-(2 ** (bits - 1)), 2 ** (bits - 1))
        thetas = dequantize_array(codes, -2.5, 1.5, bits)
        back = quantize_array(thetas, -2.5, 1.5, bits)
        np.testing.assert_array_equal(back, codes)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ContractError):
            dequantize_array(np.float64(8), -1.0, 1.0, 4)


class TestFakeQuant:
    def test_grid_point_unchanged(self):
        x = Tensor(dequantize_array(np.arange(-8, 8), -1.0, 1.0, 4))
        out = fake_quant(x, -1.0, 1.0, 4)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_half_step_error_bound(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1.0, 1.0, size=1000))
        out = fake_quant(x, -1.0, 1.0, 8)
        step = 2.0 / (2 ** 8 - 1)
        assert np.abs(x.data - out.data).max() <= step / 2 + 1e-12

    def test_ste_gradient_interior_ones(self):
        x = Tensor(np.linspace(-0.9, 0.9, 7), requires_grad=True)
        backward(fake_quant(x, -1.0, 1.0, 4).sum())
        np.testing.assert_array_equal(x.grad, np.ones(7))

    def test_ste_gradient_exterior_zero(self):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        backward(fake_quant(x, -1.0, 1.0, 4).sum())
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_degenerate_range_is_identity(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = fake_quant(x, 0.5, 0.5, 4)
        assert out is x


class TestActivationRange:
    def test_ema_tracking(self):
        layer = QuantLinear(LinearLayer(2, 2, np.random.default_rng(0)), 4)
        assert layer.act_min is None and layer.act_max is None
        layer._activate(np.array([0.0, 1.0]), True, False)
        assert layer.act_min == 0.0 and layer.act_max == 1.0
        layer._activate(np.array([-1.0, 2.0]), True, False)
        assert layer.act_min == pytest.approx(0.9 * 0.0 + 0.1 * -1.0)
        assert layer.act_max == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)


@pytest.fixture(scope="module")
def trained_teacher():
    cfg = RunConfig(seed=0, spread=1.3, teacher_epochs=30)
    train_raw, test_raw = make_blobs(4, 200, 8, 1.3, 0)
    train, stats = standardize(train_raw)
    test = apply_standardization(test_raw, stats)
    net = train_teacher_network(train, cfg)
    return net, train, test


class TestBuildQuantizedStudent:
    def test_latent_weights_bitwise_equal(self, trained_teacher):
        net, _, _ = trained_teacher
        student = build_quantized_student(net, 3)
        teacher_params = net.named_parameters()
        for name, p in student.named_parameters().items():
            np.testing.assert_array_equal(p.data, teacher_params[name].data)

    def test_a_student_is_not_requantized(self, trained_teacher):
        with pytest.raises(ContractError, match="student"):
            build_quantized_student(build_quantized_student(trained_teacher[0], 3), 4)

    def test_32bit_matches_teacher_logits(self, trained_teacher):
        net, _, test = trained_teacher
        student = build_quantized_student(net, 32)
        x = Tensor(test.features[:64])
        student.train()
        student.forward(x)
        student.eval()
        np.testing.assert_allclose(
            student.forward(x).data, net.forward(x).data, atol=1e-6
        )

    def test_3bit_accuracy_strictly_below_teacher(self, trained_teacher):
        net, _, test = trained_teacher
        student = build_quantized_student(net, 3)
        student.train()
        student.forward(Tensor(test.features))
        student.eval()
        q_acc = evaluate_network(student, test)["accuracy"]
        t_acc = evaluate_network(net, test)["accuracy"]
        assert q_acc < t_acc

    def test_train_forward_keeps_buffers_and_matches_eval(self, trained_teacher):
        """Training mode only observes activation ranges: batch norm keeps the
        copied statistics bit for bit, and once a batch is observed its
        training logits are the eval-mode ones bit for bit."""
        net, _, test = trained_teacher
        student = build_quantized_student(net, 3).train()
        before = {k: b.copy() for k, b in student.named_buffers().items()}
        student.forward(Tensor(test.features[:64]))  # sets the ranges
        x = Tensor(test.features[64:128])
        train_logits = student.forward(x).data  # moves them, then quantizes
        for name, buf in student.named_buffers().items():
            assert buf.tobytes() == before[name].tobytes(), name
        ranges = [(layer.act_min, layer.act_max) for layer in student.linears]
        eval_logits = student.eval().forward(x).data
        assert train_logits.tobytes() == eval_logits.tobytes()
        assert [(layer.act_min, layer.act_max) for layer in student.linears] == ranges

    def test_bn_running_stats_copied_not_shared(self, trained_teacher):
        net, _, _ = trained_teacher
        student = build_quantized_student(net, 3)
        s_buffers = student.named_buffers()
        for name, buf in net.named_buffers().items():
            np.testing.assert_array_equal(s_buffers[name], buf)
            assert s_buffers[name] is not buf


def forward(layer, x):
    """A QuantLinear alone, in eval mode, as the student's first layer runs."""
    return bn_relu_linear(None, layer, x, False)


class TestWeightMemo:
    """However the latent weight changed, a QuantLinear forward and backward
    match a fresh fake_quant of it bit for bit."""

    @staticmethod
    def layer():
        layer = QuantLinear(LinearLayer(5, 3, np.random.default_rng(0)), 3)
        x = Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        forward(layer, x)  # fills the memo
        return layer, x

    @staticmethod
    def assert_matches_fresh_quantization(layer, x):
        w = layer.weight
        fresh = fake_quant(w, float(w.data.min()), float(w.data.max()), layer.bits)
        expected = x.matmul(transpose(fresh)) + layer.bias  # no activation range observed yet
        out = forward(layer, x)
        np.testing.assert_array_equal(out.data, expected.data)
        grads = []
        for root in (out, expected):
            w.zero_grad()
            backward((root * root).sum())
            grads.append(w.grad)
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_after_sgd_step(self):
        layer, x = self.layer()
        opt = SgdMomentum([layer.weight, layer.bias], lr=0.5, momentum=0.9, weight_decay=0.0)
        backward(power(forward(layer, x), 2).sum())
        opt.step()
        self.assert_matches_fresh_quantization(layer, x)

    def test_after_in_place_write(self):
        layer, x = self.layer()
        layer.weight.data[0, 0] = 2.0  # also moves the range's maximum
        self.assert_matches_fresh_quantization(layer, x)
        layer.weight.data[...] = layer.weight.data[::-1].copy()
        self.assert_matches_fresh_quantization(layer, x)

    def test_after_checkpoint_load(self, trained_teacher, tmp_path):
        net, _, test = trained_teacher
        x = Tensor(test.features[:8])
        student = build_quantized_student(net, 3)
        other = build_quantized_student(net, 3)
        for p in other.parameters():
            p.data *= 0.5
        path = tmp_path / "s.json"
        save_student(path, other)
        student.forward(x)  # fills every memo
        _load_state(student, _decoded(json.loads(path.read_text())))
        np.testing.assert_array_equal(student.forward(x).data, other.forward(x).data)
        for layer in student.linears:
            h = Tensor(np.random.default_rng(2).normal(size=(4, layer.weight.data.shape[1])))
            self.assert_matches_fresh_quantization(layer, h)

    def test_weight_quantized_once_until_it_changes(self, monkeypatch):
        layer, x = self.layer()
        calls = []
        original = quant._fake_quant_arrays
        monkeypatch.setattr(quant, "_fake_quant_arrays",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        forward(layer, x)
        forward(layer, x)
        assert len(calls) == 0
        layer.weight.data[1, 1] += 1e-3
        forward(layer, x)
        forward(layer, x)
        assert len(calls) == 1

    def test_weight_requantized_when_the_bit_width_changes(self):
        layer, x = self.layer()
        layer.bits = 2
        self.assert_matches_fresh_quantization(layer, x)
