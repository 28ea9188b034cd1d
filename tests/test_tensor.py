import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from reference import log_softmax, power, softmax, transpose

from adadfq.adaptability import info_entropy
from adadfq.errors import ContractError, DimensionError, NumericError
from adadfq.tensor import (
    Tensor,
    backward,
    concat_cols,
    cross_entropy_from_logits,
    no_grad,
)


class TestMatmul:
    def test_identity(self):
        out = Tensor([[1.0, 0.0], [0.0, 1.0]]).matmul(Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_dot_product(self):
        out = Tensor([[1.0, 2.0]]).matmul(Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.ones((2, 3))).matmul(Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = check_gradients(lambda: a.matmul(b).sum(), [a, b], step=1e-5)
        assert err < 1e-6


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, 0.25)

    def test_large_logit_no_overflow(self):
        out = softmax(Tensor([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_matches_high_precision_evaluation(self):
        from fractions import Fraction
        import math

        logits = [1.0, 2.0, 3.0]
        # extended-precision reference via exact rational arithmetic on
        # high-precision exponentials
        exps = [Fraction(math.exp(v)).limit_denominator(10**30) for v in logits]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
        out = softmax(Tensor([logits]))
        np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = softmax(Tensor(rng.normal(scale=50.0, size=(20, 6))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_property(self, row):
        out = softmax(Tensor([row]))
        assert abs(out.data.sum() - 1.0) <= 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            softmax(Tensor([[np.inf, 0.0]]))
        with pytest.raises(NumericError):
            cross_entropy_from_logits(Tensor([[np.nan, 0.0]]), Tensor([[1.0, 0.0]]))


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(w.sum())
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_square_analytic(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        backward(power(w, 2).sum())
        np.testing.assert_allclose(w.grad, [2.0, 4.0])

    def test_accumulation_doubles(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = power(w, 2).sum()
        backward(loss)
        first = w.grad.copy()
        backward(power(w, 2).sum())
        np.testing.assert_allclose(w.grad, 2.0 * first)

    def test_non_scalar_root_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(w * 2.0)

    def test_shared_subexpression_accumulates(self):
        w = Tensor([3.0], requires_grad=True)
        shared = w * 2.0
        backward((shared + shared).sum())
        np.testing.assert_allclose(w.grad, [4.0])

    def test_two_layer_mlp_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        w1 = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x = Tensor(rng.normal(size=(6, 5)))
        y = Tensor(np.eye(3)[rng.integers(0, 3, size=6)])

        def loss():
            h = x.matmul(w1).relu()
            return -(y * log_softmax(h.matmul(w2))).sum(axis=1).mean()

        assert check_gradients(loss, [w1, w2], step=1e-5) < 1e-4


class TestCheckGradients:
    def test_linear_function_exact(self):
        w = Tensor([1.0, -2.0, 0.5], requires_grad=True)
        c = Tensor([3.0, 1.0, -1.0])
        assert check_gradients(lambda: (w * c).sum(), [w]) < 1e-10

    def test_hinge_away_from_kink(self):
        w = Tensor([0.4, -0.7, 1.3], requires_grad=True)  # |x - 0.5| > 10 * step
        step = 1e-5
        assert check_gradients(lambda: (w - 0.5).relu().sum(), [w], step=step) < 1e-6

    def test_randomized_composites(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            x = Tensor(rng.normal(size=(3, 4)))

            def loss():
                return info_entropy(softmax(x.matmul(w))).mean()

            assert check_gradients(loss, [w], step=1e-5) < 1e-4


class TestMisc:
    def test_concat_cols_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        backward((concat_cols([a, b]) * 2.0).sum())
        np.testing.assert_allclose(a.grad, 2.0)
        np.testing.assert_allclose(b.grad, 2.0)

    def test_entropy_rows_values(self):
        out = info_entropy(Tensor([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [np.log(4.0), 0.0], atol=1e-12)

    def test_broadcast_add_gradient(self):
        x = Tensor(np.ones((4, 3)))
        b = Tensor(np.zeros(3), requires_grad=True)
        backward((x + b).sum())
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])


class TestNoGrad:
    def test_records_no_node(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with no_grad():
            out = w.matmul(transpose(w)).relu().sum()
        assert not out.requires_grad
        assert out._parents == () and out._backward_fn is None
        recorded = w.matmul(transpose(w)).relu().sum()
        assert recorded.requires_grad
        np.testing.assert_array_equal(out.data, recorded.data)

    def test_nests(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not (w * 2.0).requires_grad
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_restores_grad_mode_after_exception(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericError):
            with no_grad():
                softmax(Tensor([[np.inf, 0.0]]))
        assert (w * 2.0).requires_grad
