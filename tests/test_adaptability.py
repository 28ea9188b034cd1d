import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import argmin_entropy_row, check_gradients, fd_check_skip_rows
from reference import softmax

from adadfq.adaptability import (
    AGREEMENT,
    DISAGREEMENT,
    TEACHER_WRONG,
    calibration_objective,
    classify_samples,
    cross_entropy_from_logits,
    disagreement_entropy,
    disagreement_vector,
    generator_objective,
    info_entropy,
    loss_as,
    loss_bal,
    loss_bns,
    loss_ds,
    margin_terms,
    normalize_entropy,
)
from adadfq.config import RunConfig
from adadfq.errors import ConfigError
from adadfq.nn import BatchNormLayer
from adadfq.tensor import Tensor


def rand_logits(rng, rows=6, cols=4):
    return Tensor(rng.normal(size=(rows, cols)))


def h_prime_of(z_p, z_q):
    """The objectives' input, as the game computes it."""
    return normalize_entropy(disagreement_entropy(z_p, z_q), z_p.data.shape[1])


class TestVectors:
    def test_equal_logits_give_uniform_disagreement(self):
        z = Tensor([[3.0, -1.0, 0.5]])
        out = disagreement_vector(z, z)
        np.testing.assert_allclose(out.data, 1.0 / 3.0)

    def test_disagreement_uses_difference(self):
        z_p = Tensor([[2.0, 0.0]])
        z_q = Tensor([[0.0, 1.0]])
        expected = softmax(Tensor([[2.0, -1.0]])).data
        np.testing.assert_allclose(disagreement_vector(z_p, z_q).data, expected)


class TestEntropy:
    def test_uniform_row_hits_log_c(self):
        for c in (2, 4, 10):
            p = Tensor(np.full((1, c), 1.0 / c))
            assert float(info_entropy(p).data[0]) == pytest.approx(np.log(c), abs=1e-9)

    def test_one_hot_is_zero(self):
        assert float(info_entropy(Tensor([[1.0, 0.0, 0.0]])).data[0]) == 0.0

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_entropy_bounded_property(self, row):
        h = float(info_entropy(softmax(Tensor([row]))).data[0])
        assert -1e-12 <= h <= np.log(len(row)) + 1e-9


class TestNormalizeEntropy:
    def test_batch_min_maps_to_zero(self):
        h = Tensor([0.3, 0.9, 1.2])
        out = normalize_entropy(h, 4)
        assert float(out.data.min()) == 0.0

    def test_value_at_max_is_one(self):
        h = Tensor([0.0, np.log(4.0)])
        out = normalize_entropy(h, 4)
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_degenerate_batch_gives_zeros(self):
        h = Tensor(np.full(3, np.log(4.0)))
        np.testing.assert_array_equal(normalize_entropy(h, 4).data, 0.0)

    def test_base_invariance(self):
        # switching the entropy log base rescales numerator and denominator
        # identically, so h' is unchanged
        rng = np.random.default_rng(0)
        p = softmax(rand_logits(rng))
        h_nat = info_entropy(p)
        h_prime = normalize_entropy(h_nat, 4)
        h_bits = h_nat.data / np.log(2.0)
        min_bits = h_bits.min()
        h_prime_bits = (h_bits - min_bits) / (np.log2(4.0) - min_bits)
        np.testing.assert_allclose(h_prime.data, h_prime_bits, atol=1e-9)

    def test_batch_min_is_detached(self):
        # with the batch min treated as a constant, every element of h' has
        # the same derivative 1/(ln C - min), including the argmin element
        from adadfq.tensor import backward

        h = Tensor([0.2, 0.5, 1.0], requires_grad=True)
        backward(normalize_entropy(h, 4).sum())
        np.testing.assert_allclose(h.grad, 1.0 / (np.log(4.0) - 0.2))


class TestClassify:
    def test_three_kinds(self):
        z_p = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        z_q = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        y = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        assert classify_samples(z_p, z_q, y) == [AGREEMENT, DISAGREEMENT, TEACHER_WRONG]

    def test_agreement_precedes_teacher_wrong(self):
        # both networks pick class 1 while the label is 0: agreement wins
        z = np.array([[0.0, 2.0]])
        y = np.array([[1.0, 0.0]])
        assert classify_samples(z, z, y) == [AGREEMENT]

    def test_tie_breaks_to_lowest_index(self):
        z_p = np.array([[1.0, 1.0]])
        z_q = np.array([[0.0, 2.0]])
        y = np.array([[1.0, 0.0]])
        # teacher argmax ties -> class 0 == label, student picks 1
        assert classify_samples(z_p, z_q, y) == [DISAGREEMENT]


class TestLosses:
    def test_loss_ds_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        z_p, z_q = rand_logits(rng), rand_logits(rng)
        y = Tensor(np.eye(4)[[0, 1, 2, 3, 0, 1]])
        p = disagreement_vector(z_p, z_q).data
        expected = -np.mean(np.log(p[np.arange(6), y.data.argmax(axis=1)]))
        assert float(loss_ds(z_p, z_q, y).data) == pytest.approx(expected, rel=1e-12)

    def test_loss_as_matches_direct_formula(self):
        rng = np.random.default_rng(4)
        z_p, z_q = rand_logits(rng), rand_logits(rng)
        y = Tensor(np.eye(4)[[2, 0, 3, 1, 2, 0]])
        p = softmax(z_p + z_q).data
        expected = -np.mean(np.log(p[np.arange(6), y.data.argmax(axis=1)]))
        assert float(loss_as(z_p, z_q, y).data) == pytest.approx(expected, rel=1e-12)

    def test_loss_bal_weighting(self):
        out = loss_bal(Tensor(2.0), Tensor(3.0), 0.2, 0.1)
        assert float(out.data) == pytest.approx(0.2 * 2.0 + 0.1 * 3.0)

    def test_margin_zero_inside(self):
        h = Tensor([0.1, 0.45, 0.8])
        assert float(margin_terms(h, 0.1, 0.8).data) == 0.0

    def test_margin_penalizes_both_sides(self):
        h = Tensor([0.0, 0.9])  # 0.1 below and 0.1 above the margin
        assert float(margin_terms(h, 0.1, 0.8).data) == pytest.approx(-0.1)

    def test_bns_zero_when_stats_match(self):
        layer = BatchNormLayer(2)
        layer.running_mean = np.array([0.5, -0.5])
        layer.running_var = np.array([0.25, 1.0])
        # build a 2-sample batch with exactly those biased stats
        x = np.array([[0.0, -1.5], [1.0, 0.5]])  # means (0.5,-0.5), biased var (0.25,1.0)
        out = loss_bns([Tensor(x)], [layer])
        assert float(out.data) == pytest.approx(0.0, abs=1e-9)

    def test_bns_mean_shift_quadratic(self):
        layer = BatchNormLayer(1)
        layer.running_mean = np.array([0.0])
        layer.running_var = np.array([1.0])
        x = np.array([[2.0], [4.0]])  # mean 3, biased std 1
        assert float(loss_bns([Tensor(x)], [layer]).data) == pytest.approx(9.0)


class TestObjectives:
    def test_calibration_objective_zero_at_agreement(self):
        # identical logits -> uniform p_ds -> degenerate batch -> h' all zero
        # -> loss 1; distinct rows give strictly smaller values for matched
        # logits than for far-apart ones
        rng = np.random.default_rng(5)
        z_p = rand_logits(rng)
        near = z_p + Tensor(0.01 * rng.normal(size=z_p.data.shape))
        far = Tensor(rng.normal(scale=5.0, size=z_p.data.shape))
        assert float(calibration_objective(h_prime_of(z_p, near)).data) < float(
            calibration_objective(h_prime_of(z_p, far)).data
        )

    def test_generator_objective_drops_terms_at_zero_weight(self):
        rng = np.random.default_rng(6)
        z_p, z_q = rand_logits(rng), rand_logits(rng)
        y = Tensor(np.eye(4)[[0, 1, 2, 3, 0, 1]])
        hp_off = RunConfig(beta=0.0, gamma=0.0)
        h_prime = h_prime_of(z_p, z_q)
        score = generator_objective(h_prime, z_p, z_q, y, [], [], hp_off)
        expected = margin_terms(h_prime, hp_off.lambda_l, hp_off.lambda_u)
        assert float(score.data) == pytest.approx(float(expected.data))

    def test_reduction_to_zero_with_trivial_margins_and_weights(self):
        # with the margins wide open and both weighted terms disabled, the
        # score is identically zero: the game degenerates to calibrating on
        # random-generator samples
        rng = np.random.default_rng(7)
        z_p, z_q = rand_logits(rng), rand_logits(rng)
        y = Tensor(np.eye(4)[[0, 1, 2, 3, 0, 1]])
        hp = RunConfig(lambda_l=0.0, lambda_u=1.0, beta=0.0, gamma=0.0)
        score = generator_objective(h_prime_of(z_p, z_q), z_p, z_q, y, [], [], hp)
        assert float(score.data) == 0.0

    def test_hyperparams_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(lambda_l=0.9, lambda_u=0.1)
        with pytest.raises(ConfigError):
            RunConfig(alpha_ds=-0.1)


class TestGradients:
    """Central-difference checks on small randomized instances."""

    @pytest.mark.parametrize("seed", range(5))
    def test_loss_ds_as_bal(self, seed):
        rng = np.random.default_rng(seed)
        z_p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        z_q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = Tensor(np.eye(3)[rng.integers(0, 3, 4)])

        def loss():
            return loss_bal(loss_ds(z_p, z_q, y), loss_as(z_p, z_q, y), 0.2, 0.1)

        assert check_gradients(loss, [z_p, z_q], step=1e-6) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_bns_gradient(self, seed):
        rng = np.random.default_rng(seed)
        layer = BatchNormLayer(3)
        layer.running_mean = rng.normal(size=3)
        layer.running_var = rng.uniform(0.5, 2.0, size=3)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        assert check_gradients(lambda: loss_bns([x], [layer]), [x], step=1e-6) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_calibration_gradient_away_from_batch_min(self, seed):
        rng = np.random.default_rng(seed + 100)
        z_p = Tensor(rng.normal(size=(4, 3)))
        z_q = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        skip = {argmin_entropy_row(z_p, z_q)}

        def loss():
            return calibration_objective(h_prime_of(z_p, z_q))

        assert fd_check_skip_rows(loss, z_q, skip, step=1e-6) < 1e-4
