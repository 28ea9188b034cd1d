import numpy as np
import pytest

from adadfq.cli import RunConfig, evaluate_network, train_teacher_network
from adadfq.data import make_blobs, standardize
from adadfq.errors import ContractError, DimensionError
from adadfq.nn import (
    ADAM_BETAS,
    ADAM_EPS,
    AdamOptimizer,
    BatchNormLayer,
    ConditionalGenerator,
    LinearLayer,
    SgdMomentum,
    make_mlp,
)
from adadfq.tensor import Tensor, backward, zero_grads


def small_net(seed=0):
    return make_mlp(4, (8,), 3, np.random.default_rng(seed))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        net = small_net()
        for p in net.parameters():
            p.data[...] = 0.0
        net.eval()
        out = net.forward(Tensor(np.random.default_rng(0).normal(size=(5, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))

    def test_eval_mode_deterministic(self):
        net = small_net().eval()
        x = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        a = net.forward(x).data
        b = net.forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_hand_set_single_hidden_layer(self):
        # linear-only net: 2 -> 2 with identity weights and a bias
        rng = np.random.default_rng(0)
        layer = LinearLayer(2, 2, rng)
        layer.weight.data[...] = [[1.0, 2.0], [3.0, 4.0]]
        layer.bias.data[...] = [0.5, -0.5]
        out = layer.forward(Tensor([[1.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[3.5, 6.5]])

    def test_width_mismatch(self):
        net = small_net()
        with pytest.raises(DimensionError):
            net.forward(Tensor(np.zeros((2, 5))))

    def test_bn_hooks_one_per_bn_layer(self):
        net = make_mlp(4, (8, 8), 3, np.random.default_rng(0))
        net.forward(Tensor(np.zeros((4, 4))))
        assert len(net.bn_inputs) == len(net.bn_layers()) == 2


class TestBatchNorm:
    def test_eval_at_running_mean_gives_beta(self):
        bn = BatchNormLayer(3)
        bn.running_mean = np.array([1.0, -2.0, 0.5])
        bn.running_var = np.array([4.0, 1.0, 9.0])
        bn.beta.data[...] = [7.0, 8.0, 9.0]
        out = bn.forward(Tensor([bn.running_mean.tolist()]), training=False)
        np.testing.assert_allclose(out.data, [[7.0, 8.0, 9.0]], atol=1e-6)

    def test_ema_update_convention(self):
        bn = BatchNormLayer(1)
        x = Tensor([[0.0], [2.0]])  # batch mean 1, biased var 1
        bn.forward(x, training=True)
        assert bn.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 1.0)
        assert bn.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_batch_variance_is_biased(self):
        bn = BatchNormLayer(1)
        bn.forward(Tensor([[0.0], [1.0]]), training=True)  # biased var 0.25
        assert bn.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 0.25)


class TestGenerator:
    def make(self, seed=0):
        return ConditionalGenerator(16, 4, 8, np.random.default_rng(seed),
                                    embed_dim=8, hidden=(64, 64))

    def test_reproducible_output(self):
        z = Tensor(np.random.default_rng(2).normal(size=(5, 16)))
        y = Tensor(np.eye(4)[[0, 1, 2, 3, 0]])
        a = self.make().eval().forward(z, y).data
        b = self.make().eval().forward(z, y).data
        np.testing.assert_array_equal(a, b)

    def test_labels_distinguish_outputs(self):
        g = self.make().eval()
        z = Tensor(np.random.default_rng(3).normal(size=(1, 16)))
        out0 = g.forward(z, Tensor(np.eye(4)[[0]])).data
        out1 = g.forward(z, Tensor(np.eye(4)[[1]])).data
        assert not np.allclose(out0, out1)

    def test_default_batch_shape(self):
        g = ConditionalGenerator(64, 4, 8, np.random.default_rng(0),
                                 embed_dim=8, hidden=(64, 64)).eval()
        z = Tensor(np.random.default_rng(4).normal(size=(16, 64)))
        y = Tensor(np.eye(4)[np.random.default_rng(5).integers(0, 4, 16)])
        assert g.forward(z, y).data.shape == (16, 8)


class TestOptimizers:
    def test_sgd_plain_step(self):
        w = Tensor([0.0], requires_grad=True)
        opt = SgdMomentum([w], lr=0.1, momentum=0.0, weight_decay=0.0)
        w.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(w.data, [-0.1])

    def test_sgd_weight_decay_only(self):
        w = Tensor([2.0], requires_grad=True)
        opt = SgdMomentum([w], lr=0.1, momentum=0.0, weight_decay=1e-4)
        w.grad = np.array([0.0])
        opt.step()
        np.testing.assert_allclose(w.data, [2.0 - 0.1 * 1e-4 * 2.0])

    def test_adam_first_step_matches_hand_recurrence(self):
        w = Tensor([1.0, -1.0], requires_grad=True)
        lr, (b1, b2), eps = 1e-3, ADAM_BETAS, ADAM_EPS
        g = np.array([0.5, -2.0])
        opt = AdamOptimizer([w], lr=lr)
        w.grad = g.copy()
        opt.step()
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = np.array([1.0, -1.0]) - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_allclose(w.data, expected)

    def test_missing_grad_rejected(self):
        w = Tensor([0.0], requires_grad=True)
        opt = AdamOptimizer([w], lr=1e-3)
        with pytest.raises(ContractError):
            opt.step()

    def test_sgd_momentum_matches_hand_recurrence(self):
        w = Tensor([0.0], requires_grad=True)
        opt = SgdMomentum([w], lr=0.1, momentum=0.9, weight_decay=0.0)
        v, expected = 0.0, 0.0
        for _ in range(2):
            w.grad = np.array([1.0])
            opt.step()
            zero_grads([w])
            v = 0.9 * v + 1.0
            expected -= 0.1 * (1.0 + 0.9 * v)
        np.testing.assert_allclose(w.data, [expected])
        assert expected == pytest.approx(-0.461)


def test_teacher_converges_on_separable_data():
    train_raw, _ = make_blobs(3, 60, 4, 0.05, seed=0)
    train, _ = standardize(train_raw)
    cfg = RunConfig(seed=0, teacher_epochs=60, teacher_lr=1e-2, teacher_hidden="16")
    net = train_teacher_network(train, cfg)
    assert evaluate_network(net, train)["accuracy"] == 1.0
