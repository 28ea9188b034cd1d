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
        out = layer.forward(Tensor([[1.0, 1.0]]), False)
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

    def test_parameters_follow_named_parameters(self):
        g = self.make()
        named = g.named_parameters()
        assert list(named)[:3] == ["embedding", "layers.0.weight", "layers.0.bias"]
        assert [id(p) for p in g.parameters()] == [id(p) for p in named.values()]
        assert g.parameters()[0] is g.embedding


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


# -- one-buffer optimizers against the per-parameter loops they replaced -------

def reference_sgd(params, velocity, lr, momentum, weight_decay):
    for p, v in zip(params, velocity):
        g = p.grad + weight_decay * p.data
        if momentum != 0.0:
            v *= momentum
            v += g
            g = g + momentum * v
        p.data -= lr * g


def reference_adam(params, m_list, v_list, t, lr):
    b1, b2 = ADAM_BETAS
    for p, m, v in zip(params, m_list, v_list):
        g = p.grad
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def mixed_params(seed):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((3, 4), (5,), (1,), (2, 3))]


def assert_same_bytes(ours, theirs):
    for a, b in zip(ours, theirs):
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()


each_optimizer = pytest.mark.parametrize("make", [
    lambda ps: AdamOptimizer(ps, lr=1e-2),
    lambda ps: SgdMomentum(ps, lr=0.1, momentum=0.9, weight_decay=1e-2),
], ids=["adam", "sgd"])


class TestOneBufferOptimizers:
    """Three steps of each optimizer match the per-parameter loop bit for bit."""

    @staticmethod
    def set_grads(seed, *param_lists):
        rng = np.random.default_rng(seed)
        for shape_params in zip(*param_lists):
            g = rng.normal(size=shape_params[0].data.shape)
            for p in shape_params:
                p.grad = g.copy()

    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.0, 1e-2),
                                                       (0.9, 0.0), (0.9, 1e-2)])
    def test_sgd_matches_per_parameter_loop(self, momentum, weight_decay):
        ours, theirs = mixed_params(0), mixed_params(0)
        opt = SgdMomentum(ours, lr=0.1, momentum=momentum, weight_decay=weight_decay)
        velocity = [np.zeros_like(p.data) for p in theirs]
        for step in range(3):
            self.set_grads(step, ours, theirs)
            opt.step()
            reference_sgd(theirs, velocity, 0.1, momentum, weight_decay)
            assert_same_bytes(ours, theirs)

    def test_adam_matches_per_parameter_loop(self):
        ours, theirs = mixed_params(1), mixed_params(1)
        opt = AdamOptimizer(ours, lr=1e-2)
        m = [np.zeros_like(p.data) for p in theirs]
        v = [np.zeros_like(p.data) for p in theirs]
        for step in range(3):
            self.set_grads(10 + step, ours, theirs)
            opt.step()
            reference_adam(theirs, m, v, step + 1, 1e-2)
            assert_same_bytes(ours, theirs)

    @each_optimizer
    def test_parameters_are_views_of_the_optimizer_storage(self, make):
        params = mixed_params(2)
        before = [Tensor(p.data.copy()) for p in params]
        opt = make(params)
        assert_same_bytes(params, before)
        assert all(np.shares_memory(p.data, opt.storage) for p in params)
        params[1].data[0] = 7.0  # an in-place write lands in the optimizer's buffer
        assert opt.storage[params[0].data.size] == 7.0

    @each_optimizer
    def test_unpopulated_gradient_writes_nothing(self, make):
        """The per-parameter loop had already moved the parameters before the
        missing gradient; the check now runs before any write."""
        params, fresh = mixed_params(3), mixed_params(3)
        opt, fresh_opt = make(params), make(fresh)
        self.set_grads(4, params, fresh)
        missing, params[2].grad = params[2].grad, None
        before = [Tensor(p.data.copy()) for p in params]
        with pytest.raises(ContractError, match="unpopulated gradient"):
            opt.step()
        assert_same_bytes(params, before)
        # nor did the optimizer's own state move: the retried step is a first step
        params[2].grad = missing
        opt.step()
        fresh_opt.step()
        assert_same_bytes(params, fresh)

    @each_optimizer
    def test_no_parameters_rejected(self, make):
        with pytest.raises(ContractError, match="at least one parameter"):
            make([])


def test_teacher_converges_on_separable_data():
    train_raw, _ = make_blobs(3, 60, 4, 0.05, seed=0)
    train, _ = standardize(train_raw)
    cfg = RunConfig(seed=0, teacher_epochs=60, teacher_lr=1e-2, teacher_hidden="16")
    net = train_teacher_network(train, cfg)
    assert evaluate_network(net, train)["accuracy"] == 1.0
