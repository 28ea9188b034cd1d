"""MLP networks, batch normalization with running statistics, and optimizers.

The teacher and student share one architecture; the generator puts a label
embedding in front of the same MLP body to map (noise, one-hot label) to
sample space. All parameters are plain :class:`~adadfq.tensor.Tensor` leaves.

Layer protocol: every layer has ``forward`` and ``named_parameters()`` (its
own, unprefixed names); batch norm also has ``named_buffers()``.
:class:`MlpNetwork` is the one place that walks the layers: it prefixes the
names with ``layers.{i}.``, lists the parameters in that order and holds the
train/eval flag. The quantized student subclasses it (see ``quant.py``).

Batch-norm conventions, fixed here so downstream statistics losses are
well-defined:

* batch variance is the biased (population) estimator;
* the running-stat update is ``new = (1 - BN_MOMENTUM) * old + BN_MOMENTUM * batch``;
* eval mode normalizes with running statistics only;
* the std is ``sqrt(var + BN_EPS)``. ``BN_EPS`` and ``BN_MOMENTUM``, like the
  Adam constants, are fixed here, not per layer: no checkpoint records them.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor, _unbroadcast, concat_cols, linear

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class LinearLayer:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_dim, in_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def named_parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


def _batch_moments(x: np.ndarray):
    """Row count, column means, centred rows and biased column variances."""
    n = float(x.shape[0])
    mu = x.sum(axis=0) / n
    centered = x + (-mu)
    return n, mu, centered, (centered ** 2).sum(axis=0) / n


def _backprop_batch_moments(x: Tensor, n: float, centered: np.ndarray, std: np.ndarray,
                            g_std: np.ndarray, g_mu: np.ndarray) -> None:
    """Route the gradients of ``std = sqrt(var + BN_EPS)`` and of the batch mean
    into ``x``. Adds to ``x`` as the unfused graph did: the variance's
    centring first, then the mean's column sum."""
    g_sq_sum = g_std * 0.5 / std / n
    g_centered = np.broadcast_to(np.expand_dims(g_sq_sum, 0), centered.shape) * 2 * centered
    x._accum(g_centered)
    g_mu = g_mu + -_unbroadcast(g_centered, g_mu.shape)
    x._accum(np.broadcast_to(np.expand_dims(g_mu / n, 0), centered.shape))


class BatchNormLayer:
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        """``(x - mu) / sqrt(var + BN_EPS) * gamma + beta`` as one node; ``mu``
        and ``var`` are the batch's (folded into the running statistics) in
        training and the running statistics in eval."""
        gamma, beta = self.gamma, self.beta
        if training:
            n, mu, centered, var = _batch_moments(x.data)
            m = BN_MOMENTUM
            self.running_mean = (1.0 - m) * self.running_mean + m * mu
            self.running_var = (1.0 - m) * self.running_var + m * var
        else:
            centered = x.data + (-self.running_mean)
            var = self.running_var
        std = np.sqrt(var + BN_EPS)
        normalized = centered / std

        def bw(g):
            # summed here, as _accum's unbroadcast would sum them
            if beta.requires_grad:
                beta._accum(g.sum(axis=0))
            if gamma.requires_grad:
                gamma._accum((g * normalized).sum(axis=0))
            if not x.requires_grad:
                return
            g_normalized = g * gamma.data
            g_centered = g_normalized / std
            x._accum(g_centered)
            if training:
                _backprop_batch_moments(
                    x, n, centered, std,
                    _unbroadcast(-g_normalized * centered / (std ** 2), std.shape),
                    -_unbroadcast(g_centered, mu.shape))

        return Tensor._op(normalized * gamma.data + beta.data, (x, gamma, beta), bw)

    def named_parameters(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


class Relu:
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def named_parameters(self) -> dict[str, Tensor]:
        return {}


class MlpNetwork:
    """Ordered layers with a train/eval flag and batch-norm input hooks.

    After each ``forward``, ``bn_inputs`` holds the input activation of every
    BatchNormLayer in layer order (one entry per BN site). The widths are read
    off the first and last (linear) layers; the first rejects another width.
    """

    def __init__(self, layers: list):
        self.layers = layers
        self.input_dim = layers[0].weight.shape[1]
        self.output_dim = layers[-1].weight.shape[0]
        self.training = True
        self.bn_inputs: list[Tensor] = []

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def forward(self, x: Tensor) -> Tensor:
        self.bn_inputs = []
        out = x
        for layer in self.layers:
            if isinstance(layer, BatchNormLayer):
                self.bn_inputs.append(out)
                out = layer.forward(out, self.training)
            else:
                out = layer.forward(out)
        return out

    def bn_layers(self) -> list[BatchNormLayer]:
        return [l for l in self.layers if isinstance(l, BatchNormLayer)]

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.named_parameters().values()]

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"layers.{i}.{k}": p for i, layer in enumerate(self.layers)
                for k, p in layer.named_parameters().items()}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {f"layers.{i}.{k}": b for i, layer in enumerate(self.layers)
                if isinstance(layer, BatchNormLayer) for k, b in layer.named_buffers().items()}


def make_mlp(input_dim: int, hidden: tuple[int, ...], output_dim: int,
             rng: np.random.Generator) -> MlpNetwork:
    """d -> hidden... -> output with BN+ReLU after each hidden linear layer."""
    layers: list = []
    prev = input_dim
    for width in hidden:
        layers.append(LinearLayer(prev, width, rng))
        layers.append(BatchNormLayer(width))
        layers.append(Relu())
        prev = width
    layers.append(LinearLayer(prev, output_dim, rng))
    return MlpNetwork(layers)


class ConditionalGenerator:
    """Maps (noise z, one-hot label y) to sample space via a label embedding."""

    def __init__(self, noise_dim: int, num_classes: int, sample_dim: int,
                 rng: np.random.Generator, embed_dim: int, hidden: tuple[int, ...]):
        self.embedding = Tensor(rng.normal(0.0, 1.0, size=(num_classes, embed_dim)),
                                requires_grad=True)
        self.body = make_mlp(noise_dim + embed_dim, hidden, sample_dim, rng)

    def train(self):
        self.body.train()
        return self

    def eval(self):
        self.body.eval()
        return self

    def forward(self, z: Tensor, y: Tensor) -> Tensor:
        """Precondition: ``y`` holds one-hot rows, as ``sample_noise_and_labels``
        builds them. The body rejects a ``z`` of the wrong width."""
        emb = y.matmul(self.embedding)
        return self.body.forward(concat_cols([z, emb]))

    def parameters(self) -> list[Tensor]:
        return [self.embedding] + self.body.parameters()


def _own_storage(params: list[Tensor]) -> np.ndarray:
    """Copy ``params`` into one contiguous buffer and rebind each ``p.data`` to
    its view of it, so one array operation updates them all."""
    if not params:
        raise ContractError("an optimizer needs at least one parameter")
    storage = np.concatenate([p.data.ravel() for p in params])
    start = 0
    for p in params:
        stop = start + p.data.size
        p.data = storage[start:stop].reshape(p.data.shape)
        start = stop
    return storage


def _gather_grads(params: list[Tensor], out: np.ndarray) -> np.ndarray:
    """Every parameter's gradient, in storage order, into ``out``; checks them
    all before anything is written."""
    grads = []
    for p in params:
        if p.grad is None:
            raise ContractError("optimizer step with unpopulated gradient")
        grads.append(p.grad.ravel())
    return np.concatenate(grads, out=out)


class SgdMomentum:
    """SGD with Nesterov momentum in the standard transformed-variable form:

        v <- mu * v + g
        p <- p - lr * (g + mu * v)

    This is the usual reformulation of lookahead Nesterov momentum that only
    needs the gradient at the current iterate. Weight decay is added to the
    gradient before the momentum update; at mu = 0 the step is plain SGD.

    The optimizer owns its parameters' storage: it copies them into one
    contiguous buffer and each ``p.data`` becomes a view of it, so a step is
    one in-place update over the buffer. Write into ``p.data`` in place;
    rebinding it detaches the parameter from the optimizer. Each element gets
    the IEEE operations a per-parameter loop would give it, in the same order.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float,
                 weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.storage = _own_storage(self.params)
        self.velocity = np.zeros_like(self.storage)
        self._grad = np.empty_like(self.storage)
        self._scratch = np.empty_like(self.storage)

    def step(self) -> None:
        g, tmp = _gather_grads(self.params, self._grad), self._scratch
        g += np.multiply(self.storage, self.weight_decay, out=tmp)
        if self.momentum != 0.0:
            v = self.velocity
            v *= self.momentum
            v += g
            g += np.multiply(v, self.momentum, out=tmp)
        g *= self.lr
        self.storage -= g


class AdamOptimizer:
    """Adam with bias correction. Like ``SgdMomentum``, it owns its
    parameters' storage (each ``p.data`` is a view of one buffer) and updates
    every element with one in-place pass of the rule."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.storage = _own_storage(self.params)
        self.m = np.zeros_like(self.storage)
        self.v = np.zeros_like(self.storage)
        self.t = 0
        self._grad = np.empty_like(self.storage)
        self._scratch = np.empty_like(self.storage)

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        g, tmp = _gather_grads(self.params, self._grad), self._scratch
        self.t += 1
        m, v = self.m, self.v
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp  # (1 - b2) * g * g
        m_hat = np.divide(m, 1.0 - b1 ** self.t, out=tmp)
        denom = np.divide(v, 1.0 - b2 ** self.t, out=g)  # g is spent: reuse it
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        m_hat *= self.lr
        m_hat /= denom
        self.storage -= m_hat  # lr * m_hat / (sqrt(v_hat) + eps)
