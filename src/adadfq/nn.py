"""MLP networks, batch normalization with running statistics, and optimizers.

The teacher, the student and the generator are all MlpNetworks. The student
has the teacher's layers with fake-quantized stand-ins (see ``quant.py``);
the generator puts a label embedding in front of its own layers to map
(noise, one-hot label) to sample space. All parameters are plain
:class:`~adadfq.tensor.Tensor` leaves.

Layer protocol: a network's one node builder is ``bn_relu_linear``, which
runs a batch norm -> ReLU -> linear block, or a lone linear layer, as one
graph node. It reaches the layers through three hooks that build no node:
``BatchNormLayer._normalize``, ``LinearLayer._weight_array`` and
``LinearLayer._activate``. A quantized layer overrides the last two, and a
fixed-statistics batch norm the first. Masks are backward-only state: the
block builds its ReLU mask, and asks ``_activate`` for the output's mask,
only when its node records (``tensor.records``). Every layer also has
``named_parameters()`` (its own, unprefixed names), and batch norm has
``named_buffers()``. An ``MlpNetwork`` is its linear layers and the batch
norms between them; ``forward``, the package's one layer walk, runs the
first linear layer, then each (batch norm, linear) pair as one block, with
the network's train/eval flag, which each layer reads its own way: batch
norm picks batch or running statistics, a quantized linear observes its
activation range, and a linear layer ignores it. A caller that needs the
batch norms' inputs passes ``forward`` a list to append them to. Checkpoint
names keep the format's first, flat layout (``layer_prefix``).

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

from .errors import ContractError, DimensionError
from .tensor import Tensor, concat_cols, records

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class LinearLayer:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(out_dim, in_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    # The two hooks of ``bn_relu_linear``; a quantized layer overrides both.

    def _weight_array(self) -> np.ndarray:
        """The weight the product uses."""
        return self.weight.data

    def _activate(self, out: np.ndarray, training: bool,
                  recording: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """The layer's output from its product, and the mask the output's
        gradient passes through (None: all of it, or a node that does not
        record, whose backward never runs)."""
        return out, None

    def named_parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


def _batch_moments(x: np.ndarray):
    """Row count, column means, centred rows and biased column variances."""
    n = float(x.shape[0])
    mu = np.add.reduce(x, axis=0) / n
    centered = x + (-mu)
    return n, mu, centered, np.add.reduce(centered ** 2, axis=0) / n


def _backprop_batch_moments(x: Tensor, n: float, centered: np.ndarray, std: np.ndarray,
                            g_std: np.ndarray, g_mu: np.ndarray) -> None:
    """Route the gradients of ``std = sqrt(var + BN_EPS)`` and of the batch mean
    into ``x``. Adds to ``x`` as the unfused graph did: the variance's
    centring first, then the mean's column sum."""
    g_sq_sum = g_std * 0.5 / std / n
    g_centered = g_sq_sum * 2 * centered
    x._accum(g_centered)
    g_mu = g_mu + -np.add.reduce(g_centered, axis=0)
    x._accum(np.broadcast_to(g_mu / n, centered.shape))


class BatchNormLayer:
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def _normalize(self, x: Tensor, training: bool):
        """``(x - mu) / sqrt(var + BN_EPS) * gamma + beta`` as an array, and
        the routine that takes its gradient into ``beta``, ``gamma`` and
        ``x``, in that order. ``mu`` and ``var`` are the batch's (folded into
        the running statistics) in training and the running statistics in
        eval."""
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
                beta._accum(np.add.reduce(g, axis=0))
            if gamma.requires_grad:
                gamma._accum(np.add.reduce(g * normalized, axis=0))
            if not x.requires_grad:
                return
            g_normalized = g * gamma.data
            g_centered = g_normalized / std
            x._accum(g_centered)
            if training:
                _backprop_batch_moments(
                    x, n, centered, std,
                    np.add.reduce(-g_normalized * centered / (std ** 2), axis=0),
                    -np.add.reduce(g_centered, axis=0))

        return normalized * gamma.data + beta.data, bw

    def named_parameters(self) -> dict[str, Tensor]:
        return {"gamma": self.gamma, "beta": self.beta}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}


def _relu(h: np.ndarray) -> np.ndarray:
    """``np.where(h > 0.0, h, 0.0)``, bit for bit, without its branch:
    ``fmax`` maps NaN to 0.0 but may keep ``-0.0``, which ``+ 0.0`` makes
    ``+0.0`` (see ``tensor``'s hot-path notes)."""
    r = np.fmax(h, 0.0)
    r += 0.0
    return r


def bn_relu_linear(bn: BatchNormLayer | None, layer: LinearLayer, x: Tensor,
                   training: bool) -> Tensor:
    """``layer`` after ``bn`` and a ReLU as one node; with ``bn`` None, just
    ``layer`` (``x @ w.T + b``). Each layer acts through its hooks
    (``BatchNormLayer._normalize``, ``LinearLayer._weight_array`` and
    ``_activate``). The backward masks the output gradient, routes it into the
    bias, then back through the ReLU into the batch norm's ``beta``, ``gamma``
    and ``x`` (or straight into ``x``), and last into the weight.

    The masks (the ReLU's ``h > 0.0`` and the layer's output mask) are built
    only when the node ``records``; a block under ``no_grad`` or over frozen
    inputs gives the same output bytes and builds neither."""
    weight, bias = layer.weight, layer.bias
    parents = (x, weight, bias) if bn is None else (x, bn.gamma, bn.beta, weight, bias)
    recording = records(parents)
    if bn is None:
        r = x.data
        if r.ndim != 2 or r.shape[1] != weight.data.shape[1]:
            raise DimensionError(f"linear expects a 2-D input of width "
                                 f"{weight.data.shape[1]}, got {r.shape}")
    else:
        h, bn_bw = bn._normalize(x, training)
        positive = h > 0.0 if recording else None
        r = _relu(h)
    w = layer._weight_array()
    out, out_mask = layer._activate(r @ w.T + bias.data, training, recording)

    def bw(g):
        if out_mask is not None:
            g = g * out_mask
        if bias.requires_grad:
            bias._accum(np.add.reduce(g, axis=0))
        if bn is None:
            if x.requires_grad:
                x._accum(g @ w)
        elif x.requires_grad or bn.gamma.requires_grad or bn.beta.requires_grad:
            bn_bw((g @ w) * positive)
        if weight.requires_grad:
            weight._accum((r.T @ g).T)

    return Tensor._op(out, parents, bw)


def layer_prefix(k: int, norm: bool = False) -> str:
    """The checkpoint prefix of linear layer ``k``, ``layers.{3k}.``, or with
    ``norm`` of batch norm ``k``, ``layers.{3k+1}.``; ``3k+2`` was a ReLU's."""
    return f"layers.{3 * k + int(norm)}."


class MlpNetwork:
    """Linear layers, a batch norm and a ReLU before each but the first, and a
    train/eval flag. The first layer's width is the input's; it rejects another."""

    def __init__(self, linears: list[LinearLayer], bn_layers: list[BatchNormLayer]):
        self.linears, self.bn_layers = linears, bn_layers
        self.input_dim = linears[0].weight.shape[1]
        self.output_dim = linears[-1].weight.shape[0]
        self.training = True

    def train(self):
        self.training = True
        return self

    def eval(self):
        self.training = False
        return self

    def forward(self, x: Tensor, bn_inputs: list[Tensor] | None = None) -> Tensor:
        """One ``bn_relu_linear`` node per linear layer; each batch norm's input
        is appended to ``bn_inputs``, if one is given."""
        linears, training = self.linears, self.training
        x = bn_relu_linear(None, linears[0], x, training)
        for bn, layer in zip(self.bn_layers, linears[1:]):
            if bn_inputs is not None:
                bn_inputs.append(x)
            x = bn_relu_linear(bn, layer, x, training)
        return x

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def named_parameters(self) -> dict[str, Tensor]:
        """Each layer's parameters under its ``layer_prefix``, in the walk's
        order: linear layer k, then batch norm k."""
        layers = [(layer_prefix(0), self.linears[0])]
        for k, (bn, layer) in enumerate(zip(self.bn_layers, self.linears[1:])):
            layers += [(layer_prefix(k, norm=True), bn), (layer_prefix(k + 1), layer)]
        return {prefix + name: p for prefix, layer in layers
                for name, p in layer.named_parameters().items()}

    def named_buffers(self) -> dict[str, np.ndarray]:
        return {layer_prefix(k, norm=True) + name: b for k, bn in enumerate(self.bn_layers)
                for name, b in bn.named_buffers().items()}


def make_mlp(input_dim: int, hidden: tuple[int, ...], output_dim: int,
             rng: np.random.Generator) -> MlpNetwork:
    """d -> hidden... -> output with BN+ReLU after each hidden linear layer."""
    dims = [input_dim, *hidden, output_dim]
    return MlpNetwork([LinearLayer(a, b, rng) for a, b in zip(dims, dims[1:])],
                      [BatchNormLayer(width) for width in hidden])


class ConditionalGenerator(MlpNetwork):
    """Maps (noise z, one-hot label y) to sample space: the label's embedding
    row is appended to ``z`` and the result walks the MLP's layers."""

    def __init__(self, noise_dim: int, num_classes: int, sample_dim: int,
                 rng: np.random.Generator, embed_dim: int, hidden: tuple[int, ...]):
        self.embedding = Tensor(rng.normal(0.0, 1.0, size=(num_classes, embed_dim)),
                                requires_grad=True)
        body = make_mlp(noise_dim + embed_dim, hidden, sample_dim, rng)
        super().__init__(body.linears, body.bn_layers)

    def forward(self, z: Tensor, y: Tensor) -> Tensor:
        """Precondition: ``y`` holds one-hot rows, as ``sample_noise_and_labels``
        builds them. The first layer rejects a ``z`` of the wrong width."""
        return super().forward(concat_cols([z, y.matmul(self.embedding)]))

    def named_parameters(self) -> dict[str, Tensor]:
        return {"embedding": self.embedding, **super().named_parameters()}


def _views(buffer: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``buffer``, one shaped like each parameter."""
    views, start = [], 0
    for p in params:
        stop = start + p.data.size
        views.append(buffer[start:stop].reshape(p.data.shape))
        start = stop
    return views


def _own_storage(params: list[Tensor]) -> np.ndarray:
    """Copy ``params`` into one contiguous buffer and rebind each ``p.data`` to
    its view of it, so one array operation updates them all."""
    if not params:
        raise ContractError("an optimizer needs at least one parameter")
    storage = np.concatenate([p.data.ravel() for p in params])
    for p, view in zip(params, _views(storage, params)):
        p.data = view
    return storage


def _gather_grads(params: list[Tensor], views: list[np.ndarray]) -> None:
    """Move every parameter's gradient into its view of an optimizer's
    gradient buffer (``_views``): copied once, whatever its memory order, then
    cleared from ``p.grad``. Checks them all before anything is written."""
    for p in params:
        if p.grad is None:
            raise ContractError("optimizer step with unpopulated gradient")
    for p, view in zip(params, views):
        view[...] = p.grad
        p.grad = None


class _Optimizer:
    """What both optimizers hold. An optimizer owns its parameters' storage:
    it copies them into one contiguous buffer and each ``p.data`` becomes a
    view of it, so a step is one in-place update over the buffer. Write into
    ``p.data`` in place; rebinding it detaches the parameter from the optimizer.
    A step takes the gradients it applies, so none is held between steps."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.storage = _own_storage(self.params)
        self._grad = np.empty_like(self.storage)
        self._grad_views = _views(self._grad, self.params)
        self._scratch = np.empty_like(self.storage)


class SgdMomentum(_Optimizer):
    """SGD with Nesterov momentum in the standard transformed-variable form:

        v <- mu * v + g
        p <- p - lr * (g + mu * v)

    This is the usual reformulation of lookahead Nesterov momentum that only
    needs the gradient at the current iterate. Weight decay is added to the
    gradient before the momentum update; at mu = 0 the step is plain SGD.
    Each element gets the IEEE operations a per-parameter loop would give
    it, in the same order.
    """

    def __init__(self, params: list[Tensor], lr: float, momentum: float,
                 weight_decay: float):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(self.storage)

    def step(self) -> None:
        _gather_grads(self.params, self._grad_views)
        g, tmp = self._grad, self._scratch
        g += np.multiply(self.storage, self.weight_decay, out=tmp)
        if self.momentum != 0.0:
            v = self.velocity
            v *= self.momentum
            v += g
            g += np.multiply(v, self.momentum, out=tmp)
        g *= self.lr
        self.storage -= g


class AdamOptimizer(_Optimizer):
    """Adam with bias correction; updates every element with one in-place pass of the rule."""

    def __init__(self, params: list[Tensor], lr: float):
        super().__init__(params, lr)
        self.m = np.zeros_like(self.storage)
        self.v = np.zeros_like(self.storage)
        self.t = 0

    def step(self) -> None:
        b1, b2 = ADAM_BETAS
        _gather_grads(self.params, self._grad_views)
        g, tmp = self._grad, self._scratch
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
