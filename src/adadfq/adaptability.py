"""Disagreement/agreement statistics and the two players' objectives.

Core quantities, for teacher logits ``z_p`` and student logits ``z_q`` (one
row per sample; the class count ``C`` is read off their width):

* ``p_ds = softmax(z_p - z_q)`` encodes how much the two networks disagree
  about a sample; ``p_as = softmax(z_p + z_q)`` encodes their agreement.
* The per-sample entropy of ``p_ds`` (natural log; the normalization divides
  the base out anyway) is rescaled to ``h' = (h - batch_min) / (ln C -
  batch_min)``, so ``h' = 1`` means the student perfectly tracks the teacher
  and small ``h'`` means a large gap. The batch minimum is detached from the
  gradient graph: differentiating through a batch-argmin couples samples
  discontinuously, and per-sample gradients stay well-defined without it.
* Note the closed endpoint: the batch-min sample maps to exactly ``h' = 0``.

The generator's score (to be maximized) keeps ``h'`` inside a margin
``[lambda_l, lambda_u]`` via two hinge penalties, pulls generated samples
toward their conditioning label through cross-entropy on both ``p_ds`` and
``p_as``, and anchors batch statistics to the teacher's stored batch-norm
running statistics. The student's calibration loss (to be minimized) is the
batch mean of ``1 - h'``. Both objectives take ``h'``, as the paper defines
them; the caller computes it once per batch and reads its statistics off it.

A degenerate batch, one whose every entropy sits at ln C (a student that
tracks the teacher exactly, as at wide bit widths), has ``h' = 0`` with a
zero gradient, joined to the graph. The calibration loss is then 1 and the
student's step applies only momentum and weight decay. The generator's
margin term is constant on such a batch, so only the ``beta`` and ``gamma``
terms move it.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .nn import BN_EPS, BatchNormLayer, _backprop_batch_moments, _batch_moments
from .tensor import Tensor, _shifted_exp, cross_entropy_from_logits, softmax_entropy

DISAGREEMENT = "disagreement"
AGREEMENT = "agreement"
TEACHER_WRONG = "teacher_wrong"

_DEGENERATE_EPS = 1e-12


def disagreement_vector(z_p: Tensor, z_q: Tensor) -> Tensor:
    """``p_ds = softmax(z_p - z_q)`` row by row, as a constant (no graph)."""
    _, e, s = _shifted_exp(z_p - z_q, "softmax")
    return Tensor(e / s)


def info_entropy(p: Tensor) -> Tensor:
    """Per-row Shannon entropy in nats, with 0*log(0) taken as 0.
    Precondition: every row of ``p`` is a distribution; the package only
    passes softmax outputs, so rows are not re-scanned."""
    pd = p.data
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(pd > 0.0, np.log(np.where(pd > 0.0, pd, 1.0)), 0.0)
    out_data = -(pd * logp).sum(axis=-1)

    def bw(g):
        # dH/dp = -(log p + 1); zero where p == 0 (boundary of the simplex).
        d = np.where(pd > 0.0, -(logp + 1.0), 0.0)
        p._accum(np.expand_dims(g, -1) * d)

    return Tensor._op(out_data, (p,), bw)


def normalize_entropy(h_info: Tensor, num_classes: int) -> Tensor:
    """Rescale entropies to [0, 1] against the uniform maximum ln C.

    The minimum is taken over the batch and treated as a constant. If the
    whole batch already sits at the maximum, returns all zeros rather than
    dividing by zero: ``h_info * 0.0``, so a loss built on them still reaches
    every parameter behind ``h_info``, with a zero gradient.
    """
    h_max = float(np.log(num_classes))
    h_min = float(np.minimum.reduce(h_info.data, axis=None))
    denom = h_max - h_min
    if denom < _DEGENERATE_EPS:
        return h_info * 0.0
    return (h_info - h_min) / denom


def disagreement_entropy(z_p: Tensor, z_q: Tensor) -> Tensor:
    """The entropy of each row of ``softmax(z_p - z_q)``, as one node."""
    return softmax_entropy(z_p - z_q)


def classify_samples(z_p: np.ndarray, z_q: np.ndarray, y: np.ndarray) -> list[str]:
    """Label each sample disagreement / agreement / teacher_wrong.

    Agreement takes precedence (same argmax for teacher and student);
    disagreement additionally needs the teacher to predict the conditioning
    label. Argmax ties break toward the lowest class index.
    """
    p_hat = np.argmax(z_p, axis=1)
    q_hat = np.argmax(z_q, axis=1)
    y_hat = np.argmax(y, axis=1)
    out = []
    for p_c, q_c, y_c in zip(p_hat, q_hat, y_hat):
        if p_c == q_c:
            out.append(AGREEMENT)
        elif p_c == y_c:
            out.append(DISAGREEMENT)
        else:
            out.append(TEACHER_WRONG)
    return out


def loss_ds(z_p: Tensor, z_q: Tensor, y: Tensor) -> Tensor:
    """Cross-entropy between p_ds and the conditioning label.

    Computed in logit space (log-softmax of z_p - z_q) for stability; this is
    mathematically -ln p_ds[y].
    """
    return cross_entropy_from_logits(z_p - z_q, y)


def loss_as(z_p: Tensor, z_q: Tensor, y: Tensor) -> Tensor:
    return cross_entropy_from_logits(z_p + z_q, y)


def loss_bal(l_ds: Tensor, l_as: Tensor, alpha_ds: float, alpha_as: float) -> Tensor:
    """``alpha_ds * l_ds + alpha_as * l_as``. Precondition: both weights are
    non-negative (``RunConfig`` checks them)."""
    return alpha_ds * l_ds + alpha_as * l_as


def margin_terms(h_prime: Tensor, lambda_l: float, lambda_u: float) -> Tensor:
    """Hinge penalties keeping h' inside [lambda_l, lambda_u].

    Batch mean of -max(lambda_l - h', 0) - max(h' - lambda_u, 0); zero iff
    every sample lies inside the margin. Subgradient at either kink is 0.
    Precondition: ``0 <= lambda_l < lambda_u <= 1`` (``RunConfig`` checks it).
    """
    lower = (lambda_l - h_prime).relu()
    upper = (h_prime - lambda_u).relu()
    return (-lower - upper).mean()


def loss_bns(bn_inputs: list[Tensor], bn_layers: list[BatchNormLayer]) -> Tensor:
    """Squared distance between batch statistics and stored running statistics.

    Per BN site: ||mean_batch - running_mean||^2 + ||std_batch - running_std||^2,
    where both stds come from biased variances, square-rooted with batch norm's
    ``BN_EPS`` guard (so the distance stays differentiable at zero variance).
    Preconditions: ``bn_inputs`` is what one network's ``forward`` appended
    to the list it was given and ``bn_layers`` that network's, and each batch
    has at least 2 rows (``RunConfig`` checks ``batch_size >= 2``).

    One node over all sites; the sum runs in site order as
    ``(total + mean term) + std term``.
    """
    total = 0.0
    sites = []
    for x, layer in zip(bn_inputs, bn_layers):
        n, mu, centered, var = _batch_moments(x.data)
        std = np.sqrt(var + BN_EPS)
        d_mean = mu + (-layer.running_mean)
        d_std = std + (-np.sqrt(layer.running_var + BN_EPS))
        total = (total + np.add.reduce(d_mean ** 2, axis=None)
                 + np.add.reduce(d_std ** 2, axis=None))
        sites.append((x, n, centered, std, d_mean, d_std))

    def bw(g):
        for x, n, centered, std, d_mean, d_std in sites:
            if x.requires_grad:
                _backprop_batch_moments(x, n, centered, std, g * 2 * d_std, g * 2 * d_mean)

    return Tensor._op(total, tuple(bn_inputs), bw)


def generator_objective(h_prime: Tensor, z_p: Tensor, z_q: Tensor, y: Tensor,
                        bn_inputs: list[Tensor], bn_layers: list[BatchNormLayer],
                        hp: RunConfig) -> Tensor:
    """Scalar the generator ascends; the training loop minimizes its negation.

    ``h_prime`` is the normalized disagreement entropy of ``z_p`` and ``z_q``;
    ``hp`` is the run configuration, and the objective reads the paper's six
    hyperparameters off it: the margin bounds ``lambda_l``/``lambda_u``, the
    balance weights ``alpha_ds``/``alpha_as`` and the term weights ``beta``
    (balance) and ``gamma`` (BN statistics). A zero weight drops its term.
    """
    score = margin_terms(h_prime, hp.lambda_l, hp.lambda_u)
    if hp.beta != 0.0:
        bal = loss_bal(loss_ds(z_p, z_q, y), loss_as(z_p, z_q, y),
                       hp.alpha_ds, hp.alpha_as)
        score = score - hp.beta * bal
    if hp.gamma != 0.0:
        score = score - hp.gamma * loss_bns(bn_inputs, bn_layers)
    return score


def calibration_objective(h_prime: Tensor) -> Tensor:
    """Batch mean of 1 - h'; minimizing drags the student's logits toward the
    teacher's (h' -> 1 needs p_ds -> uniform, i.e. z_q -> z_p up to a shift).

    The caller must ensure only the student carries gradient (generator frozen).
    """
    return (1.0 - h_prime).mean()
