"""The alternating zero-sum optimization loop and its trajectory metrics.

Each iteration plays two half-steps. (a) With the student fixed, the
generator takes one ascent step on its objective over a fresh (noise, label)
batch. (b) With the updated generator frozen, the student takes one descent
step on the calibration loss over a second fresh batch; reusing the
generator's batch would couple the two objectives' expectations, so each
player gets its own draw. The teacher is never touched: ``run_game`` freezes
its parameters, so gradients flow through it to the samples but no teacher
weight gradient is computed.

The trajectory gains are measured on unnormalized disagreement entropy
H_info(p_ds): delta_g is the change in the batch mean across the generator's
parameter update (re-evaluated on the same batch (a)), delta_q the change
across the student's update on batch (b). Near equilibrium the two roughly
cancel. Measurement forwards run in eval mode under ``no_grad`` and mutate
nothing; each pre measurement is taken after the training forward (which
folds the batch into BN running statistics or activation-range EMAs) and
immediately before the optimizer step, so a delta reflects the parameter
update alone and a zero learning rate yields a delta of exactly zero. The
student's pair reuses step (b)'s eval-mode sample and teacher logits, which
the student's update leaves as they are. Its pre measurement needs no
forward of its own: the student's training forward observes each
activation range before it quantizes with that range, and its batch norm
always uses the copied running statistics, so step (b)'s training logits
are the eval-mode logits bit for bit. An iteration thus runs four
generator, four teacher and five student forwards. Only step (a)'s teacher
forward records its batch-norm inputs, because the generator's objective
reads them; every other forward passes ``record_bn_inputs`` False, so
no network keeps a graph that nothing reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .adaptability import (
    calibration_objective,
    classify_samples,
    disagreement_entropy,
    generator_objective,
    normalized_disagreement_entropy,
)
from .config import RunConfig
from .data import SeededRng, sample_noise_and_labels
from .errors import ContractError, NumericError
from .nn import AdamOptimizer, ConditionalGenerator, MlpNetwork, SgdMomentum
from .quant import QuantizedMlp
from .tensor import Tensor, backward, cross_entropy_from_logits, no_grad, zero_grads


@dataclass
class TraceRow:
    iter: int
    epoch: int
    loss_gen: float
    loss_cal: float
    h_info_pre_g: float
    h_info_post_g: float
    delta_g: float
    h_info_pre_q: float
    h_info_post_q: float
    delta_q: float
    n_disagree: int
    n_agree: int
    n_teacher_wrong: int
    hprime_min: float
    hprime_mean: float
    hprime_max: float
    hprime_frac_in: float  # fraction of the batch inside [lambda_l, lambda_u]

    def as_dict(self):
        """The fields in declaration order; they are all scalars, so no
        deep copy (``dataclasses.asdict``) is needed."""
        return dict(vars(self))


TRACE_FIELDS = [f.name for f in fields(TraceRow)]


def _eval_sample(g: ConditionalGenerator, p: MlpNetwork,
                 z: Tensor, y: Tensor) -> tuple[Tensor, Tensor]:
    """Samples for (z, y) and the teacher's logits on them, as constants."""
    with no_grad():
        x = g.forward(z, y)
        return x, p.forward(x, False)


def _batch_mean_entropy(z_p: Tensor, z_q: Tensor) -> float:
    """Batch-mean H_info(p_ds) of the logits pair; records no graph."""
    with no_grad():
        return float(disagreement_entropy(z_p, z_q).data.mean())


def _mean_disagreement_entropy(x: Tensor, z_p: Tensor, q: QuantizedMlp) -> float:
    """Batch-mean H_info(p_ds) of the eval-mode student on ``x`` against the
    teacher's logits ``z_p``; records no graph and mutates nothing."""
    with no_grad():
        z_q = q.forward(x, False)
    return _batch_mean_entropy(z_p, z_q)


def game_iteration(g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
                   gen_opt: AdamOptimizer, cal_opt: SgdMomentum,
                   config: RunConfig, rng: SeededRng, iteration: int) -> TraceRow:
    """One generator ascent step plus one student calibration step."""
    num_classes = p.output_dim

    # ---- (a) generator step ------------------------------------------------
    z1, y1 = sample_noise_and_labels(rng, config.batch_size, config.noise_dim, num_classes)

    q.eval()
    p.eval()
    g.train()
    # The student is frozen for this step, as run_game freezes the teacher:
    # gradients flow through it to x, and none is kept for its parameters,
    # which step (b) would zero anyway.
    q_params = q.parameters()
    for param in q_params:
        param.requires_grad = False
    try:
        x = g.forward(z1, y1)
        if not np.logical_and.reduce(np.isfinite(x.data), axis=None):
            raise NumericError(f"non-finite generated samples at iteration {iteration}")
        z_p = p.forward(x)  # records the bn_inputs the objective reads
        z_q = q.forward(x, False)
        score = generator_objective(z_p, z_q, y1, p.bn_inputs, p.bn_layers(), config)
        gen_loss = -score
        if not np.isfinite(gen_loss.data):
            raise NumericError(
                f"non-finite generator loss at iteration {iteration}: {float(gen_loss.data)}"
            )

        # The pre/post pair brackets only the optimizer step: the training
        # forward above has already folded this batch into the generator's
        # running statistics, so the difference below is purely the parameter
        # update (and is exactly zero at a zero learning rate).
        g.eval()
        h_pre_g = _mean_disagreement_entropy(*_eval_sample(g, p, z1, y1), q)
        zero_grads(g.parameters())
        backward(gen_loss)
    finally:
        for param in q_params:
            param.requires_grad = True
    gen_opt.step()
    h_post_g = _mean_disagreement_entropy(*_eval_sample(g, p, z1, y1), q)

    # per-sample diagnostics from the training batch, before the student moves
    with no_grad():
        h_prime = normalized_disagreement_entropy(z_p, z_q)
    kinds = classify_samples(z_p.data, z_q.data, y1.data)

    # ---- (b) student calibration step --------------------------------------
    z2, y2 = sample_noise_and_labels(rng, config.batch_size, config.noise_dim, num_classes)
    x2, z_p2 = _eval_sample(g, p, z2, y2)  # shared with the measurement pair
    if not np.logical_and.reduce(np.isfinite(x2.data), axis=None):
        raise NumericError(f"non-finite generated samples at iteration {iteration}")

    q.train()
    z_q2 = q.forward(x2, False)  # observes this batch into the activation-range EMAs
    cal_loss = calibration_objective(z_p2, z_q2)
    if config.aux_ce != 0.0:
        cal_loss = cal_loss + config.aux_ce * cross_entropy_from_logits(z_q2, y2)
    if not np.isfinite(cal_loss.data):
        raise NumericError(
            f"non-finite calibration loss at iteration {iteration}: {float(cal_loss.data)}"
        )

    # As above: ranges are already observed, so the pair isolates the descent
    # step on the latent weights. The training logits are the eval-mode ones
    # (see the module docstring), so the pre measurement reads them.
    q.eval()
    h_pre_q = _batch_mean_entropy(z_p2, z_q2)
    zero_grads(q.parameters())
    backward(cal_loss)
    cal_opt.step()
    h_post_q = _mean_disagreement_entropy(x2, z_p2, q)

    return TraceRow(
        iter=iteration,
        epoch=iteration // config.iterations_per_epoch,
        loss_gen=float(gen_loss.data),
        loss_cal=float(cal_loss.data),
        h_info_pre_g=h_pre_g,
        h_info_post_g=h_post_g,
        delta_g=h_post_g - h_pre_g,
        h_info_pre_q=h_pre_q,
        h_info_post_q=h_post_q,
        delta_q=h_post_q - h_pre_q,
        n_disagree=kinds.count("disagreement"),
        n_agree=kinds.count("agreement"),
        n_teacher_wrong=kinds.count("teacher_wrong"),
        hprime_min=float(h_prime.data.min()),
        hprime_mean=float(h_prime.data.mean()),
        hprime_max=float(h_prime.data.max()),
        hprime_frac_in=float(
            ((h_prime.data >= config.lambda_l) & (h_prime.data <= config.lambda_u)).mean()
        ),
    )


def run_game(g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
             config: RunConfig, row_callback=None) -> list[TraceRow]:
    """Run the full alternation; deterministic given the config seed.

    Reads the game's settings straight off the run configuration: ``epochs``
    times ``iterations_per_epoch`` iterations over batches of ``batch_size``
    noise vectors of width ``noise_dim``; Adam at ``gen_lr`` for the
    generator; SGD with ``cal_lr``, ``cal_momentum`` and ``cal_weight_decay``
    for the student, whose calibration loss adds ``aux_ce`` times the label
    cross-entropy; the six paper hyperparameters for the generator's
    objective; and ``seed`` for the noise and label streams. The other keys
    (dataset, teacher, generator architecture, bit width) are the caller's.

    Freezes the teacher's parameters for good. ``row_callback``, when
    given, receives each TraceRow as it is produced so long runs can stream
    their trace to disk.
    """
    rng = SeededRng(config.seed)
    gen_opt = AdamOptimizer(g.parameters(), lr=config.gen_lr)
    cal_opt = SgdMomentum(q.parameters(), lr=config.cal_lr,
                          momentum=config.cal_momentum,
                          weight_decay=config.cal_weight_decay)
    p.eval()
    for param in p.parameters():
        param.requires_grad = False
        param.zero_grad()
    trace: list[TraceRow] = []
    total = config.epochs * config.iterations_per_epoch
    for i in range(total):
        row = game_iteration(g, p, q, gen_opt, cal_opt, config, rng, i)
        trace.append(row)
        if row_callback is not None:
            row_callback(row)
    return trace


@dataclass
class EquilibriumReport:
    window: int
    mean_delta_g: float
    mean_delta_q: float
    mean_delta_sum: float
    mean_abs_delta_g: float
    equilibrium: bool
    hprime_min: float
    hprime_mean: float
    hprime_max: float
    hprime_frac_in: float  # fraction of the batch inside [lambda_l, lambda_u]
    underfit: bool

    def as_dict(self):
        return asdict(self)


def equilibrium_report(trace: list[TraceRow], window: int) -> EquilibriumReport:
    """Windowed summary over the last ``window`` iterations.

    The equilibrium flag checks that the generator's and student's entropy
    gains cancel: |mean(delta_g + delta_q)| < 0.25 * mean(|delta_g|).
    Underfit: the calibration loss stays high (> 0.5) and flat across the
    window (the means of its two halves differ by < 0.05; a one-row window
    has no halves and is never flat). Every figure comes from the trace alone.
    """
    if not trace:
        raise ContractError("equilibrium_report needs a non-empty trace")
    if window > len(trace) or window < 1:
        raise ContractError(f"window {window} out of range for trace of {len(trace)}")
    rows = trace[-window:]
    dg = np.array([r.delta_g for r in rows])
    dq = np.array([r.delta_q for r in rows])
    cal = np.array([r.loss_cal for r in rows])
    hprime = np.array([[r.hprime_min, r.hprime_mean, r.hprime_max] for r in rows])
    frac_in = float(np.mean([r.hprime_frac_in for r in rows]))

    mean_abs_dg = float(np.abs(dg).mean())
    mean_sum = float((dg + dq).mean())
    equilibrium = abs(mean_sum) < 0.25 * mean_abs_dg if mean_abs_dg > 0 else True

    half = window // 2
    flat = window >= 2 and abs(float(cal[:half].mean()) - float(cal[half:].mean())) < 0.05
    underfit = bool(float(cal.mean()) > 0.5 and flat)

    return EquilibriumReport(
        window=window,
        mean_delta_g=float(dg.mean()),
        mean_delta_q=float(dq.mean()),
        mean_delta_sum=mean_sum,
        mean_abs_delta_g=mean_abs_dg,
        equilibrium=equilibrium,
        hprime_min=float(hprime[:, 0].min()),
        hprime_mean=float(hprime[:, 1].mean()),
        hprime_max=float(hprime[:, 2].max()),
        hprime_frac_in=frac_in,
        underfit=underfit,
    )
