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

Where the forwards run. The generator's pair, h_info_pre_g and
h_info_post_g, feeds only the trace, so ``run_game`` hands it to a worker
on another core: a child process forked from the game, ``_TraceWorker``.
The parent runs the training forwards, step (b)'s sample and the student's
post measurement: two generator, two teacher and three student forwards
per iteration. The worker runs the pair: two of each. Its life:

* *fork*: lazily, at the first hand-off inside ``game_iteration``, so the
  child is a copy-on-write image of the players and no network is pickled;
* *hand-off*: each iteration the parent copies into one shared anonymous
  ``mmap`` what the game moved since: the generator's Adam storage and BN
  running statistics, ``z1`` and ``y1``, and the student's SGD storage,
  activation ranges and bit widths. It then writes a command byte on a
  pipe. After the generator's step it copies the new Adam storage into the
  same place, once the child has taken the old one out. The child runs the
  same functions on the same state, so every output byte is the in-process
  path's;
* *collect*: the parent reads the two floats back before it builds the
  row. An ``AdadfqError`` the child raised is raised in the parent with
  its class and message, and it takes the place of an error the parent
  raised later in the same iteration, as the in-process order would;
  a child that ends without a reply is a ``WorkerError``;
* *reaping*: ``run_game`` closes the command pipe in a ``finally`` (the
  child reads EOF and leaves through ``os._exit``) and waits for it, after
  success, an error, or an error from ``row_callback``.

The child ignores SIGINT (blocked across the fork, so a Ctrl-C cannot
reach it before), writes nothing but its replies, imports nothing and
never returns into the caller's code. ``run_game`` forks only where the
fork is safe and has a core to run on: on Linux, in a process of one OS
thread (native threads such as a BLAS pool count; ``perfbench`` pins BLAS
to one thread, an unpinned numpy starts a pool), when fewer tasks are
runnable than there are CPUs in its affinity mask (on one CPU, or beside
another busy run, the fork only adds work). It decides once per run.
Otherwise, and whenever ``game_iteration`` is called without a worker,
the pair is measured in-process, which is the reference the worker is
tested against. The rows match it as long as ``row_callback`` changes
only what the worker mirrors; a callback that changes the teacher, the
student's copied batch-norm statistics, or swaps a parameter's array for
another is not seen by the worker.
"""

from __future__ import annotations

import os
import sys
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
from .errors import AdadfqError, ContractError, NumericError, WorkerError
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


# Bytes read from the reply pipe at once; an error report is cut to this size,
# which is within PIPE_BUF, so the child writes it in one piece.
_REPLY_BYTES = 4096


class _TraceWorker:
    """The forked child that measures h_info_pre_g and h_info_post_g (see the
    module docstring). Commands on the pipe: ``a`` (the pre state is in the
    slot) and ``b`` (the post Adam storage is). Replies: ``k`` (the child has
    copied the pre state out), ``r`` (both floats are in the slot), or ``e``
    and a report, after which the child ignores commands until EOF."""

    def __init__(self):
        self._pid: int | None = None  # forked at the first hand-off
        self._in_flight = False  # handed over, not yet collected

    def hand_pre(self, g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
                 z: Tensor, y: Tensor, gen_opt: AdamOptimizer, cal_opt: SgdMomentum) -> None:
        """Hand over the state h_info_pre_g reads; forks at the first call."""
        if self._pid is None:
            self._start(g, p, q, z, y, gen_opt, cal_opt)
        np.copyto(self._gen, gen_opt.storage)
        for bn, (mean, var) in zip(g.bn_layers(), self._stats):
            np.copyto(mean, bn.running_mean)
            np.copyto(var, bn.running_var)
        np.copyto(self._z, z.data)
        np.copyto(self._y, y.data)
        np.copyto(self._student, cal_opt.storage)
        for pair, st in zip(self._ranges, q.act_states()):
            # NaN for a site without a range: has_range is then False, as for None
            pair[...] = (st.observed_min, st.observed_max) if st.has_range else np.nan
        self._bits[:] = [layer.bits for layer in q.quant_linears()]
        self._send(b"a")
        self._in_flight = True

    def hand_post(self, gen_opt: AdamOptimizer) -> None:
        """Hand over the Adam storage after the generator's step."""
        self._receive(b"k")  # the slot's pre storage is no longer read
        np.copyto(self._gen, gen_opt.storage)
        self._send(b"b")

    def collect(self) -> tuple[float, float]:
        """h_info_pre_g and h_info_post_g of the iteration handed over."""
        self._receive(b"r")
        self._in_flight = False
        return tuple(self._results.tolist())

    def close(self) -> None:
        """End the child and reap it. With an iteration still in flight (the
        parent raised), an error the child reported for it is raised here, in
        place of the parent's: in-process, it would have come first."""
        if self._pid is None:
            return
        os.close(self._commands)  # the child reads EOF and leaves
        try:
            if self._in_flight:
                self._receive(b"")
        finally:
            os.close(self._replies)
            os.waitpid(self._pid, 0)

    def _start(self, g, p, q, z, y, gen_opt, cal_opt) -> None:
        """Make the shared slot and both pipes, then fork. The child serves
        and leaves through ``os._exit``; it never returns from here."""
        import mmap  # only a forked game needs these; the package does not
        import signal

        layout = [gen_opt.storage, *(a for bn in g.bn_layers()
                                     for a in (bn.running_mean, bn.running_var)),
                  z.data, y.data, cal_opt.storage, np.empty((len(q.act_states()), 2)),
                  np.empty(len(q.quant_linears())), np.empty(2)]
        sizes = [a.size for a in layout]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
        views = [v.reshape(a.shape)
                 for v, a in zip(np.split(flat, np.cumsum(sizes)[:-1]), layout)]
        (self._gen, *stats, self._z, self._y, self._student, self._ranges, self._bits,
         self._results) = views
        self._stats = list(zip(stats[::2], stats[1::2]))
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        # A SIGINT that lands during the fork waits: the child ignores it
        # before it unblocks it, and the parent takes it once its side is set.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (commands, self._commands, self._replies, replies):
                os.close(fd)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            raise
        if self._pid == 0:
            self._serve(signal, mask, g, p, q, gen_opt, cal_opt, commands, replies)
        os.close(commands)
        os.close(replies)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _send(self, command: bytes) -> None:
        try:
            os.write(self._commands, command)
        except BrokenPipeError:
            raise WorkerError(f"the trace worker (pid {self._pid}) has ended") from None

    def _receive(self, expected: bytes) -> None:
        """Read the child's next reply, which should be ``expected``; with
        ``expected`` empty, read until the child has left. A report is raised
        with the child's class and message if it is an ``AdadfqError``, as a
        ``WorkerError`` naming it if not; a child that ended without the
        reply is a ``WorkerError``."""
        reply = os.read(self._replies, _REPLY_BYTES)
        while not expected and (more := os.read(self._replies, _REPLY_BYTES)):
            reply += more
        if reply == expected:
            return
        report = reply.lstrip(b"kr")  # replies the parent had not waited for
        if report[:1] == b"e":
            module, name, message = report[1:].decode("utf-8", "replace").split("\0", 2)
            error = getattr(sys.modules.get(module), name, None)
            if isinstance(error, type) and issubclass(error, AdadfqError):
                raise error(message)
            raise WorkerError(f"the trace worker failed: {name}: {message}")
        if expected:
            raise WorkerError(f"the trace worker (pid {self._pid}) ended without a reply")

    def _serve(self, signal, mask, g, p, q, gen_opt, cal_opt,
               commands: int, replies: int) -> None:
        """The child's loop. The players are its copy-on-write image; each
        command copies the slot into their storage and measures as the
        in-process path does. The BN statistics and ``z1``, ``y1`` are read
        from the slot in place: the parent rewrites them only after it has
        collected."""
        status = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(self._commands)
            os.close(self._replies)
            for bn, (mean, var) in zip(g.bn_layers(), self._stats):
                bn.running_mean, bn.running_var = mean, var
            z, y = Tensor(self._z), Tensor(self._y)
            states, layers = q.act_states(), q.quant_linears()
            failed = False
            while command := os.read(commands, 1):
                if failed:
                    continue  # the parent has the report; wait for its EOF
                try:
                    pre = command == b"a"
                    np.copyto(gen_opt.storage, self._gen)
                    if pre:
                        np.copyto(cal_opt.storage, self._student)
                        for st, (lo, hi) in zip(states, self._ranges.tolist()):
                            st.observed_min, st.observed_max = lo, hi
                        for layer, bits in zip(layers, self._bits.tolist()):
                            layer.bits = int(bits)
                        os.write(replies, b"k")
                    self._results[0 if pre else 1] = _mean_disagreement_entropy(
                        *_eval_sample(g, p, z, y), q)
                    if not pre:
                        os.write(replies, b"r")
                except Exception as e:
                    failed = True
                    kind = type(e)
                    report = "\0".join((kind.__module__, kind.__qualname__, str(e)))
                    os.write(replies, (b"e" + report.encode("utf-8", "replace"))[:_REPLY_BYTES])
            status = 0
        finally:
            os._exit(status)


# One entry per OS thread of this process, on Linux. Native threads count
# too (a BLAS pool, say): they are what a fork must not copy.
_THREADS_DIR = "/proc/self/task"
# Its fourth field, "running/total", counts the tasks runnable now, this one too.
_LOADAVG = "/proc/loadavg"


def _trace_worker() -> _TraceWorker | None:
    """A worker where the fork is safe and the child has a core of its own:
    on Linux, whose OS threads a process can count, in a process of one
    thread, with fewer tasks runnable now than CPUs in its affinity mask.
    None elsewhere. Two runs sharing two CPUs thus measure in-process."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return None
    try:
        threads = len(os.listdir(_THREADS_DIR))
        with open(_LOADAVG, "rb") as f:
            running = int(f.read().split()[3].split(b"/")[0])
    except (OSError, ValueError, IndexError):  # no /proc: nothing can be counted
        return None
    return (_TraceWorker() if threads == 1 and running < len(os.sched_getaffinity(0))
            else None)


def game_iteration(g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
                   gen_opt: AdamOptimizer, cal_opt: SgdMomentum,
                   config: RunConfig, rng: SeededRng, iteration: int,
                   worker: _TraceWorker | None = None) -> TraceRow:
    """One generator ascent step plus one student calibration step. With a
    ``worker``, the generator's measurement pair runs in it; without one
    (the default), in this process."""
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
        if worker is None:
            h_pre_g = _mean_disagreement_entropy(*_eval_sample(g, p, z1, y1), q)
        else:
            worker.hand_pre(g, p, q, z1, y1, gen_opt, cal_opt)
        zero_grads(g.parameters())
        backward(gen_loss)
    finally:
        for param in q_params:
            param.requires_grad = True
    gen_opt.step()
    if worker is None:
        h_post_g = _mean_disagreement_entropy(*_eval_sample(g, p, z1, y1), q)
    else:
        worker.hand_post(gen_opt)

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
    if worker is not None:
        h_pre_g, h_post_g = worker.collect()

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

    Owns the trace worker (see the module docstring): one where
    ``_trace_worker`` finds the fork safe, forked at the first iteration and
    reaped on any exit; none otherwise.
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
    worker = _trace_worker()
    try:
        for i in range(total):
            row = game_iteration(g, p, q, gen_opt, cal_opt, config, rng, i, worker)
            trace.append(row)
            if row_callback is not None:
                row_callback(row)
    finally:
        if worker is not None:
            worker.close()
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
