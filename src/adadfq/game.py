"""The alternating zero-sum optimization loop and its trajectory metrics.

Each iteration plays two half-steps. (a) With the student fixed, the
generator takes one ascent step on its objective over a fresh (noise, label)
batch. (b) With the updated generator frozen, the student takes one descent
step on the calibration loss over a second fresh batch; reusing the
generator's batch would couple the two objectives' expectations, so each
player gets its own draw. The teacher is never touched: a game's state
freezes its parameters, so gradients flow through it to the samples but no
teacher weight gradient is computed.

One game is one ``GameState``, whose players ``make_players`` builds. Each
player's move is one function on a state and a batch (z, y):
``generator_step`` plays step (a) and ``student_step`` step (b).
``game_iteration(state)`` draws a batch for each, plays them in that order
and builds the row, and ``run_game`` plays them all. A half-step reads the
iteration index for its messages; only ``game_iteration`` advances it.

Train and eval modes. The teacher is in eval mode throughout: ``GameState``
sets it and the game never changes it. In ``generator_step`` the student is
in eval mode, its parameters frozen for the step's forward and backward; the
generator is in train mode for its training forward, which folds the batch
into its batch-norm running statistics, then in eval mode for the
measurement pair, and it stays there. In ``student_step`` the generator is
in eval mode (its samples come from an eval forward under ``no_grad``, which
folds nothing); the student is in train mode for its training forward,
which observes each activation range, then in eval mode for its pair and
after.

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
forward collects its batch-norm inputs, into a list it hands to the
generator's objective, the one reader of them.

Each training batch's disagreement entropy is computed once: step (a)'s h'
feeds the generator's objective and the row's ``hprime_*`` fields, and
h_info_pre_q is the mean of the entropies step (b)'s calibration loss is
built on.

Where the forwards run. The generator's pair, h_info_pre_g and
h_info_post_g, feeds only the trace, so ``run_game`` hands it to a worker
on another core: a child process forked from the game, ``_TraceWorker``,
which ``run_game`` makes, passes to each ``game_iteration`` and reaps. The
worker's three seams are where the pair would be measured in-process:
``generator_step`` hands the pre state over before the generator's backward
and the post state after its step, and ``game_iteration`` collects the
pair after step (b). Without a worker each seam measures in this process,
so a half-step called on its own never forks. With one, the parent runs
the training forwards, step (b)'s sample and the student's post
measurement: two generator, two teacher and three student forwards per
iteration. The worker runs the pair: two of each. Its life:

* *fork*: lazily, at the first hand-off inside ``generator_step``, so the
  child is a copy-on-write image of the players and no network is pickled;
* *hand-off*: each state crosses once. Before the generator's step the
  parent copies the rest of what the game moved (``_mirrored``) into one
  shared anonymous ``mmap`` and writes a command byte on a pipe; after it,
  the new parameters, which the child keeps as the next pre parameters.
  The child runs the same functions on the same state, so every output
  byte is the in-process path's;
* *collect*: the parent reads the two floats back before it builds the
  row. An ``AdadfqError`` the child raised is raised in the parent with
  its class and message, and it takes the place of an error the parent
  raised later in the same iteration, as the in-process order would;
  a child that ends without a reply is a ``WorkerError``;
* *reaping*: ``run_game`` closes the command pipe in a ``finally`` (the
  child reads EOF and leaves through ``os._exit``), drains its replies
  and waits for it, after success, an error, or an error from ``row_callback``.

The child ignores SIGINT (blocked across the fork, so a Ctrl-C cannot
reach it before), writes nothing but its replies, imports nothing and
never returns into the caller's code. ``run_game`` forks only where the
fork is safe and has a core to run on: on Linux, in a process of one OS
thread (native threads such as a BLAS pool count; ``perfbench`` pins BLAS
to one thread, an unpinned numpy starts a pool), when fewer tasks are
runnable than there are CPUs it may use: its affinity mask, cut to its
cgroup's CPU quota (on one CPU, or beside another busy run, the fork only
adds work). It decides once per run. Otherwise the pair is measured
in-process, as it is by any ``game_iteration`` called without a worker;
that is the reference the worker is tested against. The rows match it as
long as ``row_callback`` changes only what the worker mirrors; a callback
that changes the teacher, the student's copied batch-norm statistics or
the generator's parameters in place, or swaps a parameter's array for
another, is not seen by the worker.

One guard, ``_spare_core``, and one fork, ``_forked``, serve both of the
package's forks: this worker and ``on_spare_core``, which runs a piece of
file writing (``train-teacher``'s two CSVs) in a child while the caller's
block runs, and redoes it in-process if the child fails. That child, unlike
this worker, is background work, so it runs at a lower priority.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .adaptability import (
    calibration_objective,
    classify_samples,
    disagreement_entropy,
    generator_objective,
    normalize_entropy,
)
from .config import RunConfig
from .data import sample_noise_and_labels, substream
from .errors import AdadfqError, ContractError, NumericError, WorkerError
from .nn import AdamOptimizer, ConditionalGenerator, MlpNetwork, SgdMomentum
from .quant import QuantizedMlp, build_quantized_student
from .tensor import Tensor, backward, cross_entropy_from_logits, no_grad


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


def make_players(teacher: MlpNetwork,
                 config: RunConfig) -> tuple[ConditionalGenerator, QuantizedMlp]:
    """The generator (``noise_dim``, ``embed_dim``, ``gen_hidden``, drawn from
    ``seed``) and the ``bits``-wide student of a game against ``teacher``."""
    g = ConditionalGenerator(config.noise_dim, teacher.output_dim, teacher.input_dim,
                             substream(config.seed, "generator_init"),
                             embed_dim=config.embed_dim,
                             hidden=config.hidden_widths(config.gen_hidden))
    return g, build_quantized_student(teacher, config.bits)


class GameState:
    """Generator ``g`` and student ``q`` against teacher ``p``: the players,
    ``config``, both optimizers, the ``noise`` and ``labels`` streams and the
    next iteration's index. Making one puts the teacher in eval mode and
    freezes its parameters for good."""

    def __init__(self, g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
                 config: RunConfig):
        self.g, self.p, self.q, self.config = g, p, q, config
        self.gen_opt = AdamOptimizer(g.parameters(), lr=config.gen_lr)
        self.cal_opt = SgdMomentum(q.parameters(), lr=config.cal_lr,
                                   momentum=config.cal_momentum,
                                   weight_decay=config.cal_weight_decay)
        self.noise = substream(config.seed, "noise")
        self.labels = substream(config.seed, "labels")
        self.iteration = 0
        p.eval()
        for param in p.parameters():
            param.requires_grad = False
            param.zero_grad()


def _eval_sample(g: ConditionalGenerator, p: MlpNetwork,
                 z: Tensor, y: Tensor) -> tuple[Tensor, Tensor]:
    """Samples for (z, y) and the teacher's logits on them, as constants."""
    with no_grad():
        x = g.forward(z, y)
        return x, p.forward(x)


def _mean_disagreement_entropy(x: Tensor, z_p: Tensor, q: QuantizedMlp) -> float:
    """Batch-mean H_info(p_ds) of the eval-mode student on ``x`` against the
    teacher's logits ``z_p``; records no graph and mutates nothing."""
    with no_grad():
        return float(disagreement_entropy(z_p, q.forward(x)).data.mean())


def _mirrored(state: GameState, z: Tensor, y: Tensor) -> list[tuple[np.ndarray, object]]:
    """What the trace worker mirrors, in slot order, as (the parent's array,
    the setter that puts a copy into the child's players, or None to copy
    into that array). The slot's layout and every hand-off read this one
    list, so a player state the game changes belongs here. Entry 0, the
    generator's parameters, crosses after its step (the fork's image holds
    the first); the rest cross before it."""
    layers = state.q.linears

    def set_quant(rows):
        for layer, (lo, hi, bits) in zip(layers, rows.tolist()):
            layer.act_min, layer.act_max = lo, hi
            layer.bits = int(bits)

    # Each student layer's activation range and bit width. A range of None is
    # NaN here, which QuantLinear passes through as it does None (NaN < NaN
    # is False).
    quant = [(layer.act_min, layer.act_max, layer.bits) for layer in layers]
    return [(state.gen_opt.storage, None),
            *((a, None) for bn in state.g.bn_layers for a in (bn.running_mean, bn.running_var)),
            (z.data, None), (y.data, None), (state.cal_opt.storage, None),
            (np.array(quant, dtype=np.float64), set_quant)]


# A dead child, whether a write to it breaks or a read for its reply meets EOF.
_ENDED = "the trace worker (pid {}) ended without a reply"
# Bytes read from the reply pipe at once; an error report is cut to this size,
# which is within PIPE_BUF, so the child writes it in one piece.
_REPLY_BYTES = 4096


class _TraceWorker:
    """The forked child that measures h_info_pre_g and h_info_post_g (see the
    module docstring). Commands on the pipe: ``a`` (the pre state is in the
    slot) and ``b`` (the generator's parameters after its step are). One
    reply per iteration: ``r`` (both floats are in the slot), or ``e`` and a
    report, after which the child ignores commands until EOF."""

    def __init__(self):
        self._pid: int | None = None  # forked at the first hand-off

    def hand_pre(self, state: GameState, z: Tensor, y: Tensor) -> None:
        """Hand over ``_mirrored`` but entry 0, which the child has; forks at the first call."""
        self._mirror = _mirrored(state, z, y)
        if self._pid is None:
            self._start(state, z, y)
        for view, (array, _) in zip(self._slot[1:], self._mirror[1:]):
            np.copyto(view, array)
        self._send(b"a")

    def hand_post(self) -> None:
        """Hand over the generator's parameters after its step."""
        np.copyto(self._slot[0], self._mirror[0][0])
        self._send(b"b")

    def collect(self) -> tuple[float, float]:
        """h_info_pre_g and h_info_post_g of the iteration handed over."""
        self._receive(b"r")
        return tuple(self._results.tolist())

    def close(self) -> None:
        """End the child, drain its replies to EOF and reap it. A report on
        an iteration still in flight (the parent raised) is raised here, in
        place of the parent's error: in-process, it would have come first."""
        if self._pid is None:
            return
        os.close(self._commands)  # the child reads EOF and leaves
        try:
            self._receive(b"")
        finally:
            os.close(self._replies)
            os.waitpid(self._pid, 0)

    def _start(self, state: GameState, z: Tensor, y: Tensor) -> None:
        """Make the shared slot and both pipes, then fork a child that serves."""
        import mmap  # only a forked game needs it; the package does not

        layout = [array for array, _ in self._mirror] + [np.empty(2)]
        sizes = [a.size for a in layout]
        flat = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
        *self._slot, self._results = [
            v.reshape(a.shape) for v, a in zip(np.split(flat, np.cumsum(sizes)[:-1]), layout)]
        commands, self._commands = os.pipe()
        self._replies, replies = os.pipe()
        try:
            with _forked(lambda: self._serve(state, z, y, commands, replies)) as self._pid:
                os.close(commands)
                os.close(replies)
        except OSError:
            if self._pid is None:  # the fork failed
                for fd in (commands, self._commands, self._replies, replies):
                    os.close(fd)
            raise

    def _send(self, command: bytes) -> None:
        try:
            os.write(self._commands, command)
        except BrokenPipeError:
            raise WorkerError(_ENDED.format(self._pid)) from None

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
        report = reply.lstrip(b"r")  # a reply the parent had not waited for
        if report[:1] == b"e":
            module, name, message = report[1:].decode("utf-8", "replace").split("\0", 2)
            error = getattr(sys.modules.get(module), name, None)
            if isinstance(error, type) and issubclass(error, AdadfqError):
                raise error(message)
            raise WorkerError(f"the trace worker failed: {name}: {message}")
        if expected:
            raise WorkerError(_ENDED.format(self._pid))

    def _serve(self, state: GameState, z: Tensor, y: Tensor,
               commands: int, replies: int) -> None:
        """The child's loop, on its copy-on-write image of the players and of
        the first hand-off's ``z``, ``y``: ``a`` copies entries 1 onward of the
        slot into them, ``b`` entry 0, and each measures as in-process. It
        returns at the parent's EOF."""
        os.close(self._commands)
        os.close(self._replies)
        failed = False
        while command := os.read(commands, 1):
            if failed:
                continue  # the parent has the report; wait for its EOF
            try:
                pre = command == b"a"
                handed = slice(1, None) if pre else slice(1)
                for view, (array, put) in zip(self._slot[handed], self._mirror[handed]):
                    if put is None:
                        np.copyto(array, view)
                    else:
                        put(view)
                self._results[0 if pre else 1] = _mean_disagreement_entropy(
                    *_eval_sample(state.g, state.p, z, y), state.q)
                if not pre:
                    os.write(replies, b"r")
            except Exception as e:
                failed = True
                kind = type(e)
                report = "\0".join((kind.__module__, kind.__qualname__, str(e)))
                os.write(replies, (b"e" + report.encode("utf-8", "replace"))[:_REPLY_BYTES])


# One entry per OS thread of this process, on Linux. Native threads count
# too (a BLAS pool, say): they are what a fork must not copy.
_THREADS_DIR = "/proc/self/task"
# Its fourth field, "running/total", counts the tasks runnable now, this one too.
_LOADAVG = "/proc/loadavg"
# The CPU quota of the cgroup mounted here (a container's own): cgroup v2's
# "quota period" or "max period", in microseconds.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
# cgroup v1's quota (-1 for none) and period, in microseconds.
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


def _cpus() -> int:
    """The CPUs this process may run on: those in its affinity mask, or as
    many whole CPUs as its cgroup's quota grants, if fewer. A missing quota
    file is no quota; a quota file that cannot be parsed raises."""
    cpus = len(os.sched_getaffinity(0))
    try:
        with open(_CPU_MAX, "rb") as f:
            quota, period = f.read().split()
    except FileNotFoundError:  # cgroup v1, or no cgroup at all
        try:
            with open(_CFS_QUOTA, "rb") as f, open(_CFS_PERIOD, "rb") as g:
                quota, period = f.read().strip(), g.read()
        except FileNotFoundError:
            return cpus
    if quota in (b"max", b"-1"):
        return cpus
    return min(cpus, int(quota) // int(period))


def _spare_core() -> bool:
    """Whether a fork is safe here and its child has a core of its own: on
    Linux, whose OS threads a process can count, in a process of one
    thread, with fewer tasks runnable now than CPUs it may run on (its
    affinity mask, cut to its cgroup's CPU quota). False elsewhere, so two
    runs sharing two CPUs each keep to one process, and False where a quota
    file cannot be read. The one guard of both forks, the trace worker's
    and ``on_spare_core``'s."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return False
    try:
        threads = len(os.listdir(_THREADS_DIR))
        with open(_LOADAVG, "rb") as f:
            running = int(f.read().split()[3].split(b"/")[0])
        cpus = _cpus()
    except (OSError, ValueError, IndexError, ZeroDivisionError):  # nothing can be counted
        return False
    return threads == 1 and running < cpus


@contextlib.contextmanager
def _forked(child):
    """Fork a child that runs ``child()`` and leaves through ``os._exit``:
    status 0 if it returned, 1 if it raised, with nothing printed, so it
    never returns into the caller's code. The parent gets the child's pid
    with SIGINT still blocked, so the block can take charge of the child
    before a Ctrl-C lands; the block's end unblocks it. The child ignores
    SIGINT before it unblocks it, so a Ctrl-C, which reaches the whole
    process group, reaches only the parent."""
    import signal  # only a fork needs it; the package does not

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                child()
                status = 0
            finally:
                os._exit(status)
        yield pid
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextlib.contextmanager
def on_spare_core(work):
    """Run ``work()``, which must only write files, while the block runs:
    in a child forked onto a spare core where ``_spare_core`` finds one,
    in-process before the block otherwise. The block's end, or its error,
    reaps the child. A child that did not exit 0 (it raised, or was killed)
    is followed by ``work()`` in-process, the one writer of its error, which
    thus comes ahead of any error the block raised, as in-process.

    The child runs at nice 10. The guard sees the machine only at the
    fork; where a task it could not foresee then shares the CPUs with both,
    the block keeps its CPU and the child gets about a tenth of one. At
    equal priority the block would run at half speed there; at the lowest
    (nice 19), the block could wait seconds for a child that two such tasks
    starve."""
    if not _spare_core():
        work()
        yield
        return

    def child():
        os.nice(10)
        work()

    pid = None
    try:
        with _forked(child) as pid:
            pass  # pid is set before a Ctrl-C can land, so the finally reaps
        yield
    finally:
        if pid is not None and os.waitpid(pid, 0)[1] != 0:
            work()


def _finite_samples(x: Tensor, iteration: int) -> Tensor:
    """``x``, once every generated sample in it is finite: each step checks
    its own batch, so a generator its step made non-finite fails on step
    (b)'s batch, before the student calibrates on it."""
    if not np.logical_and.reduce(np.isfinite(x.data), axis=None):
        raise NumericError(f"non-finite generated samples at iteration {iteration}")
    return x


def generator_step(state: GameState, z: Tensor, y: Tensor,
                   worker: _TraceWorker | None = None) -> tuple[float, list, np.ndarray, tuple]:
    """Step (a) on the batch (z, y): one ascent step of the generator against
    the frozen student. Returns the generator's loss, the batch's sample
    kinds (``classify_samples``), its h' and the pair (h_info_pre_g,
    h_info_post_g), which is (None, None) with a ``worker``: its
    ``collect()`` gives the pair after step (b)."""
    g, p, q, config = state.g, state.p, state.q, state.config
    q.eval()
    g.train()
    # The student is frozen for this step, as GameState freezes the teacher:
    # gradients flow through it to x, and none is kept for its parameters.
    # No loop zeroes gradients, so this freeze keeps step (b)'s its own.
    q_params = state.cal_opt.params
    for param in q_params:
        param.requires_grad = False
    try:
        x = _finite_samples(g.forward(z, y), state.iteration)
        bn_inputs: list[Tensor] = []
        z_p = p.forward(x, bn_inputs)
        z_q = q.forward(x)
        h_prime = normalize_entropy(disagreement_entropy(z_p, z_q), p.output_dim)
        score = generator_objective(h_prime, z_p, z_q, y, bn_inputs, p.bn_layers, config)
        gen_loss = -score
        if not np.isfinite(gen_loss.data):
            raise NumericError(f"non-finite generator loss at iteration {state.iteration}: "
                               f"{float(gen_loss.data)}")

        # The pre/post pair brackets only the optimizer step: the training
        # forward above has already folded this batch into the generator's
        # running statistics, so the difference below is purely the parameter
        # update (and is exactly zero at a zero learning rate).
        g.eval()
        h_pre = (_mean_disagreement_entropy(*_eval_sample(g, p, z, y), q) if worker is None
                 else worker.hand_pre(state, z, y))
        backward(gen_loss)
    finally:
        for param in q_params:
            param.requires_grad = True
    state.gen_opt.step()
    h_post = (_mean_disagreement_entropy(*_eval_sample(g, p, z, y), q) if worker is None
              else worker.hand_post())
    # per-sample diagnostics from the training batch, before the student moves
    kinds = classify_samples(z_p.data, z_q.data, y.data)
    return float(gen_loss.data), kinds, h_prime.data, (h_pre, h_post)


def student_step(state: GameState, z: Tensor, y: Tensor) -> tuple[float, float, float]:
    """Step (b) on the batch (z, y): one calibration step of the student on
    the frozen generator's samples. Returns the calibration loss,
    h_info_pre_q and h_info_post_q."""
    g, p, q, config = state.g, state.p, state.q, state.config
    g.eval()
    x, z_p = _eval_sample(g, p, z, y)  # shared with the measurement pair
    _finite_samples(x, state.iteration)

    q.train()
    z_q = q.forward(x)  # observes this batch into the activation-range EMAs
    h_info = disagreement_entropy(z_p, z_q)
    cal_loss = calibration_objective(normalize_entropy(h_info, p.output_dim))
    if config.aux_ce != 0.0:
        cal_loss = cal_loss + config.aux_ce * cross_entropy_from_logits(z_q, y)
    if not np.isfinite(cal_loss.data):
        raise NumericError(f"non-finite calibration loss at iteration {state.iteration}: "
                           f"{float(cal_loss.data)}")

    # As in step (a): ranges are already observed, so the pair isolates the
    # descent step on the latent weights. The training logits are the
    # eval-mode ones (see the module docstring), so the pre measurement reads
    # their entropies.
    q.eval()
    h_pre = float(h_info.data.mean())
    backward(cal_loss)
    state.cal_opt.step()
    return float(cal_loss.data), h_pre, _mean_disagreement_entropy(x, z_p, q)


def game_iteration(state: GameState, worker: _TraceWorker | None = None) -> TraceRow:
    """Play iteration ``state.iteration``, step (a) then step (b) on a fresh
    batch each, and advance the index. With a ``worker``, the generator's
    measurement pair runs in it; without one, in this process."""
    config, iteration = state.config, state.iteration
    batch = (config.batch_size, config.noise_dim, state.p.output_dim)
    z1, y1 = sample_noise_and_labels(state.noise, state.labels, *batch)
    z2, y2 = sample_noise_and_labels(state.noise, state.labels, *batch)
    loss_gen, kinds, h, pair = generator_step(state, z1, y1, worker)
    loss_cal, h_pre_q, h_post_q = student_step(state, z2, y2)
    h_pre_g, h_post_g = pair if worker is None else worker.collect()

    state.iteration = iteration + 1
    return TraceRow(
        iter=iteration,
        epoch=iteration // config.iterations_per_epoch,
        loss_gen=loss_gen,
        loss_cal=loss_cal,
        h_info_pre_g=h_pre_g,
        h_info_post_g=h_post_g,
        delta_g=h_post_g - h_pre_g,
        h_info_pre_q=h_pre_q,
        h_info_post_q=h_post_q,
        delta_q=h_post_q - h_pre_q,
        n_disagree=kinds.count("disagreement"),
        n_agree=kinds.count("agreement"),
        n_teacher_wrong=kinds.count("teacher_wrong"),
        hprime_min=float(h.min()),
        hprime_mean=float(h.mean()),
        hprime_max=float(h.max()),
        hprime_frac_in=float(((h >= config.lambda_l) & (h <= config.lambda_u)).mean()),
    )


def run_game(g: ConditionalGenerator, p: MlpNetwork, q: QuantizedMlp,
             config: RunConfig, row_callback=None) -> list[TraceRow]:
    """Play ``epochs`` times ``iterations_per_epoch`` iterations of one
    ``GameState``; deterministic given the config seed. The game reads its
    settings straight off ``config``; the players' own are the caller's
    (``make_players``). ``row_callback``, when given, receives each TraceRow
    as it is produced. Owns the trace worker: one where ``_spare_core``
    finds the fork safe, forked at the first iteration and reaped on any
    exit; none otherwise. Leaves every player in eval mode."""
    state = GameState(g, p, q, config)
    worker = _TraceWorker() if _spare_core() else None
    trace: list[TraceRow] = []
    try:
        for _ in range(config.epochs * config.iterations_per_epoch):
            row = game_iteration(state, worker)
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
