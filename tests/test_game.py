import ctypes
import dataclasses
import inspect
import os
import signal
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import error_line

from adadfq import adaptability, cli, game, tensor
from adadfq.checkpoint import save_student
from adadfq.cli import RunConfig, main, train_teacher_network
from adadfq.config import read_config
from adadfq.data import box_muller, make_blobs, sample_noise_and_labels, standardize, substream
from adadfq.errors import ConfigError, ContractError, NumericError, WorkerError
from adadfq.game import (
    TRACE_FIELDS,
    EquilibriumReport,
    GameState,
    TraceRow,
    equilibrium_report,
    game_iteration,
    generator_step,
    make_players,
    run_game,
    student_step,
)
from adadfq.nn import ConditionalGenerator, MlpNetwork, make_mlp
from adadfq.quant import QuantizedMlp
from adadfq.tensor import Tensor


@pytest.fixture(scope="module")
def teacher():
    cfg = RunConfig(seed=0, teacher_epochs=20, teacher_hidden="16,16",
                    classes=3, per_class=60, dim=4)
    train_raw, _ = make_blobs(3, 60, 4, 1.3, 0)
    train, _ = standardize(train_raw)
    return train_teacher_network(train, cfg)


def small_config(**kw):
    base = dict(epochs=2, iterations_per_epoch=5, batch_size=8,
                noise_dim=16, gen_hidden="16,16", seed=0, cal_lr=1e-3)
    base.update(kw)
    return RunConfig(**base)


def play(teacher, config, row_callback=None):
    g, q = make_players(teacher, config)
    return run_game(g, teacher, q, config, row_callback), g, q


class TestRunGame:
    def test_trace_length_and_epochs(self, teacher):
        trace, _, _ = play(teacher, small_config())
        assert len(trace) == 10
        assert [r.iter for r in trace] == list(range(10))
        assert [r.epoch for r in trace] == [0] * 5 + [1] * 5

    def test_trace_rows_cover_schema(self, teacher):
        trace, _, _ = play(teacher, small_config())
        d = trace[0].as_dict()
        assert list(d.keys()) == TRACE_FIELDS
        # the shallow copy holds what dataclasses.asdict's deep copy held
        assert list(d.items()) == list(dataclasses.asdict(trace[0]).items())
        d["iter"] = -1
        assert trace[0].iter == 0

    def test_counts_partition_batch(self, teacher):
        trace, _, _ = play(teacher, small_config())
        for r in trace:
            assert r.n_disagree + r.n_agree + r.n_teacher_wrong == 8

    def test_hprime_stats_ordered_and_bounded(self, teacher):
        trace, _, _ = play(teacher, small_config())
        for r in trace:
            assert 0.0 <= r.hprime_min <= r.hprime_mean <= r.hprime_max <= 1.0
            assert 0.0 <= r.hprime_frac_in <= 1.0

    def test_deterministic_replay(self, teacher):
        t1, g1, q1 = play(teacher, small_config())
        t2, g2, q2 = play(teacher, small_config())
        assert [r.as_dict() for r in t1] == [r.as_dict() for r in t2]
        for a, b in zip(g1.parameters(), g2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(q1.parameters(), q2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_seed_changes_trajectory(self, teacher):
        t1, _, _ = play(teacher, small_config())
        t2, _, _ = play(teacher, small_config(seed=1))
        assert [r.loss_gen for r in t1] != [r.loss_gen for r in t2]

    def test_teacher_untouched(self, teacher):
        before = {k: v.data.copy() for k, v in teacher.named_parameters().items()}
        buf_before = {k: v.copy() for k, v in teacher.named_buffers().items()}
        play(teacher, small_config())
        for k, v in teacher.named_parameters().items():
            np.testing.assert_array_equal(v.data, before[k])
        for k, v in teacher.named_buffers().items():
            np.testing.assert_array_equal(v, buf_before[k])

    def test_teacher_frozen_without_gradients(self, teacher):
        play(teacher, small_config())
        for name, param in teacher.named_parameters().items():
            assert not param.requires_grad, name
            assert param.grad is None, name

    def test_both_players_move(self, teacher):
        config = small_config()
        g, q = make_players(teacher, config)
        g_before = [p.data.copy() for p in g.parameters()]
        q_before = [p.data.copy() for p in q.parameters()]
        run_game(g, teacher, q, config)
        assert any(not np.array_equal(p.data, b) for p, b in zip(g.parameters(), g_before))
        assert any(not np.array_equal(p.data, b) for p, b in zip(q.parameters(), q_before))

    def test_the_players_end_in_eval_mode(self, teacher):
        """``dfq`` dumps samples and their distances from the players as the
        game leaves them: a student in train mode would move its ranges."""
        _, g, q = play(teacher, small_config())
        assert not g.training and not q.training

    def test_row_callback_streams_all_rows(self, teacher):
        seen = []
        trace, _, _ = play(teacher, small_config(), seen.append)
        assert seen == trace

    def test_delta_fields_consistent(self, teacher):
        trace, _, _ = play(teacher, small_config())
        for r in trace:
            assert r.delta_g == pytest.approx(r.h_info_post_g - r.h_info_pre_g)
            assert r.delta_q == pytest.approx(r.h_info_post_q - r.h_info_pre_q)

    def test_zero_learning_rates_are_a_no_op(self, teacher):
        config = small_config(epochs=1, gen_lr=0.0, cal_lr=0.0, cal_weight_decay=0.0)
        g, q = make_players(teacher, config)
        g_before = [p.data.copy() for p in g.parameters()]
        q_before = [p.data.copy() for p in q.parameters()]
        trace = run_game(g, teacher, q, config)
        for r in trace:
            assert r.delta_g == 0.0 and r.delta_q == 0.0
        for p, b in zip(g.parameters(), g_before):
            np.testing.assert_array_equal(p.data, b)
        for p, b in zip(q.parameters(), q_before):
            np.testing.assert_array_equal(p.data, b)

    def test_non_finite_generator_aborts_with_diagnostic(self, teacher):
        from adadfq.errors import AdadfqError

        config = small_config()
        g, q = make_players(teacher, config)
        # poison the output-layer bias so generated samples are non-finite
        g.parameters()[-1].data[...] = np.nan
        with pytest.raises(AdadfqError):
            run_game(g, teacher, q, config)

    def test_aux_ce_adds_to_calibration_loss_only(self, teacher, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("aux_ce = 0.5\n")
        assert RunConfig(**read_config(str(cfg_path))).aux_ce == 0.5
        plain, _, _ = play(teacher, small_config(epochs=1, iterations_per_epoch=1))
        aux, _, _ = play(teacher, small_config(epochs=1, iterations_per_epoch=1, aux_ce=0.5))
        assert aux[0].loss_gen == plain[0].loss_gen  # step (a) ignores the weight
        assert aux[0].loss_cal > plain[0].loss_cal

    def test_degenerate_batch_mid_run_leaves_a_finite_row(self, teacher):
        """After iteration 3 the student becomes the teacher at 32 bits, so
        iteration 4's batches are degenerate: every disagreement entropy sits
        at ln C and h' is all zero. The student's step still runs (momentum
        and weight decay) and the row is finite."""
        config = small_config()
        g, q = make_players(teacher, config)
        student_after = {}

        def make_student_exact(row):
            if row.iter == 3:
                for mine, theirs in zip(q.parameters(), teacher.parameters()):
                    mine.data[...] = theirs.data  # in place: the optimizer owns the storage
                for layer in q.linears:
                    layer.bits = 32
                    layer.act_min = layer.act_max = None
            student_after[row.iter] = [p.data.copy() for p in q.parameters()]

        trace = run_game(g, teacher, q, config, row_callback=make_student_exact)
        assert len(trace) == 10
        row = trace[4]
        assert row.hprime_min == row.hprime_max == 0.0
        assert row.loss_cal == 1.0
        assert all(np.isfinite(v) for v in row.as_dict().values())
        assert any(not np.array_equal(a, b) for a, b in zip(student_after[3], student_after[4]))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError):
            RunConfig(batch_size=1)


def desk_networks(config):
    """The desk game's generator, teacher and student at ``config``'s sizes,
    with an untrained teacher (4 classes in 8-d, 64x64)."""
    teacher = make_mlp(8, (64, 64), 4, substream(config.seed, "teacher_init")).eval()
    g, q = make_players(teacher, config)
    return g, teacher, q


class TestGameState:
    def test_each_iteration_plays_the_next_index(self):
        config = RunConfig(iterations_per_epoch=2)
        state = GameState(*desk_networks(config), config)
        rows = [game_iteration(state) for _ in range(3)]
        assert [(r.iter, r.epoch) for r in rows] == [(0, 0), (1, 0), (2, 1)]
        assert state.iteration == 3

    def test_an_iteration_draws_twice_from_each_stream(self):
        """Each of the two steps draws one batch of noise and one of labels
        from the game's own generators, and nothing else draws from them."""
        config = RunConfig(seed=3)
        state = GameState(*desk_networks(config), config)
        game_iteration(state)
        noise, labels = substream(3, "noise"), substream(3, "labels")
        for _ in range(2):
            box_muller(noise, (config.batch_size, config.noise_dim))
            labels.integers(0, state.p.output_dim, size=config.batch_size)
        # Philox's state holds arrays; assert_equal compares the dicts deeply
        np.testing.assert_equal(state.noise.bit_generator.state, noise.bit_generator.state)
        np.testing.assert_equal(state.labels.bit_generator.state, labels.bit_generator.state)

    def test_players_come_from_the_config(self, teacher):
        config = small_config(bits=4, embed_dim=5)
        (g, q), (again, _) = make_players(teacher, config), make_players(teacher, config)
        assert g.embedding.shape == (3, 5) and [layer.bits for layer in q.linears] == [4] * 3
        assert [layer.weight.shape for layer in g.linears] == [(16, 21), (16, 16), (4, 16)]
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(g.parameters(), again.parameters()))


def draw(state):
    """One batch of (noise, labels) from the game's own streams."""
    config = state.config
    return sample_noise_and_labels(state.noise, state.labels, config.batch_size,
                                   config.noise_dim, state.p.output_dim)


def generator_arrays(state):
    """The bytes of every array of the generator's side: its parameters and
    Adam's buffers (the parameters are views of ``storage``), its step count
    and its batch-norm statistics."""
    opt = state.gen_opt
    return [a.tobytes() for a in (opt.storage, opt.m, opt.v, np.array(opt.t),
                                  *(s for bn in state.g.bn_layers
                                    for s in (bn.running_mean, bn.running_var)))]


def student_arrays(state):
    """The bytes of every array of the student's side: its parameters and
    velocity, its copied batch-norm statistics, and each layer's activation
    range (None as NaN) and bit width."""
    opt, q = state.cal_opt, state.q
    ranges = [(np.nan if layer.act_min is None else layer.act_min,
               np.nan if layer.act_max is None else layer.act_max, layer.bits)
              for layer in q.linears]
    return [a.tobytes() for a in (opt.storage, opt.velocity, np.array(ranges),
                                  *(s for bn in q.bn_layers
                                    for s in (bn.running_mean, bn.running_var)))]


class TestHalfSteps:
    @pytest.mark.parametrize("kw", [{}, {"aux_ce": 0.5, "bits": 2}], ids=["desk", "aux_ce_bits2"])
    def test_the_half_steps_are_the_iteration(self, kw):
        """``generator_step`` then ``student_step``, each on its own batch,
        give every field of ``game_iteration``'s row and leave every player
        array as it does, bit for bit."""
        config = RunConfig(iterations_per_epoch=2, **kw)
        played, stepped = (GameState(*desk_networks(config), config) for _ in range(2))
        for i in range(3):
            row = game_iteration(played)
            (z1, y1), (z2, y2) = draw(stepped), draw(stepped)
            loss_gen, kinds, h, (pre_g, post_g) = generator_step(stepped, z1, y1)
            loss_cal, pre_q, post_q = student_step(stepped, z2, y2)
            stepped.iteration += 1
            fields = dict(
                iter=i, epoch=i // 2, loss_gen=loss_gen, loss_cal=loss_cal,
                h_info_pre_g=pre_g, h_info_post_g=post_g, delta_g=post_g - pre_g,
                h_info_pre_q=pre_q, h_info_post_q=post_q, delta_q=post_q - pre_q,
                n_disagree=kinds.count("disagreement"), n_agree=kinds.count("agreement"),
                n_teacher_wrong=kinds.count("teacher_wrong"), hprime_min=float(h.min()),
                hprime_mean=float(h.mean()), hprime_max=float(h.max()),
                hprime_frac_in=float(((h >= config.lambda_l) & (h <= config.lambda_u)).mean()))
            assert hex_rows([TraceRow(**fields)]) == hex_rows([row])
            assert generator_arrays(stepped) == generator_arrays(played)
            assert student_arrays(stepped) == student_arrays(played)
            for stream in ("noise", "labels"):
                np.testing.assert_equal(getattr(stepped, stream).bit_generator.state,
                                        getattr(played, stream).bit_generator.state)

    def test_a_game_state_holds_only_the_game(self):
        config = RunConfig()
        assert list(inspect.signature(GameState).parameters) == ["g", "p", "q", "config"]
        assert not hasattr(GameState(*desk_networks(config), config), "worker")

    def test_each_half_step_leaves_the_other_player_as_it_was(self):
        """Step (b) alone, on a generator fresh from ``make_players`` (train
        mode), folds nothing into its batch-norm statistics; step (a) moves no
        student array, its activation ranges included. Every player ends in
        eval mode."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        assert state.g.training
        before = generator_arrays(state)
        student_step(state, *draw(state))
        assert generator_arrays(state) == before
        before = student_arrays(state)
        generator_step(state, *draw(state))
        assert student_arrays(state) == before
        assert not any(net.training for net in (state.g, state.p, state.q))
        assert state.iteration == 0

    def test_a_half_step_alone_measures_in_process(self, alone, forks):
        """Where ``run_game`` would fork, a half-step on its own does not."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        *_, (pre, post) = generator_step(state, *draw(state))
        assert isinstance(pre, float) and isinstance(post, float)
        assert forks == []

    def test_step_b_refuses_non_finite_samples(self):
        """Step (b) checks its own batch: the student does not calibrate on
        samples of a generator that has gone non-finite."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        state.g.linears[-1].bias.data[...] = np.inf  # in place: the optimizer owns it
        before = student_arrays(state)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="non-finite generated samples at iteration 0"):
            student_step(state, *draw(state))
        assert student_arrays(state) == before

    def test_a_generator_step_that_overflows_fails_its_own_iteration(self):
        """At this step size the generator's first step makes its samples
        non-finite. Step (b) of the same iteration says so, so not even the
        last iteration of a game returns a row built on them."""
        config = RunConfig(gen_lr=1e300)
        state = GameState(*desk_networks(config), config)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="non-finite generated samples at iteration 0"):
            game_iteration(state)


class TestHotPath:
    def test_recorded_nodes_per_desk_iteration(self, monkeypatch):
        """Fused nodes keep the desk iteration's graph at this size; un-fusing
        a composite adds nodes and fails here. The activation fake-quant sits
        inside each student node, so the first iteration, which has no
        activation range yet, records as many nodes as the others."""
        counts = []
        op = Tensor.__dict__["_op"].__func__

        def counting_op(data, parents, backward_fn):
            out = op(data, parents, backward_fn)
            counts[-1] += out.requires_grad
            return out

        monkeypatch.setattr(Tensor, "_op", staticmethod(counting_op))
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        for _ in range(3):
            counts.append(0)
            game_iteration(state)
        assert counts == [54, 54, 54]

    def test_forwards_per_desk_iteration(self, monkeypatch):
        """Four generator and four teacher forwards, and five student ones:
        step (b)'s pre measurement reads the training logits."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        calls = {"generator": 0, "teacher": 0, "student": 0}

        def counted(cls, key, only=None):
            original = cls.forward

            def forward(self, *args):
                if only is None or self is only:
                    calls[key] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, "forward", forward)

        counted(ConditionalGenerator, "generator")
        counted(MlpNetwork, "teacher", only=state.p)  # not the generator
        counted(QuantizedMlp, "student")
        for i in range(3):
            game_iteration(state)
            assert calls == {"generator": 4 * (i + 1), "teacher": 4 * (i + 1),
                             "student": 5 * (i + 1)}

    def test_each_entropy_once_per_desk_iteration(self, monkeypatch):
        """Five entropies (the two training batches' and the three
        measurements'), two normalizations (one per training batch), and no
        parameter list rebuilt: the game reads them off its optimizers."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        calls = {"softmax_entropy": 0, "normalize_entropy": 0, "parameters": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counted)

        for module in (tensor, adaptability, game):
            for name in ("softmax_entropy", "normalize_entropy"):
                if hasattr(module, name):  # a binding of the one function
                    count(module, name)
        count(MlpNetwork, "parameters")
        for i in range(1, 4):
            game_iteration(state)
            assert calls == {"softmax_entropy": 5 * i, "normalize_entropy": 2 * i,
                             "parameters": 0}

    def test_student_pre_measurement_equals_an_eval_forward(self, monkeypatch):
        """h_info_pre_q, read off step (b)'s training logits, equals the
        eval-mode measurement of the same iteration bit for bit, the first
        iteration (whose training forward sets the activation ranges)
        included."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        samples, recomputed = [], []
        eval_sample, backward = game._eval_sample, game.backward

        def recorded_eval_sample(*args):
            samples.append(eval_sample(*args))
            return samples[-1]

        def measuring_backward(loss):
            if len(samples) == 3:  # step (b): x2 and z_p2 are the latest sample
                assert not state.q.training
                recomputed.append(game._mean_disagreement_entropy(*samples[-1], state.q))
            backward(loss)

        monkeypatch.setattr(game, "_eval_sample", recorded_eval_sample)
        monkeypatch.setattr(game, "backward", measuring_backward)
        for _ in range(3):
            samples.clear()
            row = game_iteration(state)
            assert row.h_info_pre_q.hex() == recomputed[-1].hex()
        assert len(recomputed) == 3

    def test_an_iteration_leaves_no_gradient(self):
        """Each optimizer step takes the gradients it applies, so no player
        holds one between iterations and no loop has to zero them."""
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        game_iteration(state)
        assert all(param.grad is None
                   for param in (*state.g.parameters(), *state.q.parameters()))

    def test_step_a_keeps_no_student_gradient(self, monkeypatch):
        config = RunConfig()
        state = GameState(*desk_networks(config), config)
        seen = []
        backward = game.backward

        def observed_backward(loss):
            backward(loss)
            seen.append([param.grad for param in state.q.parameters()])

        monkeypatch.setattr(game, "backward", observed_backward)
        game_iteration(state)
        assert len(seen) == 2
        assert all(grad is None for grad in seen[0])  # step (a)
        assert all(grad is not None for grad in seen[1])  # step (b)

    def test_student_freeze_is_undone_when_step_a_raises(self, monkeypatch):
        config = RunConfig()
        state = GameState(*desk_networks(config), config)

        def failing_objective(*args):
            assert not any(param.requires_grad for param in state.q.parameters())
            raise NumericError("objective failed")

        monkeypatch.setattr(game, "generator_objective", failing_objective)
        with pytest.raises(NumericError, match="objective failed"):
            game_iteration(state)
        assert all(param.requires_grad for param in state.q.parameters())


def hex_rows(trace):
    """Every field of every row, floats as ``float.hex``."""
    return [[v.hex() if isinstance(v, float) else v for v in r.as_dict().values()]
            for r in trace]


def in_process_game(config, mutate=None):
    """``run_game``'s loop without a worker: the reference path. ``mutate(row,
    q)`` runs after each row, as a ``row_callback`` would."""
    state = GameState(*desk_networks(config), config)
    trace = []
    for _ in range(config.epochs * config.iterations_per_epoch):
        trace.append(game_iteration(state))
        if mutate is not None:
            mutate(trace[-1], state.q)
    return trace, state.q


def worker_game(config, row_callback=None, mutate=None):
    g, p, q = desk_networks(config)
    if mutate is not None:
        row_callback = lambda row: mutate(row, q)  # noqa: E731
    return run_game(g, p, q, config, row_callback), q


def widen_after_row_1(row, q):
    """A ``row_callback`` that sets the student to 8 bits after row 1."""
    if row.iter == 1:
        for layer in q.linears:
            layer.bits = 8


def clear_ranges_after_row_1(row, q):
    """A ``row_callback`` that clears every student layer's activation range
    after row 1; the next training forward observes it afresh."""
    if row.iter == 1:
        for layer in q.linears:
            layer.act_min = layer.act_max = None


def short(**kw):
    return RunConfig(**{"epochs": 1, "iterations_per_epoch": 4, **kw})


# A whole pipeline in well under a second.
TINY_RUN = ("classes = 3\nper_class = 20\ndim = 4\nteacher_hidden = 8,8\n"
            "teacher_epochs = 2\ngen_hidden = 8,8\nepochs = 1\n"
            "iterations_per_epoch = 3\nbatch_size = 4\nnoise_dim = 4\n")


def runnable(path, tasks):
    """A ``/proc/loadavg`` stand-in with ``tasks`` runnable now."""
    path.write_text(f"0.50 0.40 0.30 {tasks}/120 4242\n")
    return str(path)


@pytest.fixture
def alone(monkeypatch, tmp_path):
    """``run_game`` sees one OS thread, one runnable task, two CPUs and no
    CPU quota, so it forks its worker whatever threads (a BLAS pool, say)
    this test process runs and whatever else the machine runs."""
    tasks = tmp_path / "task"
    (tasks / "1").mkdir(parents=True)
    monkeypatch.setattr(game, "_THREADS_DIR", str(tasks))
    monkeypatch.setattr(game, "_LOADAVG", runnable(tmp_path / "loadavg", 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    no_quota(monkeypatch, tmp_path)


def no_quota(patch, root):
    """Point the guard's cgroup quota files at ``root``, where none is yet,
    so the host's quota does not decide; a test writes the ones it needs."""
    for name in ("_CPU_MAX", "_CFS_QUOTA", "_CFS_PERIOD"):
        patch.setattr(game, name, str(root / getattr(game, name).rsplit("/", 1)[1]))


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` makes in this process."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def in_child_only(monkeypatch, act, owner=game, name="_mean_disagreement_entropy"):
    """Make ``owner.name``, the trace measurement unless named, call ``act()``
    first in any process but this one."""
    parent, original = os.getpid(), getattr(owner, name)

    def called(*args):
        if os.getpid() != parent:
            act()
        return original(*args)

    monkeypatch.setattr(owner, name, called)


def raise_numeric_error():
    raise NumericError("non-finite logits (injected)")


def kill_this_process():
    os.kill(os.getpid(), signal.SIGKILL)


def reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


@pytest.mark.usefixtures("alone")
class TestTraceWorker:
    @pytest.mark.parametrize("kw, mutate", [
        ({}, None), ({"aux_ce": 0.5}, None), ({"beta": 0.0}, None), ({"gamma": 0.0}, None),
        ({"bits": 2}, None), ({"bits": 4}, None), ({}, widen_after_row_1),
        ({}, clear_ranges_after_row_1),
    ], ids=["desk", "aux_ce", "beta0", "gamma0", "bits2", "bits4", "callback_sets_bits",
            "callback_clears_ranges"])
    def test_rows_and_student_bytes_match_the_in_process_path(self, kw, mutate, forks,
                                                              tmp_path):
        config = short(**kw)
        reference, q_ref = in_process_game(config, mutate)
        assert forks == []
        trace, q = worker_game(config, mutate=mutate)
        assert len(forks) == 1
        assert hex_rows(trace) == hex_rows(reference)
        save_student(tmp_path / "ref.json", q_ref)
        save_student(tmp_path / "worker.json", q)
        assert (tmp_path / "ref.json").read_bytes() == (tmp_path / "worker.json").read_bytes()

    def test_parent_side_forwards_per_iteration(self, monkeypatch, forks):
        """Under ``run_game`` the parent runs two generator, two teacher and
        three student forwards per iteration; the worker runs the rest."""
        config = short()
        g, p, q = desk_networks(config)
        calls = {"generator": 0, "teacher": 0, "student": 0}

        def counted(cls, key, only=None):
            original = cls.forward

            def forward(self, *args):
                if only is None or self is only:
                    calls[key] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, "forward", forward)

        counted(ConditionalGenerator, "generator")
        counted(MlpNetwork, "teacher", only=p)
        counted(QuantizedMlp, "student")
        run_game(g, p, q, config)
        assert len(forks) == 1
        assert calls == {"generator": 2 * 4, "teacher": 2 * 4, "student": 3 * 4}

    def test_the_parent_reads_one_reply_per_iteration(self, monkeypatch, forks):
        """Each state crosses once, so the parent waits only for each
        iteration's ``r``, then reads to EOF in ``close``."""
        receive, waited_for = game._TraceWorker._receive, []

        def recorded(worker, expected):
            waited_for.append(expected)
            return receive(worker, expected)

        monkeypatch.setattr(game._TraceWorker, "_receive", recorded)
        worker_game(short())
        assert len(forks) == 1
        assert waited_for == [b"r"] * 4 + [b""]

    def test_child_error_reaches_the_caller(self, monkeypatch, forks):
        in_child_only(monkeypatch, raise_numeric_error)
        with pytest.raises(NumericError) as raised:
            worker_game(short())
        assert type(raised.value) is NumericError
        assert str(raised.value) == "non-finite logits (injected)"
        assert len(forks) == 1 and reaped(forks[0])

    def test_child_error_comes_before_a_later_parent_error(self, monkeypatch, forks):
        """In-process, the generator's pre measurement raises before step (b)
        runs; the worker's error keeps that place."""
        def failing_objective(*args):
            raise NumericError("step (b) failed")

        in_child_only(monkeypatch, raise_numeric_error)
        monkeypatch.setattr(game, "calibration_objective", failing_objective)
        with pytest.raises(NumericError, match="injected"):
            worker_game(short())
        assert len(forks) == 1 and reaped(forks[0])

    def test_a_dead_child_ends_the_run(self, monkeypatch, forks):
        in_child_only(monkeypatch, kill_this_process)
        with pytest.raises(WorkerError, match="ended without a reply"):
            worker_game(short())
        assert len(forks) == 1 and reaped(forks[0])

    def test_a_write_to_a_dead_child_reads_as_a_missing_reply(self):
        """A child that dies before the parent's next command says what a read would."""
        worker, (read_end, worker_commands) = game._TraceWorker(), os.pipe()
        os.close(read_end)
        worker._pid, worker._commands = 4242, worker_commands
        with pytest.raises(WorkerError, match=r"\(pid 4242\) ended without a reply"):
            worker._send(b"b")
        os.close(worker_commands)

    @pytest.mark.parametrize("act, message", [
        (raise_numeric_error, "error: non-finite logits (injected)"),
        (kill_this_process, "ended without a reply"),
    ])
    def test_dfq_exits_3_with_one_line(self, monkeypatch, forks, tmp_path, capsys, act,
                                       message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        assert main(["train-teacher", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "t")]) == 0
        capsys.readouterr()
        forks.clear()  # train-teacher's CSV writer
        in_child_only(monkeypatch, act)
        rc = main(["dfq", "--ckpt", str(tmp_path / "t" / "teacher.json"), "--config",
                   str(cfg), "--out-dir", str(tmp_path / "dfq")])
        lines = capsys.readouterr().err.splitlines()
        assert rc == 3
        assert len(lines) == 1 and message in lines[0], lines
        assert len(forks) == 1 and reaped(forks[0])
        assert not (tmp_path / "dfq").exists()

    def test_child_ignores_sigint(self, monkeypatch, forks):
        """A Ctrl-C reaches the whole process group; the parent handles it."""
        config = short()
        reference, _ = in_process_game(config)
        in_child_only(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGINT))
        trace, _ = worker_game(config)
        assert len(forks) == 1
        assert hex_rows(trace) == hex_rows(reference)

    def test_a_ctrl_c_at_the_fork_does_not_reach_the_child(self, monkeypatch, forks):
        """SIGINT is blocked across the fork: one that reaches the child
        before it ignores the signal is dropped, not raised in the caller's
        code (which would unwind this test in the child)."""
        config = short()
        reference, _ = in_process_game(config)
        fork = os.fork

        def interrupted_fork():
            pid = fork()
            if pid == 0:
                try:
                    os.kill(os.getpid(), signal.SIGINT)
                except KeyboardInterrupt:
                    os._exit(99)  # raised here: the parent sees no reply
            return pid

        monkeypatch.setattr(os, "fork", interrupted_fork)
        trace, _ = worker_game(config)
        assert hex_rows(trace) == hex_rows(reference)
        assert not signal.pthread_sigmask(signal.SIG_BLOCK, set()) & {signal.SIGINT}

    def test_child_is_reaped_after_a_normal_run(self, forks):
        worker_game(short())
        assert len(forks) == 1 and reaped(forks[0])

    def test_child_is_reaped_after_an_error_in_step_b(self, monkeypatch, forks):
        objective, calls = game.calibration_objective, []

        def failing_objective(*args):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("calibration failed at the third step")
            return objective(*args)

        monkeypatch.setattr(game, "calibration_objective", failing_objective)
        with pytest.raises(NumericError, match="third step"):
            worker_game(short())
        assert len(forks) == 1 and reaped(forks[0])

    @pytest.mark.parametrize("child_fails", [True, False],
                             ids=["child_error_wins", "parent_error_stands"])
    def test_child_is_reaped_after_step_a_backward_raises(self, monkeypatch, forks,
                                                          child_fails):
        """Between ``hand_pre`` and ``hand_post`` the child has the pre state.
        In-process, its measurement error would have come before the backward's."""
        def failing_backward(loss):
            raise NumericError("backward failed")

        if child_fails:
            in_child_only(monkeypatch, raise_numeric_error)
        monkeypatch.setattr(game, "backward", failing_backward)
        with pytest.raises(NumericError, match="injected" if child_fails else "backward"):
            worker_game(short())
        assert len(forks) == 1 and reaped(forks[0])

    def test_child_is_reaped_after_row_callback_raises(self, forks):
        def stop(row):
            if row.iter == 1:
                raise KeyError("stop")

        with pytest.raises(KeyError):
            worker_game(short(), row_callback=stop)
        assert len(forks) == 1 and reaped(forks[0])


def start_native_thread():
    """A thread that Python's ``threading`` does not know of, as a BLAS pool's
    are: libc's ``sleep`` run by ``pthread_create``. Returns its stopper."""
    libc = ctypes.CDLL(None)
    libc.pthread_create.argtypes = [ctypes.POINTER(ctypes.c_ulong), ctypes.c_void_p,
                                    ctypes.c_void_p, ctypes.c_void_p]
    libc.pthread_cancel.argtypes = [ctypes.c_ulong]
    libc.pthread_join.argtypes = [ctypes.c_ulong, ctypes.c_void_p]
    for call in (libc.pthread_create, libc.pthread_cancel, libc.pthread_join):
        call.restype = ctypes.c_int
    tid = ctypes.c_ulong()
    sleep = ctypes.cast(libc.sleep, ctypes.c_void_p)  # sleep(60): the argument is 60
    assert libc.pthread_create(ctypes.byref(tid), None, sleep, 60) == 0

    def stop():
        assert libc.pthread_cancel(tid) == 0
        assert libc.pthread_join(tid, None) == 0

    return stop


TEACHER_FILES = ("train.csv", "test.csv", "teacher.json", "teacher_metrics.json")


def train_teacher(root, *settings, code=0):
    """Run ``train-teacher`` on ``TINY_RUN`` plus ``settings`` lines into a
    fresh directory under ``root``, check its exit code, return the directory."""
    cfg = root / f"teacher{len(list(root.glob('teacher*.cfg')))}.cfg"
    out = cfg.with_suffix("")
    cfg.write_text(TINY_RUN + "".join(line + "\n" for line in settings))
    assert main(["train-teacher", "--config", str(cfg), "--out-dir", str(out)]) == code
    return out


def written(out):
    """The files ``train-teacher`` left in ``out``, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def in_process_teacher(root, *settings, code=0):
    """``train-teacher`` with the CSVs written in-process: the reference path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "_spare_core", lambda: False)
        return written(train_teacher(root, *settings, code=code))


class TestWorkerSelection:
    """``run_game`` forks only on Linux, from a process of one OS thread,
    with a second CPU; otherwise it measures in-process, with the same rows.
    Each case runs ``run`` under the guard and compares it with
    ``reference``, the in-process path; ``TestWriterSelection`` runs the
    same cases on the other fork under the same guard."""

    @staticmethod
    def reference(tmp_path):
        return hex_rows(in_process_game(short())[0])

    @staticmethod
    def run(tmp_path):
        return hex_rows(worker_game(short())[0])

    @staticmethod
    def command(tmp_path):
        """The argv of a run whose one possible fork is this class's."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        teacher = train_teacher(tmp_path)
        return ["dfq", "--ckpt", str(teacher / "teacher.json"), "--config", str(cfg),
                "--out-dir", str(tmp_path / "dfq")]

    def test_without_fork_the_game_runs_in_process(self, monkeypatch, alone, tmp_path):
        reference = self.reference(tmp_path)
        monkeypatch.delattr(os, "fork")
        assert self.run(tmp_path) == reference

    def test_with_one_cpu_the_game_runs_in_process(self, monkeypatch, alone, forks, tmp_path):
        reference = self.reference(tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert self.run(tmp_path) == reference
        assert forks == []

    def test_beside_another_busy_task_the_game_runs_in_process(self, monkeypatch, tmp_path,
                                                                  alone, forks):
        """Two tasks runnable on two CPUs: the child would take a core
        from the other one (two dfq runs side by side, say)."""
        reference = self.reference(tmp_path)
        monkeypatch.setattr(game, "_LOADAVG", runnable(tmp_path / "busy", 2))
        assert self.run(tmp_path) == reference
        assert forks == []

    @pytest.mark.parametrize("text", ["", "0.50 0.40 0.30\n", "0.50 0.40 0.30 x/120 1\n"])
    def test_an_unreadable_load_runs_in_process(self, monkeypatch, tmp_path, alone, forks,
                                               text):
        (tmp_path / "odd").write_text(text)
        monkeypatch.setattr(game, "_LOADAVG", str(tmp_path / "odd"))
        self.run(tmp_path)
        monkeypatch.setattr(game, "_LOADAVG", str(tmp_path / "missing"))
        self.run(tmp_path)
        assert forks == []

    @pytest.mark.parametrize("files, forked", [
        ({"cpu.max": "100000 100000\n"}, False),
        ({"cpu.max": "max 100000\n"}, True),
        ({"cpu.max": "250000 100000\n"}, True),
        ({"cpu.cfs_quota_us": "100000\n", "cpu.cfs_period_us": "100000\n"}, False),
        ({"cpu.cfs_quota_us": "-1\n", "cpu.cfs_period_us": "100000\n"}, True),
        ({"cpu.max": "1 CPU\n"}, False),
        ({"cpu.max": ""}, False),
        ({"cpu.max": "100000 0\n"}, False),
        ({"cpu.cfs_quota_us": "half\n", "cpu.cfs_period_us": "100000\n"}, False),
    ], ids=["v2_one_cpu", "v2_max", "v2_two_and_a_half", "v1_one_cpu", "v1_none",
            "v2_malformed", "v2_empty", "v2_zero_period", "v1_malformed"])
    def test_a_cgroup_quota_caps_the_cpus(self, monkeypatch, tmp_path, alone, forks,
                                          files, forked):
        """Two CPUs in the mask, one task runnable: a quota of one whole CPU
        leaves no spare core, and a quota file that cannot be parsed means no
        fork, as an unreadable load does; no quota, or one of two CPUs or
        more, forks."""
        reference = self.reference(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert self.run(tmp_path) == reference
        assert len(forks) == int(forked)

    def test_with_a_second_thread_the_game_runs_in_process(self, monkeypatch, tmp_path,
                                                           forks):
        reference = self.reference(tmp_path)
        monkeypatch.setattr(game, "_LOADAVG", runnable(tmp_path / "loadavg", 1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            outputs = self.run(tmp_path)
        finally:
            done.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert outputs == reference

    def test_with_a_second_native_thread_the_game_runs_in_process(self, monkeypatch, tmp_path,
                                                                  forks):
        """``threading.active_count()`` is 1 here; the process has two OS
        threads, and Python 3.12 would warn about a fork."""
        reference = self.reference(tmp_path)
        monkeypatch.setattr(game, "_LOADAVG", runnable(tmp_path / "loadavg", 1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        stop = start_native_thread()
        try:
            assert threading.active_count() == 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                outputs = self.run(tmp_path)
        finally:
            stop()
        assert forks == []
        assert not [w for w in caught if "fork" in str(w.message)]
        assert outputs == reference

    def test_a_process_of_one_thread_forks_without_a_warning(self, tmp_path):
        """The real thread count, in a process whose BLAS runs no pool: the
        command forks where the affinity mask holds a second CPU (with the
        machine's load read as one runnable task and no CPU quota, so other
        work on it and its cgroup do not decide), and Python (3.12 on)
        raises no fork-with-threads warning."""
        argv = self.command(tmp_path)
        script = "\n".join([
            "import os, sys, warnings",
            "from adadfq import game",
            "from adadfq.cli import main",
            f"game._LOADAVG = {runnable(tmp_path / 'loadavg', 1)!r}",
            f"game._CPU_MAX = game._CFS_QUOTA = {str(tmp_path / 'no-quota')!r}",
            "pids, fork = [], os.fork",
            "os.fork = lambda: pids.append(fork()) or pids[-1]",
            "with warnings.catch_warnings(record=True) as caught:",
            "    warnings.simplefilter('always')",
            "    rc = main(sys.argv[1:])",
            "print(rc, len(pids), len(os.sched_getaffinity(0)),",
            "      sum('fork' in str(w.message) for w in caught))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(game.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        rc, forked, cpus, warned = map(int, done.stdout.splitlines()[-1].split())
        assert (rc, warned) == (0, 0), done.stderr
        assert forked == (1 if cpus > 1 else 0)


class TestWriterSelection(TestWorkerSelection):
    """``train-teacher``'s CSV writer under the same guard: where it finds
    no spare core, the CSVs are written in-process, and every file holds
    the bytes of the in-process path."""

    @staticmethod
    def reference(tmp_path):
        return in_process_teacher(tmp_path)

    @staticmethod
    def run(tmp_path):
        return written(train_teacher(tmp_path))

    @staticmethod
    def command(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY_RUN)
        return ["train-teacher", "--config", str(cfg), "--out-dir", str(tmp_path / "t")]


def raise_os_error():
    raise OSError("disk full (injected)")


@pytest.mark.usefixtures("alone")
class TestSplitWriter:
    """``train-teacher`` writes its CSVs from one forked child while the
    teacher trains, reaps it on every exit, and writes in-process if the
    child fails; no process outlives the command, and a failed one leaves
    no file it wrote."""

    def test_one_child_writes_the_in_process_bytes(self, forks, tmp_path):
        reference = in_process_teacher(tmp_path)
        assert forks == []
        outputs = written(train_teacher(tmp_path))
        assert len(forks) == 1 and reaped(forks[0])
        assert sorted(outputs) == sorted(TEACHER_FILES)
        assert outputs == reference

    @pytest.mark.parametrize("act", [raise_os_error, kill_this_process])
    def test_a_failed_child_is_redone_in_process(self, monkeypatch, forks, tmp_path, capsys,
                                                 act):
        reference = in_process_teacher(tmp_path)
        capsys.readouterr()
        in_child_only(monkeypatch, act, cli, "save_csv")
        outputs = written(train_teacher(tmp_path))
        assert len(forks) == 1 and reaped(forks[0])
        assert outputs == reference  # and no temp file is left
        assert capsys.readouterr().err == ""

    def test_the_child_yields_to_the_training(self, monkeypatch, forks, tmp_path):
        """Nice 10: where a third task shares the two CPUs, the training
        keeps its own and the writer gets about a tenth of one."""
        niceness = tmp_path / "niceness"
        in_child_only(monkeypatch, lambda: niceness.write_text(
            str(os.getpriority(os.PRIO_PROCESS, 0))), cli, "save_csv")
        ours = os.getpriority(os.PRIO_PROCESS, 0)
        assert written(train_teacher(tmp_path)) == in_process_teacher(tmp_path)
        assert len(forks) == 1 and reaped(forks[0])
        assert int(niceness.read_text()) == min(ours + 10, 19)
        assert os.getpriority(os.PRIO_PROCESS, 0) == ours

    def test_a_write_that_fails_in_process_too_exits_2(self, forks, tmp_path, capsys):
        out = tmp_path / "teacher0"
        (out / "train.csv").mkdir(parents=True)
        train_teacher(tmp_path, code=2)
        assert len(forks) == 1 and reaped(forks[0])
        assert str(out / "train.csv") in error_line(capsys)
        assert sorted(p.name for p in out.iterdir()) == ["train.csv"]

    def test_a_diverging_teacher_exits_3(self, forks, tmp_path, capsys):
        out = train_teacher(tmp_path, "teacher_lr = 1e300", code=3)
        assert len(forks) == 1 and reaped(forks[0])
        assert "holds non-finite values" in error_line(capsys)
        assert not out.exists()  # nor the CSVs the child wrote into it

    def test_a_failed_run_removes_only_what_it_wrote(self, forks, tmp_path, capsys):
        """An out dir that was there stays, with every file this run did not
        write; the CSVs it replaced are gone."""
        out = tmp_path / "teacher0"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "teacher.json").write_text("an earlier run's")
        (out / "train.csv").write_text("an earlier run's")
        train_teacher(tmp_path, "teacher_lr = 1e300", code=3)
        assert len(forks) == 1 and reaped(forks[0])
        assert "holds non-finite values" in error_line(capsys)
        assert written(out) == {"notes.txt": b"kept", "teacher.json": b"an earlier run's"}

    def test_an_interrupted_training_reaps_the_child(self, monkeypatch, forks, tmp_path):
        in_process_teacher(tmp_path)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train_teacher_network", interrupted)
        with pytest.raises(KeyboardInterrupt):
            train_teacher(tmp_path)
        assert len(forks) == 1 and reaped(forks[0])
        assert not (tmp_path / "teacher1").exists()


@pytest.mark.usefixtures("alone")
class TestFailedDfq:
    """A ``dfq`` that fails after its game, with the trace worker forked and
    reaped, removes every file it wrote, and its out dir if it made it; a
    file it did not write stays."""

    @staticmethod
    def dfq(root, forks, *settings):
        """``dfq`` on a ``train-teacher`` run of ``TINY_RUN``, with
        ``settings`` lines added, into ``root / "dfq"``; its exit code."""
        teacher = train_teacher(root)
        forks.clear()  # train-teacher's CSV writer
        cfg = root / "dfq.cfg"
        cfg.write_text(TINY_RUN + "".join(line + "\n" for line in settings))
        return main(["dfq", "--ckpt", str(teacher / "teacher.json"), "--config", str(cfg),
                     "--out-dir", str(root / "dfq")])

    def test_an_allocation_that_cannot_succeed_leaves_no_out_dir(self, forks, tmp_path,
                                                                  capsys):
        """The sample dump comes after the trace, the report and the student."""
        assert self.dfq(tmp_path, forks, f"sample_dump = {10 ** 17}") == 3
        assert "allocate" in error_line(capsys)
        assert len(forks) == 1 and reaped(forks[0])
        assert not (tmp_path / "dfq").exists()

    def test_a_failed_write_removes_only_what_it_wrote(self, forks, tmp_path, capsys):
        out = tmp_path / "dfq"
        (out / "samples.csv").mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        (out / "trace.csv").write_text("an earlier run's")
        (out / "similarity.csv").write_text("an earlier run's")
        assert self.dfq(tmp_path, forks) == 2
        assert str(out / "samples.csv") in error_line(capsys)
        assert len(forks) == 1 and reaped(forks[0])
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "samples.csv",
                                                         "similarity.csv"]
        assert (out / "similarity.csv").read_text() == "an earlier run's"


def fake_row(i, **kw):
    base = dict(iter=i, epoch=0, loss_gen=0.0, loss_cal=0.0,
                h_info_pre_g=0.0, h_info_post_g=0.0, delta_g=0.0,
                h_info_pre_q=0.0, h_info_post_q=0.0, delta_q=0.0,
                n_disagree=0, n_agree=0, n_teacher_wrong=0,
                hprime_min=0.0, hprime_mean=0.5, hprime_max=1.0,
                hprime_frac_in=0.5)
    base.update(kw)
    return TraceRow(**base)


class TestEquilibriumReport:
    def test_cancelling_gains_flag_equilibrium(self):
        trace = [fake_row(i, delta_g=0.1, delta_q=-0.1) for i in range(8)]
        rep = equilibrium_report(trace, 4)
        assert rep.equilibrium
        assert rep.mean_delta_sum == pytest.approx(0.0)
        assert rep.mean_abs_delta_g == pytest.approx(0.1)

    def test_one_sided_gains_rejected(self):
        trace = [fake_row(i, delta_g=0.1, delta_q=0.1) for i in range(8)]
        assert not equilibrium_report(trace, 4).equilibrium

    def test_underfit_high_flat_calibration_loss(self):
        trace = [fake_row(i, loss_cal=0.9) for i in range(8)]
        assert equilibrium_report(trace, 8).underfit

    def test_no_underfit_when_loss_drops(self):
        trace = [fake_row(i, loss_cal=0.9 - 0.1 * i) for i in range(8)]
        assert not equilibrium_report(trace, 8).underfit

    def test_one_row_window_is_never_flat(self):
        trace = [fake_row(i, loss_cal=0.9) for i in range(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = equilibrium_report(trace, 1)
        assert not rep.underfit

    def test_report_reads_only_the_trace(self):
        rep = equilibrium_report([fake_row(i) for i in range(8)], 8)
        assert list(rep.as_dict()) == [
            "window", "mean_delta_g", "mean_delta_q", "mean_delta_sum",
            "mean_abs_delta_g", "equilibrium", "hprime_min", "hprime_mean",
            "hprime_max", "hprime_frac_in", "underfit"]

    def test_window_validation(self):
        trace = [fake_row(i) for i in range(4)]
        with pytest.raises(ContractError):
            equilibrium_report(trace, 5)
        with pytest.raises(ContractError):
            equilibrium_report([], 1)

    def test_report_round_trips_to_dict(self):
        trace = [fake_row(i) for i in range(4)]
        d = equilibrium_report(trace, 2).as_dict()
        assert EquilibriumReport(**d).as_dict() == d
