import copy
import dataclasses
import warnings

import numpy as np
import pytest

from adadfq import game
from adadfq.cli import RunConfig, parse_config, train_teacher_network
from adadfq.data import SeededRng, make_blobs, standardize
from adadfq.errors import ConfigError, ContractError, NumericError
from adadfq.game import (
    TRACE_FIELDS,
    EquilibriumReport,
    TraceRow,
    equilibrium_report,
    game_iteration,
    run_game,
)
from adadfq.nn import AdamOptimizer, ConditionalGenerator, MlpNetwork, SgdMomentum, make_mlp
from adadfq.quant import FakeQuantState, QuantizedMlp, build_quantized_student
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
                noise_dim=16, seed=0, cal_lr=1e-3)
    base.update(kw)
    return RunConfig(**base)


def play(teacher, config):
    rng = SeededRng(config.seed)
    g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                             teacher.input_dim, rng.substream("generator_init"),
                             config.embed_dim, (16, 16))
    q = build_quantized_student(teacher, 3)
    return run_game(g, teacher, q, config), g, q


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
        rng = SeededRng(config.seed)
        g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                                 teacher.input_dim, rng.substream("generator_init"),
                                 config.embed_dim, (16, 16))
        q = build_quantized_student(teacher, 3)
        g_before = [p.data.copy() for p in g.parameters()]
        q_before = [p.data.copy() for p in q.parameters()]
        run_game(g, teacher, q, config)
        assert any(not np.array_equal(p.data, b) for p, b in zip(g.parameters(), g_before))
        assert any(not np.array_equal(p.data, b) for p, b in zip(q.parameters(), q_before))

    def test_row_callback_streams_all_rows(self, teacher):
        seen = []
        config = small_config()
        rng = SeededRng(config.seed)
        g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                                 teacher.input_dim, rng.substream("generator_init"),
                                 config.embed_dim, (16, 16))
        q = build_quantized_student(teacher, 3)
        trace = run_game(g, teacher, q, config, row_callback=seen.append)
        assert seen == trace

    def test_delta_fields_consistent(self, teacher):
        trace, _, _ = play(teacher, small_config())
        for r in trace:
            assert r.delta_g == pytest.approx(r.h_info_post_g - r.h_info_pre_g)
            assert r.delta_q == pytest.approx(r.h_info_post_q - r.h_info_pre_q)

    def test_zero_learning_rates_are_a_no_op(self, teacher):
        config = small_config(epochs=1, gen_lr=0.0, cal_lr=0.0, cal_weight_decay=0.0)
        rng = SeededRng(config.seed)
        g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                                 teacher.input_dim, rng.substream("generator_init"),
                                 config.embed_dim, (16, 16))
        q = build_quantized_student(teacher, 3)
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
        rng = SeededRng(config.seed)
        g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                                 teacher.input_dim, rng.substream("generator_init"),
                                 config.embed_dim, (16, 16))
        # poison the output-layer bias so generated samples are non-finite
        g.parameters()[-1].data[...] = np.nan
        q = build_quantized_student(teacher, 3)
        with pytest.raises(AdadfqError):
            run_game(g, teacher, q, config)

    def test_aux_ce_adds_to_calibration_loss_only(self, teacher, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("aux_ce = 0.5\n")
        assert parse_config(str(cfg_path)).aux_ce == 0.5
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
        rng = SeededRng(config.seed)
        g = ConditionalGenerator(config.noise_dim, teacher.output_dim,
                                 teacher.input_dim, rng.substream("generator_init"),
                                 config.embed_dim, (16, 16))
        q = build_quantized_student(teacher, 3)
        student_after = {}

        def make_student_exact(row):
            if row.iter == 3:
                for mine, theirs in zip(q.parameters(), teacher.parameters()):
                    mine.data[...] = theirs.data  # in place: the optimizer owns the storage
                for layer in q.quant_linears():
                    layer.bits = 32
                    layer.act_state = FakeQuantState()
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


def desk_players(config):
    """The desk game's players at ``config``'s sizes, set up as ``run_game``
    sets them up, with an untrained teacher (4 classes in 8-d, 64x64)."""
    rng = SeededRng(config.seed)
    teacher = make_mlp(8, (64, 64), 4, rng.substream("teacher_init")).eval()
    for param in teacher.parameters():
        param.requires_grad = False
    g = ConditionalGenerator(config.noise_dim, 4, 8, rng.substream("generator_init"),
                             embed_dim=config.embed_dim, hidden=(64, 64))
    q = build_quantized_student(teacher, config.bits)
    gen_opt = AdamOptimizer(g.parameters(), lr=config.gen_lr)
    cal_opt = SgdMomentum(q.parameters(), lr=config.cal_lr, momentum=config.cal_momentum,
                          weight_decay=config.cal_weight_decay)
    return g, teacher, q, gen_opt, cal_opt, SeededRng(config.seed)


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
        g, p, q, gen_opt, cal_opt, rng = desk_players(config)
        for i in range(3):
            counts.append(0)
            game_iteration(g, p, q, gen_opt, cal_opt, config, rng, i)
        assert counts == [54, 54, 54]

    def test_forwards_per_desk_iteration(self, monkeypatch):
        """Four generator and four teacher forwards, and five student ones:
        step (b)'s pre measurement reads the training logits."""
        config = RunConfig()
        g, p, q, gen_opt, cal_opt, rng = desk_players(config)
        calls = {"generator": 0, "teacher": 0, "student": 0}

        def counted(cls, key, only=None):
            original = cls.forward

            def forward(self, *args):
                if only is None or self is only:
                    calls[key] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, "forward", forward)

        counted(ConditionalGenerator, "generator")
        counted(MlpNetwork, "teacher", only=p)  # not the generator
        counted(QuantizedMlp, "student")
        for i in range(3):
            game_iteration(g, p, q, gen_opt, cal_opt, config, rng, i)
            assert calls == {"generator": 4 * (i + 1), "teacher": 4 * (i + 1),
                             "student": 5 * (i + 1)}

    def test_student_pre_measurement_equals_an_eval_forward(self, monkeypatch):
        """h_info_pre_q, read off step (b)'s training logits, equals the
        eval-mode measurement of the same iteration bit for bit, the first
        iteration (whose training forward sets the activation ranges)
        included."""
        config = RunConfig()
        g, p, q, gen_opt, cal_opt, rng = desk_players(config)
        samples, recomputed = [], []
        eval_sample, backward = game._eval_sample, game.backward

        def recorded_eval_sample(*args):
            samples.append(eval_sample(*args))
            return samples[-1]

        def measuring_backward(loss):
            if len(samples) == 3:  # step (b): x2 and z_p2 are the latest sample
                assert not q.training
                recomputed.append(game._mean_disagreement_entropy(*samples[-1], q))
            backward(loss)

        monkeypatch.setattr(game, "_eval_sample", recorded_eval_sample)
        monkeypatch.setattr(game, "backward", measuring_backward)
        for i in range(3):
            samples.clear()
            row = game_iteration(g, p, q, gen_opt, cal_opt, config, rng, i)
            assert row.h_info_pre_q.hex() == recomputed[-1].hex()
        assert len(recomputed) == 3

    def test_step_a_keeps_no_student_gradient(self, monkeypatch):
        config = RunConfig()
        g, p, q, gen_opt, cal_opt, rng = desk_players(config)
        seen = []
        backward = game.backward

        def observed_backward(loss):
            backward(loss)
            seen.append([param.grad for param in q.parameters()])

        monkeypatch.setattr(game, "backward", observed_backward)
        game_iteration(g, p, q, gen_opt, cal_opt, config, rng, 0)
        assert len(seen) == 2
        assert all(grad is None for grad in seen[0])  # step (a)
        assert all(grad is not None for grad in seen[1])  # step (b)

    def test_student_freeze_is_undone_when_step_a_raises(self, monkeypatch):
        config = RunConfig()
        g, p, q, gen_opt, cal_opt, rng = desk_players(config)

        def failing_objective(*args):
            assert not any(param.requires_grad for param in q.parameters())
            raise NumericError("objective failed")

        monkeypatch.setattr(game, "generator_objective", failing_objective)
        with pytest.raises(NumericError, match="objective failed"):
            game_iteration(g, p, q, gen_opt, cal_opt, config, rng, 0)
        assert all(param.requires_grad for param in q.parameters())


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
