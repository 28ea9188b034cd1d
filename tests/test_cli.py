import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import error_line

import adadfq
from adadfq.checkpoint import load_checkpoint, norm_stats_from
from adadfq.cli import RunConfig, evaluate_network, main
from adadfq.config import read_config
from adadfq.data import Dataset, load_csv
from adadfq.errors import ConfigError
from adadfq.quant import MAX_BITS
from adadfq.tensor import Tensor

SMALL_CONFIG = """
# quick desk run for the command-line tests
classes = 3
per_class = 40
dim = 4
spread = 1.3
teacher_hidden = 16,16
teacher_epochs = 20
gen_hidden = 16,16
epochs = 2
iterations_per_epoch = 5
batch_size = 8
noise_dim = 16
cal_lr = 0.001
sample_dump = 12
"""

# the smallest teacher run: for tests of train-teacher itself
TINY_TEACHER = "classes = 3\nper_class = 20\ndim = 4\nteacher_hidden = 8,8\nteacher_epochs = 2\n"


def with_settings(config: str, settings: str) -> str:
    """``config`` with the lines of ``settings`` in place of its own lines
    for those keys: a config file sets each key once."""
    keys = {line.split("=", 1)[0].strip() for line in settings.splitlines()}
    kept = [line for line in config.splitlines(keepends=True)
            if line.split("=", 1)[0].strip() not in keys]
    return "".join(kept) + settings


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One teacher run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    out = root / "teacher"
    rc = main(["train-teacher", "--config", str(cfg_path),
               "--seed", "0", "--out-dir", str(out)])
    assert rc == 0
    return root, cfg_path, out


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = RunConfig(**read_config(None))
        assert cfg.bits == 3 and cfg.lambda_u == 0.8

    def test_overrides_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bits = 4  # comment\n\nseed=7\n")
        cfg = RunConfig(**read_config(str(p)))
        assert cfg.bits == 4 and cfg.seed == 7

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bits = 4\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match=":2"):
            RunConfig(**read_config(str(p)))

    def test_bad_value_type(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bits = three\n")
        with pytest.raises(ConfigError, match="bits|three"):
            RunConfig(**read_config(str(p)))

    def test_invalid_margin_combination(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("lambda_l = 0.9\nlambda_u = 0.1\n")
        with pytest.raises(ConfigError):
            RunConfig(**read_config(str(p)))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            RunConfig(**read_config("/nonexistent/path.cfg"))

    def test_config_hash_sensitivity(self):
        assert RunConfig().config_hash() != RunConfig(bits=4).config_hash()
        assert RunConfig().config_hash() == RunConfig().config_hash()

    def test_default_config_hash_is_pinned(self):
        # the hash covers every field by name and order, so moving, renaming
        # or reordering a key changes every recorded config_hash
        assert RunConfig().config_hash() == "e11716b0ba9a6ac7"

    def test_every_key_parses(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("".join(f"{f.name} = {f.default}\n" for f in dataclasses.fields(RunConfig)))
        assert RunConfig(**read_config(str(p))) == RunConfig()

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().bits = 1

    def test_byte_order_mark_is_dropped(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_bytes(b"\xef\xbb\xbfbits = 4\n")
        assert RunConfig(**read_config(str(p))) == RunConfig(bits=4)

    def test_key_set_twice_reports_the_second_line(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("bits = 3\nseed = 1\nbits = 5\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: 'bits' is set a second time"):
            read_config(str(p))
        assert main(["train-teacher", "--config", str(p), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert f"{p}:3:" in error_line(capsys)
        assert not (tmp_path / "out").exists()


def test_package_exports_resolve():
    assert all(hasattr(adadfq, name) for name in adadfq.__all__)


class TestTrainTeacher:
    def test_outputs_exist(self, workdir):
        _, _, out = workdir
        for name in ("teacher.json", "teacher_metrics.json", "train.csv", "test.csv"):
            assert (out / name).exists()

    def test_metrics_reasonable(self, workdir):
        _, _, out = workdir
        metrics = json.loads((out / "teacher_metrics.json").read_text())
        assert metrics["test"]["accuracy"] > 0.8
        assert metrics["seed"] == 0

    def test_csv_teacher_scores_its_source_file(self, tmp_path):
        """A CSV dataset is standardized once, from its train split, so the
        teacher scores its own source file as it scored the two splits."""
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(3), 60)
        features = np.array([100.0, 50.0]) + 2.0 * np.stack([labels, -labels], axis=1)
        features = features + rng.normal(scale=0.3, size=features.shape)
        source = tmp_path / "source.csv"
        write_rows(source, [["x0", "x1", "label"]]
                   + [[repr(a), repr(b), str(c)]
                      for (a, b), c in zip(features.tolist(), labels)])
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"dataset = csv\ncsv_path = {source}\nteacher_hidden = 8,8\n"
                       "teacher_epochs = 100\n")
        out = tmp_path / "teacher"
        assert main(["train-teacher", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report_path = tmp_path / "eval.json"
        assert main(["eval", "--ckpt", str(out / "teacher.json"), "--dataset", str(source),
                     "--out", str(report_path)]) == 0
        metrics = json.loads((out / "teacher_metrics.json").read_text())
        train, test = metrics["train"], metrics["test"]
        expected = ((train["accuracy"] * train["num_samples"]
                     + test["accuracy"] * test["num_samples"])
                    / (train["num_samples"] + test["num_samples"]))
        assert json.loads(report_path.read_text())["accuracy"] == pytest.approx(expected)
        assert float(read_rows(out / "train.csv")[1][0]) > 90.0  # the split keeps raw rows


class TestQuantize:
    def test_quantize_reports_accuracy_drop(self, workdir, tmp_path):
        _, _, out = workdir
        qdir = tmp_path / "q"
        rc = main(["quantize", "--ckpt", str(out / "teacher.json"),
                   "--bits", "3", "--dataset", str(out / "test.csv"),
                   "--out-dir", str(qdir)])
        assert rc == 0
        report = json.loads((qdir / "quantize_report.json").read_text())
        assert report["bits"] == 3
        assert report["naive_quantized"]["accuracy"] <= report["teacher"]["accuracy"]
        assert (qdir / "student_naive_3bit.json").exists()

    def test_rejects_student_checkpoint(self, workdir, dfq_out, tmp_path):
        _, _, out = workdir
        rc = main(["quantize", "--ckpt", str(dfq_out / "student_dfq_3bit.json"),
                   "--bits", "3", "--dataset", str(out / "test.csv"),
                   "--out-dir", str(tmp_path / "bad")])
        assert rc == 3


@pytest.fixture(scope="module")
def dfq_out(workdir):
    root, cfg_path, out = workdir
    ddir = root / "dfq"
    rc = main(["dfq", "--ckpt", str(out / "teacher.json"),
               "--config", str(cfg_path), "--seed", "0",
               "--out-dir", str(ddir)])
    assert rc == 0
    return ddir


class TestDfq:
    def test_outputs_exist(self, dfq_out):
        for name in ("trace.csv", "equilibrium.json", "student_dfq_3bit.json",
                     "samples.csv", "similarity.csv"):
            assert (dfq_out / name).exists()

    def test_trace_schema_and_length(self, dfq_out):
        lines = (dfq_out / "trace.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["iter", "epoch", "loss_gen", "loss_cal"]
        assert "hprime_frac_in" in header
        assert len(lines) == 1 + 2 * 5  # header + epochs * iterations

    def test_equilibrium_report_matches_trace_recomputation(self, dfq_out):
        lines = (dfq_out / "trace.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        window = max(1, len(rows) // 4)
        tail = rows[-window:]
        dg = np.array([float(r["delta_g"]) for r in tail])
        dq = np.array([float(r["delta_q"]) for r in tail])
        report = json.loads((dfq_out / "equilibrium.json").read_text())
        assert report["window"] == window
        assert report["mean_delta_g"] == pytest.approx(dg.mean(), abs=1e-12)
        assert report["mean_delta_q"] == pytest.approx(dq.mean(), abs=1e-12)
        assert report["mean_delta_sum"] == pytest.approx((dg + dq).mean(), abs=1e-12)

    def test_samples_csv_shape(self, dfq_out):
        lines = (dfq_out / "samples.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].split(",")[:2] == ["sample_index", "label"]

    def test_similarity_matrix_properties(self, dfq_out):
        rows = [[float(v) for v in line.split(",")]
                for line in (dfq_out / "similarity.csv").read_text().strip().splitlines()]
        m = np.asarray(rows)
        assert m.shape == (12, 12)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-12)
        assert m.min() >= 0.0

    @pytest.mark.parametrize("bits", range(2, MAX_BITS + 1))
    def test_every_bit_width_runs(self, workdir, tmp_path, bits):
        """From about 20 bits up the student tracks the teacher so closely
        that whole batches are degenerate (every entropy at ln C); the game
        must still step through them."""
        _, cfg_path, out = workdir
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(with_settings(cfg_path.read_text(), "epochs = 1\n"
                                     "iterations_per_epoch = 2\nsample_dump = 4\n"))
        rc = main(["dfq", "--ckpt", str(out / "teacher.json"), "--config", str(cfg),
                   "--bits", str(bits), "--seed", "0", "--out-dir", str(tmp_path / "dfq")])
        assert rc == 0

    def test_data_free_never_opens_dataset_files(self, workdir, monkeypatch):
        # run dfq with open() instrumented: no .csv may be read
        root, cfg_path, out = workdir
        opened = []
        real_open = open

        def spy(file, *a, **kw):
            opened.append(str(file))
            return real_open(file, *a, **kw)

        import builtins
        monkeypatch.setattr(builtins, "open", spy)
        ddir = root / "dfq_audit"
        rc = main(["dfq", "--ckpt", str(out / "teacher.json"),
                   "--config", str(cfg_path), "--seed", "0",
                   "--out-dir", str(ddir)])
        assert rc == 0
        read_csvs = [p for p in opened
                     if p.endswith(".csv") and not p.startswith(str(ddir))]
        assert read_csvs == []


class TestSimilarityMatrix:
    def test_hand_built_distances(self):
        from adadfq.cli import _l1_similarity

        pds = np.array([
            [1.0, 0.0],
            [0.0, 1.0],
            [0.5, 0.5],
        ])
        m = _l1_similarity(pds)
        np.testing.assert_allclose(m, [
            [0.0, 2.0, 1.0],
            [2.0, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ])

    def test_identical_rows_give_zero_off_diagonal(self):
        from adadfq.cli import _l1_similarity

        pds = np.array([[0.3, 0.7], [0.3, 0.7]])
        np.testing.assert_allclose(_l1_similarity(pds), 0.0)


class TestEvaluateNetwork:
    class _Constant:
        """Predicts class 0 for everything."""

        def forward(self, x):
            logits = np.zeros((x.data.shape[0], 4))
            logits[:, 0] = 1.0
            return Tensor(logits)

    class _Perfect:
        def __init__(self, labels):
            self.labels = labels

        def forward(self, x):
            # cheats by looking up the true labels positionally
            n = x.data.shape[0]
            logits = np.zeros((n, 4))
            logits[np.arange(n), self.labels[:n]] = 1.0
            return Tensor(logits)

    def _balanced(self):
        feats = np.zeros((40, 2))
        labels = np.repeat(np.arange(4), 10)
        return Dataset(feats, labels, "balanced")

    def test_constant_predictor_on_balanced_classes(self):
        ds = self._balanced()
        assert evaluate_network(self._Constant(), ds)["accuracy"] == 0.25

    def test_perfect_predictor(self):
        ds = self._balanced()
        assert evaluate_network(self._Perfect(ds.labels), ds)["accuracy"] == 1.0

    def test_confusion_matches_the_counting_loop(self):
        """The vectorized count against the per-row loop it replaced, over
        more rows than one evaluation batch and a class with no rows."""
        class _Identity:
            def forward(self, x):
                return Tensor(x.data)

        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=3000)
        labels[labels == 2] = 0
        ds = Dataset(rng.normal(size=(3000, 5)), labels, "random")
        pred = ds.features.argmax(axis=1)
        want = np.zeros((5, 5), dtype=int)
        for t, p in zip(labels, pred):
            want[t, p] += 1
        got = evaluate_network(_Identity(), ds)["confusion"]
        assert got == want.tolist()
        assert all(type(n) is int for row in got for n in row)


class TestEval:
    def test_matches_recorded_teacher_metrics_exactly(self, workdir, tmp_path):
        _, _, out = workdir
        report_path = tmp_path / "teacher_eval.json"
        rc = main(["eval", "--ckpt", str(out / "teacher.json"),
                   "--dataset", str(out / "test.csv"),
                   "--out", str(report_path)])
        assert rc == 0
        acc = json.loads(report_path.read_text())["accuracy"]
        recorded = json.loads((out / "teacher_metrics.json").read_text())
        assert acc == recorded["test"]["accuracy"]

    def test_eval_teacher(self, workdir, tmp_path):
        _, _, out = workdir
        report_path = tmp_path / "eval.json"
        rc = main(["eval", "--ckpt", str(out / "teacher.json"),
                   "--dataset", str(out / "test.csv"),
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["confusion"]) == 3

    def test_dataset_without_the_last_class(self, workdir, tmp_path):
        # the class count is the network's, not the highest label present
        _, _, out = workdir
        rows = read_rows(out / "test.csv")
        subset = tmp_path / "no_class_2.csv"
        write_rows(subset, [rows[0]] + [r for r in rows[1:] if r[-1] != "2"])
        report_path = tmp_path / "eval.json"
        rc = main(["eval", "--ckpt", str(out / "teacher.json"),
                   "--dataset", str(subset), "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        net, doc = load_checkpoint(out / "teacher.json")
        kept = load_csv(subset, stats=norm_stats_from(doc))
        pred = net.forward(Tensor(kept.features)).data.argmax(axis=1)
        assert set(kept.labels) == {0, 1}
        assert report["accuracy"] == float((pred == kept.labels).mean())
        assert np.shape(report["confusion"]) == (3, 3)
        assert report["per_class_accuracy"]["2"] is None


class TestReportSimilarity:
    def test_round_trip_matches_dfq_output(self, workdir, dfq_out):
        root, cfg_path, out = workdir
        out_path = root / "sim_again.csv"
        rc = main(["report-similarity", "--samples", str(dfq_out / "samples.csv"),
                   "--ckpt", str(out / "teacher.json"),
                   "--student-ckpt", str(dfq_out / "student_dfq_3bit.json"),
                   "--out", str(out_path)])
        assert rc == 0
        assert out_path.read_text() == (dfq_out / "similarity.csv").read_text()

    def test_dump_with_byte_order_mark(self, workdir, dfq_out, tmp_path):
        _, _, out = workdir
        marked = tmp_path / "samples.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (dfq_out / "samples.csv").read_bytes())
        out_path = tmp_path / "sim.csv"
        rc = main(["report-similarity", "--samples", str(marked),
                   "--ckpt", str(out / "teacher.json"),
                   "--student-ckpt", str(dfq_out / "student_dfq_3bit.json"),
                   "--out", str(out_path)])
        assert rc == 0
        assert out_path.read_bytes() == (dfq_out / "similarity.csv").read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("dump, message", [
        ("", ": empty file"),
        ("sample_index,label,x0\n", ": no data rows"),
        ("sample_index,label,x0\n0,1,abc\n", ":2: non-numeric row"),
        ("sample_index,label,x0,x1,x2,x3\n0,1,0.5,nan,1.0,0.0\n", ":2: non-finite value"),
        ("sample_index,label,x0,x1,x2,x3\n0,1,0,0,0,0\n1,2,0.5,-0.5,1e400,0.0\n",
         ":3: non-finite value"),
        ("sample_index,label,x0,x1,x2,x3\n0,1,0,0,0,0\n1,2,0.5,-0.5\n",
         ":3: expected 6 fields, got 4"),
        ("sample_index,label,x0,x1,x2,label\n0,1,0.5,-0.5,1.0,0\n",
         ": column 'label' appears twice in the header"),
        ("label,x0,x1,x2,x3,sample_index\n1,0.5,-0.5,1.0,0.0,0\n",
         ": the header must be sample_index,label,x0,...,x3"),
        ("id,label,x0,x1,x2,x3\n0,1,0.5,-0.5,1.0,0.0\n",
         ": the header must be sample_index,label,x0,...,x3"),
    ], ids=["empty", "header_only", "non_numeric", "nan", "overflow", "ragged",
            "repeated_column", "reordered_header", "no_sample_index"])
    def test_malformed_sample_dump_is_runtime_error(self, workdir, dfq_out, tmp_path,
                                                    capsys, dump, message):
        """Each ends in one line that names the file, and the row if there is one."""
        _, _, out = workdir
        samples = tmp_path / "samples.csv"
        samples.write_text(dump)
        rc = main(["report-similarity", "--samples", str(samples),
                   "--ckpt", str(out / "teacher.json"),
                   "--student-ckpt", str(dfq_out / "student_dfq_3bit.json"),
                   "--out", str(tmp_path / "sim.csv")])
        assert rc == 3
        assert f"{samples}{message}" in error_line(capsys)

    @pytest.mark.parametrize("command", ["train-teacher", "dfq"])
    @pytest.mark.parametrize("line", ["teacher_hidden = 0,8", "gen_hidden = 16,-4",
                                      "bits = 1", "batch_size = 1", "teacher_batch = 0",
                                      "teacher_epochs = -1", "sample_dump = 0",
                                      "noise_dim = 0", "embed_dim = 0", "teacher_lr = -1",
                                      "gen_lr = -1", "cal_lr = -1", "cal_momentum = 1.5",
                                      "cal_weight_decay = -1", "aux_ce = -1",
                                      "spread = 0", "spread = -1", "spread = nan",
                                      "spread = inf", "classes = 1", "per_class = 4", "dim = 1",
                                      "dataset = moons", "bits = 2000", "teacher_lr = inf",
                                      "gen_lr = inf", "cal_lr = inf", "cal_weight_decay = inf",
                                      "alpha_ds = inf", "alpha_as = inf", "beta = inf",
                                      "gamma = inf", "aux_ce = inf"],
                             ids=["teacher_hidden", "gen_hidden", "bits", "batch_size",
                                  "teacher_batch", "teacher_epochs", "sample_dump",
                                  "noise_dim", "embed_dim", "teacher_lr", "gen_lr", "cal_lr",
                                  "cal_momentum", "cal_weight_decay", "aux_ce",
                                  "spread_zero", "spread_negative", "spread_nan", "spread_inf",
                                  "classes", "per_class", "dim", "dataset", "bits_2000",
                                  "teacher_lr_inf", "gen_lr_inf", "cal_lr_inf",
                                  "cal_weight_decay_inf", "alpha_ds_inf", "alpha_as_inf",
                                  "beta_inf", "gamma_inf", "aux_ce_inf"])
    def test_out_of_range_config_is_usage_error(self, workdir, tmp_path, capsys,
                                                command, line):
        _, _, out = workdir
        p = tmp_path / "c.cfg"
        p.write_text(with_settings(SMALL_CONFIG, line + "\n"))
        args = ["--config", str(p), "--out-dir", str(tmp_path / "out")]
        if command == "dfq":
            args += ["--ckpt", str(out / "teacher.json")]
        rc = main([command] + args)
        assert rc == 2
        error_line(capsys)
        assert not (tmp_path / "out").exists()

    # Each size is above every address space and below 2**63 bytes, so numpy
    # fails at the allocation without touching memory.
    @pytest.mark.parametrize("command, line", [
        ("dfq", f"batch_size = {10 ** 17}"),  # 5.55 EiB of noise
        ("train-teacher", f"per_class = {10 ** 17}"),  # 1.39 EiB of blob rows
    ], ids=["dfq_batch_size", "train_teacher_per_class"])
    def test_size_that_cannot_be_allocated_is_runtime_error(self, workdir, tmp_path, capsys,
                                                             command, line):
        _, _, out = workdir
        p = tmp_path / "c.cfg"
        p.write_text(with_settings(SMALL_CONFIG, line + "\n"))
        args = ["--config", str(p), "--out-dir", str(tmp_path / "out")]
        if command == "dfq":
            args += ["--ckpt", str(out / "teacher.json")]
        assert main([command] + args) == 3
        assert "allocate" in error_line(capsys)

    def test_bare_memory_error_is_named(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError()

        monkeypatch.setattr(adadfq.cli, "make_blobs", no_memory)
        assert main(["train-teacher", "--out-dir", str(tmp_path / "out")]) == 3
        assert error_line(capsys) == "error: MemoryError"

    @pytest.mark.parametrize("config, key", [
        ("dataset = rings\ndim = 4\n", "dim"),
        ("dataset = rings\nspread = 7\n", "spread"),
        ("dataset = csv\ncsv_path = data.csv\nper_class = 40\n", "per_class"),
        ("csv_path = data.csv\n", "csv_path"),
    ], ids=["rings_dim", "rings_spread", "csv_per_class", "blobs_csv_path"])
    def test_key_the_dataset_does_not_read_is_usage_error(self, tmp_path, capsys,
                                                           config, key):
        p = tmp_path / "c.cfg"
        p.write_text(config)
        rc = main(["train-teacher", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert key in error_line(capsys)
        assert not (tmp_path / "out").exists()

    # At these settings training overflows (numpy warns) and would write a
    # teacher.json that every later command refuses.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("line, entry", [
        ("teacher_lr = 1e300", "'layers.0.weight' holds non-finite values"),
        ("spread = 1e300", "norm_stats need finite mean and positive finite std"),
    ], ids=["diverging_teacher", "overflowing_spread"])
    def test_teacher_no_load_would_accept_is_not_written(self, tmp_path, capsys, line, entry):
        p, out = tmp_path / "c.cfg", tmp_path / "out"
        p.write_text(TINY_TEACHER + line + "\n")
        assert main(["train-teacher", "--config", str(p), "--out-dir", str(out)]) == 3
        assert error_line(capsys).startswith(
            f"error: {out / 'teacher.json'}: not written: {entry}")
        assert not (out / "teacher.json").exists()

    def test_label_column_named_as_a_feature_is_usage_error(self, tmp_path, capsys):
        """The written CSVs would name x0 twice, which every reader refuses."""
        p, out = tmp_path / "c.cfg", tmp_path / "out"
        p.write_text(TINY_TEACHER + "label_column = x0\n")
        assert main(["train-teacher", "--config", str(p), "--out-dir", str(out)]) == 2
        assert "label_column 'x0'" in error_line(capsys)
        assert not out.exists()

    def test_student_of_another_class_count_is_runtime_error(self, tmp_path, capsys):
        teachers = {}
        for classes in (4, 3):
            p = tmp_path / f"c{classes}.cfg"
            p.write_text(with_settings(SMALL_CONFIG, f"classes = {classes}\nteacher_epochs = 2\n"))
            teachers[classes] = tmp_path / f"t{classes}"
            assert main(["train-teacher", "--config", str(p),
                         "--out-dir", str(teachers[classes])]) == 0
        assert main(["quantize", "--ckpt", str(teachers[3] / "teacher.json"), "--bits", "3",
                     "--dataset", str(teachers[3] / "test.csv"),
                     "--out-dir", str(tmp_path / "q")]) == 0
        student = tmp_path / "q" / "student_naive_3bit.json"
        samples = tmp_path / "samples.csv"
        samples.write_text("sample_index,label,x0,x1,x2,x3\n0,1,0.5,-0.5,1.0,0.0\n")
        capsys.readouterr()
        rc = main(["report-similarity", "--samples", str(samples),
                   "--ckpt", str(teachers[4] / "teacher.json"),
                   "--student-ckpt", str(student), "--out", str(tmp_path / "sim.csv")])
        assert rc == 3
        assert str(student) in error_line(capsys)
        assert not (tmp_path / "sim.csv").exists()

    def test_similarity_of_a_teacher_as_student_is_runtime_error(self, workdir, dfq_out,
                                                                 tmp_path, capsys):
        teacher = workdir[2] / "teacher.json"
        assert main(["report-similarity", "--samples", str(dfq_out / "samples.csv"),
                     "--ckpt", str(teacher), "--student-ckpt", str(teacher),
                     "--out", str(tmp_path / "sim.csv")]) == 3
        assert f"{teacher}: expected a student checkpoint" in error_line(capsys)
        assert not (tmp_path / "sim.csv").exists()

    def test_similarity_against_a_student_is_runtime_error(self, dfq_out, tmp_path, capsys):
        student = dfq_out / "student_dfq_3bit.json"
        assert main(["report-similarity", "--samples", str(dfq_out / "samples.csv"),
                     "--ckpt", str(student), "--student-ckpt", str(student),
                     "--out", str(tmp_path / "sim.csv")]) == 3
        assert f"{student}: expected a teacher checkpoint" in error_line(capsys)
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("command", ["quantize", "dfq"])
    def test_command_line_bits_are_range_checked(self, workdir, tmp_path, capsys, command):
        _, cfg_path, out = workdir
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")  # loading it first would exit 3
        for bits in ("1", "2000"):
            args = ["--ckpt", str(bad), "--bits", bits, "--out-dir", str(tmp_path / "out")]
            if command == "quantize":
                args += ["--dataset", str(out / "test.csv")]
            else:
                args += ["--config", str(cfg_path)]
            rc = main([command] + args)
            assert rc == 2, bits
            assert "bit width" in error_line(capsys)
            assert not (tmp_path / "out").exists()

    def test_student_checkpoint_wider_than_max_bits_is_runtime_error(self, dfq_out, workdir,
                                                                     tmp_path, capsys):
        _, _, out = workdir
        doc = json.loads((dfq_out / "student_dfq_3bit.json").read_text())
        doc["quant"]["bits"] = 2000
        student = tmp_path / "student_2000bit.json"
        student.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(student), "--dataset", str(out / "test.csv")]) == 3
        line = error_line(capsys)
        assert str(student) in line and "bits in [2, 32]" in line

    @pytest.mark.parametrize("column", ["feature", "label"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("command", ["train-teacher", "eval", "quantize"])
    def test_non_finite_csv_cell_is_runtime_error(self, workdir, tmp_path, capsys,
                                                  command, cell, column):
        _, _, out = workdir
        rows = read_rows(out / "test.csv")
        rows[3][-1 if column == "label" else 1] = cell
        data = tmp_path / "non_finite.csv"
        write_rows(data, rows)
        if command == "train-teacher":
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"dataset = csv\ncsv_path = {data}\n")
            args = ["--config", str(cfg)]
        else:
            args = ["--ckpt", str(out / "teacher.json"), "--dataset", str(data)]
        if command != "eval":
            args += ["--out-dir", str(tmp_path / "out")]
        if command == "quantize":
            args += ["--bits", "3"]
        capsys.readouterr()
        assert main([command] + args) == 3
        assert f"{data}:4: non-finite value" in error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, code", [("train_config", 2), ("train_csv", 3),
                                            ("eval", 3), ("quantize", 3),
                                            ("similarity", 3)])
    def test_non_utf8_input_names_the_file(self, workdir, dfq_out, tmp_path, capsys,
                                           case, code):
        """One byte that is not UTF-8 in a config file (exit 2), a CSV or a
        sample dump (exit 3) ends in one line naming the file, and nothing
        is written."""
        _, cfg_path, out = workdir
        source = {"train_config": cfg_path, "train_csv": out / "test.csv",
                  "eval": out / "test.csv", "quantize": out / "test.csv",
                  "similarity": dfq_out / "samples.csv"}[case]
        text = source.read_bytes()
        bad = tmp_path / ("bad.cfg" if case == "train_config" else "bad.csv")
        cut = text.index(b"\n") + 3  # inside the first row's first value
        bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
        teacher, out_path = str(out / "teacher.json"), str(tmp_path / "out")
        if case == "train_config":
            argv = ["train-teacher", "--config", str(bad), "--out-dir", out_path]
        elif case == "train_csv":
            cfg = tmp_path / "c.cfg"
            cfg.write_text(f"dataset = csv\ncsv_path = {bad}\n")
            argv = ["train-teacher", "--config", str(cfg), "--out-dir", out_path]
        elif case == "eval":
            argv = ["eval", "--ckpt", teacher, "--dataset", str(bad), "--out", out_path]
        elif case == "quantize":
            argv = ["quantize", "--ckpt", teacher, "--bits", "3", "--dataset", str(bad),
                    "--out-dir", out_path]
        else:
            argv = ["report-similarity", "--samples", str(bad), "--ckpt", teacher,
                    "--student-ckpt", str(dfq_out / "student_dfq_3bit.json"),
                    "--out", out_path]
        capsys.readouterr()
        assert main(argv) == code
        assert str(bad) in error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, code", [("config", 2), ("csv", 3)])
    def test_byte_order_mark_is_read_as_text(self, workdir, tmp_path, capsys, case, code):
        """A BOM-prefixed config or label-first CSV runs as the plain file
        does (both once failed on the mark glued to the first name); a cut
        mark is not UTF-8 and ends in one line naming the file."""
        _, cfg_path, out = workdir
        rows = read_rows(out / "test.csv")
        order = [rows[0].index("label")] + [i for i, h in enumerate(rows[0]) if h != "label"]
        text = ("bits = 4\n" + cfg_path.read_text() if case == "config" else
                "".join(",".join(r[i] for i in order) + "\n" for r in rows)).encode()
        plain, marked, cut = (tmp_path / n for n in ("plain", "marked", "cut"))
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        cut.write_bytes(b"\xef\xbb" + text)
        teacher = str(out / "teacher.json")

        def run(path, out_path):
            if case == "config":
                argv = ["dfq", "--ckpt", teacher, "--config", str(path), "--seed", "0",
                        "--out-dir", str(out_path)]
                report = "trace.csv"
            else:
                out_path.mkdir()
                argv = ["eval", "--ckpt", teacher, "--dataset", str(path),
                        "--out", str(out_path / "eval.json")]
                report = "eval.json"
            return main(argv), out_path / report

        rc_plain, plain_report = run(plain, tmp_path / "out_plain")
        rc_marked, marked_report = run(marked, tmp_path / "out_marked")
        assert rc_plain == rc_marked == 0
        assert marked_report.read_bytes() == plain_report.read_bytes()
        capsys.readouterr()
        assert run(cut, tmp_path / "out_cut")[0] == code
        assert str(cut) in error_line(capsys)

    def test_missing_config_file_is_usage_error(self, tmp_path):
        rc = main(["train-teacher", "--config", "/does/not/exist.cfg",
                   "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_bad_config_value_is_usage_error(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bogus_key = 1\n")
        rc = main(["train-teacher", "--config", str(p), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["eval", "--ckpt", str(bad), "--dataset", str(bad)])
        assert rc == 3

    def test_missing_csv_dataset_names_path(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("dataset = csv\ncsv_path = /missing/data.csv\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["train-teacher", "--config", str(p),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "/missing/data.csv" in err.getvalue()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels, fault", [
        ((0, -1), ":3: negative label -1"),
        ((0,), "1 distinct label(s) up to 0"),
        ((0, 2), "2 distinct label(s) up to 2"),
    ], ids=["negative", "one_class", "gap"])
    def test_csv_labels_not_0_to_c_minus_1_are_runtime_error(self, tmp_path, capsys,
                                                              labels, fault):
        data = tmp_path / "data.csv"
        rows = [f"{0.1 * i},{(-1) ** i * 0.2 * i},{labels[i % len(labels)]}"
                for i in range(40)]
        data.write_text("x0,x1,label\n" + "\n".join(rows) + "\n")
        p = tmp_path / "c.cfg"
        p.write_text(f"dataset = csv\ncsv_path = {data}\nteacher_epochs = 2\n"
                     "teacher_hidden = 8,8\n")
        rc = main(["train-teacher", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        line = error_line(capsys)
        assert str(data) in line and fault in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, fault", [
        ("label\n" + "0\n1\n" * 10, "no feature column besides 'label'"),
        ("x0,label\n0.5,0\n1.5,1\n2.5,2\n", "class 0 has one row"),
        ("x0,label\n0.5,0\n" + "".join(f"{i}.5,1\n" for i in range(5)),
         "class 0 has one row"),
    ], ids=["label_only", "one_row_each", "one_row_in_one_class"])
    def test_csv_too_thin_to_split_is_runtime_error(self, tmp_path, capsys, text, fault):
        """The split needs a feature and two rows of each class, one per half."""
        data = tmp_path / "data.csv"
        data.write_text(text)
        p = tmp_path / "c.cfg"
        p.write_text(f"dataset = csv\ncsv_path = {data}\nteacher_epochs = 2\n"
                     "teacher_hidden = 8,8\n")
        rc = main(["train-teacher", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        line = error_line(capsys)
        assert str(data) in line and fault in line
        assert not (tmp_path / "out").exists()

    def test_single_class_dataset_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("classes = 1\n")
        rc = main(["train-teacher", "--config", str(p), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_label_beyond_the_network_classes_is_runtime_error(self, workdir, tmp_path,
                                                               capsys, command):
        _, _, out = workdir
        rows = read_rows(out / "test.csv")
        rows[1][-1] = "3"  # the teacher has classes 0..2
        data = tmp_path / "label_3.csv"
        write_rows(data, rows)
        args = ["--ckpt", str(out / "teacher.json"), "--dataset", str(data)]
        if command == "quantize":
            args += ["--bits", "3", "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert main([command] + args) == 3
        line = error_line(capsys)
        assert str(data) in line and "label 3" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "quantize"])
    def test_feature_count_other_than_the_checkpoint_is_runtime_error(self, workdir, tmp_path,
                                                                      capsys, command):
        _, _, out = workdir
        rows = [row[:2] + row[-1:] for row in read_rows(out / "test.csv")]  # x0, x1, label
        data = tmp_path / "two_features.csv"
        write_rows(data, rows)
        args = ["--ckpt", str(out / "teacher.json"), "--dataset", str(data)]
        if command == "quantize":
            args += ["--bits", "3", "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert main([command] + args) == 3
        line = error_line(capsys)
        assert str(data) in line and "2 feature columns" in line and "have 4" in line
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_is_usage_error(self, workdir):
        _, _, out = workdir
        rc = main(["eval", "--ckpt", str(out / "teacher.json"),
                   "--dataset", "/does/not/exist.csv"])
        assert rc == 2

    @pytest.mark.parametrize("case", ["eval_ckpt", "eval_dataset", "eval_out", "train_config",
                                      "train_out_dir", "dfq_out_dir", "similarity_samples"])
    def test_path_of_the_wrong_kind_is_usage_error(self, workdir, dfq_out, tmp_path, capsys,
                                                   case):
        """A directory where a file is read or written, or a file where an
        output directory goes, ends in one line, and nothing is written."""
        _, cfg_path, out = workdir
        a_dir, a_file = tmp_path / "a_dir", tmp_path / "a_file"
        a_dir.mkdir()
        a_file.write_text("")
        teacher, test_csv = str(out / "teacher.json"), str(out / "test.csv")
        argv = {
            "eval_ckpt": ["eval", "--ckpt", str(a_dir), "--dataset", test_csv],
            "eval_dataset": ["eval", "--ckpt", teacher, "--dataset", str(a_dir)],
            "eval_out": ["eval", "--ckpt", teacher, "--dataset", test_csv, "--out", str(a_dir)],
            "train_config": ["train-teacher", "--config", str(a_dir),
                             "--out-dir", str(tmp_path / "out")],
            "train_out_dir": ["train-teacher", "--config", str(cfg_path),
                              "--out-dir", str(a_file)],
            "dfq_out_dir": ["dfq", "--ckpt", teacher, "--config", str(cfg_path),
                            "--out-dir", str(a_file)],
            "similarity_samples": ["report-similarity", "--samples", str(a_dir),
                                   "--ckpt", teacher,
                                   "--student-ckpt", str(dfq_out / "student_dfq_3bit.json"),
                                   "--out", str(tmp_path / "out")],
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a_dir", "a_file"]
        assert not any(a_dir.iterdir()) and a_file.read_text() == ""


# Cells no eval dataset may hold: each row's features and its label must be
# finite numbers, and the label an integer class of the 3-class teacher.
FAULTY_FEATURES = ["", "nan", "inf", "-inf", "1e400", "abc"]
FAULTY_LABELS = FAULTY_FEATURES + ["1.5", "-1", "3", "1e300"]


@st.composite
def eval_csv_rows(draw):
    """Up to five rows of four features and a label, each row either valid or
    with one fault: a faulty feature, a faulty label, or a ragged length.
    Returns the rows and whether every row is valid."""
    rows, valid = [], True
    for _ in range(draw(st.integers(0, 5))):
        row = [repr(draw(st.floats(-5.0, 5.0))) for _ in range(4)]
        row.append(draw(st.sampled_from(["0", "1", "2", "2.0"])))
        fault = draw(st.sampled_from([None, None, None, "feature", "label", "ragged"]))
        if fault == "feature":
            row[draw(st.integers(0, 3))] = draw(st.sampled_from(FAULTY_FEATURES))
        elif fault == "label":
            row[4] = draw(st.sampled_from(FAULTY_LABELS))
        elif fault == "ragged":
            row = (row + ["0"])[:draw(st.sampled_from([0, 3, 4, 6]))]
        rows.append(row)
        valid = valid and fault is None
    return rows, valid and bool(rows)


class TestFuzzEval:
    @given(eval_csv_rows())
    @settings(max_examples=60, deadline=None)
    def test_generated_csv_exits_cleanly(self, workdir, case):
        """Any generated CSV ends in exit 0 (only when every value is valid)
        or exit 3 with one stderr line, never in a traceback."""
        root, _, out = workdir
        rows, valid = case
        data = root / "fuzz.csv"
        data.write_text("x0,x1,x2,x3,label\n" + "".join(",".join(r) + "\n" for r in rows))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["eval", "--ckpt", str(out / "teacher.json"), "--dataset", str(data)])
        assert rc == (0 if valid else 3), (rows, err.getvalue())
        assert len(err.getvalue().strip().splitlines()) == (0 if valid else 1)
        assert "Traceback" not in err.getvalue()


def test_round_trip_with_no_teacher_hidden_layer_and_three_generator_blocks(tmp_path):
    """The layer walk at its extremes: a teacher that is one linear layer (no
    batch norm, so no statistics loss) and a generator with three blocks."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(with_settings(SMALL_CONFIG, "teacher_hidden =\ngen_hidden = 16,16,16\n"))
    teacher_dir, q_dir, dfq_dir = tmp_path / "teacher", tmp_path / "q", tmp_path / "dfq"
    assert main(["train-teacher", "--config", str(cfg), "--out-dir", str(teacher_dir)]) == 0
    teacher, test_csv = str(teacher_dir / "teacher.json"), str(teacher_dir / "test.csv")
    assert json.loads((teacher_dir / "teacher.json").read_text())["architecture"]["hidden"] == []
    assert main(["quantize", "--ckpt", teacher, "--bits", "3", "--dataset", test_csv,
                 "--out-dir", str(q_dir)]) == 0
    assert main(["dfq", "--ckpt", teacher, "--config", str(cfg), "--out-dir", str(dfq_dir)]) == 0
    assert main(["eval", "--ckpt", str(dfq_dir / "student_dfq_3bit.json"),
                 "--dataset", test_csv]) == 0


class TestDeterminism:
    def test_two_dfq_runs_hash_identically(self, workdir):
        root, cfg_path, out = workdir

        def run(name):
            d = root / name
            rc = main(["dfq", "--ckpt", str(out / "teacher.json"),
                       "--config", str(cfg_path), "--seed", "3",
                       "--out-dir", str(d)])
            assert rc == 0
            return {
                f: hashlib.sha256((d / f).read_bytes()).hexdigest()
                for f in sorted(os.listdir(d))
            }

        assert run("det_a") == run("det_b")


class TestModuleEntryPoint:
    """``python -m adadfq`` runs the command line from a source checkout."""

    @staticmethod
    def run(*argv, env=(), flags=()):
        """``python [flags] -m adadfq argv`` with ``env`` added to the environment."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(adadfq.__file__)))
        env = {**os.environ, **dict(env)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *flags, "-m", "adadfq", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_help_exits_zero(self):
        done = self.run("--help")
        assert done.returncode == 0
        assert "train-teacher" in done.stdout

    def test_unknown_subcommand_is_usage_error(self):
        assert self.run("no-such-command").returncode == 2


class TestEncoding:
    """Every file the package writes or reads is UTF-8, whatever the locale."""

    C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

    def test_non_ascii_label_column_under_the_c_locale(self, tmp_path):
        cfg, out = tmp_path / "run.cfg", tmp_path / "t"
        cfg.write_text("classes = 3\nper_class = 20\ndim = 4\nteacher_hidden = 8\n"
                       "teacher_epochs = 1\nlabel_column = étiquette\n", encoding="utf-8")
        run = TestModuleEntryPoint.run
        done = run("train-teacher", "--config", str(cfg), "--out-dir", str(out),
                   env=self.C_LOCALE)
        assert done.returncode == 0, done.stderr
        header = (out / "test.csv").read_bytes().split(b"\r\n", 1)[0]
        assert header == "x0,x1,x2,x3,étiquette".encode("utf-8")
        done = run("eval", "--ckpt", str(out / "teacher.json"), "--dataset",
                   str(out / "test.csv"), "--label-column", "étiquette", env=self.C_LOCALE)
        assert done.returncode == 0, done.stderr

    def test_commands_name_every_encoding(self, tmp_path):
        """No file the five commands open takes the locale's encoding."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG)
        t, d = tmp_path / "t", tmp_path / "dfq"
        student = str(d / "student_dfq_3bit.json")
        runs = [
            ["train-teacher", "--config", str(cfg), "--out-dir", str(t)],
            ["quantize", "--ckpt", str(t / "teacher.json"), "--bits", "3",
             "--dataset", str(t / "test.csv"), "--out-dir", str(tmp_path / "naive")],
            ["dfq", "--ckpt", str(t / "teacher.json"), "--config", str(cfg),
             "--out-dir", str(d)],
            ["eval", "--ckpt", student, "--dataset", str(t / "test.csv")],
            ["report-similarity", "--samples", str(d / "samples.csv"), "--ckpt",
             str(t / "teacher.json"), "--student-ckpt", student,
             "--out", str(tmp_path / "sim.csv")],
        ]
        for argv in runs:
            done = TestModuleEntryPoint.run(
                *argv, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
            assert done.returncode == 0, (argv[0], done.stderr)
            assert "EncodingWarning" not in done.stderr
