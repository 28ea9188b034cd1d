import base64
import json
import os
import re

import numpy as np
import pytest

from conftest import error_line

from adadfq.checkpoint import (
    FORMAT_VERSION,
    _encode_array,
    atomic_writer,
    load_checkpoint,
    norm_stats_from,
    save_student,
    save_teacher,
)
from adadfq.cli import RunConfig, main, train_teacher_network
from adadfq.data import make_blobs, save_csv, standardize
from adadfq.errors import CheckpointFormatError, ContractError
from adadfq.nn import make_mlp
from adadfq.quant import build_quantized_student
from adadfq.tensor import Tensor


@pytest.fixture(scope="module")
def teacher():
    cfg = RunConfig(seed=0, teacher_epochs=15, teacher_hidden="16",
                    classes=3, per_class=40, dim=4)
    train_raw, _ = make_blobs(3, 40, 4, 1.3, 0)
    train, stats = standardize(train_raw)
    return train_teacher_network(train, cfg), stats, train


class TestTeacherRoundTrip:
    def test_weights_bit_exact(self, teacher, tmp_path):
        net, stats, _ = teacher
        path = tmp_path / "t.json"
        save_teacher(path, net, norm_stats=stats)
        loaded, doc = load_checkpoint(path)
        for name, p in net.named_parameters().items():
            np.testing.assert_array_equal(loaded.named_parameters()[name].data, p.data)
        for name, b in net.named_buffers().items():
            np.testing.assert_array_equal(loaded.named_buffers()[name], b)

    def test_logits_drift_free(self, teacher, tmp_path):
        net, stats, train = teacher
        path = tmp_path / "t.json"
        save_teacher(path, net, norm_stats=stats)
        loaded, _ = load_checkpoint(path)
        x = Tensor(train.features[:16])
        np.testing.assert_array_equal(loaded.forward(x).data, net.forward(x).data)

    def test_norm_stats_round_trip(self, teacher, tmp_path):
        net, stats, _ = teacher
        path = tmp_path / "t.json"
        save_teacher(path, net, norm_stats=stats)
        _, doc = load_checkpoint(path)
        mean, std = norm_stats_from(doc)
        np.testing.assert_array_equal(mean, stats[0])
        np.testing.assert_array_equal(std, stats[1])

    def test_metadata_preserved(self, teacher, tmp_path):
        net, _, _ = teacher
        path = tmp_path / "t.json"
        save_teacher(path, net, metadata={"note": "x", "seed": 5})
        _, doc = load_checkpoint(path)
        assert doc["metadata"] == {"note": "x", "seed": 5}
        assert norm_stats_from(doc) is None


class TestStudentRoundTrip:
    def test_quant_state_restored_frozen(self, teacher, tmp_path):
        net, _, train = teacher
        student = build_quantized_student(net, 3)
        student.train()
        student.forward(Tensor(train.features[:64]))
        student.eval()
        path = tmp_path / "s.json"
        save_student(path, student)
        loaded, doc = load_checkpoint(path)
        assert doc["kind"] == "student"
        assert [layer.bits for layer in loaded.linears] == [3, 3]
        for a, b in zip(loaded.linears, student.linears):
            assert (a.act_min, a.act_max) == (b.act_min, b.act_max)
        ranges = [(layer.act_min, layer.act_max) for layer in student.linears]
        x = Tensor(train.features[64:128] * 10.0)  # far outside the observed ranges
        np.testing.assert_array_equal(loaded.forward(x).data, student.forward(x).data)
        for net in (student, loaded):
            assert [(layer.act_min, layer.act_max) for layer in net.linears] == ranges

    def test_bit_width_is_read_off_the_layers(self, teacher, tmp_path):
        net, _, train = teacher
        student, path = build_quantized_student(net, 3), tmp_path / "s.json"
        for layer in student.linears:
            layer.bits = 8
        save_student(path, student)
        loaded, doc = load_checkpoint(path)
        assert doc["quant"]["bits"] == 8 and [layer.bits for layer in loaded.linears] == [8, 8]
        x = Tensor(train.features[:16])
        np.testing.assert_array_equal(loaded.forward(x).data, student.forward(x).data)
        student.linears[0].bits = 4  # mixed widths: the file's one width would be wrong
        path.unlink()
        with pytest.raises(ContractError, match=r"\[4, 8\]"):
            save_student(path, student)
        assert not path.exists()


def test_architecture_is_read_off_the_network(tmp_path):
    net = make_mlp(4, (5, 3), 2, np.random.default_rng(0))
    for save, kind, model in ((save_teacher, "teacher", net),
                              (save_student, "student",
                               build_quantized_student(net, 3))):
        path = tmp_path / f"{kind}.json"
        save(path, model)
        doc = json.loads(path.read_text())
        arch = doc["architecture"]
        assert arch == {"input_dim": 4, "hidden": [5, 3], "num_classes": 2}
        loaded, _ = load_checkpoint(path)
        assert (loaded.input_dim, loaded.output_dim) == (arch["input_dim"], arch["num_classes"])
        if kind == "student":
            assert doc["quant"]["bits"] == 3 and [lin.bits for lin in loaded.linears] == [3] * 3


class TestFormatErrors:
    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"version": FORMAT_VERSION + 1}))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("garbage{")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"version": FORMAT_VERSION, "kind": "zebra",
                                    "architecture": {}}))
        with pytest.raises(CheckpointFormatError, match="kind"):
            load_checkpoint(path)

    def test_student_without_quant_section(self, teacher, tmp_path):
        net, _, _ = teacher
        path = tmp_path / "s.json"
        save_teacher(path, net)
        doc = json.loads(path.read_text())
        doc["kind"] = "student"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointFormatError, match="quant"):
            load_checkpoint(path)

    # A key given twice in the text. A plain json.load keeps its last value,
    # so each file would load; a parsed dict (STATE_MUTATIONS) cannot hold one.
    @pytest.mark.parametrize("key, mutate", [
        ("kind", lambda text: text.replace('"kind": "teacher"',
                                           '"kind": "student", "kind": "teacher"')),
        ("layers.0.bias", lambda text: re.sub(r'("layers\.0\.bias": \{[^}]*\})', r"\1, \1", text)),
    ], ids=["kind", "parameter"])
    def test_repeated_key(self, teacher, tmp_path, capsys, key, mutate):
        net, stats, train = teacher
        path, data = tmp_path / "t.json", tmp_path / "d.csv"
        save_teacher(path, net, norm_stats=stats)
        save_csv(train, data)
        text = path.read_text()
        path.write_text(mutate(text))
        assert path.read_text() != text
        with pytest.raises(CheckpointFormatError, match="appears twice"):
            load_checkpoint(path)
        assert main(["eval", "--ckpt", str(path), "--dataset", str(data)]) == 3
        assert error_line(capsys) == f"error: {path}: key {key!r} appears twice"


# Mutations of a saved checkpoint (hidden=(16,): layers 0 linear, 1 BN, 3
# linear; input_dim 4). Those in STUDENT_MUTATIONS apply to a 3-bit student
# with observed activation ranges, the rest to the teacher.
STATE_MUTATIONS = {
    "deleted_parameter": lambda d: d["params"].pop("layers.0.weight"),
    "unknown_parameter": lambda d: d["params"].update(
        {"layers.9.bias": d["params"]["layers.3.bias"]}),
    "deleted_buffer": lambda d: d["buffers"].pop("layers.1.running_var"),
    "missing_params_section": lambda d: d.pop("params"),
    "missing_data_key": lambda d: d["params"]["layers.0.bias"].pop("data"),
    "bad_base64": lambda d: d["params"]["layers.0.bias"].update(data="not*base64"),
    "wrong_byte_count": lambda d: d["params"]["layers.0.bias"].update(
        data=base64.b64encode(bytes(12)).decode("ascii")),
    "wrong_shape": lambda d: d["params"]["layers.0.weight"].update(shape=[4, 16]),
    "non_finite_value": lambda d: d["buffers"]["layers.1.running_var"].update(
        _encode_array(np.full(16, np.nan))),
    "missing_input_dim": lambda d: d["architecture"].pop("input_dim"),
    "non_list_hidden": lambda d: d["architecture"].update(hidden="16"),
    "oversized_hidden_width": lambda d: d["architecture"].update(hidden=[2 ** 63]),
    "short_norm_stats_mean": lambda d: d["norm_stats"].update(mean=_encode_array([0.0, 0.0])),
    "zero_norm_stats_std": lambda d: d["norm_stats"].update(std=_encode_array(np.zeros(4))),
    "truncated_norm_stats_std": lambda d: d["norm_stats"]["std"].update(
        data=d["norm_stats"]["std"]["data"][:8]),
    "missing_quant_bits": lambda d: d["quant"].pop("bits"),
    "non_dict_act_range": lambda d: d["quant"]["act_ranges"].__setitem__(0, [0.0, 1.0]),
    "other_act_ema_decay": lambda d: d["quant"].update(act_ema_decay=0.5),
    "oversized_act_range": lambda d: d["quant"]["act_ranges"][0].update(max=10 ** 400),
    "swapped_act_range": lambda d: d["quant"]["act_ranges"][1].update(
        min=d["quant"]["act_ranges"][1]["max"], max=d["quant"]["act_ranges"][1]["min"]),
    "overwide_act_range": lambda d: d["quant"]["act_ranges"][0].update(min=-1e308, max=1e308),
}
STUDENT_MUTATIONS = {"missing_quant_bits", "non_dict_act_range", "other_act_ema_decay",
                     "oversized_act_range", "swapped_act_range", "overwide_act_range"}


@pytest.mark.parametrize("mutation", sorted(STATE_MUTATIONS))
def test_malformed_state_is_a_format_error(teacher, tmp_path, capsys, mutation):
    net, stats, train = teacher
    path = tmp_path / "t.json"
    if mutation in STUDENT_MUTATIONS:
        student = build_quantized_student(net, 3).train()
        student.forward(Tensor(train.features[:32]))
        save_student(path, student.eval(), norm_stats=stats)
    else:
        save_teacher(path, net, norm_stats=stats)
    doc = json.loads(path.read_text())
    STATE_MUTATIONS[mutation](doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    # the checkpoint is read before the (absent) dataset, so exit 3 is the load
    rc = main(["eval", "--ckpt", str(path), "--dataset", str(tmp_path / "absent.csv")])
    assert rc == 3
    assert error_line(capsys).startswith(f"error: {path}: ")


class TestAtomicWriter:
    def test_failure_leaves_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write("half")
                raise RuntimeError("cut")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_nested_writers_of_one_path_both_succeed(self, tmp_path):
        """Each writer has a temp file of its own, so the one that closes last
        replaces the file with its full text."""
        path = tmp_path / "out.txt"
        with atomic_writer(path) as outer:
            outer.write("0123456789")
            with atomic_writer(path) as inner:
                inner.write("abc")
            assert path.read_text() == "abc"
        assert path.read_text() == "0123456789"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_mode_is_that_of_a_plain_open(self, tmp_path):
        with open(tmp_path / "plain.txt", "w"):
            pass
        with atomic_writer(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        modes = {os.stat(tmp_path / name).st_mode for name in ("plain.txt", "atomic.txt")}
        assert len(modes) == 1
