"""The package holds what its commands run.

The five commands run on a tiny config under ``sys.setprofile``, with a
``rings`` and a ``csv`` train-teacher besides, and every function and method
defined in ``src/adadfq`` must be called, but for the allow-list below, where
each entry says why it stays. A function no command calls belongs with the
tests that need it (``reference.py``), or nowhere.
"""

import inspect
import os
import sys

import pytest

import adadfq
from adadfq import game
from adadfq.cli import main

PACKAGE_DIR = os.path.dirname(os.path.abspath(adadfq.__file__))

# Defined in the package, called by no command.
ALLOWED = {
    # perfbench/layers.py wraps these by name
    "adaptability.info_entropy": "perfbench wraps it (adaptability.entropy span)",
    "quant.fake_quant": "perfbench wraps it (quant.fake_quant span)",
    "quant._ste": "fake_quant's node",
    # the quantizer's reference, which the tests and demos/quantizer_tour.py use
    "quant.round_half_away": "the quantizer's reference rounding",
    "quant.quantize_array": "the quantizer's reference mapping",
    "quant.dequantize_array": "the quantizer's reference inverse",
    "tensor._unbroadcast": "the tests' composites broadcast; no command does",
    "tensor.Tensor.__repr__": "for a reader at the prompt or in a failing test",
    # runs, but only in the forked child, where the profiler does not see it
    "game._TraceWorker._serve": "the trace worker's loop, run in the forked child only",
}

CONFIG = """
classes = 3
per_class = 20
dim = 4
teacher_hidden = 8,8
teacher_epochs = 2
gen_hidden = 8,8
epochs = 1
iterations_per_epoch = 3
batch_size = 4
noise_dim = 4
sample_dump = 5
aux_ce = 0.5
"""


def package_functions() -> dict:
    """Code object -> ``module.qualname`` of every function and method whose
    source is in the package (an alias is listed once, under its own name)."""
    found = {}

    def add(module, obj):
        obj = inspect.unwrap(obj)  # contextmanager wrappers
        code = getattr(obj, "__code__", None)
        if code is not None and os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE_DIR:
            found[code] = f"{module}.{obj.__qualname__}"

    for name, module in list(sys.modules.items()):
        if not name.startswith("adadfq."):
            continue
        short = name.split(".", 1)[1]
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == name:
                for member in vars(obj).values():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, staticmethod):
                        member = member.__func__
                    if callable(member):
                        add(short, member)
            elif inspect.isfunction(obj) and obj.__module__ == name:
                add(short, obj)
    return found


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """Code objects of every Python function the seven runs call."""
    root = tmp_path_factory.mktemp("lean")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    rings = root / "rings.cfg"
    rings.write_text("dataset = rings\nclasses = 3\nper_class = 20\n"
                     "teacher_hidden = 8\nteacher_epochs = 1\n")
    teacher, ckpt = root / "teacher", str(root / "teacher" / "teacher.json")
    csv_cfg = root / "csv.cfg"
    csv_cfg.write_text(f"dataset = csv\ncsv_path = {teacher / 'train.csv'}\n"
                       "teacher_hidden = 8\nteacher_epochs = 1\n")
    runs = [
        ["train-teacher", "--config", str(cfg), "--out-dir", str(teacher)],
        ["quantize", "--ckpt", ckpt, "--bits", "3", "--dataset", str(teacher / "test.csv"),
         "--out-dir", str(root / "naive")],
        ["dfq", "--ckpt", ckpt, "--config", str(cfg), "--out-dir", str(root / "dfq")],
        ["eval", "--ckpt", str(root / "dfq" / "student_dfq_3bit.json"),
         "--dataset", str(teacher / "test.csv"), "--out", str(root / "eval.json")],
        ["report-similarity", "--samples", str(root / "dfq" / "samples.csv"),
         "--ckpt", ckpt, "--student-ckpt", str(root / "dfq" / "student_dfq_3bit.json"),
         "--out", str(root / "sim.csv")],
        ["train-teacher", "--config", str(rings), "--out-dir", str(root / "rings")],
        ["train-teacher", "--config", str(csv_cfg), "--out-dir", str(root / "csv")],
    ]
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    # dfq forks its trace worker, and train-teacher its CSV writer, as in a
    # process of one OS thread with two idle CPUs, whatever threads (a BLAS
    # pool, say) this test process runs. The rings run sees one CPU, so its
    # CSVs are written in-process, where the profiler sees them.
    (root / "task" / "1").mkdir(parents=True)
    (root / "loadavg").write_text("0.50 0.40 0.30 1/120 4242\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game, "_THREADS_DIR", str(root / "task"))
        patch.setattr(game, "_LOADAVG", str(root / "loadavg"))
        for argv in runs:
            cpus = {0} if argv[-1] == str(root / "rings") else {0, 1}
            patch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            sys.setprofile(profile)
            try:
                rc = main(argv)
            finally:
                sys.setprofile(None)
            assert rc == 0, argv
    return seen


def test_every_package_function_is_run_by_a_command(called):
    never = sorted(name for code, name in package_functions().items()
                   if code not in called and name not in ALLOWED)
    assert never == [], f"defined in src/adadfq but run by no command: {never}"


def test_the_allow_list_names_only_functions_no_command_runs(called):
    defined = {name: code for code, name in package_functions().items()}
    assert sorted(set(ALLOWED) - set(defined)) == []
    assert sorted(name for name in ALLOWED if defined[name] in called) == []
