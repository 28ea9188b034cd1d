"""The benchmark's workloads: generated configs, set-up, timed commands and
output checks.

Every command goes through the public CLI entry point ``adadfq.cli.main``,
in this process. The program receives only the generated config file and
the seed. Per-step latency comes from pass-through wrappers that timestamp
each step without changing what the program computes:

* dfq: a wrapper around ``adadfq.cli.run_game`` that passes a
  ``row_callback`` (chaining any callback the caller gave);
* train-teacher: a wrapper around ``AdamOptimizer.step`` (one call per
  training batch).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from layers import LayerTracer

DESK = {
    "dataset": "blobs", "classes": 4, "per_class": 500, "dim": 8, "spread": 1.3,
    "teacher_hidden": "64,64", "teacher_epochs": 20, "teacher_batch": 64,
    "bits": 3, "epochs": 4, "iterations_per_epoch": 50, "batch_size": 16,
    "noise_dim": 64, "gen_hidden": "64,64", "cal_lr": 1e-3, "sample_dump": 64,
}


# Every run measures at least min_steps steps (200 on the real workloads),
# so at least 10 lie beyond the p95 tail.
TAIL_PCT = 95.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "dfq" or "pipeline"
    config: dict
    setup_reps: int
    min_steps: int


WORKLOADS = {
    w.name: w for w in (
        # the paper's desk game: per-op interpreter overhead dominates
        Workload("desk_dfq", "dfq", dict(DESK), setup_reps=7, min_steps=200),
        # the same game on 256x256 nets, batch 64: array work dominates
        Workload("wide_dfq", "dfq",
                 dict(DESK, teacher_hidden="256,256", gen_hidden="256,256",
                      teacher_epochs=10, batch_size=64, epochs=1),
                 setup_reps=5, min_steps=200),
        # supervised training plus CSV and checkpoint I/O; never the game
        Workload("teacher_pipeline", "pipeline",
                 dict(DESK, per_class=5000, teacher_epochs=3),
                 setup_reps=25, min_steps=200),
    )
}


# ---------------------------------------------------------------------------
# running the program


@dataclass
class Ledger:
    """Commands and checks attempted and failed in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def import_package():
    """Import adadfq afresh (dropping any loaded copy); returns adadfq.cli."""
    for name in [n for n in sys.modules if n == "adadfq" or n.startswith("adadfq.")]:
        del sys.modules[name]
    return importlib.import_module("adadfq.cli")


def run_cli(cli, ledger: Ledger, argv: list[str]) -> tuple[dict | None, float]:
    """Run one CLI command in-process; returns (its JSON output, wall seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - start
    if not ledger.check(code == 0, f"{' '.join(argv[:1])} exited {code}"):
        return None, wall
    lines = out.getvalue().strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), wall


def write_config(path: str, config: dict) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in config.items())


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Temporarily replace ``owner.attr`` with ``make(original)``."""
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def game_stamps(cli, stamps: list[float], students: list):
    """Pass-through run_game wrapper: one timestamp at entry and one per row.

    It also keeps the student the game calibrates, for the output checks.
    """
    def make(run_game):
        def timed_run_game(g, p, q, config, row_callback=None):
            stamps.append(time.perf_counter())
            students.append(q)

            def stamp(row):
                if row_callback is not None:
                    row_callback(row)
                stamps.append(time.perf_counter())

            return run_game(g, p, q, config, row_callback=stamp)
        return timed_run_game
    return patched(cli, "run_game", make)


def adam_stamps(cli, stamps: list[float]):
    """Pass-through AdamOptimizer.step wrapper: one timestamp per step."""
    def make(step):
        def timed_step(self):
            step(self)
            stamps.append(time.perf_counter())
        return timed_step
    return patched(cli.AdamOptimizer, "step", make)


# ---------------------------------------------------------------------------
# output checks


def accuracy_of(cli, net, doc: dict, test_csv: str) -> float:
    """Test accuracy recomputed here, not through the eval command."""
    ds = cli.load_csv(test_csv, "label", stats=cli.ckpt.norm_stats_from(doc))
    return cli.evaluate_network(net, ds)["accuracy"]


def reload_accuracy(cli, ckpt_path: str, test_csv: str) -> float:
    return accuracy_of(cli, *cli.ckpt.load_checkpoint(ckpt_path), test_csv)


def read_numeric_csv(path: str, header: bool) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.asarray(rows[1:] if header else rows, dtype=np.float64)


def check_dfq_outputs(cli, ledger: Ledger, out_dir: str, config: dict,
                      student, test_csv: str) -> dict:
    """Checks one dfq command's outputs; returns accuracy and output hashes."""
    iters = config["epochs"] * config["iterations_per_epoch"]
    trace_path = os.path.join(out_dir, "trace.csv")
    ckpt_path = os.path.join(out_dir, f"student_dfq_{config['bits']}bit.json")
    result = {"accuracy": float("nan"), "trace_sha256": None, "student_sha256": None}
    try:
        trace = read_numeric_csv(trace_path, header=True)
        ledger.check(trace.shape[0] == iters and bool(np.all(np.isfinite(trace))),
                     f"trace.csv has {trace.shape[0]} rows (want {iters}), all finite")
        with open(os.path.join(out_dir, "equilibrium.json")) as fh:
            ledger.check(isinstance(json.load(fh).get("mean_delta_sum"), float),
                         "equilibrium.json has mean_delta_sum")
        dump = config["sample_dump"]
        samples = read_numeric_csv(os.path.join(out_dir, "samples.csv"), header=True)
        ledger.check(samples.shape == (dump, 2 + config["dim"]), "samples.csv shape")
        sim = read_numeric_csv(os.path.join(out_dir, "similarity.csv"), header=False)
        ledger.check(sim.shape == (dump, dump) and bool(np.all(np.isfinite(sim))),
                     "similarity.csv shape and values")
        reported, _ = run_cli(cli, ledger, ["eval", "--ckpt", ckpt_path,
                                            "--dataset", test_csv])
        accuracy = float(reported["accuracy"]) if reported else float("nan")
        ledger.check(reload_accuracy(cli, ckpt_path, test_csv) == accuracy,
                     "student checkpoint reload reproduces the eval accuracy")
        # the student object the game calibrated, scored without the checkpoint
        _, doc = cli.ckpt.load_checkpoint(ckpt_path)
        ledger.check(accuracy_of(cli, student.eval(), doc, test_csv) == accuracy,
                     "in-memory student matches its checkpoint")
        ledger.check(accuracy > 1.0 / config["classes"], "student beats chance")
        result.update(accuracy=accuracy, trace_sha256=sha256(trace_path),
                      student_sha256=sha256(ckpt_path))
    except (OSError, ValueError, KeyError, TypeError) as e:
        ledger.check(False, f"dfq outputs unreadable: {e!r}")
    return result


def check_pipeline_outputs(cli, ledger: Ledger, work: str, config: dict,
                           printed: dict) -> dict:
    """Checks one train-teacher -> quantize -> eval pipeline's outputs."""
    teacher_dir = os.path.join(work, "teacher")
    teacher = os.path.join(teacher_dir, "teacher.json")
    test_csv = os.path.join(teacher_dir, "test.csv")
    naive = os.path.join(work, "naive", f"student_naive_{config['bits']}bit.json")
    result = {"accuracy": float("nan"), "hashes": {}, "train_rows": 0}
    try:
        rows = config["classes"] * config["per_class"]
        train = read_numeric_csv(os.path.join(teacher_dir, "train.csv"), header=True)
        test = read_numeric_csv(test_csv, header=True)
        ledger.check(train.shape[0] + test.shape[0] == rows
                     and train.shape[1] == config["dim"] + 1,
                     f"train.csv + test.csv hold {rows} rows")
        accuracy = float(printed["eval"]["accuracy"])
        ledger.check(accuracy == printed["train-teacher"]["test_accuracy"],
                     "eval reproduces train-teacher's test accuracy")
        ledger.check(reload_accuracy(cli, teacher, test_csv) == accuracy,
                     "teacher checkpoint reload reproduces the eval accuracy")
        ledger.check(reload_accuracy(cli, naive, test_csv)
                     == printed["quantize"]["naive_accuracy"],
                     "naive student reload reproduces quantize's accuracy")
        with open(os.path.join(work, "naive", "quantize_report.json")) as fh:
            ledger.check(json.load(fh)["bits"] == config["bits"], "quantize_report.json")
        ledger.check(accuracy > 1.0 / config["classes"], "teacher beats chance")
        result["accuracy"] = accuracy
        result["train_rows"] = train.shape[0]
        result["hashes"] = {os.path.relpath(p, work): sha256(p)
                            for p in (teacher, test_csv, naive)}
    except (OSError, ValueError, KeyError, TypeError) as e:
        ledger.check(False, f"pipeline outputs unreadable: {e!r}")
    return result


# ---------------------------------------------------------------------------
# set-up and one unit of work per workload


@dataclass
class Prepared:
    cli: object
    config_path: str
    teacher: str = ""
    test_csv: str = ""
    setup_s: list[float] = field(default_factory=list)


def setup(w: Workload, work: str, seed: int, ledger: Ledger, reps: int,
          tracer: LayerTracer | None = None) -> Prepared:
    """Imports plus workload preparation, ``reps`` times; the last one is used.

    For dfq this trains and saves the teacher through ``train-teacher``. A
    tracer, if given, traces the last repetition only.
    """
    times, hashes = [], set()
    for rep in range(reps):
        traced = tracer is not None and rep == reps - 1
        start = time.perf_counter()
        cli = import_package()
        config_path = os.path.join(work, "run.cfg")
        write_config(config_path, w.config)
        prepared = Prepared(cli, config_path)
        if w.kind == "dfq":
            teacher_dir = os.path.join(work, "teacher")
            with (tracer if traced else contextlib.nullcontext()):
                run_cli(cli, ledger, ["train-teacher", "--config", config_path,
                                      "--seed", str(seed), "--out-dir", teacher_dir])
            prepared.teacher = os.path.join(teacher_dir, "teacher.json")
            prepared.test_csv = os.path.join(teacher_dir, "test.csv")
        times.append(time.perf_counter() - start)
        if prepared.teacher and os.path.exists(prepared.teacher):
            hashes.add(sha256(prepared.teacher))
    if w.kind == "dfq":
        ledger.check(len(hashes) == 1, "set-up repetitions (traced or not) "
                                       "write the same teacher checkpoint")
    prepared.setup_s = times
    return prepared


@dataclass
class Unit:
    """One timed command (dfq) or pipeline, with its per-step latencies."""

    wall: float
    steps_s: list[float]
    samples: int  # samples processed in the timed work
    sample_time: float  # seconds those samples took: game time, or train-teacher wall
    accuracy: float
    hashes: dict
    output_bytes: int


def run_dfq(w: Workload, prep: Prepared, work: str, seed: int, ledger: Ledger,
            tracer: LayerTracer | None = None) -> Unit:
    cli = prep.cli
    out_dir = os.path.join(work, "dfq")
    stamps, students = [], []
    # the tracer goes on first, so the stamping wrapper calls the traced run_game
    with (tracer or contextlib.nullcontext()), game_stamps(cli, stamps, students):
        _, wall = run_cli(cli, ledger, ["dfq", "--ckpt", prep.teacher, "--config",
                                        prep.config_path, "--seed", str(seed),
                                        "--out-dir", out_dir])
    steps = list(np.diff(stamps))
    iters = w.config["epochs"] * w.config["iterations_per_epoch"]
    ledger.check(len(steps) == iters, f"run_game produced {len(steps)} of {iters} rows")
    checked = {"accuracy": float("nan"), "trace_sha256": None, "student_sha256": None}
    if students:
        checked = check_dfq_outputs(cli, ledger, out_dir, w.config, students[-1],
                                    prep.test_csv)
    game_time = stamps[-1] - stamps[0] if len(stamps) > 1 else float("nan")
    return Unit(wall=wall, steps_s=steps,
                samples=2 * w.config["batch_size"] * len(steps), sample_time=game_time,
                accuracy=checked.pop("accuracy"), hashes=checked,
                output_bytes=dir_bytes(out_dir))


def run_pipeline(w: Workload, prep: Prepared, work: str, seed: int, ledger: Ledger,
                 tracer: LayerTracer | None = None) -> Unit:
    cli = prep.cli
    work = os.path.join(work, "pipeline")
    teacher_dir = os.path.join(work, "teacher")
    teacher = os.path.join(teacher_dir, "teacher.json")
    test_csv = os.path.join(teacher_dir, "test.csv")
    commands = [
        ["train-teacher", "--config", prep.config_path, "--seed", str(seed),
         "--out-dir", teacher_dir],
        ["quantize", "--ckpt", teacher, "--bits", str(w.config["bits"]),
         "--dataset", test_csv, "--out-dir", os.path.join(work, "naive")],
        ["eval", "--ckpt", teacher, "--dataset", test_csv,
         "--out", os.path.join(work, "eval.json")],
    ]
    stamps, printed, walls = [], {}, []
    with tracer or contextlib.nullcontext():
        for argv in commands:
            if argv[0] == "train-teacher":
                with adam_stamps(cli, stamps):
                    printed[argv[0]], wall = run_cli(cli, ledger, argv)
            else:
                printed[argv[0]], wall = run_cli(cli, ledger, argv)
            walls.append(wall)
    checked = {"accuracy": float("nan"), "hashes": {}, "train_rows": 0}
    if all(printed.values()):
        checked = check_pipeline_outputs(cli, ledger, work, w.config, printed)
    return Unit(wall=sum(walls), steps_s=list(np.diff(stamps)),
                samples=checked["train_rows"] * w.config["teacher_epochs"],
                sample_time=walls[0],
                accuracy=checked["accuracy"], hashes=checked["hashes"],
                output_bytes=dir_bytes(work))


RUNNERS = {"dfq": run_dfq, "pipeline": run_pipeline}
