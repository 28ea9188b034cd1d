"""Command-line entry points and report emission.

Subcommands: train-teacher, quantize, dfq, eval, report-similarity.
Exit codes: 0 success, 2 usage/config errors (a path that is missing or of
the wrong kind too), 3 runtime/numeric errors and allocations that fail
(numpy's ``ValueError`` for a size past its limits among them; any other
``ValueError`` is a bug and keeps its traceback).
Verbosity via the ADADFQ_LOG environment variable (DEBUG/INFO/WARNING).

The dfq command is structurally data-free: it reads only the teacher
checkpoint (class count, input dimension, weights, BN statistics) and never
opens any dataset file.

train-teacher writes its train.csv and test.csv, which training never
reads, from a child forked onto a spare core while the teacher trains
(``game.on_spare_core``, under the trace worker's guard), and in-process
first elsewhere; the bytes are the same either way. The child runs at a
lower priority (nice 10), so the training keeps its CPU if other work
arrives. It waits for the child before it evaluates and saves, and writes
in-process if the child failed, so a write error still comes first, with
its exit code and message.

A train-teacher, quantize or dfq that fails after it made its out dir
removes every file it wrote there, and the out dir if it made it
(``_undone_on_error``); dfq makes it only after its game.

On Linux with glibc, ``main`` first asks the allocator to keep what a
command frees for reuse (``mallopt``). By default glibc gives each block of
128 KiB or more its own ``mmap`` and trims the top of the heap once about
1 MB of it is free, so the temporaries a 256-wide training step frees go
back to the kernel and the next step faults them in again: about 400 pages
a step, a fifth of a wide ``train-teacher`` spent in system time. Setting
either threshold turns off glibc's adjustment of both, so both are set.
Forked children inherit the setting. A program that imports the package
and calls it in-process keeps its own allocator settings; only ``main``
sets them. Every output byte is the same either way.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from .adaptability import disagreement_vector
from .config import RunConfig, read_config
from .data import (
    Dataset,
    apply_standardization,
    load_csv,
    make_blobs,
    make_rings,
    sample_noise_and_labels,
    save_csv,
    standardize,
    stratified_split,
    substream,
)
from .errors import AdadfqError, CheckpointFormatError, ConfigError, ContractError, DataError
from .game import TRACE_FIELDS, equilibrium_report, make_players, on_spare_core, run_game
from .nn import AdamOptimizer, MlpNetwork, make_mlp
from .quant import QuantizedMlp, build_quantized_student
from .tensor import Tensor, backward, cross_entropy_from_logits, no_grad

log = logging.getLogger("adadfq")

EVAL_BATCH = 256  # rows per read-only forward

# Above one wide step's freed temporaries (about 1.6 MB), and low enough
# that a process keeps little of what it frees.
TRIM_THRESHOLD = 4 << 20
# Above the largest per-step temporary (a 256x256 gradient, 512 KiB), so
# each comes from the heap and not from an mmap of its own.
MMAP_THRESHOLD = 1 << 20
# glibc's soname, looked up only where os.confstr names glibc.
_LIBC = "libc.so.6"
# numpy's ValueError for a size past its limits (a product of sizes that
# RunConfig bounds one by one), which is an allocation that cannot succeed.
NUMPY_SIZE_LIMITS = ("array is too big; `arr.size * arr.dtype.itemsize` is larger than "
                     "the maximum possible size.", "Maximum allowed dimension exceeded")


def _command_config(args) -> RunConfig:
    """The command's config with its --seed and --bits applied, range-checked
    as a whole before the command reads or writes anything."""
    values = read_config(getattr(args, "config", None))
    for key in ("seed", "bits"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return RunConfig(**values)


def _build_dataset(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """The train/test split of the config's dataset, as raw rows; ``RunConfig``
    has checked the kind and its keys."""
    if cfg.dataset == "blobs":
        return make_blobs(cfg.classes, cfg.per_class, cfg.dim, cfg.spread, cfg.seed)
    if cfg.dataset == "rings":
        return make_rings(cfg.classes, cfg.per_class, cfg.seed)
    full = load_csv(cfg.csv_path, cfg.label_column)
    present = np.unique(full.labels)
    if present.size < 2 or present[-1] != present.size - 1:
        raise DataError(
            f"{cfg.csv_path}: labels must be exactly 0..C-1 with C >= 2, got "
            f"{present.size} distinct label(s) up to {present[-1]}"
        )
    if full.dim == 0:
        raise DataError(f"{cfg.csv_path}: no feature column besides {cfg.label_column!r}")
    counts = np.bincount(full.labels)
    if counts.min() < 2:  # every class needs a row in each half of the split
        raise DataError(f"{cfg.csv_path}: class {counts.argmin()} has one row, "
                        "the train/test split needs two")
    # deterministic stratified split on the file's rows
    return stratified_split(full.features, full.labels, full.provenance,
                            substream(cfg.seed, "data"))


def _forward_batched(net, features: np.ndarray) -> np.ndarray:
    outs = []
    with no_grad():
        for start in range(0, features.shape[0], EVAL_BATCH):
            outs.append(net.forward(Tensor(features[start : start + EVAL_BATCH])).data)
    return np.concatenate(outs)


def observe_ranges(student: QuantizedMlp, features: np.ndarray) -> QuantizedMlp:
    """The naive student's activation ranges, observed on real rows by one
    training-mode forward per ``EVAL_BATCH`` rows; returns it in eval mode."""
    _forward_batched(student.train(), features)
    return student.eval()


def evaluate_network(net, ds: Dataset) -> dict:
    """Scores over the network's classes, the logits' width; a class without rows scores None."""
    logits = _forward_batched(net, ds.features)
    num_classes = logits.shape[1]
    if ds.labels.max() >= num_classes:
        raise DataError(f"{ds.provenance}: label {ds.labels.max()} is not below "
                        f"the network's class count {num_classes}")
    pred = np.argmax(logits, axis=1)
    correct = pred == ds.labels
    confusion = np.bincount(ds.labels * num_classes + pred,
                            minlength=num_classes * num_classes).reshape(num_classes, num_classes)
    per_class = {
        str(c): float(correct[ds.labels == c].mean()) if np.any(ds.labels == c) else None
        for c in range(num_classes)
    }
    return {
        "accuracy": float(correct.mean()),
        "per_class_accuracy": per_class,
        "confusion": confusion.tolist(),
        "num_samples": int(ds.num_samples),
    }


def train_teacher_network(train: Dataset, cfg: RunConfig) -> MlpNetwork:
    """Supervised pretraining of the full-precision network with label
    cross-entropy and Adam."""
    num_classes = int(train.labels.max()) + 1  # labels are 0..C-1, by _build_dataset
    net = make_mlp(train.dim, cfg.hidden_widths(cfg.teacher_hidden), num_classes,
                   substream(cfg.seed, "teacher_init"))
    opt = AdamOptimizer(net.parameters(), lr=cfg.teacher_lr)
    order_rng = substream(cfg.seed, "teacher_order")
    onehot = np.eye(num_classes)[train.labels]
    n = train.num_samples
    net.train()
    for epoch in range(cfg.teacher_epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, cfg.teacher_batch):
            idx = order[start : start + cfg.teacher_batch]
            if idx.size < 2:
                continue  # batch norm needs at least two samples
            x = Tensor(train.features[idx])
            y = Tensor(onehot[idx])
            loss = cross_entropy_from_logits(net.forward(x), y)
            backward(loss)
            opt.step()
        log.debug("teacher epoch %d done", epoch)
    return net.eval()


def _write_json(path, obj) -> None:
    ckpt.atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True))


def _inodes(out_dir: str) -> dict:
    """Each entry of ``out_dir``, by name, with its inode."""
    return {entry.name: entry.inode() for entry in os.scandir(out_dir)}


@contextlib.contextmanager
def _undone_on_error(out_dir: str):
    """Make ``out_dir`` for the block. On any error in it, remove each file
    the block wrote there, and ``out_dir`` if this made it. Every write puts
    a new file in place (``atomic_writer``), so an entry that is new, or
    whose inode changed, is one the block wrote, whichever process wrote
    it; every other entry stays."""
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    before = _inodes(out_dir)
    try:
        yield
    except BaseException:
        for name, inode in _inodes(out_dir).items():
            if before.get(name) != inode:
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(out_dir, name))
        if made:
            with contextlib.suppress(OSError):  # not empty: left as it is
                os.rmdir(out_dir)
        raise


# ---------------------------------------------------------------------------
# subcommands


# A diverging run overflows; the save's loader checks refuse what it trained,
# in one line, so numpy's warnings would only add to it.
@np.errstate(over="ignore", invalid="ignore")
def cmd_train_teacher(args) -> int:
    cfg = _command_config(args)
    train_raw, test_raw = _build_dataset(cfg)
    if cfg.label_column in [f"x{i}" for i in range(train_raw.dim)]:  # save_csv's names
        raise ConfigError(f"label_column {cfg.label_column!r} is the name of a feature "
                          f"column train-teacher writes (x0 to x{train_raw.dim - 1})")

    def write_split():
        save_csv(train_raw, os.path.join(args.out_dir, "train.csv"), cfg.label_column)
        save_csv(test_raw, os.path.join(args.out_dir, "test.csv"), cfg.label_column)

    # a failed run leaves none of its files behind
    with _undone_on_error(args.out_dir):
        with on_spare_core(write_split):  # training never reads the CSVs
            train_std, stats = standardize(train_raw)
            test_std = apply_standardization(test_raw, stats)
            net = train_teacher_network(train_std, cfg)

        metrics = {
            "train": evaluate_network(net, train_std),
            "test": evaluate_network(net, test_std),
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
        }
        meta = {
            "seed": cfg.seed,
            "epochs": cfg.teacher_epochs,
            "config_hash": cfg.config_hash(),
            "dataset": train_raw.provenance,
        }
        ckpt.save_teacher(os.path.join(args.out_dir, "teacher.json"), net,
                          norm_stats=stats, metadata=meta)
        _write_json(os.path.join(args.out_dir, "teacher_metrics.json"), metrics)
    print(json.dumps({"test_accuracy": metrics["test"]["accuracy"]}))
    return 0


def _load(path: str, kind: str):
    net, doc = ckpt.load_checkpoint(path)
    if doc["kind"] != kind:
        raise CheckpointFormatError(f"{path}: expected a {kind} checkpoint")
    return net, doc


def cmd_quantize(args) -> int:
    bits = _command_config(args).bits
    teacher, doc = _load(args.ckpt, "teacher")
    ds = load_csv(args.dataset, args.label_column, stats=ckpt.norm_stats_from(doc))
    student = observe_ranges(build_quantized_student(teacher, bits), ds.features)
    report = {
        "bits": bits,
        "naive_quantized": evaluate_network(student, ds),
        "teacher": evaluate_network(teacher, ds),
    }
    with _undone_on_error(args.out_dir):  # a failed run leaves none of its files behind
        ckpt.save_student(
            os.path.join(args.out_dir, f"student_naive_{bits}bit.json"),
            student, norm_stats=ckpt.norm_stats_from(doc),
            metadata={"source": "naive", "bits": bits},
        )
        _write_json(os.path.join(args.out_dir, "quantize_report.json"), report)
    print(json.dumps({
        "teacher_accuracy": report["teacher"]["accuracy"],
        "naive_accuracy": report["naive_quantized"]["accuracy"],
    }))
    return 0


def _pds_matrix(teacher, student, features: np.ndarray) -> np.ndarray:
    z_p = _forward_batched(teacher, features)
    z_q = _forward_batched(student, features)
    return disagreement_vector(Tensor(z_p), Tensor(z_q)).data


def _l1_similarity(pds: np.ndarray) -> np.ndarray:
    return np.abs(pds[:, None, :] - pds[None, :, :]).sum(axis=2)


def _dump_header(width: int) -> list[str]:
    """The sample dump's columns, in the order ``cmd_dfq`` writes them."""
    return ["sample_index", "label"] + [f"x{i}" for i in range(width)]


def cmd_dfq(args) -> int:
    cfg = _command_config(args)
    teacher, doc = _load(args.ckpt, "teacher")
    num_classes, input_dim = teacher.output_dim, teacher.input_dim

    generator, student = make_players(teacher, cfg)
    trace = run_game(generator, teacher, student, cfg)
    # a failed game leaves no directory, and a failed run none of its files
    with _undone_on_error(args.out_dir):
        ckpt.write_csv(os.path.join(args.out_dir, "trace.csv"),
                       (r.as_dict().values() for r in trace), header=TRACE_FIELDS)

        window = max(1, len(trace) // 4)
        report = equilibrium_report(trace, window)
        _write_json(os.path.join(args.out_dir, "equilibrium.json"), report.as_dict())

        ckpt.save_student(
            os.path.join(args.out_dir, f"student_dfq_{cfg.bits}bit.json"),
            student, norm_stats=ckpt.norm_stats_from(doc),
            metadata={"source": "dfq", "bits": cfg.bits, "seed": cfg.seed,
                      "config_hash": cfg.config_hash()},
        )

        # final generated-sample dump plus their pairwise p_ds distances, from
        # the players as run_game leaves them: in eval mode
        dump_seed = cfg.seed ^ 0x5A5A5A5A  # streams of their own, apart from the game's
        z, y = sample_noise_and_labels(substream(dump_seed, "noise"),
                                       substream(dump_seed, "labels"),
                                       cfg.sample_dump, cfg.noise_dim, num_classes)
        with no_grad():
            samples = generator.forward(z, y).data
        labels = np.argmax(y.data, axis=1).tolist()
        ckpt.write_csv(os.path.join(args.out_dir, "samples.csv"),
                       ([i, labels[i], *row] for i, row in enumerate(samples)),
                       header=_dump_header(input_dim))

        pds = _pds_matrix(teacher, student, samples)
        ckpt.write_csv(os.path.join(args.out_dir, "similarity.csv"), _l1_similarity(pds))

    print(json.dumps({
        "iterations": len(trace),
        "mean_delta_sum": report.mean_delta_sum,
        "equilibrium": report.equilibrium,
    }))
    return 0


def cmd_eval(args) -> int:
    net, doc = ckpt.load_checkpoint(args.ckpt)
    ds = load_csv(args.dataset, args.label_column, stats=ckpt.norm_stats_from(doc))
    report = evaluate_network(net, ds)
    if args.out:
        _write_json(args.out, report)
    print(json.dumps({"accuracy": report["accuracy"]}))
    return 0


def cmd_report_similarity(args) -> int:
    teacher, _ = _load(args.ckpt, "teacher")
    student, _ = _load(args.student_ckpt, "student")
    # the one place two independently saved networks meet
    shapes = [(n.input_dim, n.output_dim) for n in (teacher, student)]
    if shapes[0] != shapes[1]:
        raise ContractError(f"{args.student_ckpt}: student (input_dim, classes) {shapes[1]} "
                            f"does not match the teacher's {shapes[0]}")
    features = load_csv(args.samples, "label").features[:, 1:]  # drop sample_index
    # The columns are read by position, so the header must be the writer's.
    with open(args.samples, newline="", encoding="utf-8-sig") as fh:
        header = [name.strip() for name in next(csv.reader(fh))]
    if header != _dump_header(teacher.input_dim):
        raise DataError(f"{args.samples}: the header must be sample_index,label,"
                        f"x0,...,x{teacher.input_dim - 1}, as dfq writes it")
    pds = _pds_matrix(teacher, student, features)
    ckpt.write_csv(args.out, _l1_similarity(pds))
    print(json.dumps({"samples": int(features.shape[0]), "out": args.out}))
    return 0


# ---------------------------------------------------------------------------


def _utf8_word(value: str) -> str:
    """A command-line word as UTF-8 text, whatever the locale: a C locale
    decodes the bytes of ``é`` into two surrogate escapes, which would never
    match the UTF-8 header of a CSV. Bytes that are not UTF-8 are a usage
    error (argparse reports the ``ValueError``)."""
    return os.fsencode(value).decode("utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adadfq",
        description="Desk-scale data-free quantization laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-teacher", help="pretrain the full-precision network")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("quantize", help="naive post-training quantization baseline")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--label-column", default="label", type=_utf8_word)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dfq", help="data-free calibration via the zero-sum game")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--bits", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_dfq)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--label-column", default="label", type=_utf8_word)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report-similarity", help="pairwise L1 distances between p_ds vectors")
    p.add_argument("--samples", required=True)
    p.add_argument("--ckpt", required=True, help="teacher checkpoint")
    p.add_argument("--student-ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report_similarity)

    return parser


def _keep_freed_memory() -> None:
    """Set glibc's trim and mmap thresholds (module docstring); nothing
    where the C library is not glibc, or cannot be found. A ``mallopt``
    that refuses a value is ignored: the command runs as it would anyway."""
    if sys.platform != "linux":
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes  # only this call needs it; the package does not

        mallopt = ctypes.CDLL(_LIBC).mallopt  # int mallopt(int param, int value)
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD in malloc.h
        mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    except (ValueError, OSError, AttributeError):  # no such name, library or symbol
        pass


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    level = os.environ.get("ADADFQ_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (AdadfqError, MemoryError, ValueError) as e:  # a failed allocation, or a size
        if isinstance(e, ValueError) and str(e) not in NUMPY_SIZE_LIMITS:
            raise  # a bug, not a size: its traceback is the report
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
