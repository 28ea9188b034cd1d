"""Checkpoint files: versioned JSON with raw little-endian float64 payloads.

Parameter and buffer arrays are serialized as base64-wrapped little-endian
64-bit floats, so a load reproduces every weight bit-exactly and probe-batch
logits round-trip without drift. Loads are strict: a checkpoint must hold
exactly the network's parameters and buffers, with its shapes and finite
values, and well-formed architecture, quant and norm_stats sections, or
loading raises a CheckpointFormatError that names the file. A save runs
the same checks first and writes no file that a load would refuse. The
architecture is checked against the arrays' shapes before a network is
built from it, so a load allocates no more than the file holds. The
architecture section is written from the network itself: the hidden widths
are the output sizes of every linear layer but the last, so a saved file
always matches its weights. A student's one bit width is read off its
layers, which must agree.

Every file the package writes goes through ``atomic_writer``: a temp file in
the target directory, renamed into place once it is complete. Every CSV file
goes through ``write_csv``, the one place that decides the float text format.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .errors import CheckpointFormatError, ContractError
from .nn import MlpNetwork, layer_prefix, make_mlp
from .quant import ACT_EMA_DECAY, MAX_BITS, QuantizedMlp, build_quantized_student

FORMAT_VERSION = 1


def _encode_array(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "data": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(section: dict, name: str) -> np.ndarray:
    """Decode ``section[name]``; a missing or malformed entry is a format error."""
    try:
        enc = section[name]
        raw = base64.b64decode(enc["data"], validate=True)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(enc["shape"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointFormatError(f"array {name!r} cannot be decoded: {e!r}") from None


@contextlib.contextmanager
def atomic_writer(path):
    """Yield a UTF-8 text handle on a temp file beside ``path``, whatever the
    locale, as every reader expects. On success the temp file replaces
    ``path``; on failure it is removed and ``path`` is left as it was. Lines
    end as written (``newline=""``), so CSV rows keep their ``\r\n``
    terminators. Each writer creates its own temp file, ``path.<hex>.tmp``,
    exclusively and with the mode ``open(path, "w")`` would give, so two
    writers of one path never write into one file."""
    while True:
        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        with contextlib.suppress(FileExistsError):
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                         | getattr(os, "O_BINARY", 0), 0o666)  # Windows: no newline mapping
            break
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text)


def write_csv(path, rows, header=None) -> None:
    """Write ``rows`` (and ``header`` first, when given) as one CSV file.
    Python ints are written as they are; every other value as
    ``repr(float(v))``, which reads back bit-exactly. Neither text ever
    needs quoting, so a row is joined as it is; the header goes through
    ``csv.writer``, since a column name may need quoting."""
    with atomic_writer(path) as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        for row in rows:
            fh.write(",".join([str(v) if isinstance(v, int) else repr(float(v))
                               for v in row]) + "\r\n")


def _decoded(doc: dict) -> dict[str, dict[str, np.ndarray]]:
    """The arrays of the params and buffers sections, decoded, each finite."""
    arrays = {}
    for section in ("params", "buffers"):
        payload = doc.get(section)
        if not isinstance(payload, dict):
            raise CheckpointFormatError(f"missing {section} section")
        arrays[section] = {name: _decode_array(payload, name) for name in payload}
        for name, value in arrays[section].items():
            if not np.all(np.isfinite(value)):
                raise CheckpointFormatError(f"{name!r} holds non-finite values")
    return arrays


def _load_state(net, arrays: dict) -> None:
    """Copy the decoded arrays into ``net``. The names must be exactly the
    network's parameters and buffers, with the network's shapes."""
    params = {k: p.data for k, p in net.named_parameters().items()}
    for section, targets in (("params", params), ("buffers", net.named_buffers())):
        payload = arrays[section]
        missing, unknown = targets.keys() - payload.keys(), payload.keys() - targets.keys()
        if missing or unknown:
            raise CheckpointFormatError(f"{section} do not match the architecture "
                                        f"(missing {sorted(missing)}, unknown {sorted(unknown)})")
        for name, target in targets.items():
            if payload[name].shape != target.shape:
                raise CheckpointFormatError(
                    f"{name!r} has shape {payload[name].shape}, want {target.shape}")
            target[...] = payload[name]


def _save(path, kind: str, net, norm_stats, metadata, **sections) -> None:
    """Write the document both checkpoint kinds share, plus ``sections``."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "architecture": {
            "input_dim": net.input_dim,
            "hidden": [layer.weight.shape[0] for layer in net.linears[:-1]],
            "num_classes": net.output_dim,
        },
        "params": {k: _encode_array(v.data) for k, v in net.named_parameters().items()},
        "buffers": {k: _encode_array(v) for k, v in net.named_buffers().items()},
        "metadata": metadata or {},
        **sections,
    }
    if norm_stats is not None:
        mean, std = norm_stats
        doc["norm_stats"] = {"mean": _encode_array(mean), "std": _encode_array(std)}
    try:  # the loader's own checks: no file is written that a load would refuse
        _check_sections(doc)
        norm_stats_from(doc)
        _decoded(doc)
    except CheckpointFormatError as e:
        raise CheckpointFormatError(f"{path}: not written: {e}") from None
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def save_teacher(path, net: MlpNetwork, norm_stats=None, metadata: dict | None = None) -> None:
    _save(path, "teacher", net, norm_stats, metadata)


def save_student(path, net: QuantizedMlp, norm_stats=None, metadata: dict | None = None) -> None:
    bits = {layer.bits for layer in net.linears}
    if len(bits) != 1:
        raise ContractError(f"a saved student has one bit width; its layers have {sorted(bits)}")
    quant = {
        "bits": bits.pop(),
        "act_ema_decay": ACT_EMA_DECAY,
        "act_ranges": [{"min": layer.act_min, "max": layer.act_max}
                       for layer in net.linears],
    }
    _save(path, "student", net, norm_stats, metadata, quant=quant)


def _unique_keys(pairs: list) -> dict:
    """``json.load``'s object hook: a key given twice is an error, not its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise CheckpointFormatError(f"key {key!r} appears twice")
    return doc


def _read(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointFormatError(f"not a valid checkpoint: {e}") from None
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointFormatError("missing version field")
    if doc["version"] != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint version {doc['version']} (want {FORMAT_VERSION})")
    if doc.get("kind") not in ("teacher", "student"):
        raise CheckpointFormatError(f"unsupported checkpoint kind {doc.get('kind')!r}")
    return doc


def _count(v, least: int = 1) -> bool:
    return type(v) is int and v >= least


def _act_range(rg, bits: int) -> bool:
    """Exactly the keys min and max: numbers finite as float64 (an int is
    compared exactly, so 10**400 is not), with min <= max and a width that
    stays finite times the ``bits`` grid's 2**bits - 1 levels (the
    fake-quant's largest intermediate value); or both None for a site that
    never observed a batch."""
    if not isinstance(rg, dict) or rg.keys() != {"min", "max"}:
        return False
    pair = [rg["min"], rg["max"]]
    if pair == [None, None]:
        return True
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pair):
        return False
    lo, hi = map(float, pair)
    return lo <= hi and (hi - lo) * float(2 ** bits - 1) <= sys.float_info.max


def _check_sections(doc: dict) -> None:
    arch, quant = doc.get("architecture"), doc.get("quant")
    if not (isinstance(arch, dict) and _count(arch.get("input_dim"))
            and _count(arch.get("num_classes")) and isinstance(arch.get("hidden"), list)
            and all(map(_count, arch["hidden"]))):
        raise CheckpointFormatError("architecture needs positive integers "
                                    "input_dim and num_classes and a list of them, hidden")
    if doc["kind"] == "student" and not (
            isinstance(quant, dict) and _count(quant.get("bits"), least=2)
            and quant["bits"] <= MAX_BITS
            and quant.get("act_ema_decay") == ACT_EMA_DECAY
            and isinstance(quant.get("act_ranges"), list)
            and all(_act_range(rg, quant["bits"]) for rg in quant["act_ranges"])):
        raise CheckpointFormatError(f"student checkpoint without a valid quant section "
                                    f"(bits in [2, {MAX_BITS}], act_ema_decay {ACT_EMA_DECAY}, "
                                    "act_ranges with finite min <= max)")


def load_checkpoint(path):
    """Load any checkpoint; returns (network, document).

    The document keeps metadata, architecture, and norm stats accessible to
    callers; the network is fully reconstructed, including quantization state
    for students. Every format error names ``path``.
    """
    try:
        doc = _read(path)
        _check_sections(doc)
        norm_stats_from(doc)  # checked here, so no command fails on it after its work
        arrays = _decoded(doc)
        arch = doc["architecture"]
        # The widths must be the weights' before a network is built from them:
        # a load allocates what the file holds.
        dims = [arch["input_dim"], *arch["hidden"], arch["num_classes"]]
        for k, shape in enumerate(zip(dims[1:], dims)):
            if getattr(arrays["params"].get(f"{layer_prefix(k)}weight"), "shape", None) != shape:
                raise CheckpointFormatError(f"architecture widths {dims} do not "
                                            "match the weights' shapes")
        rng = np.random.default_rng(0)  # shapes only; weights are overwritten below
        net = make_mlp(arch["input_dim"], tuple(arch["hidden"]), arch["num_classes"], rng)
        if doc["kind"] == "student":
            quant = doc["quant"]
            net = build_quantized_student(net, quant["bits"])
            if len(quant["act_ranges"]) != len(net.linears):
                raise CheckpointFormatError("activation range count mismatch")
            for layer, rg in zip(net.linears, quant["act_ranges"]):
                if rg["min"] is not None:
                    layer.act_min, layer.act_max = float(rg["min"]), float(rg["max"])
        _load_state(net, arrays)
    except CheckpointFormatError as e:
        raise CheckpointFormatError(f"{path}: {e}") from None
    return net.eval(), doc


def norm_stats_from(doc: dict):
    """The checkpoint's (mean, std) standardization, or None."""
    ns = doc.get("norm_stats")
    if ns is None:
        return None
    mean, std = _decode_array(ns, "mean"), _decode_array(ns, "std")
    want = (doc["architecture"]["input_dim"],)
    if not (mean.shape == std.shape == want and np.isfinite(mean).all()
            and np.isfinite(std).all() and (std > 0.0).all()):
        raise CheckpointFormatError(f"norm_stats need finite mean and positive finite std "
                                    f"of shape {want}, got {mean.shape} and {std.shape}")
    return mean, std
