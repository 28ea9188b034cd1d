"""Checkpoint files: versioned JSON with raw little-endian float64 payloads.

Parameter and buffer arrays are serialized as base64-wrapped little-endian
64-bit floats, so a load reproduces every weight bit-exactly and probe-batch
logits round-trip without drift. Loads are strict: a checkpoint must hold
exactly the network's parameters and buffers, with its shapes and finite
values, and well-formed architecture, quant and norm_stats sections, or
loading raises CheckpointFormatError. The architecture section is written
from the network itself: the hidden widths are the output sizes of every
linear layer but the last, so a saved file always matches its weights.

Every file the package writes goes through ``atomic_writer``: a temp file in
the target directory, renamed into place once it is complete. Every CSV file
goes through ``write_csv``, the one place that decides the float text format.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import math
import os

import numpy as np

from .errors import CheckpointFormatError
from .nn import MlpNetwork, make_mlp
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
    terminators."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
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


def _load_state(net, doc: dict, path) -> None:
    """Copy the checkpoint's arrays into ``net``. The names must be exactly the
    network's parameters and buffers, with the network's shapes and finite
    values."""
    params = {k: p.data for k, p in net.named_parameters().items()}
    for section, targets in (("params", params), ("buffers", net.named_buffers())):
        payload = doc.get(section)
        if not isinstance(payload, dict):
            raise CheckpointFormatError(f"{path}: missing {section} section")
        missing, unknown = targets.keys() - payload.keys(), payload.keys() - targets.keys()
        if missing or unknown:
            raise CheckpointFormatError(f"{path}: {section} do not match the architecture "
                                        f"(missing {sorted(missing)}, unknown {sorted(unknown)})")
        for name, target in targets.items():
            value = _decode_array(payload, name)
            if value.shape != target.shape:
                raise CheckpointFormatError(
                    f"{path}: {name!r} has shape {value.shape}, want {target.shape}")
            if not np.all(np.isfinite(value)):
                raise CheckpointFormatError(f"{path}: {name!r} holds non-finite values")
            target[...] = value


def _save(path, kind: str, net, norm_stats, metadata, **sections) -> None:
    """Write the document both checkpoint kinds share, plus ``sections``.
    The hidden widths are read off the network's ``.weight`` shapes."""
    params = net.named_parameters()
    widths = [p.shape[0] for k, p in params.items() if k.endswith(".weight")]
    doc = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "architecture": {
            "input_dim": net.input_dim,
            "hidden": widths[:-1],
            "num_classes": net.output_dim,
        },
        "params": {k: _encode_array(v.data) for k, v in params.items()},
        "buffers": {k: _encode_array(v) for k, v in net.named_buffers().items()},
        "metadata": metadata or {},
        **sections,
    }
    if norm_stats is not None:
        mean, std = norm_stats
        doc["norm_stats"] = {"mean": _encode_array(mean), "std": _encode_array(std)}
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def save_teacher(path, net: MlpNetwork, norm_stats=None, metadata: dict | None = None) -> None:
    _save(path, "teacher", net, norm_stats, metadata)


def save_student(path, net: QuantizedMlp, norm_stats=None, metadata: dict | None = None) -> None:
    quant = {
        "bits": net.bits,
        "act_ema_decay": ACT_EMA_DECAY,
        "act_ranges": [{"min": st.observed_min, "max": st.observed_max}
                       for st in net.act_states()],
    }
    _save(path, "student", net, norm_stats, metadata, quant=quant)


def _read(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointFormatError(f"{path}: not a valid checkpoint: {e}") from None
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointFormatError(f"{path}: missing version field")
    if doc["version"] != FORMAT_VERSION:
        raise CheckpointFormatError(
            f"{path}: unsupported checkpoint version {doc['version']} (want {FORMAT_VERSION})"
        )
    return doc


def _count(v, least: int = 1) -> bool:
    return type(v) is int and v >= least


def _act_range(rg) -> bool:
    """Finite numbers, or both None for a site that never observed a batch."""
    if not isinstance(rg, dict):
        return False
    pair = [rg.get("min"), rg.get("max")]
    return pair == [None, None] or all(type(v) in (int, float) and math.isfinite(v) for v in pair)


def _check_sections(doc: dict, path) -> None:
    arch, quant = doc.get("architecture"), doc.get("quant")
    if not (isinstance(arch, dict) and _count(arch.get("input_dim"))
            and _count(arch.get("num_classes")) and isinstance(arch.get("hidden"), list)
            and all(map(_count, arch["hidden"]))):
        raise CheckpointFormatError(f"{path}: architecture needs positive integers "
                                    "input_dim and num_classes and a list of them, hidden")
    if doc["kind"] == "student" and not (
            isinstance(quant, dict) and _count(quant.get("bits"), least=2)
            and quant["bits"] <= MAX_BITS
            and quant.get("act_ema_decay") == ACT_EMA_DECAY
            and isinstance(quant.get("act_ranges"), list)
            and all(map(_act_range, quant["act_ranges"]))):
        raise CheckpointFormatError(f"{path}: student checkpoint without a valid quant section "
                                    f"(bits in [2, {MAX_BITS}], act_ema_decay {ACT_EMA_DECAY}, "
                                    "act_ranges)")


def load_checkpoint(path):
    """Load any checkpoint; returns (network, document).

    The document keeps metadata, architecture, and norm stats accessible to
    callers; the network is fully reconstructed, including quantization state
    for students.
    """
    doc = _read(path)
    if doc.get("kind") not in ("teacher", "student"):
        raise CheckpointFormatError(f"{path}: unsupported checkpoint kind {doc.get('kind')!r}")
    _check_sections(doc, path)
    norm_stats_from(doc)  # checked here, so no command fails on it after its work
    arch = doc["architecture"]
    rng = np.random.default_rng(0)  # shapes only; weights are overwritten below
    net = make_mlp(arch["input_dim"], tuple(arch["hidden"]), arch["num_classes"], rng)
    if doc["kind"] == "student":
        quant = doc["quant"]
        net = build_quantized_student(net, quant["bits"])
        ranges = quant["act_ranges"]
        states = net.act_states()
        if len(ranges) != len(states):
            raise CheckpointFormatError(f"{path}: activation range count mismatch")
        for st, rg in zip(states, ranges):
            st.observed_min, st.observed_max = rg["min"], rg["max"]
    _load_state(net, doc, path)
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
