"""The run configuration: every setting of the lab, declared and checked once.

``RunConfig`` is the only settings object. The commands build it from a
config file plus their ``--seed``/``--bits`` options, and the game reads it
directly: its step sizes, its batch shape and the paper's six game
hyperparameters (the margin bounds ``lambda_l``/``lambda_u`` and the loss
weights ``alpha_ds``, ``alpha_as``, ``beta``, ``gamma``) under their
config-key names. The record is frozen and range-checked when it is made,
so every ``RunConfig`` that exists, whether it came from a file, the command
line, a test or a demo, is in range.

Config files are flat ``key = value`` lines; ``#`` starts a comment.
Unknown keys, a key set a second time, values that do not parse as the
key's type and out-of-range values raise ConfigError.

Each fact is checked once, where a bad value can enter, and taken as given
behind that boundary:

    fact                                          checked by
    0 <= lambda_l < lambda_u <= 1                 RunConfig
    step sizes, loss weights in [0, inf)          RunConfig
    2 <= bits <= quant.MAX_BITS                   RunConfig; the loader, for a student
    batch_size >= 2 (batch statistics)            RunConfig
    sizes, counts, hidden widths < 2**63 (numpy)  RunConfig
    dataset keys in range, none ignored           RunConfig
    dataset CSV exists and parses                 train-teacher, data.load_csv
    CSV standardized once, from the train split   train-teacher
    config, CSV, sample dump UTF-8 (BOM dropped)  config.read_config; data.load_csv
    CSV and sample-dump values finite             data.load_csv
    CSV header names each column once             data.load_csv
    CSV labels integers in [0, 2**63)             data.load_csv
    CSV feature count = the statistics'           data.load_csv (eval, quantize)
    CSV labels are exactly 0..C-1, C >= 2         train-teacher (cli._build_dataset)
    CSV feature column, two rows per class        train-teacher (cli._build_dataset)
    CSV labels < the network's class count        cli.evaluate_network (eval, quantize)
    checkpoint sections, arrays, EMA decay        checkpoint.load_checkpoint
    activation range keys, order and width        checkpoint.load_checkpoint
    a checkpoint written is one that loads        checkpoint._save (the loader's checks)
    label_column is no feature name x0..x{d-1}    train-teacher
    sample dump; student shape = teacher's        report-similarity
    checkpoint kind a command expects             cli._load
    one-hot labels; p_ds rows sum to 1            built so (sample_noise_and_labels, softmax)
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, utf8_only
from .quant import MAX_BITS

# Above every size, count and hidden width: numpy's largest array dimension
# (``np.intp``'s maximum) + 1. A size past it fails in numpy as a ValueError,
# not as a failed allocation.
SIZE_LIMIT = 2**63

# The dataset keys each dataset kind reads. A key the chosen kind does not
# read must keep its default, so no setting is silently ignored.
_DATASET_KEYS = {
    "blobs": ("classes", "per_class", "dim", "spread"),
    "rings": ("classes", "per_class"),
    "csv": ("csv_path",),
}


@dataclass(frozen=True)
class RunConfig:
    """Flat, human-editable run configuration; unspecified fields keep the
    defaults below. The field order is part of ``config_hash``."""

    dataset: str = "blobs"
    csv_path: str = ""
    label_column: str = "label"
    classes: int = 4
    per_class: int = 500
    dim: int = 8
    spread: float = 1.3
    teacher_hidden: str = "64,64"
    teacher_epochs: int = 60
    teacher_lr: float = 1e-3
    teacher_batch: int = 64
    bits: int = 3
    epochs: int = 400
    iterations_per_epoch: int = 50
    batch_size: int = 16
    noise_dim: int = 64
    embed_dim: int = 8
    gen_hidden: str = "64,64"
    gen_lr: float = 1e-3
    cal_lr: float = 1e-4
    cal_momentum: float = 0.9
    cal_weight_decay: float = 1e-4
    alpha_ds: float = 0.2
    alpha_as: float = 0.1
    lambda_l: float = 0.1
    lambda_u: float = 0.8
    beta: float = 1.0
    gamma: float = 1.0
    aux_ce: float = 0.0  # weight of the label cross-entropy added to calibration
    sample_dump: int = 64
    seed: int = 0

    def __post_init__(self):
        self._check_dataset_keys()
        self.hidden_widths(self.teacher_hidden)
        self.hidden_widths(self.gen_hidden)
        if not 2 <= self.bits <= MAX_BITS:
            raise ConfigError(f"bit width must be in [2, {MAX_BITS}], got {self.bits}")
        for key, least in (("classes", 2), ("per_class", 5), ("dim", 2),
                           ("teacher_epochs", 1), ("teacher_batch", 2), ("epochs", 1),
                           ("iterations_per_epoch", 1), ("batch_size", 2), ("noise_dim", 1),
                           ("embed_dim", 1), ("sample_dump", 1)):
            if not least <= getattr(self, key) < SIZE_LIMIT:
                raise ConfigError(f"{key} must be in [{least}, 2**63), got {getattr(self, key)}")
        if not 0.0 < self.spread < math.inf:  # NaN fails too
            raise ConfigError(f"spread must be finite and > 0, got {self.spread}")
        for key in ("teacher_lr", "gen_lr", "cal_lr", "cal_weight_decay",
                    "alpha_ds", "alpha_as", "beta", "gamma", "aux_ce"):
            if not 0.0 <= getattr(self, key) < math.inf:  # NaN fails too
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0.0 <= self.cal_momentum < 1.0:
            raise ConfigError(f"cal_momentum must be in [0, 1), got {self.cal_momentum}")
        if not 0.0 <= self.lambda_l < self.lambda_u <= 1.0:
            raise ConfigError(
                f"need 0 <= lambda_l < lambda_u <= 1, got ({self.lambda_l}, {self.lambda_u})"
            )

    def _check_dataset_keys(self) -> None:
        if self.dataset not in _DATASET_KEYS:
            raise ConfigError(
                f"dataset must be one of {', '.join(_DATASET_KEYS)}, got {self.dataset!r}")
        unread = {k for keys in _DATASET_KEYS.values() for k in keys}
        unread -= set(_DATASET_KEYS[self.dataset])
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ConfigError(f"dataset = {self.dataset} does not read {f.name}; "
                                  f"leave it at its default {f.default!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ConfigError("dataset = csv needs csv_path")

    def hidden_widths(self, raw: str) -> tuple[int, ...]:
        try:
            widths = tuple(int(w) for w in raw.split(",") if w.strip())
        except ValueError:
            raise ConfigError(f"bad hidden-width list {raw!r}") from None
        if not all(1 <= w < SIZE_LIMIT for w in widths):
            raise ConfigError(f"hidden widths must be in [1, 2**63), got {raw!r}")
        return widths

    def config_hash(self) -> str:
        canon = "\n".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def read_config(path: str | None) -> dict:
    """The settings of the config file at ``path`` (none for None), each
    parsed to its key's type; ranges are checked by ``RunConfig`` itself."""
    values = {}
    if path is None:
        return values
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    with open(path, encoding="utf-8-sig") as fh, utf8_only(path, ConfigError):
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            if key in values:  # the earlier setting would be silently dropped
                raise ConfigError(f"{path}:{line_no}: {key!r} is set a second time")
            try:
                values[key] = types[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{line_no}: cannot parse {value!r} as {types[key].__name__}"
                ) from None
    return values
