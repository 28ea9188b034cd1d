"""Desk-scale data-free quantization laboratory.

A generator synthesizes samples whose adaptability to a quantized student is
regulated between learned disagreement/agreement boundaries; the student is
calibrated on those samples without ever touching the original training data.
"""

from .adaptability import (
    agreement_vector,
    calibration_objective,
    classify_samples,
    disagreement_vector,
    generator_objective,
    info_entropy,
    loss_as,
    loss_bal,
    loss_bns,
    loss_ds,
    margin_terms,
    normalize_entropy,
)
from .config import RunConfig
from .data import SeededRng, load_csv, make_blobs, make_rings, sample_noise_and_labels
from .game import EquilibriumReport, TraceRow, equilibrium_report, run_game
from .nn import (
    AdamOptimizer,
    BatchNormLayer,
    ConditionalGenerator,
    LinearLayer,
    MlpNetwork,
    SgdMomentum,
    make_mlp,
)
from .quant import (
    FakeQuantState,
    build_quantized_student,
    dequantize_value,
    fake_quant,
    quantize_value,
)
from .tensor import Tensor, backward, log_softmax, softmax

__all__ = [
    "AdamOptimizer", "BatchNormLayer", "ConditionalGenerator", "EquilibriumReport",
    "FakeQuantState", "LinearLayer", "MlpNetwork", "RunConfig", "SeededRng",
    "SgdMomentum", "Tensor", "TraceRow",
    "agreement_vector", "backward", "build_quantized_student",
    "calibration_objective", "classify_samples",
    "dequantize_value", "disagreement_vector", "equilibrium_report", "fake_quant",
    "generator_objective", "info_entropy", "load_csv", "log_softmax", "loss_as",
    "loss_bal", "loss_bns", "loss_ds", "make_blobs", "make_mlp", "make_rings",
    "margin_terms", "normalize_entropy", "quantize_value", "run_game",
    "sample_noise_and_labels", "softmax",
]
