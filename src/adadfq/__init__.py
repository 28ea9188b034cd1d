"""Desk-scale data-free quantization laboratory.

A generator synthesizes samples whose adaptability to a quantized student is
regulated between learned disagreement/agreement boundaries; the student is
calibrated on those samples without ever touching the original training data.
The names below are what a lab session drives; the modules hold the rest.
"""

from .adaptability import calibration_objective, classify_samples, generator_objective
from .config import RunConfig
from .data import load_csv, make_blobs, make_rings, substream
from .game import EquilibriumReport, TraceRow, equilibrium_report, run_game
from .nn import AdamOptimizer, ConditionalGenerator, MlpNetwork, SgdMomentum, make_mlp
from .quant import build_quantized_student
from .tensor import Tensor, backward

__all__ = [
    "AdamOptimizer", "ConditionalGenerator", "EquilibriumReport", "MlpNetwork",
    "RunConfig", "SgdMomentum", "Tensor", "TraceRow",
    "backward", "build_quantized_student", "calibration_objective", "classify_samples",
    "equilibrium_report", "generator_objective", "load_csv", "make_blobs", "make_mlp",
    "make_rings", "run_game", "substream",
]
