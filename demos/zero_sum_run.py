#!/usr/bin/env python3
"""A complete data-free calibration run, end to end, in under a minute.

Run me directly:  python3 demos/zero_sum_run.py

We train a small full-precision teacher on Gaussian blobs, quantize it to
3 bits (watching the accuracy drop), and then play the generator-vs-student
game without ever touching the dataset again. The printout tracks the two
players' entropy gains per iteration window; near equilibrium they should
roughly cancel.
"""

import numpy as np

from adadfq.cli import RunConfig, evaluate_network, observe_ranges, train_teacher_network
from adadfq.data import make_blobs, standardize, apply_standardization
from adadfq.game import equilibrium_report, make_players, run_game
from adadfq.quant import build_quantized_student

SEED = 0

# ---------------------------------------------------------------------------
# 1. Teacher
# ---------------------------------------------------------------------------

cfg = RunConfig(seed=SEED)
train_raw, test_raw = make_blobs(4, 500, 8, 1.3, SEED)
train, stats = standardize(train_raw)
test = apply_standardization(test_raw, stats)

teacher = train_teacher_network(train, cfg)
t_acc = evaluate_network(teacher, test)["accuracy"]
print(f"teacher test accuracy: {t_acc:.3f}")

# ---------------------------------------------------------------------------
# 2. Naive 3-bit baseline
# ---------------------------------------------------------------------------
# Copy the weights into a fake-quantized twin, let it observe activation
# ranges on the test features, then freeze and score. The drop below is the
# damage we want to undo without data.

naive = observe_ranges(build_quantized_student(teacher, 3), test.features)
n_acc = evaluate_network(naive, test)["accuracy"]
print(f"naive 3-bit accuracy:  {n_acc:.3f}  (drop {100 * (t_acc - n_acc):.1f} points)")

# ---------------------------------------------------------------------------
# 3. The game
# ---------------------------------------------------------------------------
# From here on, only the teacher's weights and BN statistics are used; the
# dataset never appears again. 1200 iterations keeps the demo under a minute.

game_cfg = RunConfig(epochs=24, iterations_per_epoch=50, seed=SEED, cal_lr=1e-3, bits=3)
generator, student = make_players(teacher, game_cfg)

trace = run_game(generator, teacher, student, game_cfg)

print("\n  window   mean dG   mean dQ   dG+dQ    cal loss")
w = 200
for start in range(0, len(trace), w):
    rows = trace[start:start + w]
    dg = np.mean([r.delta_g for r in rows])
    dq = np.mean([r.delta_q for r in rows])
    cal = np.mean([r.loss_cal for r in rows])
    print(f"  {start:4d}-{start + len(rows):4d} {dg:+9.5f} {dq:+9.5f} {dg + dq:+9.5f}  {cal:8.4f}")

report = equilibrium_report(trace, len(trace) // 4)
print(f"\nequilibrium over final quarter: {report.equilibrium} "
      f"(|sum| {abs(report.mean_delta_sum):.2e} vs |dG| {report.mean_abs_delta_g:.2e})")

student.eval()
s_acc = evaluate_network(student, test)["accuracy"]
recovered = (s_acc - n_acc) / (t_acc - n_acc) if t_acc > n_acc else float("nan")
print(f"calibrated 3-bit accuracy: {s_acc:.3f}  (recovered {100 * recovered:.0f}% of the drop)")
