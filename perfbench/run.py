#!/usr/bin/env python3
"""The adadfq benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload desk_dfq --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. With ``--trace 0`` the run reports the end-to-end
metrics, measured with tracing off. With ``--trace 1`` it alternates
untraced and traced commands and reports the per-layer metrics, plus the
tracing overhead. Earlier lines of standard output describe the environment
and the run; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See README.md beside this file for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_MEASURE_S = 120.0  # no new work after this, so a run ends within 180 s

# Layers whose work happens once per game iteration on the dfq workloads;
# they are reported per step there. Everything is per run on the pipeline.
LOOP_SPANS = (
    "tensor.backward", "game.measure", "quant.student_forward", "quant.fake_quant",
    "nn.teacher_forward", "nn.generator_forward", "nn.adam_step", "nn.sgd_step",
    "adaptability.generator_objective", "adaptability.calibration_objective",
    "adaptability.entropy", "adaptability.classify_samples", "data.sample_noise",
)
LOOP_COUNTS = ("tensor.nodes_recorded", "tensor.nodes_backpropagated",
               "quant.fake_quant_elems")
# Layers that run once per set-up or command, reported per run everywhere.
RUN_SPANS = ("data.make_dataset", "data.save_csv", "data.load_csv", "checkpoint.save",
             "checkpoint.load", "cli.train_teacher", "cli.evaluate")
RUN_COUNTS = ("data.csv_bytes_written", "data.csv_bytes_read", "checkpoint.bytes_written",
              "checkpoint.bytes_read", "nn.train_steps")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(cli, threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "adadfq": os.path.relpath(os.path.dirname(cli.__file__), ROOT),
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def unmeasured(metrics: dict, positive: bool) -> list[str]:
    """Metrics a failed run could not measure: not finite (or, for the
    end-to-end metrics, not positive). They are left out of the result."""
    return [name for name, m in metrics.items()
            if not math.isfinite(m["value"]) or (positive and m["value"] <= 0)]


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


# ---------------------------------------------------------------------------


def measure_end_to_end(w, work: str, seed: int, seconds: float, ledger, info: dict) -> dict:
    from workloads import RUNNERS, TAIL_PCT, setup

    prep = setup(w, work, seed, ledger, w.setup_reps)
    units, start = [], time.perf_counter()
    while True:
        units.append(RUNNERS[w.kind](w, prep, work, seed, ledger))
        elapsed = time.perf_counter() - start
        steps = sum(len(u.steps_s) for u in units)
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds
                                        and (steps >= w.min_steps or ledger.failed)):
            break
    ledger.check(all(u.hashes == units[0].hashes for u in units),
                 "repeated commands write identical outputs")
    steps = [s for u in units for s in u.steps_s] or [float("nan")]
    # Printed, not bounded: steps are bimodal on a shared host (a quiet and a
    # contended mode about 1.5x apart), so the median swings with the
    # neighbours' duty cycle: 15-23 % between runs over ten seeds on desk_dfq
    # on a shared 2-core VM.
    info.update(units=len(units), steps=len(steps), step_ms_tail_percentile=TAIL_PCT,
                setup_reps=len(prep.setup_s), hashes=units[0].hashes,
                step_ms_p50=1e3 * percentile(steps, 50.0),
                walls_s=[round(u.wall, 4) for u in units])
    # wall_s and samples_per_s are means over the run's commands (total time
    # over total work), not medians: on a shared host the machine switches
    # between a fast and a slow mode for seconds at a time, and a mean moves
    # in proportion to the time spent in each mode where a median jumps from
    # one mode to the other.
    return {
        "setup_s": metric(statistics.median(prep.setup_s), "s"),
        "wall_s": metric(statistics.fmean(u.wall for u in units), "s"),
        "step_ms_tail": metric(1e3 * percentile(steps, TAIL_PCT), "ms"),
        "samples_per_s": metric(sum(u.samples for u in units)
                                / sum(u.sample_time for u in units), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB"),
        "accuracy": metric(units[0].accuracy, "frac"),
    }


def _spans(tracer, names, scopes, per: float, out: dict) -> None:
    for name in names:
        stats = [tracer.stats[s][name] for s in scopes if name in tracer.stats[s]]
        out.setdefault(f"{name}.calls", 0.0)
        out.setdefault(f"{name}.self_ms", 0.0)
        out[f"{name}.calls"] += sum(st.calls for st in stats) / per
        out[f"{name}.self_ms"] += 1e3 * sum(st.self_time for st in stats) / per


def _counts(tracer, names, scopes, per: float, out: dict) -> None:
    for name in names:
        out[name] = out.get(name, 0.0) + sum(tracer.counts[s][name] for s in scopes) / per


def measure_layers(w, work: str, seed: int, seconds: float, ledger, info: dict) -> dict:
    from layers import LayerTracer
    from workloads import RUNNERS, setup

    setup_tracer, tracer = LayerTracer(), LayerTracer()
    # dfq set-up trains a teacher: once untraced, once traced, same bytes expected
    prep = setup(w, work, seed, ledger, 2 if w.kind == "dfq" else 1, setup_tracer)
    runner = RUNNERS[w.kind]
    plain, traced, start = [], [], time.perf_counter()
    while True:
        plain.append(runner(w, prep, work, seed, ledger))
        traced.append(runner(w, prep, work, seed, ledger, tracer))
        ledger.check(plain[-1].hashes == traced[-1].hashes,
                     "traced and untraced commands write identical outputs")
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= MAX_MEASURE_S:
            break
    ledger.check(tracer.failures == 0 and setup_tracer.failures == 0,
                 "no traced layer raised")
    units = len(traced)
    iters = max(sum(len(u.steps_s) for u in traced), 1)
    out: dict = {}
    if w.kind == "dfq":
        # game loop per step; set-up (traced once) plus one command per run.
        # Loop layers outside the game (the set-up teacher's training, the
        # forwards behind samples.csv and similarity.csv) are not reported
        # apart; they are inside cli.train_teacher.ms and cli.dfq_outputs.ms.
        _spans(tracer, LOOP_SPANS, ("game",), iters, out)
        _counts(tracer, LOOP_COUNTS, ("game",), iters, out)
        run_tracers = ((setup_tracer, 1.0), (tracer, units))
    else:
        _spans(tracer, LOOP_SPANS, ("game", "run"), units, out)
        _counts(tracer, LOOP_COUNTS, ("game", "run"), units, out)
        run_tracers = ((tracer, units),)
    out["cli.train_teacher.ms"] = 0.0
    for t, per in run_tracers:
        _spans(t, RUN_SPANS, ("game", "run"), per, out)
        _counts(t, RUN_COUNTS, ("game", "run"), per, out)
        train = t.stats["run"].get("cli.train_teacher")
        out["cli.train_teacher.ms"] += 1e3 * train.total / per if train else 0.0
    step = tracer.stats["game"].get("game.step")
    run = tracer.stats["run"].get("game.run")
    outputs = tracer.stats["run"].get("cli.dfq_outputs")
    out["game.step.calls"] = step.calls / iters if step else 0.0
    out["game.step.ms"] = 1e3 * step.total / iters if step else 0.0
    out["game.glue.self_ms"] = 1e3 * step.self_time / iters if step else 0.0
    out["game.accounted_frac"] = step.total / run.total if step and run else 0.0
    out["cli.dfq_outputs.self_ms"] = 1e3 * outputs.self_time / units if outputs else 0.0
    out["cli.dfq_outputs.ms"] = 1e3 * outputs.total / units if outputs else 0.0
    out["cli.output_bytes"] = statistics.median(u.output_bytes for u in plain)
    recorded = out["tensor.nodes_recorded"]
    out["tensor.nodes_useful_frac"] = (out["tensor.nodes_backpropagated"] / recorded
                                       if recorded else 0.0)
    out["trace.overhead_frac"] = (statistics.median(u.wall for u in traced)
                                  / statistics.median(u.wall for u in plain) - 1.0)
    info.update(units=units, traced_steps=iters, hashes=traced[0].hashes)
    return {name: metric(value, per_layer_unit(name)) for name, value in sorted(out.items())}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    if "bytes" in name:
        return "B"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "adadfq", "cli.py")):
        print(f"error: no adadfq sources under {SRC}", file=sys.stderr)
        return 2
    # One process, one thread: BLAS gets a single thread, well under nproc.
    # The matmuls here are at most 64x256 by 256x256, where a second BLAS
    # thread saved nothing on a 2-core VM, and spinning BLAS threads make
    # timings noisy when the machine is shared.
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS, Ledger, import_package

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cli = import_package()
    if os.path.commonpath([os.path.abspath(cli.__file__), SRC]) != SRC:
        print(f"error: adadfq imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-",
                            dir=os.path.join(ROOT, ".perfbench_work"))
    ledger = Ledger()
    info = {"workload": w.name, "seed": args.seed, "trace": args.trace,
            "env": environment(cli, threads)}
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics = measure(w, work, args.seed, args.seconds, ledger, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = unmeasured(metrics, positive=not args.trace)
    for name in missing:
        ledger.check(False, f"{name} measured (read {metrics.pop(name)['value']})")
    info["failed_ops_frac"] = ledger.failed / max(ledger.attempted, 1)
    info["failed_checks"] = ledger.messages
    print(json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, unit in (("step_ms_p50", "ms"), ("failed_ops_frac", "frac")):
        if name in info:
            print(f"{name} {info[name]:.6g} {unit} (printed, not bounded)")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    # a run that could not measure every metric fails; other failed checks
    # show in the result line
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
