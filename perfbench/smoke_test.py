"""Smoke test of the benchmark itself, on tiny versions of every workload.

    python3 perfbench/smoke_test.py          # or: python3 -m pytest perfbench/smoke_test.py

It checks that a run emits exactly the metrics BENCHMARK.json names, that
count metrics repeat exactly across two traced runs, that every check
passes, and that the tracer puts back every object it patched.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, Ledger, import_package  # noqa: E402

TINY = {"per_class": 40, "teacher_epochs": 4, "teacher_lr": 1e-2, "epochs": 1,
        "iterations_per_epoch": 10, "sample_dump": 8}
COUNT_UNITS = {"count", "B"}


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(w, config=dict(w.config, **TINY), setup_reps=2, min_steps=20)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(name: str, trace: bool) -> tuple[Ledger, dict]:
    ledger, info = Ledger(), {}
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        fn = run.measure_layers if trace else run.measure_end_to_end
        metrics = fn(tiny(name), work, 3, 0.0, ledger, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert ledger.failed == 0, ledger.messages
    assert ledger.attempted > 0
    return ledger, metrics


def foreign_objects() -> list[str]:
    """Names in the loaded package bound to objects made by the benchmark."""
    ours = {"layers", "workloads", "run"}
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "adadfq" or mod_name.startswith("adadfq.")):
            continue
        for key, value in vars(module).items():
            owners = [(key, value)]
            if isinstance(value, type) and value.__module__.startswith("adadfq"):
                owners += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            for name, obj in owners:
                obj = getattr(obj, "__func__", obj)
                if getattr(obj, "__module__", None) in ours:
                    found.append(f"{mod_name}.{name}")
    return found


def same_bindings(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_end_to_end_metrics_emitted():
    names = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for workload in WORKLOADS:
        _, metrics = measure(workload, trace=False)
        assert {k: v["unit"] for k, v in metrics.items()} == names, workload
        assert all(v["value"] > 0 for v in metrics.values()), (workload, metrics)
        assert not foreign_objects()


def test_layer_metrics_emitted_and_counts_repeat():
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    for workload in WORKLOADS:
        _, first = measure(workload, trace=True)
        _, second = measure(workload, trace=True)
        assert {k: v["unit"] for k, v in first.items()} == units, workload
        counts = {k for k, u in units.items() if u in COUNT_UNITS}
        counts.add("tensor.nodes_useful_frac")
        for name in sorted(counts):
            assert first[name]["value"] == second[name]["value"], (workload, name)
        assert first["tensor.nodes_recorded"]["value"] > 0, workload
        if WORKLOADS[workload].kind == "dfq":
            assert first["game.step.calls"]["value"] == 1.0
            assert 0.9 < first["game.accounted_frac"]["value"] <= 1.0
        assert not foreign_objects()


def test_unmeasured_values_are_left_out():
    metrics = {"a": run.metric(float("nan"), "s"), "b": run.metric(0.0, "s"),
               "c": run.metric(1.5, "s")}
    assert run.unmeasured(metrics, positive=True) == ["a", "b"]
    assert run.unmeasured(metrics, positive=False) == ["a"]


def test_tracer_restores_every_patch():
    cli = import_package()
    modules = [m for n, m in sys.modules.items() if n.startswith("adadfq")]
    before = [dict(vars(m)) for m in modules]
    classes = [cli.AdamOptimizer, sys.modules["adadfq.tensor"].Tensor,
               sys.modules["adadfq.nn"].MlpNetwork]
    class_before = [dict(vars(c)) for c in classes]
    tracer = LayerTracer()
    with tracer:
        assert len(foreign_objects()) > len(run.LOOP_SPANS)
    assert all(same_bindings(dict(vars(m)), b) for m, b in zip(modules, before))
    assert all(same_bindings(dict(vars(c)), b) for c, b in zip(classes, class_before))
    assert not foreign_objects()


if __name__ == "__main__":
    for test in (test_unmeasured_values_are_left_out, test_tracer_restores_every_patch,
                 test_end_to_end_metrics_emitted,
                 test_layer_metrics_emitted_and_counts_repeat):
        test()
        print(f"ok {test.__name__}")
