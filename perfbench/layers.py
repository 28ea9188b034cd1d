"""Per-layer tracing of the adadfq package, done entirely from outside it.

``LayerTracer.install()`` replaces the public entry points of each module
(``tensor``, ``nn``, ``quant``, ``adaptability``, ``game``, ``data``,
``checkpoint``, ``cli``) with wrappers that record a span per call: calls,
total time and self time (span minus child spans). It also counts work at
the same boundaries: autodiff nodes recorded and backpropagated, elements
fake-quantized, and bytes of CSV and checkpoint files. ``restore()`` puts
every original object back. Wrappers pass arguments and results through
unchanged, so a traced command writes the same bytes as an untraced one.

A function is patched wherever the package holds a reference to it, so
``from .tensor import backward`` bindings in other modules are traced too.
Spans opened inside ``run_game`` are kept apart (scope ``game``) from the
rest of a command (scope ``run``), so the game loop can be reported per
iteration and the I/O around it per command.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path). Several entry points may share one
# layer name; their calls and times are summed.
SPANS = [
    ("tensor.backward", "adadfq.tensor", "backward"),
    ("game.run", "adadfq.game", "run_game"),
    ("game.step", "adadfq.game", "game_iteration"),
    ("game.measure", "adadfq.game", "_mean_disagreement_entropy"),
    ("quant.student_forward", "adadfq.quant", "QuantizedMlp.forward"),
    ("quant.fake_quant", "adadfq.quant", "fake_quant"),
    ("nn.teacher_forward", "adadfq.nn", "MlpNetwork.forward"),
    ("nn.generator_forward", "adadfq.nn", "ConditionalGenerator.forward"),
    ("nn.adam_step", "adadfq.nn", "AdamOptimizer.step"),
    ("nn.sgd_step", "adadfq.nn", "SgdMomentum.step"),
    ("adaptability.generator_objective", "adadfq.adaptability", "generator_objective"),
    ("adaptability.calibration_objective", "adadfq.adaptability", "calibration_objective"),
    ("adaptability.entropy", "adadfq.adaptability", "disagreement_vector"),
    ("adaptability.entropy", "adadfq.adaptability", "info_entropy"),
    ("adaptability.entropy", "adadfq.adaptability", "normalize_entropy"),
    ("adaptability.classify_samples", "adadfq.adaptability", "classify_samples"),
    ("data.sample_noise", "adadfq.data", "sample_noise_and_labels"),
    ("data.make_dataset", "adadfq.data", "make_blobs"),
    ("data.make_dataset", "adadfq.data", "make_rings"),
    ("data.save_csv", "adadfq.data", "save_csv"),
    ("data.load_csv", "adadfq.data", "load_csv"),
    ("checkpoint.save", "adadfq.checkpoint", "save_teacher"),
    ("checkpoint.save", "adadfq.checkpoint", "save_student"),
    ("checkpoint.load", "adadfq.checkpoint", "load_checkpoint"),
    ("cli.train_teacher", "adadfq.cli", "train_teacher_network"),
    ("cli.evaluate", "adadfq.cli", "evaluate_network"),
    ("cli.main", "adadfq.cli", "main"),
]

# Byte counters: layer name -> (counter, index of the path argument).
_FILE_BYTES = {
    "data.save_csv": ("data.csv_bytes_written", 1),
    "data.load_csv": ("data.csv_bytes_read", 0),
    "checkpoint.save": ("checkpoint.bytes_written", 0),
    "checkpoint.load": ("checkpoint.bytes_read", 0),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class LayerTracer:
    """Span and counter recorder; install() patches, restore() undoes it."""

    def __init__(self):
        self.stats = {"game": defaultdict(_Stat), "run": defaultdict(_Stat)}
        self.counts = {"game": defaultdict(int), "run": defaultdict(int)}
        self.failures = 0
        self._names: list[str] = []
        self._child: list[float] = []
        self._root_children: list[tuple[str, float, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _scope(self) -> str:
        return "game" if "game.run" in self._names else "run"

    def _finish(self, name: str, start: float, args) -> None:
        end = time.perf_counter()
        dt = end - start
        child = self._child.pop()
        self._names.pop()
        scope = self._scope()
        st = self.stats[scope][name]
        st.calls += 1
        st.total += dt
        st.self_time += dt - child
        if self._child:
            self._child[-1] += dt
        if len(self._names) == 1:
            self._root_children.append((name, start, end))
        if name in _FILE_BYTES:
            counter, index = _FILE_BYTES[name]
            self.counts[scope][counter] += os.path.getsize(args[index])
        elif name == "quant.fake_quant":
            self.counts[scope]["quant.fake_quant_elems"] += args[0].data.size
        elif name == "nn.adam_step" and "cli.train_teacher" in self._names:
            self.counts[scope]["nn.train_steps"] += 1
        elif name == "cli.main":
            self._account_dfq_outputs(end)

    def _account_dfq_outputs(self, end: float) -> None:
        """Self time of a dfq command after run_game returned: the output
        writing done by cli itself, outside any traced layer."""
        children, self._root_children = self._root_children, []
        runs = [c for c in children if c[0] == "game.run"]
        if not runs:
            return
        run_end = runs[-1][2]
        after = sum(e - s for _, s, e in children if s >= run_end)
        st = self.stats["run"]["cli.dfq_outputs"]
        st.calls += 1
        st.total += end - run_end
        st.self_time += (end - run_end) - after

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            # the generator's body is an MlpNetwork; its time belongs to the
            # generator span, not to the teacher's
            if name == "nn.teacher_forward" and tracer._names[-1:] == ["nn.generator_forward"]:
                return fn(*args, **kwargs)
            tracer._names.append(name)
            tracer._child.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.failures += 1
                raise
            finally:
                tracer._finish(name, start, args)

        return traced

    def _count_nodes(self, op):
        tracer = self

        def counted_op(data, parents, backward_fn):
            def counted_backward(g):
                tracer.counts[tracer._scope()]["tensor.nodes_backpropagated"] += 1
                backward_fn(g)

            out = op(data, parents, counted_backward)
            if out.requires_grad:
                tracer.counts[tracer._scope()]["tensor.nodes_recorded"] += 1
            return out

        return counted_op

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "LayerTracer":
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "adadfq" or n.startswith("adadfq."))]
        for name, module_name, path in SPANS:
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            if classes:
                self._set(owner, attr, wrapped)
                continue
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        tensor_cls = sys.modules["adadfq.tensor"].Tensor
        op = tensor_cls.__dict__["_op"].__func__
        self._set(tensor_cls, "_op", staticmethod(self._count_nodes(op)))
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
