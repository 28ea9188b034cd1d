"""The benchmark's tracer (perfbench/layers.py) patches named entry points of
the package. Its own check that every patch resolves and is put back runs
here too, so renaming, moving or inlining a traced function fails this suite
and not only the traced benchmark."""

import importlib.util
import os
import sys

import pytest

SMOKE_TEST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "smoke_test.py")


def _in_package(name: str) -> bool:
    return name == "adadfq" or name.startswith("adadfq.")


@pytest.fixture
def restored_package(monkeypatch):
    """The smoke test imports adadfq afresh; afterwards the copy the other
    tests imported goes back into sys.modules."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = {name: m for name, m in sys.modules.items() if _in_package(name)}
    yield
    for name in [n for n in sys.modules if _in_package(n)]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_tracer_restores_every_patch(restored_package):
    spec = importlib.util.spec_from_file_location("perfbench_smoke_test", SMOKE_TEST)
    smoke_test = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke_test)
    smoke_test.test_tracer_restores_every_patch()
