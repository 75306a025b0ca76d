"""The names perfbench/tracing.py rebinds exist on the current sources.

The tracer looks each ``WRAPS`` entry up by module, class and attribute when
it installs itself.  This reads the table from the file, without running the
tracer, so that a renamed or deleted name fails here and not only in a traced
benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.WRAPS
    for target, attribute, span, *_ in tracing.WRAPS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            assert isinstance(getattr(owner, class_name, None), type), (target, span)
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attribute, None)), (target, attribute, span)
    assert callable(importlib.import_module("uowsim.cli").main)
