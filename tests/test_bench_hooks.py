"""The traced benchmark wraps qoc bindings by name; each one must still exist."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def _hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


HOOKS = _hooks()


def test_there_are_hooks():
    assert HOOKS


@pytest.mark.parametrize("module_name, attr, span", HOOKS, ids=[span for _, _, span in HOOKS])
def test_hook_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr} (span {span}) does not resolve"
        owner = getattr(owner, part)
    assert callable(owner)
