"""In-memory span recorder for the traced benchmark run.

The recorder replaces the module bindings that qoc's callers look up at
call time (``qoc.io.load_instance``, ``qoc.troc.entmax_discrete``, ...)
with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Spans stay in flat arrays while
the run measures and are written out once, when the run ends.  Nothing is
recorded while the recorder is inactive, so output checks that call the
same functions between jobs leave no spans.
"""

import importlib
import json
import os
import time
from array import array
from collections import Counter

import numpy as np

# (module path, attribute, span name).  Each entry is the binding a caller
# in qoc actually uses, so patching it intercepts that caller.
HOOKS = (
    ("qoc.cli", "main", "cli.main"),
    ("qoc.io", "load_instance", "io.load_instance"),
    ("qoc.io", "validate_instance_dict", "io.validate_instance_dict"),
    ("qoc.io", "write_json", "io.write_json"),
    ("qoc.io", "write_csv", "io.write_csv"),
    ("qoc.troc", "entmax_discrete", "entmax.entmax_discrete"),
    ("qoc.qkl", "entmax_weighted", "entmax.entmax_weighted"),
    ("qoc.qkl", "qkl_divergence", "deformed.qkl_divergence"),
    ("qoc.qkl", "evaluate_cost", "qkl.evaluate_cost"),
    ("qoc.troc", "solve_troc", "troc.solve_troc"),
    ("qoc.qkl", "solve_qkl", "qkl.solve_qkl"),
    ("qoc.qkl", "solve_qkl_stationary", "qkl.solve_qkl_stationary"),
    ("qoc.qlqr", "solve_qlqr", "qlqr.solve_qlqr"),
    ("qoc.qlqr", "solve_qlqr_stationary", "qlqr.solve_qlqr_stationary"),
    ("qoc.qlqr", "simulate_closed_loop", "qlqr.simulate_closed_loop"),
    ("qoc.qlqr", "support_envelope", "qlqr.support_envelope"),
    ("qoc.qgaussian", "QGaussian.sample", "qgaussian.sample"),
    ("qoc.entmax", "exp_q", "entmax.exp_q"),
    ("qoc.qgaussian", "exp_q", "qgaussian.exp_q"),
)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _sample_count(args, kwargs, result):
    return len(result)


def _argument_size(args, kwargs, result):
    return int(np.size(args[0]))


# Counters added after a call returns, outside its span: span name ->
# (counter name, function of (args, kwargs, result)).
COUNTERS = {
    "io.write_json": ("io.write.bytes", _written_bytes),
    "io.write_csv": ("io.write.bytes", _written_bytes),
    "qgaussian.sample": ("qgaussian.samples", _sample_count),
    "qgaussian.exp_q": ("qgaussian.proposals", _argument_size),
}


class Recorder:
    """Spans and counters of the wrapped calls made while ``active``."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.active = False
        self._stack = []
        self._restore = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` wrapped so each call while active records a span."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every binding in ``HOOKS``; ``uninstall`` puts them back."""
        for module_name, attr, span in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(span, original, COUNTERS.get(span)))

    def uninstall(self):
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def summarize(self):
        """Per span name: calls, busy (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        child = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] = child.get(p, 0.0) + (self.end[i] - self.start[i])
        out = {}
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child.get(i, 0.0)
        return {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]} for k, v in out.items()}

    def dump(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
