"""Span tracing of the calls into each rv2x module, installed from outside the package.

Each hook replaces a function at the name its caller looks up (harness calls
``build_topology`` through its own module globals, so that is where it is
wrapped).  Every call records a span ``[name, start, end, parent, call, trial,
work]``: ``parent`` is the index of the enclosing span or -1, ``call`` the
benchmark's harness.run call, ``trial`` the trial index inside it, and ``work``
the size of the batch the call processed (1 where no batch size applies).
Spans stay in memory until the benchmark writes them out.
"""

import collections
import importlib
import json
import time


def _one(args):
    return 1


def _queries(args):
    return len(args[0])


def _slots(args):
    return len(args[1]["g2_v_hat"])


# (span name, module, attribute the caller looks up, work of one call)
HOOKS = (
    ("harness.run_trial", "harness", "run_trial", _one),
    ("harness.emit", "harness", "emit", _one),
    ("scenario.build_topology", "harness", "build_topology", _one),
    ("channel.build_large_scale", "channel", "build_large_scale", _one),
    ("channel.evolve_small_scale", "channel", "evolve_small_scale", _one),
    ("absorption.run_absorption", "absorption", "run_absorption", _one),
    ("absorption.hungarian_match", "absorption", "hungarian_match", _one),
    ("qosmodel.sinr", "qosmodel", "sinr", _one),
    ("qosmodel.throughput", "qosmodel", "throughput", _one),
    ("qosmodel.delay", "qosmodel", "delay", _one),
    ("baselines.fit_gaussian", "baselines", "fit_gaussian", _one),
    ("baselines.fit_hpr", "baselines", "fit_hpr", _one),
    ("adaptation.solve_slots", "adaptation", "solve_slots", _slots),
    ("adaptation._beta_batch_deconv", "adaptation", "_beta_batch_deconv", _queries),
    ("adaptation._beta_batch_gaussian", "adaptation", "_beta_batch_gaussian", _queries),
    ("adaptation._beta_exact", "adaptation", "_beta_exact", _queries),
    ("adaptation._beta_quad_level", "adaptation", "_beta_quad_level", _queries),
)


class Tracer:
    """Installs the hooks on entry and puts the originals back on exit; spans
    collect across entries."""

    def __init__(self):
        self.spans = []
        self.call = None        # set by the benchmark before each harness.run call
        self.trial = None       # set by the harness.run_trial hook
        self.absent = []        # hooks whose function does not exist
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.absent = []
        for name, module_name, attr, work in HOOKS:
            module = importlib.import_module("rv2x." + module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, work))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        is_trial = name == "harness.run_trial"

        def traced(*args, **kwargs):
            if is_trial:
                self.trial = args[2] if len(args) > 2 else kwargs["trial"]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call, self.trial, work(args)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if is_trial:
                    self.trial = None

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


Stats = collections.namedtuple("Stats", "calls work busy_s self_s")


def summarize(spans, first=0, last=None):
    """Per span name: calls, summed work, busy seconds and self seconds.

    Only spans in ``spans[first:last]`` count; their parents must lie in the
    same range, which holds when the range covers whole harness.run calls.
    """
    last = len(spans) if last is None else last
    calls, work = collections.Counter(), collections.Counter()
    busy, child = collections.defaultdict(float), collections.defaultdict(float)
    for name, start, end, parent, _call, _trial, w in spans[first:last]:
        calls[name] += 1
        work[name] += w
        busy[name] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
    return {name: Stats(calls[name], work[name], busy[name], busy[name] - child[name])
            for name in calls}


def group_busy(spans, names, first=0, last=None):
    """Seconds spent inside any of ``names``, counting nested calls among them once."""
    last = len(spans) if last is None else last
    names = set(names)
    return sum(end - start for name, start, end, parent, *_ in spans[first:last]
               if name in names and (parent < 0 or spans[parent][0] not in names))


def children_of(spans, parent_name, first=0, last=None):
    """Busy seconds of the direct children of ``parent_name`` spans, by child name."""
    last = len(spans) if last is None else last
    out = collections.defaultdict(float)
    for name, start, end, parent, *_ in spans[first:last]:
        if parent >= 0 and spans[parent][0] == parent_name:
            out[name] += end - start
    return dict(out)
