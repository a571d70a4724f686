"""Spans and counts recorded around calls into entropiclab, from outside it.

A traced cycle wraps the functions listed in ``TRACED`` in every
``entropiclab`` module namespace that holds them.  The CLI, the suite and the
entropy picture bind names with ``from .x import y``, so a wrapper on the
defining module alone would miss the calls the package makes internally.
Nothing under ``src/`` changes; ``Tracer.uninstall`` puts every original back.

Each wrapped call records a span (name, start, end, parent); ``<name>.calls``
is the number of spans of that name.  Spans stay in memory; self times are
derived from them after the cycle, as a span's duration minus its direct
children's.
"""
from __future__ import annotations

import collections
import csv
import functools
import json
import os
import sys
import threading
import time

import numpy as np

# (defining module, attribute, span name); every call becomes a span
TRACED = (
    ("entropiclab.operators", "spectral_decompose", "operators.spectral_decompose"),
    ("entropiclab.operators", "apply_exponential", "operators.apply_exponential"),
    ("entropiclab.entropy_picture", "evolve_s", "entropy_picture.evolve_s"),
    ("entropiclab.entropy_picture", "entropy_operator", "entropy_picture.entropy_operator"),
    ("entropiclab.entropy_picture", "picture_consistency", "entropy_picture.picture_consistency"),
    ("entropiclab.gravity", "rasterize", "gravity.rasterize"),
    ("entropiclab.gravity", "mean_h", "gravity.mean_h"),
    ("entropiclab.gravity", "trace_potential", "gravity.trace_potential"),
    ("entropiclab.gravity", "laplacian_spot_check", "gravity.laplacian_spot_check"),
    ("entropiclab.gravity", "_potential_at", "gravity.potential_at"),
    ("entropiclab.fluctuations", "gaussian_sample", "fluctuations.gaussian_sample"),
    ("entropiclab.fluctuations", "covariance_report", "fluctuations.covariance_report"),
    ("entropiclab.fluctuations", "symplectic_area", "fluctuations.symplectic_area"),
    ("entropiclab.fluctuations", "boundary_action", "fluctuations.boundary_action"),
    ("entropiclab.onsager", "relax", "onsager.relax"),
    ("entropiclab.onsager", "entropy_rate", "onsager.entropy_rate"),
    ("entropiclab.config", "load_config", "config.load_config"),
    ("entropiclab.cli", "_write_csv", "cli.write"),
    ("entropiclab.cli", "_write_record", "cli.write"),
)
# counted, not spanned: the sampler calls it from worker threads
BLOCKS = "seeding.block_generator.calls"
# counts fed by call arguments and results, besides the span counts
COUNTS = (BLOCKS, "gravity.pairs", "fluctuations.draws", "cli.write.bytes")
HERMITIAN_INIT = "operators.HermitianOperator"
EIGH = "operators.eigh"
ROOT = "cli.main"  # wrapped by run.py around each operation


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span named ``name`` per call, then ``after(args, result)``."""
        spans, stack_of, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # inlined rather than a context manager: this runs some 10^5
            # times per check-all operation
            stack = stack_of()
            record = Span(name, stack[-1] if stack else None)
            stack.append(record)
            record.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()
                spans.append(record)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _rebind(self, original, replacement) -> None:
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "entropiclab"]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def install(self) -> None:
        from entropiclab import operators, seeding, suite

        hooks = {
            ("entropiclab.gravity", "_potential_at"): self._count_pairs,
            ("entropiclab.fluctuations", "gaussian_sample"): self._count_draws,
            ("entropiclab.cli", "_write_csv"): self._count_csv_bytes,
            ("entropiclab.cli", "_write_record"): self._count_record_bytes,
        }
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(original, self.wrap(original, name, hooks.get((module_name, attr))))

        block_generator = seeding.block_generator

        @functools.wraps(block_generator)
        def counted_block_generator(*args, **kwargs):
            self.count(BLOCKS)
            return block_generator(*args, **kwargs)

        self._rebind(block_generator, counted_block_generator)

        self._set(operators.HermitianOperator, "__init__",
                  self.wrap(operators.HermitianOperator.__init__, HERMITIAN_INIT))

        eigh = np.linalg.eigh
        traced_eigh = self.wrap(eigh, EIGH)

        @functools.wraps(eigh)
        def eigh_from_operators(*args, **kwargs):
            # only decompositions the operators layer asks for
            if sys._getframe(1).f_globals.get("__name__") == "entropiclab.operators":
                return traced_eigh(*args, **kwargs)
            return eigh(*args, **kwargs)

        self._set(np.linalg, "eigh", eigh_from_operators)

        criteria = []
        for original, name in zip(suite._CRITERIA, suite.criterion_names()):
            wrapper = self.wrap(original, "suite." + name)
            self._rebind(original, wrapper)
            criteria.append(wrapper)
        self._set(suite, "_CRITERIA", tuple(criteria))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- counters fed by call results -------------------------------------

    def _count_pairs(self, args, result) -> None:
        source, points = args[0], args[1]
        positions, _ = source.cell_data()
        self.count("gravity.pairs", np.atleast_2d(points).shape[0] * positions.shape[0])

    def _count_draws(self, args, result) -> None:
        self.count("fluctuations.draws", len(result))

    def _count_csv_bytes(self, args, result) -> None:
        self.count("cli.write.bytes", os.path.getsize(args[0]))

    def _count_record_bytes(self, args, result) -> None:
        # the record's wall_clock_s is a measured time whose printed length
        # varies from run to run; leave its digits out so the count repeats
        wall_clock = args[4]
        self.count("cli.write.bytes", os.path.getsize(args[0]) - len(json.dumps(wall_clock)))

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write every span as CSV: id, name, start_s, end_s, parent id."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "start_s", "end_s", "parent"])
            for index, span in enumerate(self.spans):
                parent = "" if span.parent is None else ids[id(span.parent)]
                writer.writerow([index, span.name, f"{span.start - origin:.9f}",
                                 f"{span.end - origin:.9f}", parent])


def span_names(criteria) -> list:
    """Every span name a traced cycle can record."""
    names = [name for _, _, name in TRACED] + [HERMITIAN_INIT, EIGH, ROOT]
    return sorted(set(names)) + ["suite." + name for name in criteria]


def _outermost(span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == span.name:
            return False
        parent = parent.parent
    return True


def layer_metrics(tracer: Tracer, criteria) -> dict:
    """Per-layer values of one traced cycle, keyed by metric name.

    ``<span>.s`` is inclusive time (nested spans of the same name count
    once), ``<span>.self_s`` subtracts direct child spans, ``<span>.calls``
    counts calls.  Layers a workload never enters read 0.
    """
    calls = collections.Counter(span.name for span in tracer.spans)
    children = collections.defaultdict(float)
    for span in tracer.spans:
        if span.parent is not None:
            children[id(span.parent)] += span.end - span.start
    inclusive = collections.defaultdict(float)
    own = collections.defaultdict(float)
    for span in tracer.spans:
        duration = span.end - span.start
        own[span.name] += duration - children[id(span)]
        if _outermost(span):
            inclusive[span.name] += duration

    counts = tracer.counts
    metrics = {}
    for name in span_names(criteria):
        metrics[name + ".calls"] = calls[name]
        metrics[name + ".s"] = inclusive[name]
        metrics[name + ".self_s"] = own[name]
    for name in COUNTS:
        metrics[name] = counts[name]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    decompositions = calls["operators.spectral_decompose"]
    metrics["operators.decomposition_reuse_ratio"] = (
        1.0 - calls["operators.eigh"] / decompositions if decompositions else 0.0
    )
    metrics["gravity.pairs_per_s"] = ratio(metrics["gravity.pairs"], inclusive["gravity.potential_at"])
    metrics["fluctuations.draws_per_s"] = ratio(
        metrics["fluctuations.draws"], inclusive["fluctuations.gaussian_sample"]
    )
    metrics["cli.self_s"] = own[ROOT]
    metrics["cli.write.mb_per_s"] = ratio(metrics["cli.write.bytes"] / 1e6, inclusive["cli.write"])
    return metrics


def exact_counts(metrics: dict) -> dict:
    """The counts two traced cycles of one seed must reproduce exactly."""
    return {
        name: value for name, value in metrics.items()
        if name.endswith(".calls") or name in COUNTS
    }
