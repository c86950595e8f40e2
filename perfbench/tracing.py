"""Spans and counts at the program's layer boundaries, taken from outside.

The tracer replaces, for the traced run only, the public names the pipeline
looks up at call time, and puts the originals back afterwards.  Nothing
under ``src/`` is edited.  Spans are kept in memory: each records its name,
start, end, parent span and operation id.  A wrapper only records while an
operation is open, so the correctness gate, which runs between operations,
is never traced.

A separate recorder keeps each ``analyze`` request and report for the
correctness gate; it is installed in traced and untraced runs alike and
times nothing.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name).  The analysis names are the ones analyze()
# and robustness() resolve through their module globals on every call.
SPANNED = (
    ("momentcert.analysis", "analyze", "analysis.analyze"),
    ("momentcert.analysis", "request_table", "quantum.table"),
    ("momentcert.analysis", "build_structure", "hierarchy.build_structure"),
    ("momentcert.analysis", "assemble", "hierarchy.assemble"),
    ("momentcert.analysis", "maximize_lambda_min", "sdp.solve"),
    ("momentcert.analysis", "verify_certificate", "sdp.verify"),
    ("momentcert.sdp", "extract_certificate", "sdp.extract"),
    ("momentcert.sdp", "verify_certificate", "sdp.verify"),
)
# (module, attribute, counter name): counted, not spanned.
COUNTED = (
    ("momentcert.hierarchy", "word_product", "algebra.word_products"),
    ("momentcert.quantum", "expectation", "quantum.expectations"),
)
EIGEN = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"))
SOLVER_STATUSES = ("FEASIBLE", "CERTIFIED_INFEASIBLE", "UNDECIDED")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class ReportRecorder:
    """Keeps every (request, report) pair that analyze returns during an op."""

    def __init__(self):
        self.active = False
        self.pairs = []

    def install(self, patches: Patches, analysis_module):
        def make(fn):
            @functools.wraps(fn)
            def recorded(request, *args, **kwargs):
                report = fn(request, *args, **kwargs)
                if self.active:
                    self.pairs.append((request, report))
                return report

            return recorded

        patches.replace(analysis_module, "analyze", make)

    def take(self):
        pairs, self.pairs = self.pairs, []
        return pairs


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = {}  # op id -> Counter
        self.gaps = []  # certificate value minus lambda_star, NONLOCAL reports
        self._stack = []
        self._sdp_depth = 0  # open sdp.* spans; eigendecompositions count only inside
        self._eigh_calls = 0
        self._eigh_n3 = 0
        self.op = None

    @contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        self.counts[op_id] = Counter()
        try:
            with self.span("op"):
                yield
        finally:
            self.counts[op_id]["sdp.eigh_calls"] += self._eigh_calls
            self.counts[op_id]["sdp.eigh_n3"] += self._eigh_n3
            self._eigh_calls = self._eigh_n3 = 0
            self.op = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        in_sdp = name.startswith("sdp.")
        self._sdp_depth += in_sdp
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            self._sdp_depth -= in_sdp

    def count(self, name: str, amount=1):
        if self.op is not None:
            self.counts[self.op][name] += amount

    def install(self, patches: Patches):
        import importlib

        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            patches.replace(module, attr, functools.partial(self._spanned, name))
        for module_name, attr, name in COUNTED:
            module = importlib.import_module(module_name)
            patches.replace(module, attr, functools.partial(self._counted, name))
        for module_name, attr in EIGEN:
            module = importlib.import_module(module_name)
            patches.replace(module, attr, self._eigen)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            self._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        self.count(name + ".calls")
        if name == "sdp.solve":
            self.count("sdp.iterations", result.iterations)
            self.count("sdp.status." + result.status)
        elif name == "analysis.analyze" and result.verdict == "NONLOCAL":
            self.gaps.append(result.certificate.value - result.lambda_star)

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _eigen(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._sdp_depth:
                shape = a.shape
                self._eigh_calls += 1
                # batch * n^3 for a stack of n x n matrices
                self._eigh_n3 += math.prod(shape[:-1]) * shape[-1] ** 2
            return fn(a, *args, **kwargs)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def per_op(self) -> dict:
        """Per operation: inclusive seconds, self seconds and wall time."""
        selfs = self.self_times()
        ops = {}
        for (name, start, end, _, op), own in zip(self.spans, selfs):
            rec = ops.setdefault(op, {"s": Counter(), "self_s": Counter(), "wall": 0.0})
            rec["s"][name] += end - start
            rec["self_s"][name] += own
            if name == "op":
                rec["wall"] = end - start
        return ops

    def document(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op}
            for name, start, end, parent, op in self.spans
        ]
