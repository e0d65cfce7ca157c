"""In-memory spans and hot-call counters for the traced benchmark run.

Coarse layer calls (solve, assemble, factorize, error report, CLI) are
recorded as spans with their parent.  Hot inner calls (kernels, psi_eval,
evaluate, coefficients, quadrature) run up to millions of times per solve,
so for them only a count and a cumulative time per (name, parent span)
are kept.  A span's self time is its duration minus the time covered by
its child spans and by the outermost hot calls made directly inside it.

Functions are wrapped where they are looked up: a ``from .x import y``
binding in module M is replaced by a wrapper in M's namespace.  A target
that no longer exists is remembered as missing so that the metrics built
on it can be reported as absent instead of as zero.
"""

import contextlib
import dataclasses
import importlib
import time
from collections import defaultdict

# (layer name, module, attribute) for hot calls: counts and cumulative time.
HOT_TARGETS = (
    ("kernels.r3", "rkburgers.operator", "r3"),
    ("kernels.r2", "rkburgers.operator", "r2"),
    ("fracmath.weighted_moment", "rkburgers.operator", "weighted_moment"),
    ("fracmath.jacobi_rule", "rkburgers.operator", "jacobi_rule"),
    ("operator.psi_eval", "rkburgers.solver", "psi_eval"),
    ("solver.evaluate", "rkburgers.solver", "evaluate"),
    ("solver.evaluate", "rkburgers.cli", "evaluate"),
)

# (layer name, module, attribute) for coarse calls recorded as spans.
SPAN_TARGETS = (
    ("operator.build_basis", "rkburgers.solver", "build_basis"),
    ("operator.assemble_gram", "rkburgers.solver", "assemble_gram"),
    ("orthonormalize.compute_beta", "rkburgers.solver", "compute_beta"),
    ("solver.solve", "rkburgers.cli", "solve"),
    ("solver.error_report", "rkburgers.cli", "error_report"),
)

# Problem builders looked up by the CLI; their problems get wrapped callables.
PROBLEM_TARGETS = (("problems.coeff", "rkburgers.cli", "build_problem"),)

COEFFICIENT_FIELDS = ("k1", "k2", "k3", "k4", "f", "exact")


class _Span:
    __slots__ = ("name", "parent", "start", "end", "covered")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.covered = 0.0

    @property
    def self_time(self):
        return self.end - self.start - self.covered


class Tracer:
    """Collects spans and hot-call statistics.

    ``clock`` and the hot-call targets can be replaced, so the harness's
    own self-test can drive it with a fake clock and with a target that
    does not exist.
    """

    def __init__(self, clock=time.perf_counter, hot=HOT_TARGETS):
        self.clock = clock
        self.hot_targets = hot
        self.spans = []
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent span name) -> [count, seconds]
        self.missing = set()  # layer names with at least one target not found
        self._stack = []
        self._hot_depth = 0
        self._restore = []

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].name if self._stack else None
        span = _Span(name, parent, self.clock())
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].covered += span.end - span.start
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap_span(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def wrap_hot(self, name, fn):
        clock = self.clock
        stack = self._stack
        hot = self.hot

        def wrapper(*args, **kwargs):
            outermost = self._hot_depth == 0
            self._hot_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._hot_depth -= 1
                parent = stack[-1] if stack else None
                rec = hot[(name, parent.name if parent else None)]
                rec[0] += 1
                rec[1] += dt
                if outermost and parent is not None:
                    parent.covered += dt

        return wrapper

    def wrap_problem(self, problem):
        """Copy of ``problem`` whose coefficient callables are hot-traced."""
        changes = {
            f: self.wrap_hot("problems.coeff", getattr(problem, f))
            for f in COEFFICIENT_FIELDS
            if getattr(problem, f, None) is not None
        }
        return dataclasses.replace(problem, **changes)

    # -- installation ----------------------------------------------------

    def _patch(self, name, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        setattr(module, attr, make(name, original))
        self._restore.append((module, attr, original))

    def install(self):
        for name, module_name, attr in self.hot_targets:
            self._patch(name, module_name, attr, self.wrap_hot)
        for name, module_name, attr in SPAN_TARGETS:
            self._patch(name, module_name, attr, self.wrap_span)
        for name, module_name, attr in PROBLEM_TARGETS:
            self._patch(name, module_name, attr, self._wrap_builder)

    def _wrap_builder(self, name, build):
        def wrapper(*args, **kwargs):
            return self.wrap_problem(build(*args, **kwargs))

        return wrapper

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- summaries -------------------------------------------------------

    def calls(self, name):
        """Total count and seconds of a hot call over all parents; None if missing."""
        if name in self.missing:
            return None
        count = sum(rec[0] for (n, _), rec in self.hot.items() if n == name)
        seconds = sum(rec[1] for (n, _), rec in self.hot.items() if n == name)
        return count, seconds

    def self_time(self, name):
        """Summed self time of every span with this name; None if missing."""
        if name in self.missing:
            return None
        return sum(s.self_time for s in self.spans if s.name == name)

    def inclusive_time(self, name):
        if name in self.missing:
            return None
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def by_parent(self):
        """{(hot name, parent span): (count, seconds)} for the breakdown printout."""
        return {key: (rec[0], rec[1]) for key, rec in sorted(self.hot.items(), key=str)}

