"""Outside-in tracing of spectral-forge for the benchmark's traced run.

The tracer replaces public functions of the program, at the module
attribute (or registry entry) through which their callers look them up,
with wrappers that record one span per call: name, parent span, start and
end, plus exact work counters computed from the call's arguments and
result.  Nothing under ``src/`` is edited; uninstalling restores every
original binding.  Spans are kept in memory and handed to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from metrics import WORKLOADS as ALL
from workloads import EIGS_GATE

SCANS = ("scan-wide", "scan-sweep")


@dataclass
class Span:
    name: str
    parent: Optional[int]       # index of the parent span, None at top level
    start: float
    end: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# counters: exact work measures computed from a call's arguments and result
# ---------------------------------------------------------------------------

def _grid_points(bound, result):
    return {"grid_points": bound.arguments["grid_size"]}


def _series_elems(bound, result):
    lams = bound.arguments["lams"]
    return {"elems": len(lams) * (bound.arguments["depth"] + 1)}


def _cofactor_work(bound, result):
    dim = bound.arguments["a"].shape[0]
    return {"work": (1 << dim) * dim * len(bound.arguments["lams"])}


def _records_over_gate(bound, result):
    return {"records_over_gate": sum(1 for r in result.records
                                     if r.residual > EIGS_GATE)}


def _bytes_written(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


@dataclass(frozen=True)
class Binding:
    """One looked-up name to wrap.

    ``module`` and ``attr`` locate the binding; ``key`` selects an entry when
    the attribute is a dict registry.  ``span`` is the span name (the
    defining module and function), ``fires_in`` the workloads that must call
    it at least once, and ``counters`` an optional ``(bound_args, result)``
    hook returning exact work counts.
    """

    module: str
    attr: str
    span: str
    fires_in: Tuple[str, ...]
    counters: Optional[Callable] = None
    key: Optional[str] = None

    @property
    def label(self) -> str:
        where = f"{self.module}.{self.attr}"
        return f"{where}[{self.key!r}]" if self.key else where


_CLI = "spectral_forge.cli"

BINDINGS: Tuple[Binding, ...] = (
    # command handlers; main() resolves them when it builds the parser
    Binding(_CLI, "cmd_scan_circle", "cli.scan_circle", SCANS),
    Binding(_CLI, "cmd_eigs", "cli.eigs", ("sections",)),
    Binding(_CLI, "cmd_convergence", "cli.convergence", ("sections",)),
    Binding(_CLI, "cmd_verify", "cli.verify", ("sections",)),
    Binding(_CLI, "cmd_scan_axis", "cli.scan_axis", ("semigroup",)),
    Binding(_CLI, "cmd_cert", "cli.cert", ("semigroup",)),
    Binding(_CLI, "cmd_evolve", "cli.evolve", ("semigroup",)),
    # artifact writers
    Binding(_CLI, "write_csv", "io.write_csv", ALL, _bytes_written),
    Binding(_CLI, "write_json", "io.write_json", ALL, _bytes_written),
    # the unit-circle scan
    Binding(_CLI, "scan_unit_circle", "scanner.scan_unit_circle", SCANS,
            _grid_points),
    Binding("spectral_forge.scanner", "coupling_series_batch",
            "resolvent.coupling_series_batch", SCANS, _series_elems),
    Binding("spectral_forge.scanner", "residual_certificate",
            "scanner.residual_certificate", SCANS),
    Binding("spectral_forge.scanner", "apply_operator",
            "model.apply_operator", SCANS),
    Binding("spectral_forge.model", "apply_operator",
            "model.apply_operator", ("sections",)),
    # finite sections
    Binding(_CLI, "finite_spectrum", "finite.finite_spectrum", ("sections",),
            _records_over_gate),
    Binding("spectral_forge.finite", "finite_spectrum",
            "finite.finite_spectrum", ("sections",), _records_over_gate),
    Binding(_CLI, "convergence_table", "finite.convergence_table",
            ("sections",)),
    Binding("spectral_forge.finite", "secular_roots", "finite.secular_roots",
            ("sections",)),
    Binding("spectral_forge.finite", "build_finite_section",
            "finite.build_finite_section", ("sections",)),
    Binding("spectral_forge.verify", "build_finite_section",
            "finite.build_finite_section", ("sections",)),
    Binding(_CLI, "strongly_connected", "finite.strongly_connected",
            ("sections",)),
    Binding("spectral_forge.verify", "strongly_connected",
            "finite.strongly_connected", ("sections",)),
    Binding("spectral_forge.finite", "cofactor_det_batch",
            "finite.cofactor_det_batch", ("sections",), _cofactor_work),
    # verify suites, looked up in the suite registry
    *(Binding("spectral_forge.verify", "_SUITES", f"verify.{name}",
              ("sections",), key=name)
      for name in ("sherman-morrison", "circles", "stochasticity",
                   "connectivity", "factorization")),
    # the semigroup
    Binding(_CLI, "scan_imaginary_axis", "semigroup.scan_imaginary_axis",
            ("semigroup",)),
    Binding("spectral_forge.semigroup", "generator_denominator",
            "semigroup.generator_denominator", ("semigroup",)),
    Binding(_CLI, "mode_certificate", "semigroup.mode_certificate",
            ("semigroup",)),
    Binding(_CLI, "evolve", "semigroup.evolve", ("semigroup",)),
    Binding("spectral_forge.semigroup", "expm", "semigroup.expm",
            ("semigroup",)),
)


class Tracer:
    """Records spans for the wrapped bindings while installed."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = tuple(bindings)
        self.spans: List[Span] = []
        self.fired: Dict[str, int] = {b.label: 0 for b in self.bindings}
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    def _wrap(self, fn, binding: Binding):
        sig = inspect.signature(fn) if binding.counters else None
        spans, stack, fired = self.spans, self._stack, self.fired
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(binding.span, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                fired[binding.label] += 1
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters = binding.counters(bound, result)
            return result

        return wrapper

    def install(self):
        """Wrap every binding; a binding that no longer exists is recorded
        in ``missing`` instead of raising, so the caller can report it."""
        for b in self.bindings:
            try:
                owner = importlib.import_module(b.module)
                if b.key is None:
                    orig = getattr(owner, b.attr)
                else:
                    owner = getattr(owner, b.attr)
                    orig = owner[b.key]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(b.label)
                continue
            wrapped = self._wrap(orig, b)
            if b.key is None:
                setattr(owner, b.attr, wrapped)
                self._restore.append(
                    functools.partial(setattr, owner, b.attr, orig))
            else:
                owner[b.key] = wrapped
                self._restore.append(
                    functools.partial(owner.__setitem__, b.key, orig))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> List[Span]:
        """Spans recorded since the last call; clears the buffer."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def silent(self, workload: str) -> List[str]:
        """Bindings that should have fired in ``workload`` but did not."""
        return [b.label for b in self.bindings
                if workload in b.fires_in and self.fired[b.label] == 0]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _child_time(spans: List[Span]) -> List[float]:
    """Per span, the summed duration of its direct children."""
    out = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            out[s.parent] += s.duration
    return out


def span_errors(spans: List[Span]) -> List[str]:
    """Structural problems: open spans, or children outlasting a parent."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {i} ({s.name}) outside parent {p.name}")
    child_time = _child_time(spans)
    for i, s in enumerate(spans):
        if child_time[i] > s.duration:
            errors.append(f"children of span {i} ({s.name}) outlast it")
    return errors


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: total time ``s``, ``self_s``, ``calls`` and counters.

    ``s`` counts only spans with no ancestor of the same name, so a name
    bound in two namespaces is never counted twice.  ``self_s`` is a span's
    duration minus its direct children's (calls are sequential, so the
    children never overlap).
    """
    child_time = _child_time(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self_s"] += s.duration - child_time[i]
        for k, v in s.counters.items():
            agg[k] = agg.get(k, 0) + v
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            agg["s"] += s.duration
    return out
