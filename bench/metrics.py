"""Metric definitions of the spectral-forge benchmark.

``WORKLOADS``, ``END_TO_END`` and ``PER_LAYER`` are the workloads and
metrics named in BENCHMARK.json, in the same order, with the same units and directions; the self-test checks
that the two agree.  Every per-layer metric is tagged with the end-to-end
metric(s) it should move and the workload(s) on which it should move them;
``no_move`` names a workload where the prediction is no change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("scan-wide", "scan-sweep", "sections", "semigroup")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("ops_ok_frac", "frac", "higher", 0.01),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    span: Optional[str]         # span aggregated; None for trace.overhead_s
    field: str                  # "s", "self_s", "calls" or a counter name
    unit: str
    moves: Tuple[str, ...]      # end-to-end metrics it should move
    on: Tuple[str, ...]         # workloads on which it should move them
    no_move: Tuple[str, ...] = ()
    better: str = "lower"


_SCAN = ("wall_s", "peak_rss_mb")


def _t(span, field, moves, on, **kw):
    unit = "s" if field in ("s", "self_s") else "count"
    return PerLayer(f"{span}.{field}", span, field, unit, moves, on, **kw)


PER_LAYER = (
    # one span per CLI command
    _t("cli.scan_circle", "s", ("wall_s",), ("scan-wide", "scan-sweep")),
    _t("cli.eigs", "s", ("wall_s",), ("sections",)),
    _t("cli.convergence", "s", ("wall_s",), ("sections",)),
    _t("cli.verify", "s", ("wall_s",), ("sections",)),
    _t("cli.scan_axis", "s", ("wall_s",), ("semigroup",)),
    _t("cli.cert", "s", ("wall_s",), ("semigroup",)),
    _t("cli.evolve", "s", ("wall_s",), ("semigroup",)),
    # the dense scan
    _t("scanner.scan_unit_circle", "self_s", _SCAN, ("scan-wide",),
       no_move=("scan-sweep",)),
    _t("resolvent.coupling_series_batch", "s", _SCAN, ("scan-wide",),
       no_move=("scan-sweep",)),
    _t("resolvent.coupling_series_batch", "elems", _SCAN, ("scan-wide",),
       no_move=("scan-sweep",)),
    PerLayer("scanner.grid_points", "scanner.scan_unit_circle",
             "grid_points", "count", _SCAN, ("scan-wide",),
             no_move=("scan-sweep",)),
    # artifact writing
    _t("io.write_csv", "s", ("wall_s",), ("scan-wide",)),
    PerLayer("io.write_csv.bytes", "io.write_csv", "bytes", "B",
             ("wall_s",), ("scan-wide",)),
    _t("io.write_json", "s", ("wall_s",), ("scan-wide",)),
    PerLayer("io.write_json.bytes", "io.write_json", "bytes", "B",
             ("wall_s",), ("scan-wide",)),
    # per-call fixed costs of the scan
    _t("scanner.residual_certificate", "s", ("wall_s",), ("scan-sweep",)),
    _t("scanner.residual_certificate", "calls", ("wall_s",), ("scan-sweep",)),
    _t("model.apply_operator", "s", ("wall_s",), ("scan-sweep",)),
    _t("model.apply_operator", "calls", ("wall_s",), ("scan-sweep",)),
    _t("scanner.scan_unit_circle", "calls", ("wall_s",), ("scan-sweep",)),
    # finite sections
    _t("finite.secular_roots", "s", ("wall_s",), ("sections",)),
    _t("finite.secular_roots", "calls", ("wall_s",), ("sections",)),
    _t("finite.finite_spectrum", "self_s", ("wall_s",), ("sections",)),
    _t("finite.finite_spectrum", "calls", ("wall_s",), ("sections",)),
    _t("finite.convergence_table", "self_s", ("wall_s",), ("sections",)),
    _t("finite.build_finite_section", "s", ("wall_s",), ("sections",)),
    _t("finite.strongly_connected", "s", ("wall_s",), ("sections",)),
    PerLayer("finite.records_over_gate", "finite.finite_spectrum",
             "records_over_gate", "count", ("wall_s", "ops_ok_frac"),
             ("sections",)),
    # the cofactor oracle and the verify suites
    _t("finite.cofactor_det_batch", "s", ("wall_s",), ("sections",)),
    _t("finite.cofactor_det_batch", "calls", ("wall_s",), ("sections",)),
    _t("finite.cofactor_det_batch", "work", ("wall_s",), ("sections",)),
    *(_t(f"verify.{suite}", "s", ("wall_s",), ("sections",))
      for suite in ("sherman-morrison", "circles", "stochasticity",
                    "connectivity", "factorization")),
    # the semigroup
    _t("semigroup.scan_imaginary_axis", "self_s", ("wall_s",), ("semigroup",)),
    _t("semigroup.generator_denominator", "s", ("wall_s",), ("semigroup",)),
    _t("semigroup.generator_denominator", "calls", ("wall_s",),
       ("semigroup",)),
    _t("semigroup.mode_certificate", "s", ("wall_s",), ("semigroup",)),
    _t("semigroup.mode_certificate", "calls", ("wall_s",), ("semigroup",)),
    _t("semigroup.evolve", "self_s", ("wall_s",), ("semigroup",)),
    _t("semigroup.evolve", "calls", ("wall_s",), ("semigroup",)),
    _t("semigroup.expm", "s", ("wall_s",), ("semigroup",)),
    _t("semigroup.expm", "calls", ("wall_s",), ("semigroup",)),
    # traced wall_s minus untraced wall_s
    PerLayer("trace.overhead_s", None, "overhead", "s", ("wall_s",),
             WORKLOADS),
)


def per_layer_values(agg: dict) -> dict:
    """Per-layer metric values of one traced pass from ``tracer.aggregate``.

    A span that did not fire on this workload reads 0.  ``trace.overhead_s``
    is left to the caller, which has the untraced passes.
    """
    return {m.name: agg.get(m.span, {}).get(m.field, 0)
            for m in PER_LAYER if m.span is not None}
