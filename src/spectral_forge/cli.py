"""spectral-forge command line.

Subcommands map one-to-one onto the library surface: ``scan-circle``,
``eigs`` and ``convergence`` probe the discrete-time operator, ``semigroup
scan-axis/cert/evolve`` probe the continuous-time one, and ``verify`` runs
the seeded property suites.  Exit codes: 0 all checks passed, 1 a numeric
verification failed, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .errors import BlockTooDeep, ExponentialUnresolved, SpectralForgeError
from .finite import (FiniteSection, convergence_table, finite_spectrum,
                     section_limit)
from .io import write_csv, write_json
from .model import GroupUnionSpec
from .resolvent import CERTIFIED, SINGULAR, TAIL_INVALID, VERDICT_LABELS, \
    VERDICTS
from .scanner import CERT_SLOP, scan_unit_circle
from .semigroup import TWO_PI, GeneratorSpec, SemigroupState, evolve, \
    mode_certificate, scan_imaginary_axis
from .verify import SUITE_NAMES, run_suites

_DEFAULTS = {
    "orders": (2, 3),
    "truncation_depth": 40,
    "grid_size": 3600,
    "exclusion_radius": 0.05,
    "seed": 0,
    "out": ".",
}

# deepest series truncation whose dyadic tail radius 2^-depth is still a
# positive float; 2.0**-1075 rounds to 0
_MAX_DEPTH = 1074


class UsageError(Exception):
    """Configuration or argument problem; maps to exit status 2."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config: {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config: top level must be a JSON object")
    unknown = set(cfg) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"config: unknown keys {sorted(unknown)}; "
                         f"allowed: {sorted(_DEFAULTS)}")
    return cfg


def _is_int(x) -> bool:
    # JSON true/false arrive as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _resolve_config(args) -> dict:
    """Merge defaults, the config file and the flags, and check every value.

    Config values come from outside the program, so each one is checked
    for type and range here; a bad one is a UsageError (exit 2).
    """
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config(args.config))
    for key, attr in (("truncation_depth", "depth"), ("seed", "seed"),
                      ("out", "out"), ("orders", "orders"),
                      ("grid_size", "grid"), ("exclusion_radius", "exclusion")):
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = val

    orders = cfg["orders"]
    items = list(orders) if isinstance(orders, (list, tuple)) else \
        [s for s in str(orders).replace(" ", "").split(",") if s]
    try:
        # integers, or strings of integers as the --orders flag gives them
        parsed = tuple(int(x) if isinstance(x, str) else x for x in items)
    except ValueError:
        parsed = ()
    if not parsed or not all(map(_is_int, parsed)):
        raise UsageError(f"orders: {orders!r} is not a non-empty "
                         "comma-separated list of integers")
    bad = [m for m in parsed if m < 1]
    if bad:
        raise UsageError(f"orders: cyclic orders must be >= 1, got {bad}")
    cfg["orders"] = parsed

    depth = cfg["truncation_depth"]
    if not _is_int(depth) or not 1 <= depth <= _MAX_DEPTH:
        raise UsageError(
            f"truncation_depth: need an integer in [1, {_MAX_DEPTH}], got "
            f"{depth!r}; beyond {_MAX_DEPTH} the tail radius 2^-depth "
            f"underflows to 0")
    if not _is_int(cfg["grid_size"]) or cfg["grid_size"] < 1:
        raise UsageError(f"grid_size: need a positive integer, got "
                         f"{cfg['grid_size']!r}")
    radius = cfg["exclusion_radius"]
    if not (isinstance(radius, (int, float)) and not isinstance(radius, bool)
            and 0.0 <= radius < 1.0):
        raise UsageError(f"exclusion_radius: need a number in [0, 1), got "
                         f"{radius!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise UsageError(f"seed: need an integer >= 0, got {cfg['seed']!r}")
    if not isinstance(cfg["out"], str) or not cfg["out"]:
        raise UsageError(f"out: need a directory path, got {cfg['out']!r}")
    return cfg


def _out_path(cfg: dict, name: str) -> str:
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _check_section_size(name: str, n_blocks: int, spec: GroupUnionSpec,
                        renormalize: bool = True):
    limit = section_limit(spec, renormalize)
    if not 1 <= n_blocks <= limit:
        raise UsageError(
            f"{name}: need a section size in [1, {limit}], got {n_blocks}; "
            f"beyond {limit} the bisection floor eps * q_N is no longer a "
            f"normal float")


# ---------------------------------------------------------------------------
# discrete-time commands
# ---------------------------------------------------------------------------

def cmd_scan_circle(args) -> int:
    cfg = _resolve_config(args)
    spec = GroupUnionSpec(cfg["orders"])
    if args.cert_block < 1:
        raise UsageError(f"cert-block: need a block index >= 1, "
                         f"got {args.cert_block}")
    try:
        report = scan_unit_circle(spec, cfg["grid_size"],
                                  float(cfg["exclusion_radius"]),
                                  cfg["truncation_depth"], args.cert_block)
    except BlockTooDeep as exc:
        raise UsageError(f"cert-block: {exc}; use a shallower block")

    tally = np.zeros(len(VERDICTS), dtype=np.int64)
    rim_seen, rim_ok = False, True

    def batches():
        # each summary folds exactly: a sum, an any, an all
        nonlocal rim_seen, rim_ok
        for c in report.chunks:
            tally[:] += np.bincount(c.codes, minlength=tally.size)
            rim = ~c.excluded
            rim_seen = rim_seen or bool(rim.any())
            rim_ok = rim_ok and not c.codes[rim].any()
            yield [c.thetas, c.lams.real, c.lams.imag, VERDICT_LABELS[c.codes],
                   c.den_lower]

    write_csv(_out_path(cfg, "scan_circle.csv"),
              ["theta", "re_lambda", "im_lambda", "verdict",
               "denominator_abs_lower"], batches())
    # a rim with no grid point on it certifies nothing off the targets
    rim_ok = rim_ok and rim_seen

    # each residual must match its closed form q_n * (1 + |<1, z>|) to
    # within CERT_SLOP, which the scanner records as ``matches``
    cert_ok = all(c.matches for c in report.certificates)
    counts = dict(zip(VERDICTS, tally.tolist()))

    write_json(_out_path(cfg, "scan_circle.json"), {
        "metadata": report.metadata,
        "counts": counts,
        "certificates": [{
            "angle": str(c.angle), "re": c.value.real, "im": c.value.imag,
            "block_index": c.block_index, "inner_abs": c.inner_abs,
            "residual": c.residual, "expected": c.expected,
            "tolerance": CERT_SLOP, "matches": c.matches,
        } for c in report.certificates],
        "all_nonexcluded_certified": rim_ok,
        "certificates_ok": cert_ok,
    })
    print(f"scan-circle: {counts[CERTIFIED]} certified, "
          f"{counts[SINGULAR]} withheld, {counts[TAIL_INVALID]} tail-invalid "
          f"of {cfg['grid_size']} points; "
          f"{len(report.certificates)} certificates "
          f"(max residual {max((c.residual for c in report.certificates), default=0.0):.3e})")
    if not rim_seen:
        print(f"scan-circle: no grid point lies off the exclusion arcs "
              f"(radius {cfg['exclusion_radius']}), so nothing off the "
              f"target set is certified", file=sys.stderr)
    return 0 if (rim_ok and cert_ok) else 1


def cmd_eigs(args) -> int:
    cfg = _resolve_config(args)
    spec = GroupUnionSpec(cfg["orders"])
    _check_section_size("N", args.n_blocks, spec, not args.no_renormalize)
    result = finite_spectrum(FiniteSection.of(
        spec, args.n_blocks, renormalize=not args.no_renormalize))
    sec = result.section

    values = result.values()
    write_csv(_out_path(cfg, "eigs.csv"), ["re", "im", "kind", "residual"],
              [[values.real, values.imag, [r.kind for r in result.records],
                np.array([r.residual for r in result.records])]])

    col = sec.column_sums()
    vals = np.abs(values)
    top = values[vals > vals.max() - 1e-10]
    summary = {
        "orders": list(spec.orders),
        "n_blocks": args.n_blocks,
        "dimension": sec.dim,
        "renormalized": sec.renormalized,
        "count": len(result),
        "max_residual": result.max_residual(),
        "head_column_sum": float(col[0]),
        "max_column_sum_deviation": float(np.abs(col - 1.0).max()),
        "strongly_connected": sec.strongly_connected(),
        "spectral_radius": float(vals.max()),
        "peripheral_values": [{"re": z.real, "im": z.imag} for z in top],
    }
    write_json(_out_path(cfg, "eigs.json"), summary)
    print(f"eigs: {len(result)} eigenvalues of the {sec.dim}-dimensional "
          f"section, max residual {result.max_residual():.3e}, "
          f"head column sum {col[0]:.12f}")
    return 0 if result.max_residual() <= 1e-9 else 1


def cmd_convergence(args) -> int:
    cfg = _resolve_config(args)
    spec = GroupUnionSpec(cfg["orders"])
    _check_section_size("n-max", args.n_max, spec)
    rows = convergence_table(spec, args.n_max)
    write_csv(_out_path(cfg, "convergence.csv"),
              ["n_blocks", "angle", "distance", "bound", "within_bound"],
              [[[r.n_blocks for r in rows], [str(r.angle) for r in rows],
                np.array([r.distance for r in rows]),
                np.array([r.bound for r in rows]),
                [r.ok if r.resolved else "unresolved" for r in rows]]])
    # rows whose bound is within the distance's rounding tolerance cannot
    # fail the check, so they do not decide the exit status
    resolved = [r for r in rows if r.resolved]
    worst = max((r.distance / r.bound for r in resolved), default=math.nan)
    print(f"convergence: {len(rows)} rows up to N={args.n_max}, "
          f"{len(rows) - len(resolved)} unresolved, "
          f"worst resolved distance/bound = {worst:.3f}")
    return 0 if all(r.ok for r in resolved) else 1


# ---------------------------------------------------------------------------
# semigroup commands
# ---------------------------------------------------------------------------

def _parse_betas(text: Optional[str]) -> List[float]:
    if text is None:
        # default grid: +-0.05..0.95 plus the showcase point beta = 0
        ks = np.arange(-19, 20)
        return [round(0.05 * k, 10) for k in ks]
    try:
        betas = [float(s) for s in text.replace(" ", "").split(",") if s]
    except ValueError:
        raise UsageError(f"betas: {text!r} is not a comma-separated "
                         "list of floats")
    if not betas:
        raise UsageError(f"betas: {text!r} names no beta, so nothing "
                         "would be scanned")
    if not all(map(math.isfinite, betas)):
        raise UsageError(f"betas: {text!r} holds a non-finite value")
    return betas


def cmd_scan_axis(args) -> int:
    cfg = _resolve_config(args)
    report = scan_imaginary_axis(GeneratorSpec(cfg["truncation_depth"]),
                                 _parse_betas(args.betas))

    write_csv(_out_path(cfg, "scan_axis.csv"),
              ["beta", "verdict", "denominator_abs_lower"],
              [[report.betas, VERDICT_LABELS[report.codes],
                report.denominator_abs_lower]])

    mismatches = report.betas[report.codes != report.expected].tolist()
    write_json(_out_path(cfg, "scan_axis.json"), {
        "depth": report.depth,
        "series_terms": report.series_terms,
        "counts": report.counts(),
        "mismatched_betas": mismatches,
    })
    print(f"semigroup scan-axis: {report.counts()} over {report.betas.size} "
          f"points, {len(mismatches)} unexpected verdicts")
    return 0 if not mismatches else 1


def _parse_rationals(text: str) -> List[Fraction]:
    try:
        return [Fraction(s) for s in text.replace(" ", "").split(",") if s]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"r: {text!r} is not a comma-separated list "
                         "of rationals like 3/2")


def cmd_cert(args) -> int:
    cfg = _resolve_config(args)
    g = GeneratorSpec(cfg["truncation_depth"])
    speeds = _parse_rationals(args.r)
    if not speeds or min(speeds) < 1:
        raise UsageError(f"r: need one or more speeds >= 1, got {args.r!r}")
    if args.occurrence < 1:
        raise UsageError(f"occurrence: need 1 or more, got {args.occurrence}")
    certs = [mode_certificate(g, r, args.occurrence) for r in speeds]
    write_json(_out_path(cfg, "semigroup_cert.json"), [{
        "r": str(c.r), "omega": str(c.omega), "k": c.k, "n": c.block_index,
        "q_n": c.q_n, "residual": c.residual, "matches": c.matches,
    } for c in certs])
    for c in certs:
        print(f"cert r={c.r}: mode k={c.k} at block n={c.block_index} "
              f"(speed {c.omega}), residual {c.residual:.6e} "
              f"{'=' if c.matches else '!='} q_n")
    return 0 if all(c.matches for c in certs) else 1


def cmd_evolve(args) -> int:
    cfg = _resolve_config(args)
    g = GeneratorSpec(cfg["truncation_depth"])
    f0 = SemigroupState(1.0)
    if args.mode:
        try:
            n, k = (int(s) for s in args.mode.split(","))
            f0 = SemigroupState.single_mode(n, k, 1.0 / TWO_PI)
        except ValueError:
            raise UsageError(f"mode: {args.mode!r} is not 'n,k' with a "
                             "block index n >= 1")

    if not (math.isfinite(args.t) and args.t >= 0.0):
        raise UsageError(f"t: need a finite final time >= 0, got {args.t}")
    if args.samples < 1:
        raise UsageError(f"samples: need at least one sample, got "
                         f"{args.samples}")
    if args.trace_blocks < 0:
        raise UsageError(f"trace-blocks: need 0 or more, got "
                         f"{args.trace_blocks}")

    times = np.linspace(0.0, args.t, args.samples)
    try:
        ft = evolve(g, f0, times)
    except ExponentialUnresolved as exc:
        raise UsageError(f"t: {args.t} over {args.samples} samples steps "
                         f"too far to certify: {exc}")
    mass = ft.mass().real
    mass0 = f0.mass().real
    # np.max propagates NaN, and a NaN drift fails the gate below
    worst_drift = float(np.max(np.abs(mass - mass0)))
    cols = [times, mass, ft.head.real] + [
        np.broadcast_to(TWO_PI * ft.coeff(n, 0).real, times.shape)
        for n in range(1, args.trace_blocks + 1)]

    headers = ["t", "mass", "head"] + \
        [f"block_mass_{n}" for n in range(1, args.trace_blocks + 1)]
    write_csv(_out_path(cfg, "evolve.csv"), headers, [cols])
    tol = 1e-8 * max(1.0, abs(mass0))
    print(f"semigroup evolve: {times.size} samples to t={args.t}, "
          f"mass drift {worst_drift:.3e} (tolerance {tol:.1e})")
    return 0 if worst_drift <= tol else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    names = None
    if args.suites is not None:
        names = [s for s in args.suites.replace(" ", "").split(",") if s]
        if not names:
            raise UsageError(f"suites: {args.suites!r} names no suite, so "
                             f"nothing would be checked; choices: "
                             f"{list(SUITE_NAMES)}")
        unknown = set(names) - set(SUITE_NAMES)
        if unknown:
            raise UsageError(f"suites: unknown {sorted(unknown)}; "
                             f"choices: {list(SUITE_NAMES)}")
    report = run_suites(names, seed=cfg["seed"], corrupt=args.corrupt)
    write_json(_out_path(cfg, "verify.json"), report)
    for name, res in report["suites"].items():
        status = "PASS" if res["passed"] else "FAIL"
        print(f"verify {name}: {status} "
              f"({res['checks']} checks, {res['failures']} failures)")
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# built once per process, on the first main() call and not at import; each
# command records its handler's name, which main() looks up in this module
# on every call, so a handler rebound here after the build is the one to run
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--out", default=None,
                        help="output directory for CSV/JSON artifacts")
    # each flag below is declared once and given to the commands that read it
    orders = argparse.ArgumentParser(add_help=False)
    orders.add_argument("--orders", default=None,
                        help="comma-separated cyclic orders, e.g. 2,3")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=int, default=None,
                       help="series truncation depth (default 40)")

    parser = argparse.ArgumentParser(
        prog="spectral-forge",
        description="certified spectra of head-coupled cyclic shift systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-circle", parents=[common, orders, depth],
                       help="classify unit-circle points for the operator")
    p.add_argument("--grid", type=int, default=None,
                   help="number of grid angles (default 3600)")
    p.add_argument("--exclusion", type=float, default=None,
                   help="radius of the withheld arcs around target points")
    p.add_argument("--cert-block", type=int, default=30,
                   help="block index used for residual certificates; its "
                        "weight q_n must exceed 1e-14 (n <= 44 for orders "
                        "2,3)")
    p.set_defaults(handler="cmd_scan_circle")

    p = sub.add_parser("eigs", parents=[common, orders],
                       help="full spectrum of a finite section")
    p.add_argument("--N", dest="n_blocks", type=int, default=12,
                   help="number of retained blocks, at least 1 (at most "
                        "967 for orders 2,3)")
    p.add_argument("--no-renormalize", action="store_true",
                   help="keep raw weights (head column sums to 1 - 2^-N)")
    p.set_defaults(handler="cmd_eigs")

    p = sub.add_parser("convergence", parents=[common, orders],
                       help="distance of section spectra to the target set")
    p.add_argument("--n-max", type=int, default=12,
                   help="largest section size, at least 1 (at most 967 "
                        "for orders 2,3); rows whose bound is within the "
                        "distance's rounding tolerance read 'unresolved'")
    p.set_defaults(handler="cmd_convergence")

    p = sub.add_parser("verify", parents=[common],
                       help="run the seeded property suites")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for all randomised checks")
    p.add_argument("--suites", default=None,
                   help=f"comma-separated subset of {list(SUITE_NAMES)}")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler="cmd_verify")

    sg = sub.add_parser("semigroup", help="continuous-time construction")
    sgsub = sg.add_subparsers(dest="subcommand", required=True)

    p = sgsub.add_parser("scan-axis", parents=[common, depth],
                         help="classify imaginary-axis points")
    p.add_argument("--betas", default=None,
                   help="comma-separated finite beta values, e.g. "
                        "--betas -0.9,0.2 or --betas=-0.9,0.2 (default "
                        "grid in [-0.95, 0.95] including 0)")
    # argparse reads '-0.9' as a value but '-0.9,0.2' as an option; widen
    # its negative-number rule to anything that starts like a number
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(handler="cmd_scan_axis")

    p = sgsub.add_parser("cert", parents=[common, depth],
                         help="single-mode approximate eigenvalue certificates")
    p.add_argument("--r", required=True,
                   help="comma-separated rational speeds >= 1, e.g. 1,3/2,7/3")
    p.add_argument("--occurrence", type=int, default=1,
                   help="which recurrence of the speed to use, from 1")
    p.set_defaults(handler="cmd_cert")

    p = sgsub.add_parser("evolve", parents=[common, depth],
                         help="orbit of the semigroup with mass trace")
    p.add_argument("--t", type=float, default=10.0,
                   help="final time, finite and >= 0")
    p.add_argument("--samples", type=int, default=51,
                   help="number of trace samples, at least 1")
    p.add_argument("--mode", default=None,
                   help="start from a single mode 'n,k' instead of the head")
    p.add_argument("--trace-blocks", type=int, default=8,
                   help="number of leading block masses in the CSV, >= 0")
    p.set_defaults(handler="cmd_evolve")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[args.handler](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralForgeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
