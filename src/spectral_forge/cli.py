"""spectral-forge command line.

Subcommands map one-to-one onto the library surface: ``scan-circle``,
``eigs`` and ``convergence`` probe the discrete-time operator, ``semigroup
scan-axis/cert/evolve`` probe the continuous-time one, and ``verify`` runs
the seeded property suites.  Exit codes: 0 all checks passed, 1 a numeric
verification failed, 2 bad usage.

Each value-taking flag declares its domain once, as its argparse ``type``
(``_domain``), so a malformed and an out-of-range value are refused alike:
``error: argument --grid: need an integer >= 1, got '0'``.  A command
checks only what needs two inputs, in the same format, and every usage
error, from the parser or a command, makes main() return 2 before
anything is written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import BlockIndexOverflow, BlockTooDeep, ExponentialUnresolved, \
    SpectralForgeError
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

# deepest series truncation whose dyadic tail radius 2^-depth is still a
# positive float; 2.0**-1075 rounds to 0
_MAX_DEPTH = 1074


class UsageError(Exception):
    """Argument problem; maps to exit status 2."""


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` where argparse would print usage and exit 2, so
    that main() returns 2 for every refused argv; subparsers inherit it."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# flag domains
# ---------------------------------------------------------------------------

def _domain(convert, ok, need: str):
    """An argparse ``type``: ``convert`` parses the text and ``ok`` checks
    the value, so a malformed and an out-of-range value of a flag get the
    one message ``argument --flag: need <need>, got <text>``."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ArithmeticError):
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")

    parse.need = need
    return parse


def _items(convert):
    """A comma-separated list, blanks dropped, each item converted."""
    return lambda text: [convert(s) for s in text.replace(" ", "").split(",")
                         if s]


def _at_least(low: int):
    return _domain(int, lambda v: v >= low, f"an integer >= {low}")


def _single_mode(text: str) -> SemigroupState:
    n, k = (int(s) for s in text.split(","))
    return SemigroupState.single_mode(n, k, 1.0 / TWO_PI)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _check_section_size(flag: str, n_blocks: int, spec: GroupUnionSpec,
                        renormalize: bool = True):
    limit = section_limit(spec, renormalize)
    if n_blocks > limit:
        raise UsageError(
            f"argument {flag}: need a section size in [1, {limit}], got "
            f"{n_blocks}; beyond {limit} the bisection floor eps * q_N is no "
            f"longer a normal float")


# ---------------------------------------------------------------------------
# discrete-time commands
# ---------------------------------------------------------------------------

def cmd_scan_circle(args) -> int:
    try:
        report = scan_unit_circle(args.orders, args.grid, args.exclusion,
                                  args.depth, args.cert_block)
    except BlockTooDeep as exc:
        raise UsageError(f"argument --cert-block: {exc}; use a shallower "
                         f"block")

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

    write_csv(_out_path(args, "scan_circle.csv"),
              ["theta", "re_lambda", "im_lambda", "verdict",
               "denominator_abs_lower"], batches())
    # a rim with no grid point on it certifies nothing off the targets
    rim_ok = rim_ok and rim_seen

    # each residual must match its closed form q_n * (1 + |<1, z>|) to
    # within CERT_SLOP, which the scanner records as ``matches``
    cert_ok = all(c.matches for c in report.certificates)
    counts = dict(zip(VERDICTS, tally.tolist()))

    write_json(_out_path(args, "scan_circle.json"), {
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
          f"of {args.grid} points; "
          f"{len(report.certificates)} certificates "
          f"(max residual {max((c.residual for c in report.certificates), default=0.0):.3e})")
    if not rim_seen:
        print(f"scan-circle: no grid point lies off the exclusion arcs "
              f"(radius {args.exclusion}), so nothing off the "
              f"target set is certified", file=sys.stderr)
    return 0 if (rim_ok and cert_ok) else 1


def cmd_eigs(args) -> int:
    spec = args.orders
    _check_section_size("--N", args.n_blocks, spec, not args.no_renormalize)
    result = finite_spectrum(FiniteSection.of(
        spec, args.n_blocks, renormalize=not args.no_renormalize))
    sec = result.section

    values = result.values
    write_csv(_out_path(args, "eigs.csv"), ["re", "im", "kind", "residual"],
              [[values.real, values.imag,
                ["block" if n else "secular" for n in result.blocks.tolist()],
                result.residuals]])

    col = sec.column_sums()
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
        "spectral_radius": float(np.abs(values).max()),
        "peripheral_values": result.peripheral(),
    }
    write_json(_out_path(args, "eigs.json"), summary)
    print(f"eigs: {len(result)} eigenvalues of the {sec.dim}-dimensional "
          f"section, max residual {result.max_residual():.3e}, "
          f"head column sum {col[0]:.12f}")
    return 0 if result.max_residual() <= 1e-9 else 1


def cmd_convergence(args) -> int:
    spec = args.orders
    _check_section_size("--n-max", args.n_max, spec)
    rows = convergence_table(spec, args.n_max)
    write_csv(_out_path(args, "convergence.csv"),
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

def cmd_scan_axis(args) -> int:
    betas = args.betas
    if betas is None:
        # default grid: +-0.05..0.95 plus the showcase point beta = 0
        betas = [round(0.05 * k, 10) for k in np.arange(-19, 20)]
    report = scan_imaginary_axis(GeneratorSpec(), betas)

    write_csv(_out_path(args, "scan_axis.csv"),
              ["beta", "verdict", "denominator_abs_lower"],
              [[report.betas, VERDICT_LABELS[report.codes],
                report.denominator_abs_lower]])

    mismatches = report.betas[report.codes != report.expected].tolist()
    write_json(_out_path(args, "scan_axis.json"), {
        "depth": report.depth,
        "series_terms": report.series_terms,
        "counts": report.counts(),
        "mismatched_betas": mismatches,
    })
    print(f"semigroup scan-axis: {report.counts()} over {report.betas.size} "
          f"points, {len(mismatches)} unexpected verdicts")
    return 0 if not mismatches else 1


def cmd_cert(args) -> int:
    g = GeneratorSpec()
    try:
        certs = [mode_certificate(g, r, args.occurrence) for r in args.r]
    except BlockIndexOverflow as exc:
        flag = "--occurrence" if exc.first_fits else "--r"
        raise UsageError(f"argument {flag}: {exc}")
    write_json(_out_path(args, "semigroup_cert.json"), [{
        "r": str(c.r), "omega": str(c.omega), "k": c.k, "n": c.block_index,
        "q_n": c.q_n, "residual": c.residual, "matches": c.matches,
    } for c in certs])
    for c in certs:
        print(f"cert r={c.r}: mode k={c.k} at block n={c.block_index} "
              f"(speed {c.omega}), residual {c.residual:.6e} "
              f"{'=' if c.matches else '!='} q_n")
    return 0 if all(c.matches for c in certs) else 1


def cmd_evolve(args) -> int:
    g = GeneratorSpec(args.depth)
    f0 = SemigroupState(1.0) if args.mode is None else args.mode
    if args.samples == 1 and args.t > 0.0:
        raise UsageError(f"argument --samples: one sample is t = 0 alone; "
                         f"need at least two to reach t={args.t}")

    times = np.linspace(0.0, args.t, args.samples)
    try:
        ft = evolve(g, f0, times)
    except ExponentialUnresolved as exc:
        raise UsageError(f"argument --t: {args.t} over {args.samples} "
                         f"samples steps too far to certify: {exc}")
    mass = ft.mass().real
    mass0 = f0.mass().real
    # np.max propagates NaN, and a NaN drift fails the gate below
    worst_drift = float(np.max(np.abs(mass - mass0)))
    cols = [times, mass, ft.head.real] + [
        np.broadcast_to(TWO_PI * ft.coeff(n, 0).real, times.shape)
        for n in range(1, args.trace_blocks + 1)]

    headers = ["t", "mass", "head"] + \
        [f"block_mass_{n}" for n in range(1, args.trace_blocks + 1)]
    write_csv(_out_path(args, "evolve.csv"), headers, [cols])
    # the chain's own leak: column 0 of its generator sums to -2^-depth, and
    # |head| <= ||f0||_1 as the orbit contracts l1; a mode-0 entry c past the
    # chain decays alone, losing at most 2^-depth 2 pi |c| per unit time
    tol = 1e-8 * max(1.0, abs(mass0)) \
        + 2.0 ** -g.depth * args.t * float(f0.norm1())
    print(f"semigroup evolve: {times.size} samples to t={args.t}, "
          f"mass drift {worst_drift:.3e} (tolerance {tol:.3e})")
    return 0 if worst_drift <= tol else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = run_suites(args.suites, seed=args.seed, corrupt=args.corrupt)
    write_json(_out_path(args, "verify.json"), report)
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
    common.add_argument("--out", default=".",
                        type=_domain(str, bool, "a directory path"),
                        help="output directory for CSV/JSON artifacts "
                             "(default .)")
    # each flag below is declared once and given to the commands that read it
    orders = argparse.ArgumentParser(add_help=False)
    orders.add_argument("--orders", default="2,3", type=_domain(
                            lambda text: GroupUnionSpec(_items(int)(text)),
                            lambda spec: True,
                            "a comma-separated list of integers >= 1"),
                        help="comma-separated cyclic orders (default 2,3)")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", default=40, type=_domain(
                           int, lambda v: 1 <= v <= _MAX_DEPTH,
                           f"an integer in [1, {_MAX_DEPTH}] (the tail radius "
                           f"2^-depth underflows to 0 past {_MAX_DEPTH})"),
                       help=f"series truncation depth, at most {_MAX_DEPTH} "
                            f"(default 40)")

    parser = _Parser(
        prog="spectral-forge",
        description="certified spectra of head-coupled cyclic shift systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan-circle", parents=[common, orders, depth],
                       help="classify unit-circle points for the operator")
    p.add_argument("--grid", type=_at_least(1), default=3600,
                   help="number of grid angles (default 3600)")
    p.add_argument("--exclusion", default=0.05, type=_domain(
                       float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
                   help="radius of the withheld arcs around target points, "
                        "in [0, 1) (default 0.05)")
    p.add_argument("--cert-block", type=_at_least(1), default=30,
                   help="block index used for residual certificates; its "
                        "weight q_n must exceed 1e-14 (n <= 44 for orders "
                        "2,3)")
    p.set_defaults(handler="cmd_scan_circle")

    p = sub.add_parser("eigs", parents=[common, orders],
                       help="full spectrum of a finite section")
    p.add_argument("--N", dest="n_blocks", type=_at_least(1), default=12,
                   help="number of retained blocks, at least 1 (at most "
                        "967 for orders 2,3)")
    p.add_argument("--no-renormalize", action="store_true",
                   help="keep raw weights (head column sums to 1 - 2^-N)")
    p.set_defaults(handler="cmd_eigs")

    p = sub.add_parser("convergence", parents=[common, orders],
                       help="distance of section spectra to the target set")
    p.add_argument("--n-max", type=_at_least(1), default=12,
                   help="largest section size, at least 1 (at most 967 "
                        "for orders 2,3); rows whose bound is within the "
                        "distance's rounding tolerance read 'unresolved'")
    p.set_defaults(handler="cmd_convergence")

    p = sub.add_parser("verify", parents=[common],
                       help="run the seeded property suites")
    p.add_argument("--seed", type=_at_least(0), default=0,
                   help="seed for all randomised checks (default 0)")
    p.add_argument("--suites", default=None, type=_domain(
                       _items(str), lambda v: v and set(v) <= set(SUITE_NAMES),
                       f"a non-empty comma-separated subset of "
                       f"{list(SUITE_NAMES)}"),
                   help=f"comma-separated subset of {list(SUITE_NAMES)}")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(handler="cmd_verify")

    sg = sub.add_parser("semigroup", help="continuous-time construction")
    sgsub = sg.add_subparsers(dest="subcommand", required=True)

    # scan-axis and cert run at GeneratorSpec's own depth: no caller varies
    # it, and cert's output does not depend on it
    p = sgsub.add_parser("scan-axis", parents=[common],
                         help="classify imaginary-axis points")
    p.add_argument("--betas", default=None, type=_domain(
                       _items(float),
                       lambda v: v and all(map(math.isfinite, v)),
                       "a non-empty comma-separated list of finite numbers"),
                   help="comma-separated finite beta values, e.g. "
                        "--betas -0.9,0.2 or --betas=-0.9,0.2 (default "
                        "grid in [-0.95, 0.95] including 0)")
    # argparse reads '-0.9' as a value but '-0.9,0.2' as an option; widen
    # its negative-number rule to anything that starts like a number
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(handler="cmd_scan_axis")

    p = sgsub.add_parser("cert", parents=[common],
                         help="single-mode approximate eigenvalue certificates")
    p.add_argument("--r", required=True, type=_domain(
                       _items(Fraction), lambda v: v and min(v) >= 1,
                       "one or more speeds >= 1, comma-separated like 3/2,2"),
                   help="comma-separated rational speeds >= 1, e.g. 1,3/2,7/3")
    p.add_argument("--occurrence", type=_at_least(1), default=1,
                   help="which recurrence of the speed to use, from 1")
    p.set_defaults(handler="cmd_cert")

    p = sgsub.add_parser("evolve", parents=[common, depth],
                         help="orbit of the semigroup with mass trace")
    p.add_argument("--t", default=10.0, type=_domain(
                       float, lambda v: math.isfinite(v) and v >= 0.0,
                       "a finite final time >= 0"),
                   help="final time, finite and >= 0")
    p.add_argument("--samples", type=_at_least(1), default=51,
                   help="number of trace samples, at least 1 (2 when t > 0)")
    p.add_argument("--mode", default=None, type=_domain(
                       _single_mode, lambda f0: True,
                       "'n,k': integers with a block index n >= 1"),
                   help="start from a single mode 'n,k' instead of the head")
    p.add_argument("--trace-blocks", type=_at_least(0), default=8,
                   help="number of leading block masses in the CSV, >= 0")
    p.set_defaults(handler="cmd_evolve")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return globals()[args.handler](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralForgeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
