"""Runs one workload in-process against spectral_forge.cli.main.

Started by ``bench/run.py`` in a fresh process with the BLAS/OpenMP thread
variables already pinned.  Prints one JSON object on its last stdout line:
per pass the wall and reference seconds, peak RSS after the first pass,
command outcomes, and (with ``--trace 1``) per-layer metrics of the traced
passes.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

import tracer as tracing
import workloads
from calibrate import REFERENCE_S, kernel_median
from metrics import per_layer_values
from workloads import FAILED, KNOWN_FAILURE, OK

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# A median needs a few samples even when one pass outlasts --seconds: four
# for the end-to-end run (sections otherwise gets two and spreads most),
# three per half of the traced run, which then stays well inside 180 s.
MIN_PASSES = 4
MIN_TRACED_PASSES = 3


def import_cli():
    """Import spectral_forge.cli from this checkout's src/, never from an
    installed copy; exit 2 when the checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "spectral_forge", "cli.py")):
        sys.exit(f"bench: no program at {SRC}/spectral_forge")
    sys.path.insert(0, SRC)
    import spectral_forge.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported {cli.__file__}, not the checkout's copy")
    return cli


class Runner:
    """Runs passes of one workload and keeps command outcomes."""

    def __init__(self, cli, commands, out_dir):
        self.cli = cli
        self.commands = commands
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.unexpected = []        # "argv head: reason" of wrong outputs
        self.known = []             # the same, for expected failures

    def _clear(self):
        for name in os.listdir(self.out_dir):
            os.unlink(os.path.join(self.out_dir, name))

    def run_command(self, cmd) -> float:
        self._clear()
        argv = cmd.argv(self.out_dir)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:        # a crash is a failed command
            elapsed = time.perf_counter() - t0
            status, reason = FAILED, f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            try:
                status, reason = cmd.outcome(rc, out.getvalue(), self.out_dir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                status, reason = FAILED, f"unreadable output: {exc!r}"
        self.attempted += 1
        if status != OK:
            self.failed += 1
            if status == KNOWN_FAILURE:
                self.known.append(f"{' '.join(cmd.args[:3])}: {reason}")
            else:
                self.unexpected.append(
                    f"{' '.join(cmd.args[:3])[:80]}: {reason}"
                    + (f" | {err.getvalue().strip()[:200]}" if err.getvalue() else ""))
        return elapsed

    def run_pass(self):
        """(wall s, reference s) of one pass.

        A pass's time is the sum of its commands' times; the output checks
        between commands are not timed.  The reference kernel runs before
        the first command and after each one, for at least 5% of that
        command's time, and each command is scaled by the mean of the
        kernel medians on either side of it (see calibrate.py).
        """
        wall = ref = 0.0
        before = kernel_median(0.03)
        for cmd in self.commands:
            t = self.run_command(cmd)
            after = kernel_median(0.05 * t)
            wall += t
            ref += t * REFERENCE_S / ((before + after) / 2)
            before = after
        return wall, ref

    def run_for(self, seconds: float, minimum: int, after_pass=None):
        """Passes for at least ``seconds`` and at least ``minimum`` passes;
        ``after_pass`` is called after each one."""
        passes = []
        t_end = time.perf_counter() + seconds
        while len(passes) < minimum or time.perf_counter() < t_end:
            passes.append(self.run_pass())
            if after_pass:
                after_pass()
        return passes


def versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", required=True,
                    help="scratch directory for the artifacts")
    ap.add_argument("--spans", default=None,
                    help="write the traced passes' spans here (JSON lines)")
    args = ap.parse_args(argv)

    cli = import_cli()
    commands = workloads.build(args.workload, args.seed)
    out_dir = os.path.join(args.tmp, "out")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(cli, commands, out_dir)

    # the first pass warms caches and lazy imports; it also gives the peak
    # resident memory of a fresh process that has run exactly one pass
    warm, _ = runner.run_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed,
              "commands_per_pass": len(commands), "warmup_s": warm,
              "peak_rss_mb": peak_rss_mb, "versions": versions()}
    if args.trace == 0:
        result["passes"] = runner.run_for(args.seconds, MIN_PASSES)
    else:
        half = args.seconds / 2
        result["passes"] = runner.run_for(half, MIN_TRACED_PASSES)
        passes = []
        with tracing.Tracer() as tracer:
            traced = runner.run_for(half, MIN_TRACED_PASSES,
                                    lambda: passes.append(tracer.take()))
        errors = [e for spans in passes for e in tracing.span_errors(spans)]
        per_pass = [per_layer_values(tracing.aggregate(s)) for s in passes]
        if args.spans:
            with open(args.spans, "w") as fh:
                for i, spans in enumerate(passes):
                    for s in spans:
                        fh.write(json.dumps({"pass": i, **s.__dict__}) + "\n")
        layer = {k: statistics.median(p[k] for p in per_pass)
                 for k in per_pass[0]}
        layer["trace.overhead_s"] = (
            statistics.median(r for _, r in traced)
            - statistics.median(r for _, r in result["passes"]))
        result.update(traced_passes=traced, per_layer=layer,
                      span_errors=errors[:20], missing=tracer.missing,
                      silent=tracer.silent(args.workload))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  unexpected=runner.unexpected[:20],
                  known_failures=sorted(set(runner.known)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
