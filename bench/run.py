#!/usr/bin/env python3
"""spectral-forge benchmark: drives spectral_forge.cli.main on four workloads.

    python3 bench/run.py --workload scan-wide --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --out bench/baseline/x.json

A single workload prints its metrics as a table and, as the last stdout
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``--workload all`` runs every workload both
ways and prints every table.  See bench/README.md.

Run it from anywhere; it reads and writes only inside the checkout that
holds it (artifacts go to .bench_tmp/, removed on exit).
"""

import os

# Pinned before anything imports numpy; every process started below
# inherits them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402 (stdlib)
SETUP_PROBES = 5
DEADLINE_S = 175.0      # a single-workload run must end within 180 s

# Times the import of the CLI in a fresh interpreter and prints it in wall
# and reference seconds (calibrate.py); argv[1] is src/, argv[2] bench/.
PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import spectral_forge.cli
elapsed = time.perf_counter() - t0
if not spectral_forge.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported " + spectral_forge.cli.__file__)
sys.path.insert(0, sys.argv[2])
import calibrate
scaled = elapsed * calibrate.REFERENCE_S / calibrate.kernel_median(0.05)
print(repr(elapsed), repr(scaled))
"""


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _child(cmd, deadline: float) -> str:
    """Run a child to completion; its stdout, or BenchError."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before " + " ".join(cmd[:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd[:4])}")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return proc.stdout


def measure_setup(deadline: float) -> list:
    """(wall s, reference s) of importing the CLI, per fresh process."""
    out = []
    for _ in range(SETUP_PROBES):
        line = _child([sys.executable, "-c", PROBE, SRC, BENCH],
                      deadline).strip().splitlines()[-1]
        out.append(tuple(map(float, line.split())))
    return out


def run_worker(workload, seed, seconds, trace, tmp, deadline,
               spans=None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--tmp", tmp]
    if spans:
        cmd += ["--spans", spans]
    out = _child(cmd, deadline).strip().splitlines()
    if not out:
        raise BenchError("worker printed nothing")
    return json.loads(out[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(worker: dict) -> dict:
    return {"commit": git_commit(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            **worker["versions"]}


def _spread(samples) -> str:
    """Quartiles of the reference-second samples and the raw wall median."""
    ref = [r for _, r in samples]
    q1, _, q3 = statistics.quantiles(ref, n=4)
    raw = statistics.median(w for w, _ in samples)
    return f"q1 {q1:.4f} q3 {q3:.4f}, raw wall median {raw:.4f} s"


def end_to_end(worker: dict, setups: list) -> dict:
    passes = worker["passes"]
    ok = worker["attempted"] - worker["failed"]
    values = {"wall_s": statistics.median(r for _, r in passes),
              "setup_s": statistics.median(r for _, r in setups),
              "peak_rss_mb": worker["peak_rss_mb"],
              "ops_ok_frac": ok / worker["attempted"]}
    notes = {
        "wall_s": f"ref. s, median of {len(passes)} passes of "
                  f"{worker['commands_per_pass']} commands, "
                  f"{_spread(passes)}; warm-up {worker['warmup_s']:.3f} s "
                  "not counted",
        "setup_s": f"ref. s, median of {len(setups)} fresh imports, "
                   f"{_spread(setups)}",
        "peak_rss_mb": "fresh process after its first pass",
        "ops_ok_frac": f"{ok} of {worker['attempted']} commands passed",
    }
    return {m.name: (values[m.name], m.unit, notes[m.name])
            for m in END_TO_END}


def per_layer(worker: dict) -> dict:
    return {m.name: (worker["per_layer"][m.name], m.unit,
                     "moves " + ",".join(m.moves) + " on " + ",".join(m.on))
            for m in PER_LAYER}


def print_table(title: str, rows: dict):
    print(f"## {title}")
    for name, (value, unit, note) in rows.items():
        print(f"{name:<42} {value:>16.6g} {unit:<6} {note}")


def print_failed_frac(worker: dict):
    """ops_failed_frac, which BENCHMARK.json carries as its complement."""
    frac = worker["failed"] / worker["attempted"]
    print(f"{'ops_failed_frac':<42} {frac:>16.6g} {'frac':<6} "
          f"{worker['failed']} of {worker['attempted']} commands failed "
          "(1 - ops_ok_frac)")


def show(title: str, rows: dict, worker: dict, trace: int) -> bool:
    """Print one run's table and problems; True when an output was wrong."""
    print_table(title, rows)
    if trace == 0:
        print_failed_frac(worker)
    for k in worker["known_failures"]:
        print(f"known failure: {k}")
    for u in worker["unexpected"]:
        print(f"WRONG OUTPUT: {u}")
    for e in worker.get("span_errors", []):
        print(f"TRACE ERROR: {e}")
    for b in worker.get("missing", []):
        print(f"WARNING: traced binding {b} no longer exists; its metrics "
              "read 0")
    for b in worker.get("silent", []):
        print(f"WARNING: traced binding {b} never fired; its metrics read 0")
    return bool(worker["unexpected"] or worker.get("span_errors"))


def measure(workload, seed, seconds, trace, tmp, deadline, spans=None):
    """One workload, one mode: (table rows, worker record, setup samples)."""
    setups = measure_setup(deadline) if trace == 0 else []
    worker = run_worker(workload, seed, seconds, trace, tmp, deadline, spans)
    rows = end_to_end(worker, setups) if trace == 0 else per_layer(worker)
    return rows, worker, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="spectral-forge benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time per run (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None,
                    help="write the traced run's spans to this JSON-lines file")
    ap.add_argument("--out", default=None,
                    help="also write the full result to this JSON file")
    args = ap.parse_args(argv)

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the finally clause removes the artifacts
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args, tmp)
        deadline = time.monotonic() + DEADLINE_S
        rows, worker, setups = measure(args.workload, args.seed, args.seconds,
                                       args.trace, tmp, deadline, args.spans)
        env = environment(worker)
        title = _title(args.workload, args.trace)
        print(f"# workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print("# env " + json.dumps(env, sort_keys=True))
        wrong = show(title, rows, worker, args.trace)
        if args.out:
            _write(args.out, {"env": env, "seed": args.seed,
                              "seconds": args.seconds, "correct": not wrong,
                              "runs": {title: _record(rows, worker, setups)}})
        print(json.dumps({
            "correct": not wrong,
            "attempted": worker["attempted"],
            "failed": worker["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u, _) in rows.items()},
        }))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass


def _title(workload, trace) -> str:
    return f"{workload} ({'traced' if trace else 'untraced'})"


def _record(rows, worker, setups):
    keep = {k: v for k, v in worker.items() if k != "per_layer"}
    return {"metrics": {k: {"value": v, "unit": u, "note": n}
                        for k, (v, u, n) in rows.items()},
            "setup_samples": setups, "worker": keep}


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args, tmp) -> int:
    """Every workload untraced, then traced; tables for each."""
    runs, env, wrong = {}, None, False
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + DEADLINE_S
            rows, worker, setups = measure(workload, args.seed, args.seconds,
                                           trace, tmp, deadline)
            env = env or environment(worker)
            title = _title(workload, trace)
            wrong |= show(title, rows, worker, trace)
            runs[title] = _record(rows, worker, setups)
            sys.stdout.flush()
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"env": env, "seed": args.seed, "seconds": args.seconds,
              "correct": not wrong, "runs": runs}
    if args.out:
        _write(args.out, result)
    print(json.dumps({"correct": not wrong,
                      "workloads": list(WORKLOADS)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
