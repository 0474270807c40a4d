#!/usr/bin/env python3
"""Self-test of the spectral-forge benchmark.

    python3 bench/selftest.py

Checks, at tiny sizes, that:
  * the argv generated for a seed is deterministic, and two seeds give
    different inputs but the same amount of work;
  * every command of every workload runs cleanly for two seeds;
  * every traced binding fires at least once in its workload, each call
    yields exactly one span (span counts equal call counts known from the
    inputs), and children's spans never outlast their parent's;
  * BENCHMARK.json names the same workloads and metrics as bench/metrics.py;
  * a directory holding only the benchmark files makes run.py exit non-zero
    without printing a result.

Exits 0 when every check passes.  Not collected by pytest (the repo's
tier-1 suite stays as it is); takes about ten seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import subprocess
import sys
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics      # noqa: E402
import tracer as tracing        # noqa: E402
import workloads    # noqa: E402
from worker import Runner, import_cli       # noqa: E402

SEEDS = (1, 2)
TMP = os.path.join(ROOT, ".bench_tmp", f"selftest-{os.getpid()}")


def _args(cmds):
    return [c.args for c in cmds]


def test_argv_is_seeded():
    for name in workloads.WORKLOADS:
        a, b = (workloads.build(name, s) for s in SEEDS)
        assert _args(a) == _args(workloads.build(name, SEEDS[0])), name
        assert [c.kind for c in sorted(a, key=lambda c: c.kind)] == \
            [c.kind for c in sorted(b, key=lambda c: c.kind)], name
        assert sorted(map(str, (c.info for c in a))) == \
            sorted(map(str, (c.info for c in b))), name
        if name != "scan-wide":     # fixed by its grid size alone
            assert _args(a) != _args(b), f"{name}: seed changes nothing"
    betas = workloads.build("semigroup", 1)[0].args[-1]
    assert betas.startswith("--betas=") and "-" in betas


def _runner(cli, cmds, label):
    out = os.path.join(TMP, label)
    os.makedirs(out, exist_ok=True)
    return Runner(cli, cmds, out)


def test_two_seeds_run_cleanly(cli):
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            r = _runner(cli, workloads.build(name, seed, tiny=True),
                        f"{name}-{seed}")
            r.run_pass()
            assert r.failed == 0 and r.attempted == len(r.commands), \
                f"{name} seed {seed}: {r.unexpected}"


def _expected_calls(cmds):
    """Calls per span name that follow from the inputs alone."""
    kinds = [c.kind for c in cmds]
    cli_span = {"scan-circle": "cli.scan_circle", "eigs": "cli.eigs",
                "convergence": "cli.convergence", "verify": "cli.verify",
                "scan-axis": "cli.scan_axis", "cert": "cli.cert",
                "evolve": "cli.evolve"}
    want = {}
    for k in set(kinds):
        want[cli_span[k]] = kinds.count(k)
    scans = kinds.count("scan-circle")
    if scans:
        want["scanner.scan_unit_circle"] = scans
        want["resolvent.coupling_series_batch"] = scans
    samples = sum(c.info["samples"] for c in cmds if c.kind == "evolve")
    if samples:
        want["semigroup.evolve"] = want["semigroup.expm"] = samples
    for c in cmds:
        if c.kind == "scan-axis":
            want["semigroup.scan_imaginary_axis"] = 1
            want["semigroup.generator_denominator"] = c.info["betas"]
        if c.kind == "cert":
            want["semigroup.mode_certificate"] = c.info["speeds"]
        if c.kind == "eigs":
            want["finite.finite_spectrum"] = \
                want.get("finite.finite_spectrum", 0) + 1
        if c.kind == "convergence":
            want["finite.convergence_table"] = 1
            want["finite.finite_spectrum"] = \
                want.get("finite.finite_spectrum", 0) + c.info["n_max"]
        if c.kind == "verify":
            for suite in ("sherman-morrison", "circles", "stochasticity",
                          "connectivity", "factorization"):
                want[f"verify.{suite}"] = 1
            # factorization_crosscheck: one spectrum per case
            want["finite.finite_spectrum"] = \
                want.get("finite.finite_spectrum", 0) + 5
    return want


def test_tracing(cli):
    for name in workloads.WORKLOADS:
        cmds = workloads.build(name, SEEDS[0], tiny=True)
        r = _runner(cli, cmds, f"traced-{name}")
        with tracing.Tracer() as tr:
            r.run_pass()
            spans = tr.take()
        assert not tr.missing, f"bindings gone: {tr.missing}"
        assert not tr.silent(name), f"{name}: never fired: {tr.silent(name)}"
        assert r.failed == 0, r.unexpected
        assert tracing.span_errors(spans) == [], tracing.span_errors(spans)
        # one span per call: every binding's call counter matches its spans
        per_label = sum(tr.fired.values())
        assert per_label == len(spans), (per_label, len(spans))
        agg = tracing.aggregate(spans)
        for span, calls in _expected_calls(cmds).items():
            got = agg.get(span, {}).get("calls", 0)
            assert got == calls, f"{name}: {span} {got} spans, {calls} calls"
        # a child never outlasts its parent, per name too
        for span, a in agg.items():
            assert 0.0 <= a["self_s"] <= a["s"] + 1e-12 or \
                a["s"] == 0.0, (span, a)
        values = metrics.per_layer_values(agg)
        for m in metrics.PER_LAYER:
            if m.span and name in m.on and m.field in ("s", "calls"):
                assert values[m.name] > 0, f"{name}: {m.name} reads 0"
    # originals are restored after the context ends
    assert cli.scan_unit_circle.__module__ == "spectral_forge.scanner"
    assert not hasattr(cli.scan_unit_circle, "__wrapped__")


def test_missing_binding_is_reported():
    fake = tracing.Binding("spectral_forge.finite", "no_such_function",
                           "finite.no_such_function", ("sections",))
    tr = tracing.Tracer([fake])
    with tr:
        pass
    assert tr.missing == [fake.label]


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert max(m.bound for m in metrics.END_TO_END) == \
        next(m.bound for m in metrics.END_TO_END if m.name == "setup_s")


def test_refuses_without_program():
    bare = os.path.join(TMP, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "semigroup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    os.makedirs(TMP, exist_ok=True)
    failures = 0
    try:
        cli = import_cli()
        tests = [(test_argv_is_seeded, ()), (test_two_seeds_run_cleanly, (cli,)),
                 (test_tracing, (cli,)), (test_missing_binding_is_reported, ()),
                 (test_benchmark_json_matches_metrics, ()),
                 (test_refuses_without_program, ())]
        for fn, args in tests:
            try:
                fn(*args)
            except Exception:
                failures += 1
                print(f"FAIL {fn.__name__}")
                traceback.print_exc()
            else:
                print(f"ok   {fn.__name__}")
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(TMP))
        except OSError:     # another run is using it
            pass
    print(f"{len(tests) - failures} of {len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
