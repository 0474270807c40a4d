"""End-to-end runs of the command line entry points (in process)."""

import argparse
import ast
import csv
import hashlib
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import numpy as np

from spectral_forge import cli, io, scanner, semigroup, verify
from spectral_forge.finite import convergence_table, finite_spectrum
from spectral_forge.verify import SUITE_NAMES


def run(tmp_path, *argv):
    return cli.main([*argv, "--out", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")


def _fresh_interpreter(code, cwd=None):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def test_verify_and_eigs_run_without_the_test_oracles(tmp_path):
    # the package imports nothing from tests/: with only src/ on the path
    # and the working directory outside the checkout, both commands pass
    # and no oracle module is loaded
    out = _fresh_interpreter(
        "import sys; from spectral_forge.cli import main; "
        f"rc = [main([c, *a, '--out', {str(tmp_path)!r}]) for c, a in "
        "(('verify', ['--seed', '0']), ('eigs', ['--N', '12']))]; "
        "print(rc, 'oracles' in sys.modules)", cwd=tmp_path)
    assert out.splitlines()[-1] == "[0, 0] False"


def test_importing_the_cli_does_not_load_scipy():
    # the package needs numpy only; SciPy is a test oracle
    assert _fresh_interpreter(
        "import sys, spectral_forge.cli; " + _SCIPY_MODULES) == "[]\n"


def test_every_command_runs_without_scipy(tmp_path):
    runs = [["scan-circle", "--grid", "60"], ["eigs", "--N", "4"],
            ["convergence", "--n-max", "4"], ["verify"],
            ["semigroup", "scan-axis", "--betas", "0.5,1.5"],
            ["semigroup", "cert", "--r", "1,3/2"],
            ["semigroup", "evolve", "--t", "5", "--samples", "11"]]
    code = ("import sys\nfrom spectral_forge import cli\n"
            f"codes = [cli.main(argv + ['--out', {str(tmp_path)!r}]) "
            f"for argv in {runs!r}]\n"
            "print(codes)\n" + _SCIPY_MODULES)
    assert _fresh_interpreter(code).splitlines()[-2:] == \
        [str([0] * len(runs)), "[]"]
    for name in ("scan_circle.csv", "eigs.csv", "convergence.csv",
                 "verify.json", "scan_axis.csv", "semigroup_cert.json",
                 "evolve.csv"):
        assert (tmp_path / name).exists()


def _third_party_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "spectral_forge":
                yield top


def test_the_package_imports_no_third_party_module_but_numpy(tmp_path):
    src = pathlib.Path(cli.__file__).parent.parent
    found = {f"{path.relative_to(src)}: {top}"
             for path in sorted(src.rglob("*.py"))
             for top in _third_party_imports(path) if top != "numpy"}
    assert not found
    # the scan sees imports inside functions, as SciPy's used to be
    lazy = tmp_path / "lazy.py"
    lazy.write_text("import numpy as np\nfrom . import io\n"
                    "def f():\n    from scipy.linalg import expm\n")
    assert list(_third_party_imports(lazy)) == ["numpy", "scipy"]


def _private_imports(path):
    """'module.name' for each underscore name imported from a sibling."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith(
                    "spectral_forge")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{node.module}.{alias.name}"


def test_no_module_imports_a_private_name_of_another(tmp_path):
    # a guard, a bound or a helper has one owner; its siblings use what
    # that owner makes public
    src = pathlib.Path(cli.__file__).parent
    found = [f"{path.name}: {name}" for path in sorted(src.glob("*.py"))
             for name in _private_imports(path)]
    assert found == []
    # the scan sees both forms, and lets public names through
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "from .resolvent import VERDICTS, _S_GAP_GUARD\n"
                     "from spectral_forge.io import _slice_rows\n")
    assert list(_private_imports(probe)) == [
        "resolvent._S_GAP_GUARD", "spectral_forge.io._slice_rows"]


def test_every_public_name_resolves():
    # each module's __all__ names only objects the module defines, and
    # the package re-exports only names that its modules make public
    src = pathlib.Path(cli.__file__).parent
    missing = [f"{path.stem}.{name}"
               for path in sorted(src.glob("[!_]*.py"))
               for module in [importlib.import_module(
                   f"spectral_forge.{path.stem}")]
               for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing
    package = importlib.import_module("spectral_forge")
    for node in ast.parse((src / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"spectral_forge.{node.module}")
            public = getattr(module, "__all__", dir(module))
            for alias in node.names:
                assert alias.name in public, (node.module, alias.name)
                assert getattr(package, alias.name) is \
                    getattr(module, alias.name)


# ---------------------------------------------------------------------------
# scan-circle
# ---------------------------------------------------------------------------

def test_scan_circle_small_grid(tmp_path):
    rc = run(tmp_path, "scan-circle", "--orders", "1", "--grid", "8",
             "--exclusion", "0.05")
    assert rc == 0
    header, rows = read_csv(tmp_path / "scan_circle.csv")
    assert header == ["theta", "re_lambda", "im_lambda", "verdict",
                      "denominator_abs_lower"]
    assert len(rows) == 8
    verdicts = [r[3] for r in rows]
    assert verdicts.count("CertifiedResolvent") == 7
    assert verdicts.count("TailInvalid") == 1      # the excluded target

    summary = read_json(tmp_path / "scan_circle.json")
    assert summary["all_nonexcluded_certified"] is True
    assert summary["certificates_ok"] is True
    assert len(summary["certificates"]) == 1       # the one target point
    cert = summary["certificates"][0]
    assert cert["matches"] is True
    assert cert["resolved"] is True
    assert cert["identity"] == "2^-30 * (1 + 1)/1"
    assert cert["expected"] == 2.0 ** -29
    assert cert["margin"] == cert["tolerance"] - abs(cert["residual"]
                                                     - cert["expected"]) >= 0


@pytest.mark.parametrize("orders,exclusion,rim", [
    ("97", "0.05", False), ("360", "0.05", False), ("96,97", "0.05", False),
    ("97", "0.01", True)])
def test_scan_circle_passes_only_with_a_rim(tmp_path, capsys, orders,
                                            exclusion, rim):
    # arcs of radius 0.05 around 97 or more roots cover the whole circle,
    # so nothing off the targets is certified and the run must not pass;
    # arcs of radius 0.01 leave a rim between 97 roots, certified throughout
    rc = run(tmp_path, "scan-circle", "--orders", orders,
             "--exclusion", exclusion)
    summary = read_json(tmp_path / "scan_circle.json")
    assert (rc, summary["all_nonexcluded_certified"]) == (1 - rim, rim)
    assert summary["certificates_ok"] is True
    assert (summary["counts"]["CertifiedResolvent"] > 0) is rim
    assert ("no grid point lies off the exclusion arcs"
            in capsys.readouterr().err) is not rim


@pytest.mark.parametrize("argv", [["--orders", "1", "--grid", "8"],
                                  ["--grid", "3600"]], ids=["8", "3600"])
def test_scan_circle_summary_line_counts_every_point(tmp_path, capsys, argv):
    # the printed counts are those of scan_circle.json, TailInvalid among
    # them, and they sum to --grid
    assert run(tmp_path, "scan-circle", *argv) == 0
    line = capsys.readouterr().out
    printed = re.match(r"scan-circle: (\d+) certified, (\d+) withheld, "
                       r"(\d+) tail-invalid of (\d+) points;", line)
    certified, withheld, tail, grid = map(int, printed.groups())
    counts = read_json(tmp_path / "scan_circle.json")["counts"]
    assert (certified, withheld, tail) == (
        counts["CertifiedResolvent"], counts["SingularCandidate"],
        counts["TailInvalid"])
    assert tail == 1                    # the target point at theta = 0
    assert certified + withheld + tail == grid == int(argv[-1])


def test_scan_circle_certificates_cover_targets(tmp_path):
    rc = run(tmp_path, "scan-circle", "--orders", "2,3", "--grid", "60")
    assert rc == 0
    summary = read_json(tmp_path / "scan_circle.json")
    assert len(summary["certificates"]) == 4       # 1, -1 and the 6th roots
    assert all(c["residual"] < 1e-8 for c in summary["certificates"])


def test_scan_circle_default_artifacts_are_pinned(tmp_path):
    # sha256 of the default run (orders 2,3, grid 3600, depth 40), as
    # written with the denominator radius that includes rounding; any byte
    # that moves is a regression
    assert run(tmp_path, "scan-circle") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan_circle.csv", "scan_circle.json")}
    assert digests == {
        "scan_circle.csv": "d9adf4f9a8fdc90b77f149aa1f7c4c858f0ce18b9f9a94"
                           "3b0d179496b5ef8947",
        "scan_circle.json": "6fd0ac76849cd2e1e9cf5c9d1e216d39c4089386de2e79"
                            "ef9c0751e28c0e25b6",
    }


def sha256_of(tmp_path, *names):
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in names}


def test_scan_circle_multi_chunk_artifacts_are_pinned(tmp_path):
    # grid 20011 spans three scan chunks and ten CSV slices; sha256 as
    # written with the denominator radius that includes rounding
    assert run(tmp_path, "scan-circle", "--orders", "4,6", "--depth", "60",
               "--grid", "20011") == 0
    assert sha256_of(tmp_path, "scan_circle.csv", "scan_circle.json") == {
        "scan_circle.csv": "8d1c9312783bad35d5f76dcfaeed84da2cdb6db2a7178c"
                           "59fbd1e8427e256845",
        "scan_circle.json": "70c98a808227046218be8508b88bcd2a384af3f06e334b"
                            "e49afa837943f8c39e",
    }


@pytest.mark.parametrize("argv,digests", [
    ([], ("d9adf4f9a8fdc90b77f149aa1f7c4c858f0ce18b9f9a943b0d179496b5ef8947",
          "13bbe6394ef943bf4340f5455fe35026359f1ed156eb207ff47569a40b4c8577")),
    (["--orders", "4,6", "--depth", "60", "--grid", "20011"],
     ("8d1c9312783bad35d5f76dcfaeed84da2cdb6db2a7178c59fbd1e8427e256845",
      "6f24d19782d3a93168d1268acc6305ac1bdeabea4b3eafecb8a49c79032d1323")),
], ids=["default", "grid-20011"])
def test_scan_circle_columns_outside_the_block_bound_are_pinned(
        tmp_path, argv, digests):
    # the digests pinned, before its deletion, for every column and key but
    # the empirical block bound; the scan now writes exactly those columns,
    # so the whole CSV and the key-sorted JSON must still hash to them
    assert run(tmp_path, "scan-circle", *argv) == 0
    summary = read_json(tmp_path / "scan_circle.json")
    assert "empirical_resolvent_bound" not in summary
    assert (hashlib.sha256((tmp_path / "scan_circle.csv").read_bytes())
            .hexdigest(),
            hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
            .hexdigest()) == digests


@pytest.mark.parametrize("depth,terms", [(1, 1), (40, 40), (300, 300),
                                         (301, 300), (1074, 300)])
def test_scan_json_reports_the_series_terms_summed(tmp_path, depth, terms):
    # --depth reaches 1074, but the coupling series stops after 300 terms;
    # scan-axis takes no --depth and sums the default 40
    assert run(tmp_path, "scan-circle", "--grid", "12",
               "--depth", str(depth)) == 0
    assert run(tmp_path, "semigroup", "scan-axis", "--betas", "0.5") == 0
    meta = read_json(tmp_path / "scan_circle.json")["metadata"]
    assert (meta["depth"], meta["series_terms"]) == (depth, terms)
    summary = read_json(tmp_path / "scan_axis.json")
    assert (summary["depth"], summary["series_terms"]) == (40, 40)


@pytest.mark.parametrize("block", ["0", "-3", "9223372036854775808"])
def test_scan_circle_cert_block_out_of_range_is_usage_error(tmp_path, block,
                                                            capsys,
                                                            monkeypatch):
    # a block index is in [1, 2^63 - 1], as for cert; a block outside is
    # refused before any grid point is scanned
    def no_scan(*args, **kwargs):
        raise AssertionError("the grid was scanned")

    monkeypatch.setattr(scanner, "_circle_kernel", no_scan)
    assert run(tmp_path, "scan-circle", "--grid", "12",
               f"--cert-block={block}") == 2
    assert "cert-block" in capsys.readouterr().err
    # refused before the CSV's temp file exists: no artifact, no leftover
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("block", ["45", "60"])
def test_scan_circle_accepts_a_block_past_the_float_cross_check(tmp_path,
                                                                 block):
    # q_n = 2^-n / 5 is within the cross-check's tolerance of 0 from block
    # 45 on at u != 1: those certificates state their identity alone
    assert run(tmp_path, "scan-circle", "--grid", "12",
               f"--cert-block={block}") == 0
    certs = read_json(tmp_path / "scan_circle.json")["certificates"]
    assert [c["resolved"] for c in certs] == [block == "45", False, False,
                                              False]
    assert all(c["matches"] for c in certs)


def test_scan_circle_deepest_valid_cert_block(tmp_path, capsys):
    # block 1000, where 2^-1000 / 5 is still a normal float, and the last
    # int64 block, where it is 0.0: the residual is stated through n alone
    for block in (1000, 2 ** 63 - 1):
        t0 = time.perf_counter()
        assert run(tmp_path, "scan-circle", "--grid", "12",
                   "--cert-block", str(block)) == 0
        assert time.perf_counter() - t0 < 1.0
        assert (f"residual 2^-{block} * (1 + [u = 1])/5, 0 cross-checked"
                in capsys.readouterr().out)
        certs = read_json(tmp_path / "scan_circle.json")["certificates"]
        for c in certs:
            inner = int(c["angle"] == "0")
            assert c["identity"] == f"2^-{block} * (1 + {inner})/5"
            assert c["log2_residual"] == math.log2((1 + inner) / 5) - block
            assert c["resolved"] is False and c["residual"] is None
            assert c["matches"] is True


def test_scan_circle_zero_residual_fails_the_certificate_check(tmp_path,
                                                              monkeypatch):
    # negative control: an operator that maps every vector to lam x leaves
    # the certificate at lam residual 0, far below its closed form
    # q_n(1 + |<1,z>|); the run must still write its artifacts, record the
    # miss on the certificate and fail
    lam = np.exp(2j * np.pi / 3)
    monkeypatch.setattr(scanner, "apply_operator",
                        lambda spec, vec: lam * vec)
    assert run(tmp_path, "scan-circle", "--grid", "60") == 1
    summary = read_json(tmp_path / "scan_circle.json")
    assert summary["certificates_ok"] is False
    cert = summary["certificates"][1]
    assert cert["angle"] == "1/3"
    assert cert["residual"] == 0.0
    assert cert["expected"] - cert["residual"] > cert["tolerance"]
    assert cert["matches"] is False


# ---------------------------------------------------------------------------
# eigs / convergence
# ---------------------------------------------------------------------------

def test_eigs_summary(tmp_path):
    rc = run(tmp_path, "eigs", "--orders", "2,3", "--N", "3")
    assert rc == 0
    summary = read_json(tmp_path / "eigs.json")
    assert summary["dimension"] == 1 + 5 * 3
    assert summary["count"] == summary["dimension"]
    assert summary["head_column_sum"] == pytest.approx(1.0, abs=1e-12)
    assert summary["max_column_sum_deviation"] < 1e-12
    assert summary["strongly_connected"] is True
    assert summary["max_residual"] < 1e-9
    (top,) = summary["peripheral_values"]
    assert complex(top["re"], top["im"]) == pytest.approx(1.0, abs=1e-10)
    header, rows = read_csv(tmp_path / "eigs.csv")
    assert header == ["re", "im", "kind", "residual"]
    assert len(rows) == summary["count"]


@pytest.mark.parametrize("n_blocks", ["40", "80"])
def test_eigs_large_sections_pass_the_residual_gate(tmp_path, n_blocks):
    rc = run(tmp_path, "eigs", "--orders", "2,3", "--N", n_blocks)
    assert rc == 0
    _, rows = read_csv(tmp_path / "eigs.csv")
    residuals = [float(r[3]) for r in rows]
    assert all(math.isfinite(r) and r <= 1e-9 for r in residuals)
    assert all(float(r[1]) == 0.0 for r in rows if r[2] == "secular")


def test_eigs_nan_residual_fails_the_gate(tmp_path, monkeypatch):
    # a NaN after a finite residual must not slip past the max
    def with_nan(*args, **kwargs):
        result = finite_spectrum(*args, **kwargs)
        result.residuals[1] = math.nan
        return result

    monkeypatch.setattr(cli, "finite_spectrum", with_nan)
    assert run(tmp_path, "eigs", "--orders", "2,3", "--N", "3") == 1
    assert math.isnan(read_json(tmp_path / "eigs.json")["max_residual"])


@pytest.mark.parametrize("orders,n_blocks,count", [
    ("2,3", "12", 1), ("2,3", "40", 1), ("1", "1", 2)])
def test_eigs_peripheral_values_follow_perron_frobenius(tmp_path, orders,
                                                        n_blocks, count):
    # the Perron root alone, except on the period-2 swap T_1 = [[0, 1],
    # [1, 0]] of orders (1,) at N = 1, which adds -rho; a window of 1e-10
    # on the moduli listed 51 values at N = 40
    assert run(tmp_path, "eigs", "--orders", orders, "--N", n_blocks) == 0
    summary = read_json(tmp_path / "eigs.json")
    top = [complex(v["re"], v["im"]) for v in summary["peripheral_values"]]
    assert len(top) == count
    assert top[0] == summary["spectral_radius"]
    assert [abs(z) for z in top] == [summary["spectral_radius"]] * count


def test_eigs_raw_truncation_head_sum(tmp_path):
    rc = run(tmp_path, "eigs", "--orders", "1", "--N", "4",
             "--no-renormalize")
    assert rc == 0
    summary = read_json(tmp_path / "eigs.json")
    assert summary["renormalized"] is False
    assert summary["head_column_sum"] == 1.0 - 2.0 ** -4


def test_convergence_table(tmp_path):
    rc = run(tmp_path, "convergence", "--orders", "2", "--n-max", "6")
    assert rc == 0
    header, rows = read_csv(tmp_path / "convergence.csv")
    assert header == ["n_blocks", "angle", "distance", "bound", "within_bound"]
    assert len(rows) == 2 * 6                      # two target angles
    assert all(r[4] == "true" for r in rows)


@pytest.mark.parametrize("argv,work", [
    (["convergence", "--n-max"], "convergence_table"),
    (["eigs", "--N"], "finite_spectrum"),
], ids=["convergence", "eigs"])
@pytest.mark.parametrize("size,need", [
    ("0", "need an integer >= 1"),
    ("-3", "need an integer >= 1"),
    ("968", "need a section size in [1, 967]"),
], ids=["0", "-3", "968"])
def test_out_of_range_section_sizes_exit_2(tmp_path, monkeypatch, capsys,
                                           argv, work, size, need):
    # the parser refuses a size below 1; 968 is one past the last section
    # of orders 2,3 whose bisection floor eps * q~_N is a normal float, which
    # the command checks against --orders; nothing is computed or written
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran for an out-of-range size")

    monkeypatch.setattr(cli, work, refuse)
    assert run(tmp_path, *argv, size) == 2
    assert f"argument {argv[-1]}: {need}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_convergence_marks_unresolved_rows(tmp_path, capsys):
    # orders 2,3: from N = 44 the bound 2 q~_N is within the rounding
    # tolerance (2N + 32) eps of the distance
    assert run(tmp_path, "convergence", "--n-max", "50") == 0
    _, rows = read_csv(tmp_path / "convergence.csv")
    assert [r[4] for r in rows] == \
        ["true"] * 43 * 4 + ["unresolved"] * 7 * 4
    assert "200 rows up to N=50, 28 unresolved" in capsys.readouterr().out


@pytest.mark.parametrize("n_blocks,cell,rc", [(10, "false", 1),
                                              (48, "unresolved", 0)])
def test_convergence_gate_fails_a_resolved_row_only(tmp_path, monkeypatch,
                                                    n_blocks, cell, rc):
    # negative control: a distance pushed past bound + tau fails a resolved
    # row and the command; an unresolved row does not decide the exit code
    def pushed(spec, n_max):
        table = convergence_table(spec, n_max)
        limit = table.bound + table.tolerance
        distance = table.distance.copy()
        distance[n_blocks - 1, table.angles.index(0)] = \
            2.0 * limit[n_blocks - 1]
        return table._replace(distance=distance,
                              ok=distance <= limit[:, None])

    monkeypatch.setattr(cli, "convergence_table", pushed)
    assert run(tmp_path, "convergence", "--n-max", "50") == rc
    _, rows = read_csv(tmp_path / "convergence.csv")
    assert [r[4] for r in rows if r[:2] == [str(n_blocks), "0"]] == [cell]


def test_eigs_and_convergence_csvs_are_pinned(tmp_path):
    # sha256 as written when these rows' int, bool and np.float64 cells
    # went through a per-cell formatter, now S and float64 columns; eigs.csv
    # with the residuals taken through the flat map, not the assembled
    # section (48 of 61 residuals moved, by 0.15 eps at most)
    assert run(tmp_path, "eigs") == 0
    assert run(tmp_path, "convergence", "--n-max", "16") == 0
    assert sha256_of(tmp_path, "eigs.csv", "convergence.csv") == {
        "eigs.csv": "9e5b4fb54b8ecd01b48860ceec629cd270be6cc27b1044d94a719"
                    "fa0230c781a",
        "convergence.csv": "06c51fd7a27a3164e487729f9407b115a7408448a22c17"
                           "c2387b289ea2f6c37b",
    }


def test_eigs_columns_outside_the_residual_are_pinned(tmp_path):
    # re, im and kind come from the closed-form block values and the
    # secular roots, whatever route the residuals take: sha256 of eigs.csv
    # without its residual column, the same as with the dense residuals
    assert run(tmp_path, "eigs") == 0
    with open(tmp_path / "eigs.csv", "rb") as fh:
        columns = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in fh)
    assert hashlib.sha256(columns).hexdigest() == \
        "04d836b4a35d5868a42e000e1986127411e3593bbcaee00812a293dddbbd6c85"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite(tmp_path):
    rc = run(tmp_path, "verify", "--suites", "denominator")
    assert rc == 0
    report = read_json(tmp_path / "verify.json")
    assert report["all_passed"] is True
    assert list(report["suites"]) == ["denominator"]
    assert report["suites"]["denominator"]["failures"] == 0


def test_verify_runs_a_repeated_suite_once(tmp_path, monkeypatch):
    # the report keys each suite by name, so a second run of a repeated
    # name would be work that no record shows
    calls = []
    real = verify._SUITES["factorization"]

    def counting(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setitem(verify._SUITES, "factorization", counting)
    assert run(tmp_path, "verify", "--suites",
               "factorization,denominator,factorization") == 0
    assert len(calls) == 1
    assert sorted(read_json(tmp_path / "verify.json")["suites"]) == \
        ["denominator", "factorization"]


def test_verify_corrupt_control_fails(tmp_path):
    assert run(tmp_path, "verify", "--corrupt") == 1
    report = read_json(tmp_path / "verify.json")
    assert report["all_passed"] is False
    assert all(not r["passed"] for r in report["suites"].values())


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_corrupt_control_fails_for_each_suite_alone(tmp_path, suite):
    # every suite alone must fail its own negative control
    rc = run(tmp_path, "verify", "--suites", suite, "--corrupt")
    assert rc == 1
    report = read_json(tmp_path / "verify.json")
    assert report["all_passed"] is False
    assert report["suites"][suite]["failures"] > 0


@pytest.mark.parametrize("seed", range(10))
def test_verify_passes_and_the_denominator_control_fails(tmp_path, seed):
    assert run(tmp_path / "ok", "verify", "--seed", str(seed)) == 0
    assert run(tmp_path / "bad", "verify", "--suites", "denominator",
               "--corrupt", "--seed", str(seed)) == 1


def test_verify_unknown_suite_is_usage_error(tmp_path):
    assert run(tmp_path, "verify", "--suites", "nope") == 2


@pytest.mark.parametrize("suites", [",", "", " , ,"],
                         ids=["comma", "empty", "blanks"])
def test_verify_suites_naming_no_suite_is_usage_error(tmp_path, capsys,
                                                      suites):
    # a gate that checked nothing must not pass
    assert run(tmp_path, "verify", "--suites", suites) == 2
    assert "argument --suites: need a non-empty" in capsys.readouterr().err
    assert not (tmp_path / "verify.json").exists()


def test_verify_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "verify", "--seed", "7") == 0
    assert run(b, "verify", "--seed", "7") == 0
    assert (a / "verify.json").read_bytes() == (b / "verify.json").read_bytes()


@pytest.mark.parametrize("seed,digest", [
    ("0", "ba2bb163c11530b718f9618a3dc0053ea35abb1045301ee220e57b76664a9ae3"),
    ("7", "bb9e8697d1878c94df590de5783bb6571a0867037af5e56dae613d89b622c67b"),
], ids=["seed-0", "seed-7"])
def test_verify_report_is_pinned(tmp_path, seed, digest):
    # sha256 of verify.json as written with the stochasticity suite on the
    # forward map's columns and the factorization suite on seeded
    # matrix-free sections against the closed-form determinant
    assert run(tmp_path, "verify", "--seed", seed) == 0
    assert hashlib.sha256(
        (tmp_path / "verify.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed,digest", [
    ("0", "7b48356bfb1e02fc1bd2bf747380b1f16b87c08684c9d55045be12fe0e0346eb"),
    ("7", "13005c3b247d65d0f57483af673fa50433f1003667946d70f725ae7609d1534c"),
], ids=["seed-0", "seed-7"])
def test_verify_corrupt_report_is_pinned(tmp_path, seed, digest):
    # sha256 of verify.json with every negative control on: the widened
    # denominator radius, the forward map's columns and the section's
    # spectrum on the weights 2^-n / (d + 1).  Each control must break its
    # suite in exactly the same numbers
    assert run(tmp_path, "verify", "--seed", seed, "--corrupt") == 1
    assert hashlib.sha256(
        (tmp_path / "verify.json").read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# semigroup subcommands
# ---------------------------------------------------------------------------

def test_semigroup_cert(tmp_path):
    rc = run(tmp_path, "semigroup", "cert", "--r", "1,3/2,2,7/3")
    assert rc == 0
    certs = read_json(tmp_path / "semigroup_cert.json")
    by_r = {c["r"]: c for c in certs}
    assert by_r["1"]["block_index"] == 1 and by_r["1"]["k"] == 1
    assert by_r["3/2"]["block_index"] == 6
    assert by_r["2"]["block_index"] == 3
    assert by_r["7/3"] == {"r": "7/3", "k": 2,
                           "block_index": 78, "identity": "2^-78 * 1/(2 pi)",
                           "log2_residual": by_r["7/3"]["log2_residual"],
                           "resolved": True,
                           "expected": 2.0 ** -78 / (2 * math.pi),
                           "residual": 2.0 ** -78 / (2 * math.pi),
                           "tolerance": by_r["7/3"]["tolerance"],
                           "margin": by_r["7/3"]["tolerance"],
                           "matches": True}


def test_semigroup_cert_json_is_pinned(tmp_path):
    # sha256 of the certificates for k = 1 and k = 2, for r = 17/6 on the
    # subnormal-weight block 1035 and for r = 15/7 on block 1830, where
    # 2^-n / (2 pi) is 0.0: those two state their identity alone
    assert run(tmp_path, "semigroup", "cert",
               "--r", "1,3/2,2,7/3,17/6,15/7") == 0
    assert sha256_of(tmp_path, "semigroup_cert.json") == {
        "semigroup_cert.json": "ad815fab9f1fe2d1485d711bf648e23146965a381e"
                               "6f50c271d2af80911e968f"}


def test_semigroup_cert_reads_a_decimal_speed(tmp_path):
    assert run(tmp_path, "semigroup", "cert", "--r", "1.5") == 0
    assert read_json(tmp_path / "semigroup_cert.json")[0]["r"] == "3/2"


def test_semigroup_cert_rejects_small_speed(tmp_path):
    assert run(tmp_path, "semigroup", "cert", "--r", "1/2") == 2
    assert run(tmp_path, "semigroup", "cert", "--r", "3/2,1/2") == 2
    assert not (tmp_path / "semigroup_cert.json").exists()


@pytest.mark.parametrize("argv,reason", [
    (["--r", ","], "need one or more speeds >= 1"),
    (["--r", ""], "need one or more speeds >= 1"),
    (["--r", "3/2", "--occurrence", "0"],
     "argument --occurrence: need an integer >= 1"),
    (["--r", "3/2", "--occurrence", "-1"],
     "argument --occurrence: need an integer >= 1"),
], ids=["comma", "empty", "occurrence-0", "occurrence-negative"])
def test_semigroup_cert_refuses_bad_input(tmp_path, capsys, argv, reason):
    # an empty speed list would pass with nothing certified
    assert run(tmp_path, "semigroup", "cert", *argv) == 2
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "semigroup_cert.json").exists()


def test_semigroup_scan_axis(tmp_path):
    rc = run(tmp_path, "semigroup", "scan-axis",
             "--betas", "0,0.5,-0.5,0.95,1.5")
    assert rc == 0
    header, rows = read_csv(tmp_path / "scan_axis.csv")
    assert header == ["beta", "verdict", "denominator_abs_lower"]
    verdicts = {float(r[0]): r[1] for r in rows}
    assert verdicts[0.0] == "SingularCandidate"
    assert verdicts[1.5] == "SingularCandidate"
    assert verdicts[0.5] == "CertifiedResolvent"
    summary = read_json(tmp_path / "scan_axis.json")
    assert summary["mismatched_betas"] == []


def test_semigroup_scan_axis_near_the_gap_guard(tmp_path):
    # both points clear the scan's gap guard and are certified as expected
    rc = run(tmp_path, "semigroup", "scan-axis", "--betas=1e-7,0.999999")
    assert rc == 0
    summary = read_json(tmp_path / "scan_axis.json")
    assert summary["counts"] == {"CertifiedResolvent": 2}
    assert summary["mismatched_betas"] == []


def test_semigroup_scan_axis_default_grid(tmp_path):
    rc = run(tmp_path, "semigroup", "scan-axis")
    assert rc == 0
    _, rows = read_csv(tmp_path / "scan_axis.csv")
    assert len(rows) == 39
    summary = read_json(tmp_path / "scan_axis.json")
    assert summary["counts"]["CertifiedResolvent"] == 38
    assert summary["counts"]["SingularCandidate"] == 1


def test_semigroup_scan_axis_default_artifacts_are_pinned(tmp_path):
    # sha256 of the default run (39 betas, depth 40) as written by the
    # shared series at lam = 1 + i beta, with the radius that includes
    # rounding
    assert run(tmp_path, "semigroup", "scan-axis") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan_axis.csv", "scan_axis.json")}
    assert digests == {
        "scan_axis.csv": "3a094739fce9a2bc05e4df082b3f2e8c73a440e4a81982"
                         "6ff9235a37fed155b5",
        "scan_axis.json": "77d3ecc49964619da7839a7ee265259d77c91637f69e81"
                          "3df1f9e9115f7dc070",
    }


def test_semigroup_scan_axis_betas_space_form(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "semigroup", "scan-axis", "--betas", "-0.9,0.2") == 0
    assert run(b, "semigroup", "scan-axis", "--betas=-0.9,0.2") == 0
    for name in ("scan_axis.csv", "scan_axis.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    _, rows = read_csv(a / "scan_axis.csv")
    assert [r[0] for r in rows] == ["-0.90000000000000002",
                                    "0.20000000000000001"]
    # an option after --betas is still read as an option, not as the list
    capsys.readouterr()
    assert run(tmp_path, "semigroup", "scan-axis", "--betas", "--out",
               "x") == 2
    assert "argument --betas: expected one argument" in \
        capsys.readouterr().err


_BETAS_NEED = ("argument --betas: need a non-empty comma-separated list of "
               "finite numbers")


@pytest.mark.parametrize("betas", ["nan", "0.5,inf", "-inf"])
def test_semigroup_scan_axis_rejects_non_finite_betas(tmp_path, betas,
                                                      capsys):
    assert run(tmp_path, "semigroup", "scan-axis", f"--betas={betas}") == 2
    assert _BETAS_NEED in capsys.readouterr().err
    assert not (tmp_path / "scan_axis.csv").exists()


@pytest.mark.parametrize("betas", ["", ","], ids=["empty", "comma"])
def test_semigroup_scan_axis_refuses_an_empty_beta_list(tmp_path, capsys,
                                                        betas):
    # an empty list would pass with nothing scanned
    assert run(tmp_path, "semigroup", "scan-axis", f"--betas={betas}") == 2
    assert _BETAS_NEED in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_semigroup_scan_axis_huge_beta_warns_nothing(tmp_path, capsys):
    # |beta|^2 overflows to inf; the series squares it under its errstate
    # (a RuntimeWarning is an error here) and the point is withheld
    assert run(tmp_path, "semigroup", "scan-axis", "--betas=-1e200") == 0
    assert capsys.readouterr().err == ""
    summary = read_json(tmp_path / "scan_axis.json")
    assert summary["counts"] == {"SingularCandidate": 1}
    assert summary["mismatched_betas"] == []


def test_semigroup_evolve(tmp_path):
    rc = run(tmp_path, "semigroup", "evolve", "--t", "2.0",
             "--samples", "5", "--trace-blocks", "3")
    assert rc == 0
    header, rows = read_csv(tmp_path / "evolve.csv")
    assert header == ["t", "mass", "head",
                      "block_mass_1", "block_mass_2", "block_mass_3"]
    assert len(rows) == 5
    assert all(abs(float(r[1]) - 1.0) < 1e-8 for r in rows)
    assert float(rows[0][2]) == 1.0                # starts in the head


def test_semigroup_evolve_mode_flag(tmp_path):
    rc = run(tmp_path, "semigroup", "evolve", "--t", "1.0",
             "--samples", "3", "--mode", "6,1")
    assert rc == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    assert all(abs(float(r[1])) < 1e-12 for r in rows)   # massless mode
    assert run(tmp_path, "semigroup", "evolve", "--mode", "banana") == 2


@pytest.mark.parametrize("mode,digest", [
    (None, "3e46f6f5b144186e500353499aa99fff9b3dedf20b7e6492b58d690b324152db"),
    ("3,0", "949efc2e3d6c4b205d2ed81e104312f120eb551443a47d017416e1a13e9206fa"),
], ids=["head", "mode-3-0"])
def test_semigroup_evolve_csv_is_pinned(tmp_path, mode, digest):
    # sha256 of evolve.csv at the default time and samples, as written
    # when every cell went through a per-cell formatter
    argv = ["semigroup", "evolve"] + (["--mode", mode] if mode else [])
    assert run(tmp_path, *argv) == 0
    assert sha256_of(tmp_path, "evolve.csv") == {"evolve.csv": digest}


@pytest.mark.parametrize("argv,digest", [
    (["--mode", "5,-3"],
     "65ff7b4cf3815cd0707f5a04c0703a28bce236064958d8a42c7544475bd7bfe4"),
    (["--t", "500", "--samples", "2001"],
     "69eb7fb3d445e43d76b2bcc5ab0847e5112b5889e377c49f32ba8c56bc3c492d"),
    (["--t", "500", "--samples", "2001", "--mode", "5,-3"],
     "a63fc8fee20facc9d8467f35bd28cadc10d2f3b95752ef94b162a218f1de6b9e"),
], ids=["mode-5-m3", "head-t500", "mode-5-m3-t500"])
def test_semigroup_evolve_csv_keeps_its_zeros_and_steps(tmp_path, argv,
                                                        digest):
    # sha256 of evolve.csv as written by the chain loop that copied each
    # product into its row and stepped an all-zero chain, with every zero
    # cell formatted by Python's '%.17g'
    assert run(tmp_path, "semigroup", "evolve", *argv) == 0
    assert sha256_of(tmp_path, "evolve.csv") == {"evolve.csv": digest}


@pytest.mark.parametrize("argv,name", [
    (["scan-circle"], "scan_circle.csv"),
    (["scan-circle", "--orders", "4,6", "--depth", "60", "--grid", "20011"],
     "scan_circle.csv"),
    (["eigs"], "eigs.csv"),
    (["eigs", "--N", "60"], "eigs.csv"),
    (["convergence", "--n-max", "16"], "convergence.csv"),
    (["convergence", "--n-max", "64"], "convergence.csv"),
    (["semigroup", "scan-axis"], "scan_axis.csv"),
    (["semigroup", "evolve"], "evolve.csv"),
    (["semigroup", "evolve", "--mode", "3,0"], "evolve.csv"),
    (["semigroup", "evolve", "--t", "500", "--samples", "2001"],
     "evolve.csv"),
], ids=["scan-default", "scan-20011", "eigs", "eigs-60", "convergence",
        "convergence-64", "scan-axis", "evolve-head", "evolve-mode-3-0",
        "evolve-t500"])
def test_pinned_csvs_do_not_need_extended_precision(tmp_path, monkeypatch,
                                                    argv, name):
    # the pinned CSVs come from the float kernel; with every cell sent to
    # Python's '%.17g' instead (the kernel's threshold above any row
    # count), not a byte may move.  The default eigs.csv and convergence.csv
    # are shorter than the threshold; at N = 60 and n-max 64 they have 301
    # and 256 rows, and reach the kernel
    assert run(tmp_path / "kernel", *argv) == 0
    monkeypatch.setattr(io, "_KERNEL_MIN", 10**9)
    assert run(tmp_path / "python", *argv) == 0
    assert (tmp_path / "kernel" / name).read_bytes() == \
        (tmp_path / "python" / name).read_bytes()


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "-1"])
def test_semigroup_evolve_rejects_bad_final_times(tmp_path, t, capsys):
    assert run(tmp_path, "semigroup", "evolve", f"--t={t}") == 2
    assert "finite final time" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_semigroup_evolve_rejects_too_few_samples(tmp_path, samples, capsys):
    # a gate over no samples would pass without checking anything
    assert run(tmp_path, "semigroup", "evolve", "--samples", samples) == 2
    assert "argument --samples: need an integer >= 1" in \
        capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_semigroup_evolve_refuses_a_step_no_digit_of_which_is_certified(
        tmp_path, capsys):
    # a step of 5e299 needs 998 squarings; the exponential's error
    # bound is void long before, so the command stops with the reason
    # instead of writing rows of nan
    assert run(tmp_path, "semigroup", "evolve", "--t", "1e300",
               "--samples", "3") == 2
    err = capsys.readouterr().err
    assert "t: 1e+300 over 3 samples steps too far to certify" in err
    assert "998 squarings" in err and "exceeds the result" in err
    assert not (tmp_path / "evolve.csv").exists()


def _drift_and_tolerance(out):
    m = re.search(r"mass drift (\S+) \(tolerance (\S+)\)", out)
    return float(m.group(1)), float(m.group(2))


def test_semigroup_evolve_long_steps_leave_the_drift_gate_to_decide(
        tmp_path, capsys):
    # a step of 5e11 is still certified: every row is finite and
    # nonnegative, and the depth-40 chain's mass leak, 2^-40 of the head
    # (about 0.0043) per unit time, about 4e-3 by t = 1e12, lies within
    # the leak the gate allows, 2^-40 t ||f0||_1 = 0.91
    assert run(tmp_path, "semigroup", "evolve", "--t", "1e12",
               "--samples", "3") == 0
    drift, tol = _drift_and_tolerance(capsys.readouterr().out)
    assert 3e-3 < drift < 5e-3 < tol
    _, rows = read_csv(tmp_path / "evolve.csv")
    values = [float(v) for r in rows for v in r]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)


def test_semigroup_evolve_allows_the_shallow_chains_own_leak(tmp_path,
                                                            capsys):
    # column 0 of the depth-20 chain generator sums to -2^-20, so by t = 5
    # the mass has leaked 1.09e-6, inside 1e-8 + 2^-20 * 5 * ||f0||_1
    assert run(tmp_path, "semigroup", "evolve", "--depth", "20", "--t", "5",
               "--samples", "11") == 0
    drift, tol = _drift_and_tolerance(capsys.readouterr().out)
    assert 1e-6 < drift < tol < 5e-6


def test_semigroup_evolve_doubled_feed_fails_the_drift_gate(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # negative control: a chain whose head feeds its blocks twice over
    # gains mass far beyond the leak the gate allows
    exact = semigroup.chain_generator

    def doubled(n_blocks):
        m = exact(n_blocks)
        m[1:, 0] *= 2.0
        return m

    monkeypatch.setattr(semigroup, "chain_generator", doubled)
    assert run(tmp_path, "semigroup", "evolve", "--depth", "20", "--t", "5",
               "--samples", "11") == 1
    drift, tol = _drift_and_tolerance(capsys.readouterr().out)
    assert drift > 1.0 > 1e-5 > tol


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the mass gate allows a leak of "
                          "2^-depth t ||f0||_1, which can exceed the mass")
def test_semigroup_evolve_fails_when_the_whole_mass_leaks(tmp_path, capsys):
    # a known wrong pass: the depth-1 chain loses the whole unit mass by
    # t = 1e6, a drift of 1.000 against an allowance of 5.000e+05
    rc = run(tmp_path, "semigroup", "evolve", "--depth", "1", "--t", "1e6",
             "--samples", "3")
    drift, tol = _drift_and_tolerance(capsys.readouterr().out)
    assert (drift, tol) == (pytest.approx(1.0, abs=1e-3),
                            pytest.approx(5e5, rel=1e-3))
    assert rc == 1


def test_semigroup_evolve_refuses_negative_trace_blocks(tmp_path, capsys):
    assert run(tmp_path, "semigroup", "evolve", "--trace-blocks", "-2") == 2
    assert "argument --trace-blocks: need an integer >= 0" in \
        capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()
    assert run(tmp_path, "semigroup", "evolve", "--trace-blocks", "0") == 0
    assert read_csv(tmp_path / "evolve.csv")[0] == ["t", "mass", "head"]


def test_semigroup_evolve_single_sample(tmp_path):
    assert run(tmp_path, "semigroup", "evolve", "--t", "0",
               "--samples", "1") == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    assert rows == [["0", "1", "1"] + ["0"] * 8]


def test_semigroup_evolve_refuses_one_sample_past_t_zero(tmp_path, capsys):
    # one sample is t = 0 alone: the orbit would never be evolved, yet the
    # run would report samples to t = 5 and pass its gate
    assert run(tmp_path, "semigroup", "evolve", "--t", "5",
               "--samples", "1") == 2
    assert "need at least two to reach t=5.0" in capsys.readouterr().err
    assert not (tmp_path / "evolve.csv").exists()


def test_semigroup_evolve_nan_mass_fails_the_drift_gate(tmp_path,
                                                        monkeypatch, capsys):
    # negative control: a NaN in the orbit must fail the gate, where
    # max(0.0, nan) == 0.0 used to report a drift of zero
    real = cli.evolve

    def poisoned(f0, t, depth):
        ft = real(f0, t, depth)
        ft.head[-1] = float("nan")
        return ft

    monkeypatch.setattr(cli, "evolve", poisoned)
    assert run(tmp_path, "semigroup", "evolve", "--t", "2.0",
               "--samples", "5") == 1
    assert "mass drift nan" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["scan-circle", "--grid", "16"],
    ["semigroup", "evolve", "--t", "1", "--samples", "3"],
], ids=["scan-circle", "evolve"])
def test_depth_is_bounded_where_the_tail_radius_underflows(tmp_path, capsys,
                                                          command):
    # 2^-1074 is the smallest positive float; at 1075 every certified radius
    # would be exactly 0
    assert run(tmp_path / "ok", *command, "--depth", "1074") == 0
    capsys.readouterr()
    assert run(tmp_path / "bad", *command, "--depth", "1075") == 2
    err = capsys.readouterr().err
    assert "depth: need an integer in [1, 1074]" in err
    assert "underflows" in err
    assert not (tmp_path / "bad").exists()


_COMMANDS = {
    "scan-circle": ["scan-circle", "--grid", "16"],
    "eigs": ["eigs", "--N", "3"],
    "convergence": ["convergence", "--n-max", "3"],
    "verify": ["verify", "--suites", "denominator"],
    "scan-axis": ["semigroup", "scan-axis", "--betas", "0.5"],
    "cert": ["semigroup", "cert", "--r", "3/2"],
    "evolve": ["semigroup", "evolve", "--t", "1", "--samples", "3"],
}
# the commands that read each flag; the others do not declare it
_READERS = {"--depth": ("scan-circle", "evolve"),
            "--seed": ("verify",),
            "--config": ()}
_FLAG_CASES = [(name, flag, name in readers)
               for flag, readers in _READERS.items() for name in _COMMANDS]


@pytest.mark.parametrize(
    "name,flag,declared", _FLAG_CASES,
    ids=[f"{name}{flag}-{'kept' if kept else 'refused'}"
         for name, flag, kept in _FLAG_CASES])
def test_depth_and_seed_only_where_a_command_reads_them(tmp_path, capsys,
                                                        name, flag, declared):
    # a flag a command would ignore is refused by the parser (exit 2)
    # before anything runs; a flag it reads still runs
    argv = [*_COMMANDS[name], flag, "45", "--out", str(tmp_path / "out")]
    if declared:
        assert cli.main(argv) == 0
    else:
        assert cli.main(argv) == 2
        assert f"unrecognized arguments: {flag} 45" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("scan-circle", "--depth", "0"),
    ("scan-circle", "--depth", "1075"),
    ("scan-circle", "--depth", "x"),
    ("scan-circle", "--grid", "0"),
    ("scan-circle", "--grid", "x"),
    ("scan-circle", "--exclusion", "1.5"),
    ("scan-circle", "--exclusion", "-0.1"),
    ("scan-circle", "--exclusion", "nan"),
    ("scan-circle", "--exclusion", "inf"),
    ("scan-circle", "--exclusion", "x"),
    ("scan-circle", "--cert-block", "0"),
    ("scan-circle", "--cert-block", "x"),
    ("verify", "--seed", "-1"),
    ("verify", "--seed", "x"),
    ("verify", "--suites", "nope"),
    ("verify", "--suites", ","),
    ("eigs", "--out", ""),
    ("eigs", "--N", "0"),
    ("eigs", "--N", "x"),
    ("convergence", "--n-max", "0"),
    ("convergence", "--n-max", "x"),
    ("scan-circle", "--orders", "0"),
    ("scan-circle", "--orders", "a,b"),
    ("scan-circle", "--orders", ""),
    ("convergence", "--orders", "2.5,3"),
    ("scan-axis", "--betas", "nan"),
    ("scan-axis", "--betas", "a,b"),
    ("cert", "--r", "1/2"),
    ("cert", "--r", "x"),
    ("cert", "--r", "1e5000"),
    ("cert", "--r", "1e1000000"),
    ("cert", "--r", "1_0/9"),
    ("cert", "--r", "1." + "1" * 31),
    ("cert", "--occurrence", "0"),
    ("cert", "--occurrence", "x"),
    ("evolve", "--t", "-1"),
    ("evolve", "--t", "x"),
    ("evolve", "--samples", "0"),
    ("evolve", "--samples", "x"),
    ("evolve", "--mode", "0,1"),
    ("evolve", "--mode", "banana"),
    ("evolve", "--trace-blocks", "-1"),
    ("evolve", "--trace-blocks", "x"),
])
def test_bad_flag_values_exit_2(tmp_path, capsys, monkeypatch, command, flag,
                                value):
    # a malformed and an out-of-range value of a flag are refused alike by
    # its domain in the parser: exit 2, the flag named as typed, nothing
    # written; an empty --out would write into the working directory
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    argv = [*_COMMANDS[command], f"{flag}={value}"]
    if flag != "--out":
        argv += ["--out", str(out)]
    assert cli.main(argv) == 2
    assert f"error: argument {flag}: need " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag,block", [
    (["--r", "3/2", "--occurrence", "4294967295"], "--occurrence",
     "block index 9223372039002259459"),
    (["--r", "118871/118870"], "--r", "block index 9223473658208392446"),
    (["--r", "1000000001/1000000000"], "--r", "block index at least "),
    (["--r", "1." + "1" * 30], "--r", "block index at least "),
], ids=["occurrence", "denominator", "huge-denominator", "thirty-digits"])
def test_semigroup_cert_refuses_a_block_past_int64(tmp_path, capsys, argv,
                                                   flag, block):
    # no int64 state entry holds a block index past 2^63 - 1; the refusal
    # names the flag at fault and the block, and writes nothing.  The last
    # speed is refused on a bound of its base index, before a totient table
    # of 10^9 entries is built
    assert run(tmp_path, "semigroup", "cert", *argv) == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and block in err
    assert "past 2^63 - 1" in err
    assert os.listdir(tmp_path) == []


def _untyped_options(parser, command=()):
    """(command, flag) of each value-taking option, through every level of
    subcommands, whose type declares no domain (``cli._domain``)."""
    found = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found += _untyped_options(sub, command + (name,))
        elif action.option_strings and action.nargs != 0 and \
                not getattr(action.type, "need", ""):
            found.append((" ".join(command), action.option_strings[0]))
    return found


def test_every_value_taking_option_declares_its_domain():
    # a sweep over each command's input range reads it from the parser
    assert _untyped_options(cli._build_parser.__wrapped__()) == []
    # the control: a copy of the parser with one plain option fails
    parser = cli._build_parser.__wrapped__()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    commands.choices["eigs"].add_argument("--plain", type=int)
    assert _untyped_options(parser) == [("eigs", "--plain")]


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "x" / "y"
    rc = cli.main(["eigs", "--orders", "1", "--N", "2",
                   "--out", str(nested)])
    assert rc == 0
    assert os.path.exists(nested / "eigs.json")


# ---------------------------------------------------------------------------
# the parser: built once per process, handlers looked up by name per call
# ---------------------------------------------------------------------------

def test_importing_the_cli_builds_no_parser(tmp_path):
    # the build waits for the first main() call; after it the cache holds
    # the one parser, so the probe reads the cache (the control)
    out = _fresh_interpreter(
        "import spectral_forge.cli as cli; "
        "print(cli._build_parser.cache_info().currsize); "
        f"cli.main(['eigs', '--N', '2', '--out', {str(tmp_path)!r}]); "
        "print(cli._build_parser.cache_info().currsize)")
    assert out.splitlines()[0] == "0"
    assert out.splitlines()[-1] == "1"


def test_two_main_calls_build_the_parser_once(tmp_path, monkeypatch):
    # counted on the class itself: a subclass bound as
    # argparse.ArgumentParser would recurse, as argparse's __init__ names
    # the class through its module global
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    try:
        assert run(tmp_path / "a", "eigs", "--N", "2") == 0
        first = len(built)
        assert run(tmp_path / "b", "scan-circle", "--grid", "8") == 0
    finally:
        cli._build_parser.cache_clear()
    # the control: the first call's build is counted
    assert first > 0
    assert len(built) == first


def test_a_handler_rebound_after_the_first_call_is_the_one_that_runs(
        tmp_path, monkeypatch):
    # a tracer or a test replaces cmd_* on the module once the parser
    # exists; main() must call the replacement, not the handler it saw
    # when it built the parser
    assert run(tmp_path / "a", "eigs", "--N", "2") == 0
    seen = []

    def spy(args):
        seen.append(args.n_blocks)
        return 7

    monkeypatch.setattr(cli, "cmd_eigs", spy)
    assert run(tmp_path / "b", "eigs", "--N", "3") == 7
    assert seen == [3]
    assert not (tmp_path / "b").exists()


def test_a_refused_argv_leaves_nothing_to_the_next_call(tmp_path, capsys):
    good = ["eigs", "--N", "3"]
    assert run(tmp_path / "alone", *good) == 0
    alone = capsys.readouterr().out
    # refused by the parser after it has read --orders and --no-renormalize
    assert run(tmp_path / "refused", *good, "--orders", "1",
               "--no-renormalize", "--depth", "7") == 2
    assert "unrecognized arguments: --depth 7" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()
    assert run(tmp_path / "after", *good) == 0
    assert capsys.readouterr().out == alone
    # the control: had the refused flags carried over, the bytes would differ
    assert run(tmp_path / "leaked", *good, "--orders", "1",
               "--no-renormalize") == 0
    for name in ("eigs.csv", "eigs.json"):
        expected = (tmp_path / "alone" / name).read_bytes()
        assert (tmp_path / "after" / name).read_bytes() == expected
        assert (tmp_path / "leaked" / name).read_bytes() != expected


def _help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--help"], ["scan-circle", "--help"], ["semigroup", "scan-axis", "--help"],
], ids=["top", "scan-circle", "scan-axis"])
def test_help_text_is_the_same_on_every_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    # what main() printed when it built a parser per call
    expected = _help_text(cli._build_parser.__wrapped__().parse_args, argv,
                          capsys)
    assert [_help_text(cli.main, argv, capsys) for _ in range(2)] == \
        [expected] * 2
    # the control: another command's help is another text
    assert _help_text(cli.main, ["eigs", "--help"], capsys) != expected
