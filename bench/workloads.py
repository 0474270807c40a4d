"""Seeded workloads for the spectral-forge benchmark and their output checks.

A workload is a list of commands.  Each command is the argv handed to
``spectral_forge.cli.main`` plus a check that reads the command's exit code,
printed summary and artifacts and says whether the output is right.  The
seed only picks inputs (the sweep's exclusion radius, beta and speed lists,
the start mode, the verify seed); the work one pass does is the same for
every seed.

This module imports numpy only; it never imports the program, so argv can
be generated and inspected without it.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from metrics import WORKLOADS

# The residual gate of ``eigs`` (cli.cmd_eigs), and the reason its check
# gives when a section misses it.
EIGS_GATE = 1e-9
OVER_GATE = "max residual over the 1e-9 gate"

# Command outcomes.
OK = "ok"
KNOWN_FAILURE = "known-failure"
FAILED = "failed"


@dataclass
class Command:
    """One CLI invocation and the check of its output.

    ``check(rc, stdout, out_dir)`` returns None when the output is right,
    else a one-line reason.  ``known_failure`` names a defect the program
    has at the commit the benchmark was written against; when the check
    returns exactly that reason the command still counts as failed, but as
    an expected failure rather than a wrong output.
    """

    kind: str
    args: List[str]
    check: Callable[[int, str, str], Optional[str]]
    known_failure: Optional[str] = None
    info: Dict[str, object] = field(default_factory=dict)

    def argv(self, out_dir: str) -> List[str]:
        return self.args + ["--out", out_dir]

    def outcome(self, rc: int, stdout: str, out_dir: str) -> Tuple[str, Optional[str]]:
        reason = self.check(rc, stdout, out_dir)
        if reason is None:
            return OK, None
        if reason == self.known_failure:
            return KNOWN_FAILURE, reason
        return FAILED, reason


# ---------------------------------------------------------------------------
# shared readers
# ---------------------------------------------------------------------------

def _read_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _data_rows(out_dir: str, name: str) -> int:
    """Number of CSV lines after the header."""
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read().count(b"\n") - 1


def _read_csv(out_dir: str, name: str) -> List[dict]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _union_angles(orders) -> List[Fraction]:
    return sorted({Fraction(j, m) for m in orders for j in range(m)})


# ---------------------------------------------------------------------------
# scan-circle
# ---------------------------------------------------------------------------

_RIM_CACHE: Dict[tuple, Tuple[int, int]] = {}


def expected_rim(grid: int, orders, exclusion: float) -> Tuple[int, int]:
    """(points off the exclusion arcs, points on them) for a uniform grid.

    Computed here from the geometry alone: a grid point is on an arc when
    its chord distance to the nearest target point is at most the radius.
    """
    key = (grid, tuple(orders), exclusion)
    if key not in _RIM_CACHE:
        lams = np.exp(2j * np.pi * (np.arange(grid) / grid))
        zeta = np.exp(2j * np.pi * np.array(
            [float(a) for a in _union_angles(orders)]))
        dist = np.min(np.abs(lams[:, None] - zeta[None, :]), axis=1)
        on_arc = int(np.count_nonzero(dist <= exclusion))
        _RIM_CACHE[key] = (grid - on_arc, on_arc)
    return _RIM_CACHE[key]


def scan_circle(orders: str, depth: int, grid: int,
                exclusion: float = 0.05) -> Command:
    order_t = tuple(int(m) for m in orders.split(","))

    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        js = _read_json(out, "scan_circle.json")
        counts = js["counts"]
        rim, arc = expected_rim(grid, order_t, exclusion)
        if sum(counts.values()) != grid:
            return f"verdict counts {counts} do not sum to {grid}"
        if counts["CertifiedResolvent"] != rim:
            return f"{counts['CertifiedResolvent']} certified, expected {rim}"
        if counts["SingularCandidate"] + counts["TailInvalid"] != arc:
            return f"withheld {counts}, expected {arc} on the arcs"
        if not (js["all_nonexcluded_certified"] and js["certificates_ok"]):
            return "rim or certificate flag false"
        if len(js["certificates"]) != len(_union_angles(order_t)):
            return f"{len(js['certificates'])} certificates"
        if js["metadata"]["depth"] != depth:
            return "depth not recorded"
        if _data_rows(out, "scan_circle.csv") != grid:
            return "scan_circle.csv row count"
        return None

    return Command("scan-circle",
                   ["scan-circle", "--orders", orders, "--depth", str(depth),
                    "--grid", str(grid), "--exclusion", repr(exclusion)],
                   check, info={"grid": grid, "depth": depth})


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------

def eigs(n_blocks: int, known_failure: Optional[str] = None) -> Command:
    dim = 1 + 5 * n_blocks            # default orders 2,3: d = 5

    def check(rc, stdout, out):
        js = _read_json(out, "eigs.json")
        if js["dimension"] != dim or js["count"] != dim \
                or js["n_blocks"] != n_blocks:
            return f"{js['count']} eigenvalues for dimension {js['dimension']}"
        if _data_rows(out, "eigs.csv") != dim:
            return "eigs.csv row count"
        if not js["strongly_connected"]:
            return "section not strongly connected"
        over = js["max_residual"] > EIGS_GATE
        if rc != (1 if over else 0):
            return f"exit {rc} with max residual {js['max_residual']:.3e}"
        if over:
            return OVER_GATE
        return None

    return Command("eigs", ["eigs", "--N", str(n_blocks)], check,
                   known_failure=known_failure, info={"n_blocks": n_blocks})


def convergence(n_max: int) -> Command:
    rows_expected = n_max * len(_union_angles((2, 3)))

    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        rows = _read_csv(out, "convergence.csv")
        if len(rows) != rows_expected:
            return f"{len(rows)} rows, expected {rows_expected}"
        if any(r["within_bound"] != "true" for r in rows):
            return "a row is outside its bound"
        return None

    return Command("convergence", ["convergence", "--n-max", str(n_max)],
                   check, info={"n_max": n_max})


def verify(seed: int) -> Command:
    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        js = _read_json(out, "verify.json")
        if js["seed"] != seed or not js["all_passed"]:
            return "verify report not all_passed"
        return None

    return Command("verify", ["verify", "--seed", str(seed)], check)


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def scan_axis(betas: List[float]) -> Command:
    # 0 and |beta| = 1 are singular; the rest lie strictly inside the gap.
    singular = sum(1 for b in betas if b == 0.0 or abs(b) == 1.0)

    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        js = _read_json(out, "scan_axis.json")
        if js["mismatched_betas"]:
            return f"{len(js['mismatched_betas'])} axis mismatches"
        want = {"CertifiedResolvent": len(betas) - singular,
                "SingularCandidate": singular}
        if js["counts"] != want:
            return f"axis counts {js['counts']}, expected {want}"
        if _data_rows(out, "scan_axis.csv") != len(betas):
            return "scan_axis.csv row count"
        return None

    # --betas=<list>: with a separate token, a list starting with '-' is
    # read by argparse as an option and the command exits 2.
    text = ",".join(repr(b) for b in betas)
    return Command("scan-axis", ["semigroup", "scan-axis", f"--betas={text}"],
                   check, info={"betas": len(betas)})


def cert(speeds: List[Fraction]) -> Command:
    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        recs = _read_json(out, "semigroup_cert.json")
        if [r["r"] for r in recs] != [str(s) for s in speeds]:
            return "certificate list does not match the requested speeds"
        if not all(r["matches"] for r in recs):
            return "a certificate does not match q_n"
        return None

    return Command("cert", ["semigroup", "cert",
                            "--r", ",".join(str(s) for s in speeds)],
                   check, info={"speeds": len(speeds)})


_DRIFT = re.compile(r"mass drift (\S+) \(tolerance (\S+)\)")


def evolve(t: float, samples: int, mode: Optional[Tuple[int, int]] = None) -> Command:
    args = ["semigroup", "evolve", "--t", repr(t), "--samples", str(samples)]
    if mode is not None:
        args.append(f"--mode={mode[0]},{mode[1]}")

    def check(rc, stdout, out):
        if rc != 0:
            return f"exit {rc}"
        m = _DRIFT.search(stdout)
        if m is None:
            return "no mass drift line printed"
        tol = float(m.group(2))
        rows = _read_csv(out, "evolve.csv")
        if len(rows) != samples:
            return f"{len(rows)} samples, expected {samples}"
        mass0 = float(rows[0]["mass"])
        drift = max(abs(float(r["mass"]) - mass0) for r in rows)
        if not drift <= tol:
            return f"mass drift {drift:.3e} over tolerance {tol:.1e}"
        return None

    return Command("evolve", args, check, info={"samples": samples})


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

SCAN_SWEEP_ORDERS = ("1", "2,3", "4,6", "5,7")
SCAN_SWEEP_DEPTHS = (20, 40, 60)
SCAN_SWEEP_EXCLUSIONS = (0.05, 0.06, 0.07, 0.08)


def _speeds(rng: random.Random, count: int) -> List[Fraction]:
    """``count`` distinct rationals p/q in [1, 4] with q <= 7."""
    out = set()
    while len(out) < count:
        q = rng.randint(1, 7)
        out.add(Fraction(rng.randint(q, 4 * q), q))
    return sorted(out)


def _betas(rng: random.Random, count: int) -> List[float]:
    """``count`` betas with 1e-3 <= |beta| <= 1 - 1e-3, plus 0 and +-1.

    The margin keeps the points off the 1e-6 bands next to 0 and +-1 where
    ``scan-axis`` certifies a point its own expectation calls singular (see
    bench/README.md, known defects).
    """
    mags = [round(rng.uniform(1e-3, 1.0 - 1e-3), 6) for _ in range(count)]
    betas = [m if rng.random() < 0.5 else -m for m in mags]
    return betas + [0.0, 1.0, -1.0]


def build(name: str, seed: int, tiny: bool = False) -> List[Command]:
    """Commands of one pass of workload ``name`` for ``seed``.

    ``tiny`` shrinks every size so that a pass takes well under a second;
    the self-test uses it.  The benchmark always runs full size.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "scan-wide":
        return [scan_circle("2,3", 40, 2000 if tiny else 200_000)]
    if name == "scan-sweep":
        # The seed sets the exclusion radius, not the order of the scans:
        # peak RSS depends on that order through heap reuse.
        grid = 360 if tiny else 3600
        exclusion = rng.choice(SCAN_SWEEP_EXCLUSIONS)
        return [scan_circle(o, d, grid, exclusion) for o in SCAN_SWEEP_ORDERS
                for d in SCAN_SWEEP_DEPTHS] * 2
    if name == "sections":
        if tiny:
            return [eigs(3), eigs(5), convergence(4), verify(seed)]
        return [eigs(24), eigs(40, known_failure=OVER_GATE),
                convergence(16), verify(seed)]
    if name == "semigroup":
        samples = 51 if tiny else 2001
        mode = (rng.randint(1, 8), rng.choice([-3, -2, -1, 0, 1, 2, 3]))
        return [scan_axis(_betas(rng, 200 if tiny else 20_000)),
                cert(_speeds(rng, 5 if tiny else 40)),
                evolve(500.0, samples),
                evolve(500.0, samples, mode)]
    raise ValueError(f"unknown workload {name!r}; choices: {WORKLOADS}")
