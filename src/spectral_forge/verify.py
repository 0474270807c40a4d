"""Seeded property suites bundled behind the ``verify`` command.

Each suite checks one pillar of the construction against an independent
route (exact decimal arithmetic, dense eigensolve, graph search) and
reports a machine-readable pass/fail record.  The ``corrupt`` flag
deliberately breaks one check of each suite (a bound, a control or a
measured value) so the harness can be shown to catch regressions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from decimal import Decimal, localcontext
from typing import Dict, List, Optional

import numpy as np

from .errors import NoSamples
from .finite import build_finite_section, factorization_crosscheck, \
    strongly_connected
from .io import substream
from .model import GroupUnionSpec, WeightSeq, stochasticity_check
from .resolvent import coupling_series_batch

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: int
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# certified denominator disk vs the exact truncated series
# ---------------------------------------------------------------------------

def suite_denominator(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    """``coupling_series_batch``'s disk must hold the truncated series
    D_K(lam), K = depth, widened by its tail 2^-K/|lam|.

    Per order set and depth 20 or 60, six seeded lam: three on the rim and
    three with |lam| in [0.5, 2].  A float lam and q_n = 1/(d 2^n) make
    D_K(lam) a Gaussian rational; ``Decimal(float)`` is exact, and 60-digit
    decimal rounds each operation by at most u = 5e-60.  A valid point
    passes when |den - D_K| + 2^-K/|lam| + delta <= radius, compared as
    squares; points the kernel calls invalid are not checked.

    delta = ((2K + 32)/|lam| + 18) u.  At a valid point |a_n| >= q_n, so
    |t_n| <= 2^-n and |Re lam - 1| <= 2 |a_n|: the computed a_n is within
    5u |a_n| and each term within 12u 2^-n; the K - 1 additions err by
    sqrt(2) u each; the division by lam adds 9u/|lam| and the subtraction
    from den u (1 + 2/|lam|), so D_K is within ((2K + 32)/|lam| + 2) u.
    The roundings of the comparison, whose sides are below 1, add 16u.

    ``corrupt`` drops the rounding term: the radius becomes the tail
    2^-K/|lam| (1 + 2^-48) alone, which the float evaluation misses.
    """
    rng = substream(seed, "denominator")
    u = Decimal("5e-60")               # unit roundoff of 60-digit decimal
    checks = failures = invalid = 0
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 60
        for d in (1, 5, 10, 12):         # orders (1,), (2,3), (4,6), (5,7)
            w = WeightSeq.dyadic_single(d)
            for depth in (20, 60):
                mod = np.r_[np.ones(3), 0.5 + 1.5 * rng.random(3)]
                lams = mod * np.exp(2j * np.pi * rng.random(6))
                den, radius, valid = coupling_series_batch(w, lams, depth)
                if corrupt:
                    radius = w.tail_mass(depth) / np.abs(lams) \
                        * (1.0 + 2.0 ** -48)
                invalid += int(np.count_nonzero(~valid))
                terms = [(1 / Decimal(d << n), 1 / Decimal(d << 2 * n))
                         for n in range(1, depth + 1)]
                for lam, c, r in zip(lams[valid], den[valid], radius[valid]):
                    lr, y = Decimal(lam.real), Decimal(lam.imag)
                    x, yy = lr - 1, y * y
                    sr = si = Decimal(0)
                    for q, cn in terms:  # t_n = c_n / (lam - 1 + q_n)
                        ar = x + q
                        s = ar * ar + yy
                        sr += ar * cn / s
                        si -= y * cn / s
                    l2 = lr * lr + yy
                    er = Decimal(c.real) - 1 + (sr * lr + si * y) / l2
                    ei = Decimal(c.imag) - (sr * y - si * lr) / l2
                    err2 = er * er + ei * ei
                    slack = Decimal(r) - 18 * u - (
                        Decimal(w.tail_mass(depth)) + (2 * depth + 32) * u
                    ) / l2.sqrt()
                    checks += 1
                    failures += slack < 0 or err2 > slack * slack
                    worst = max(worst, float(err2.sqrt() / Decimal(r)))
    if not checks:
        raise NoSamples(f"denominator: the kernel called none of the "
                        f"{invalid} points valid, so nothing was checked")
    return SuiteResult("denominator", failures == 0, checks, failures,
                       {"worst_error_over_radius": worst,
                        "invalid_points": invalid})


# ---------------------------------------------------------------------------
# forward map preserves mass and positivity
# ---------------------------------------------------------------------------

def suite_stochasticity(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    checks = failures = 0
    worst = 0.0
    details: Dict[str, dict] = {}
    for orders in ((1,), (2, 3), (4, 6)):
        spec = GroupUnionSpec(orders)
        w = WeightSeq.dyadic_single(spec.d)
        rep = stochasticity_check(spec, w, trials=40, seed=seed)
        defect = rep.max_norm_defect + (1.0 if corrupt else 0.0)
        checks += rep.trials
        if defect > 1e-12 or rep.max_negativity > 1e-15:
            failures += 1
        worst = max(worst, defect)
        details[",".join(map(str, orders))] = {
            "max_norm_defect": defect,
            "max_negativity": rep.max_negativity,
        }
    return SuiteResult("stochasticity", failures == 0, checks, failures,
                       {"worst_defect": worst, "cases": details})


# ---------------------------------------------------------------------------
# irreducibility: coupled sections are one component, uncoupled are not
# ---------------------------------------------------------------------------

def suite_connectivity(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    checks = failures = 0
    for orders, n_blocks in (((1,), 4), ((2, 3), 6), ((4, 6), 3)):
        spec = GroupUnionSpec(orders)
        w = WeightSeq.dyadic_single(spec.d)
        op = build_finite_section(spec, w, n_blocks)
        # negative control: removing the head coupling must disconnect
        uncoupled = op.matrix.copy()
        if not corrupt:
            uncoupled[0, :] = uncoupled[:, 0] = 0.0
        checks += 2
        failures += (not strongly_connected(op.matrix)) \
            + strongly_connected(uncoupled)
    return SuiteResult("connectivity", failures == 0, checks, failures, {})


# ---------------------------------------------------------------------------
# eigenvalue multiset vs cofactor characteristic polynomial
# ---------------------------------------------------------------------------

# (orders, n_blocks) of the sections checked; the largest has dimension 16
_FACTORIZATION_CASES = (((1,), 3), ((2,), 3), ((3,), 2), ((2, 3), 2),
                        ((2, 3), 3))


def suite_factorization(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    checks = failures = 0
    worst = 0.0
    cases = {}
    for orders, n_blocks in _FACTORIZATION_CASES:
        spec = GroupUnionSpec(orders)
        w = WeightSeq.dyadic_single(spec.d)
        rep = factorization_crosscheck(spec, w, n_blocks, seed=seed)
        err = rep.max_rel_error + (1.0 if corrupt else 0.0)
        checks += 1
        if err > 1e-8:
            failures += 1
        worst = max(worst, err)
        cases[f"{','.join(map(str, orders))}@N={n_blocks}"] = err
    return SuiteResult("factorization", failures == 0, checks, failures,
                       {"worst_error": worst, "cases": cases,
                        "tolerance": 1e-8})


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_SUITES = {
    "denominator": suite_denominator,
    "stochasticity": suite_stochasticity,
    "connectivity": suite_connectivity,
    "factorization": suite_factorization,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, corrupt: bool = False) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    return _SUITES[name](seed=seed, corrupt=corrupt)


def run_suites(names: Optional[List[str]] = None, seed: int = 0,
               corrupt: bool = False) -> dict:
    """Run the named suites (all by default); JSON-ready report.

    An empty list is refused: a report that checked nothing would pass.
    """
    names = list(SUITE_NAMES) if names is None else list(names)
    if not names:
        raise ValueError("no suite to run: an empty report would pass "
                         "without checking anything")
    results = [run_suite(n, seed, corrupt) for n in names]
    return {
        "seed": seed,
        "suites": {r.name: asdict(r) for r in results},
        "all_passed": all(r.passed for r in results),
    }
