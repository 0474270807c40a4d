"""Seeded property suites bundled behind the ``verify`` command.

Each suite checks one pillar of the construction against an independent
route (dense inversion, dense eigensolve, brute-force inequalities,
graph search) and reports a machine-readable pass/fail record.  The
``corrupt`` flag deliberately mis-signs one formula so the harness can be
shown to catch regressions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .errors import NoSamples
from .finite import build_finite_section, factorization_crosscheck, \
    strongly_connected
from .io import substream
from .model import GroupUnionSpec, WeightSeq, stochasticity_check

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_suites"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: int
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rank-one update formula vs dense inversion
# ---------------------------------------------------------------------------

def _sm_trial(rng, corrupt: bool):
    size = int(rng.integers(1, 7))
    a = (rng.standard_normal((size, size))
         + 1j * rng.standard_normal((size, size))) / np.sqrt(size)
    w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    phi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    update = np.outer(w, phi)          # x -> <phi, x> w with bilinear pairing

    for _ in range(50):
        lam = (2.0 + 2.0 * rng.random()) * np.exp(2j * np.pi * rng.random())
        base = lam * np.eye(size) - a
        r = np.linalg.inv(base)
        gamma = phi @ r @ w
        if abs(1.0 - gamma) > 0.1:
            break
    else:                              # pragma: no cover - measure-zero setup
        return None

    sign = -1.0 if corrupt else 1.0
    via_formula = r + np.outer(r @ w, phi @ r) / (1.0 - sign * gamma)
    direct = np.linalg.inv(base - update)
    scale = max(1.0, float(np.abs(direct).max()))
    formula_err = float(np.abs(via_formula - direct).max()) / scale

    # gamma = 1 exactly at the eigenvalues the update creates
    eigs_updated = np.linalg.eigvals(a + update)
    eigs_base = np.linalg.eigvals(a)
    predicate_err = None
    for lam_star in eigs_updated:
        if np.min(np.abs(eigs_base - lam_star)) < 1e-3:
            continue                   # too close to a pole of R(., A)
        g = phi @ np.linalg.inv(lam_star * np.eye(size) - a) @ w
        predicate_err = abs(1.0 - g)
        break
    return formula_err, predicate_err


def suite_sherman_morrison(seed: int = 0, trials: int = 200,
                           corrupt: bool = False) -> SuiteResult:
    rng = substream(seed, "sherman-morrison")
    worst_formula = 0.0
    worst_predicate = 0.0
    checks = failures = 0
    for _ in range(trials):
        out = _sm_trial(rng, corrupt)
        if out is None:
            continue
        formula_err, predicate_err = out
        checks += 1
        worst_formula = max(worst_formula, formula_err)
        if formula_err > 1e-10:
            failures += 1
        if predicate_err is not None:
            worst_predicate = max(worst_predicate, predicate_err)
            if predicate_err > 1e-8:
                failures += 1
    return SuiteResult("sherman-morrison", failures == 0, checks, failures,
                       {"worst_formula_error": worst_formula,
                        "worst_predicate_error": worst_predicate,
                        "tolerance_formula": 1e-10,
                        "tolerance_predicate": 1e-8})


# ---------------------------------------------------------------------------
# the strict inequality p < |lam - 1 + p| off lam = 1
# ---------------------------------------------------------------------------

def suite_circles(seed: int = 0, samples: int = 100_000,
                  corrupt: bool = False) -> SuiteResult:
    rng = substream(seed, "circles")
    p = rng.random(samples)
    theta = rng.random(samples)
    lam = np.exp(2j * np.pi * theta)
    keep = lam != 1.0
    p, lam = p[keep], lam[keep]
    if not p.size:
        raise NoSamples(f"circles: none of the {samples} samples has "
                        "lambda != 1, so nothing was checked")
    if corrupt:
        p = 2.0 - p                    # push the weights outside [0,1)
    shifted = np.abs(lam - 1.0 + p)
    violations = int(np.count_nonzero(~(p < shifted)))
    margin = float(np.min(shifted - p))
    return SuiteResult("circles", violations == 0, int(p.size), violations,
                       {"min_margin": margin, "samples": int(p.size)})


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
        checks += 1
        if not strongly_connected(op.matrix):
            failures += 1
        # negative control: removing the head coupling must disconnect
        uncoupled = op.matrix.copy()
        uncoupled[0, :] = 0.0
        uncoupled[:, 0] = 0.0
        if corrupt:
            uncoupled = op.matrix
        checks += 1
        if strongly_connected(uncoupled):
            failures += 1
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
    "sherman-morrison": suite_sherman_morrison,
    "circles": suite_circles,
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
