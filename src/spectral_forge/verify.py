"""Seeded property suites bundled behind the ``verify`` command.

Each suite checks one pillar of the construction against an independent
route (exact decimal arithmetic, every column of the forward map, the
closed-form characteristic polynomial) and reports a machine-readable
pass/fail record.  The ``corrupt`` flag breaks one thing in each suite, a
bound or the operator, so the harness can be shown to catch regressions;
no control adds to a reported number.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from decimal import Decimal, localcontext
from typing import List, Optional

import numpy as np

from .errors import NoSamples
from .finite import FiniteSection, finite_spectrum
from .io import substream
from .model import GroupUnionSpec, apply_operator, dyadic_weights
from .resolvent import UNIT_ROUNDOFF, coupling_series_batch, gamma

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
            for depth in (20, 60):
                mod = np.r_[np.ones(3), 0.5 + 1.5 * rng.random(3)]
                lams = mod * np.exp(2j * np.pi * rng.random(6))
                den, radius, valid = coupling_series_batch(d, lams, depth)
                if corrupt:
                    radius = 2.0 ** -depth / np.abs(lams) * (1.0 + 2.0 ** -48)
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
                        Decimal(2.0 ** -depth) + (2 * depth + 32) * u
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
    """Every column of T on 12 blocks must have l1 mass 1 and no negative
    entry, for the orders (1,), (2,3) and (4,6); ``seed`` draws nothing.

    ``apply_operator`` on the stacked identity of the raw section gives
    T's columns, which by linearity settle mass and positivity for every
    vector on that support.  The head column's mass adds its closed-form
    tail 2^-N.  A column's mass is a sum of at most N d nonzero entries
    and that tail, each entry a weight rounded once (or 1 - q_n, one
    rounding more, in a column of two entries), so with the subtraction of
    1 it is within gamma_{N d + 2} of 1.  An entry is negative where it is
    not its own absolute value, which also catches a NaN.  ``corrupt``
    passes the weights 2^-n / (d + 1), which leave the head column's mass
    near d / (d + 1).
    """
    n = 12
    failures, cases = 0, {}
    for orders in ((1,), (2, 3), (4, 6)):
        spec = GroupUnionSpec(orders)
        x = np.eye(1 + n * spec.d)
        q = dyadic_weights(n, spec.d + int(corrupt))
        cols = apply_operator(spec, x, q)
        size = np.abs(cols)
        defect = np.abs(size.sum(axis=1) + x[:, 0] * 2.0 ** -n - 1.0)
        negative = cols != size
        tol = gamma(n * spec.d + 2)
        bad = np.flatnonzero(~(defect <= tol) | negative.any(axis=1))
        failures += bad.size
        worst = float(defect.max())
        cases[",".join(map(str, orders))] = {
            "columns": x.shape[0], "tolerance": tol, "worst_defect": worst,
            "margin": tol - worst, "negative_entries": int(negative.sum()),
            "failed_columns": bad.tolist()}
    return SuiteResult("stochasticity", failures == 0,
                       sum(c["columns"] for c in cases.values()), failures,
                       {"n_blocks": n, "cases": cases})


# ---------------------------------------------------------------------------
# matrix-free sections: the closed-form determinant
# ---------------------------------------------------------------------------

# (orders, smallest N, largest N) of the seeded sections; orders 2,3 have
# dimension 501 to 551
_SECTIONS = (((1,), 30, 60), ((2, 3), 100, 110), ((4, 6), 10, 20),
             ((5, 7), 8, 16))
_POINTS = 32                    # seeded lam per section


def _log_sum(f: np.ndarray, err):
    """sum_j log f_j over the last axis, log f = log |f| + i arg f, summed
    pairwise by halving, and its error bound (``_factorization_gaps``)
    when each f_j is off by err_j."""
    mod = np.abs(f)
    logs = np.log(mod) + 1j * np.arctan2(f.imag, f.real)
    size = np.abs(logs.real) + np.abs(logs.imag)
    bound = (err / mod).sum(-1) + UNIT_ROUNDOFF * (
        5.0 * (1.0 + size) + math.ceil(math.log2(f.shape[-1])) * size).sum(-1)
    while logs.shape[-1] > 1:       # an odd last term waits a level
        h = logs.shape[-1] // 2
        logs = np.concatenate([logs[:, :h] + logs[:, h:2 * h],
                               logs[:, 2 * h:]], axis=-1)
    return logs[:, 0], bound


def _log_char_poly(sec: FiniteSection, lams: np.ndarray):
    """log det(lam - T_N) at each lam from its closed form, the head's
    Schur complement: lam D_N(lam) prod_n prod_k (lam^m_k - r_n^m_k), with
    r_n = 1 - q~_n and D_N(lam) = 1 - lam^-1 sum_n t_n, t_n = d q~_n^2 /
    z_n, z_n = lam - 1 + q~_n; and ``_log_sum``'s bound."""
    d, qs, lam = sec.spec.d, sec.tilde_q, lams[:, None]
    r, z = 1.0 - qs, lam - 1.0 + qs
    t = d * qs ** 2 / z
    err_t = np.abs(t) * (qs.size + 12 + np.abs(lam - 1.0) / np.abs(z))
    factors = [lam, 1.0 - t.sum(axis=1, keepdims=True) / lam]
    errs = [np.zeros(lam.shape), err_t.sum(1, keepdims=True) / np.abs(lam)]
    for m in sec.spec.orders:
        lm, rm = lam, r
        for _ in range(m - 1):
            lm, rm = lm * lam, rm * r
        factors.append(lm - rm)
        errs.append(3 * m * (np.abs(lm) + rm))
    return _log_sum(np.hstack(factors), UNIT_ROUNDOFF * np.hstack(errs))


def _factorization_gaps(sec: FiniteSection, values: np.ndarray,
                        lams: np.ndarray):
    """|A - B| at each lam, imaginary part modulo 2 pi, for A = log prod_i
    (lam - mu_i) over ``values`` and B = ``_log_char_poly``, and its
    tolerance: twice the first-order error bounds, in units of u:
    * each log factor f_j off by err_j, then rounded: err_j / |f_j| + 1;
      log |f| and arctan2 4 (1 + |log f_j|); the sum ceil(log2 T) sum
      |log f_j| over T terms;
    * A: mu_i within kappa = (2N + 32) eps of the float section's
      eigenvalue (block values 13 eps; a secular root the error of its
      secular function over its slope, below (N + 16) eps);
    * B: lam^m and r^m are m - 1 products (sqrt 5 a complex one) after
      r's rounding, 3m (|lam|^m + r^m); t_n (d q~^2 two roundings, z_n
      two, the quotient 5) (8 + |lam - 1| / |z_n|) |t_n|, its sum
      (N - 1) sum |t_n|, the division by lam 5;
    * A - B and its reduction: 4 (|A| + |B| + 4)."""
    kappa = (2 * sec.n_blocks + 32) * 2.0 * UNIT_ROUNDOFF
    a, err_a = _log_sum(lams[:, None] - values, kappa)
    b, err_b = _log_char_poly(sec, lams)
    g = a - b
    gap = np.hypot(g.real, (g.imag + np.pi) % (2 * np.pi) - np.pi)
    return gap, 2.0 * (err_a + err_b
                       + 4 * UNIT_ROUNDOFF * (abs(a) + abs(b) + 4.0))


def suite_factorization(seed: int = 0, corrupt: bool = False) -> SuiteResult:
    """The eigenvalues of ``finite_spectrum`` must give the closed-form
    det(lam - T_N): ``_factorization_gaps`` at 32 seeded lam in the disk
    of radius 2 per seeded section.  A wrong multiset makes the two sides
    differ as analytic functions, so almost every lam shows it.  Each case
    reports gap, tolerance and margin at its largest gap over tolerance.
    ``corrupt`` takes the spectrum of the section with the weights
    2^-n / (d + 1), renormalised."""
    rng = substream(seed, "factorization")
    failures, cases = 0, {}
    for orders, lo, hi in _SECTIONS:
        n = int(rng.integers(lo, hi + 1))
        sec = FiniteSection.of(GroupUnionSpec(orders), n)
        taken = replace(sec, tilde_q=dyadic_weights(n, sec.spec.d + 1)
                        / (1.0 - 2.0 ** -n)) if corrupt else sec
        values = finite_spectrum(taken).values
        lams = 2.0 * np.sqrt(rng.random(_POINTS)) \
            * np.exp(2j * np.pi * rng.random(_POINTS))
        gap, tol = _factorization_gaps(sec, values, lams)
        failures += int(np.count_nonzero(~(gap <= tol)))
        k = int(np.argmax(gap / tol))
        cases[",".join(map(str, orders))] = {
            "n_blocks": n, "dim": sec.dim, "gap": float(gap[k]),
            "tolerance": float(tol[k]), "margin": float(tol[k] - gap[k])}
    return SuiteResult("factorization", failures == 0,
                       _POINTS * len(cases), failures, {"cases": cases})


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_SUITES = {
    "denominator": suite_denominator,
    "stochasticity": suite_stochasticity,
    "factorization": suite_factorization,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, corrupt: bool = False) -> SuiteResult:
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    return _SUITES[name](seed=seed, corrupt=corrupt)


def run_suites(names: Optional[List[str]] = None, seed: int = 0,
               corrupt: bool = False) -> dict:
    """Run the named suites (all by default), each once in the order first
    named; JSON-ready report.

    An empty list is refused: a report that checked nothing would pass.
    """
    names = list(SUITE_NAMES) if names is None else list(dict.fromkeys(names))
    if not names:
        raise ValueError("no suite to run: an empty report would pass "
                         "without checking anything")
    results = [run_suite(n, seed, corrupt) for n in names]
    return {
        "seed": seed,
        "suites": {r.name: asdict(r) for r in results},
        "all_passed": all(r.passed for r in results),
    }
