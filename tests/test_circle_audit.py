"""Independent oracles for the unit-circle certification kernel.

The denominator D(lam) = 1 - <q, R(lam,S) q>/lam is summed in 50-digit
mpmath over n = 1..200 (the omitted tail is below 1e-100 on the rim), with
exact dyadic weights and lam taken exactly from its float.  The kernel's
disk must hold that value at 52 rim points of the default scan, at every
depth up to the deepest the CLI accepts.  The gap
to sigma(S) is checked against a brute-force minimum over the explicit
spectrum {0}, (1 - q_n) zeta for n <= 200, and U itself.  The empirical
block bound is checked against the same formula evaluated in 50 digits
from the kernel's float inputs lam and r = 1 - q_n.
"""

import cmath
import functools

import mpmath
import numpy as np
import pytest

from spectral_forge.model import GroupUnionSpec, WeightSeq
from spectral_forge.scanner import _circle_kernel

ORDERS = [(1,), (2, 3), (4, 6), (5, 7)]
IDS = ["1", "2,3", "4,6", "5,7"]
TERMS = 200


def _setup(orders):
    spec = GroupUnionSpec(orders)
    return spec, WeightSeq.dyadic_single(spec.d)


def _rim(spec, w, points=52):
    """Evenly spaced non-excluded points of the default grid 3600."""
    lams = np.exp(2j * np.pi * np.arange(3600) / 3600)
    rim = lams[~_circle_kernel(spec, w, lams, 20, 0.05).excluded]
    return rim[np.linspace(0, rim.size - 1, points).round().astype(int)]


@functools.lru_cache(maxsize=None)
def _truth(orders):
    """The rim points and D at each of them, to 50 digits."""
    spec, w = _setup(orders)
    lams = _rim(spec, w)
    d = spec.d
    with mpmath.workdps(50):
        qs = [mpmath.mpf(2) ** -n / d for n in range(1, TERMS + 1)]
        values = []
        for lam in lams:
            z = mpmath.mpc(lam.real, lam.imag)
            s = mpmath.fsum(d * q * q / (z - 1 + q) for q in qs)
            values.append(1 - s / z)
    return lams, values


def _errors(orders, depth):
    """|den - D| and the kernel's radius at every rim point."""
    spec, w = _setup(orders)
    lams, values = _truth(orders)
    k = _circle_kernel(spec, w, lams, depth)
    assert k.valid.all()
    with mpmath.workdps(50):
        err = np.array([float(abs(mpmath.mpc(c.real, c.imag) - v))
                        for c, v in zip(k.den, values)])
    return err, k.den_radius


@pytest.mark.parametrize("depth", [20, 40, 60, 200, 1074])
@pytest.mark.parametrize("orders", ORDERS, ids=IDS)
def test_denominator_disk_holds_the_true_value(orders, depth):
    err, radius = _errors(orders, depth)
    assert (err <= radius).all(), f"worst {(err / radius).max():.3g} radius"


@pytest.mark.parametrize("orders", ORDERS, ids=IDS)
def test_audit_catches_a_dropped_tail_radius(orders):
    # negative control: at depth 20 the omitted terms exceed 1e-14; a disk
    # of rounding size 1e-15 in place of the tail bound must miss D
    err, _ = _errors(orders, 20)
    assert (err > 1e-15).all()


@pytest.mark.parametrize("orders", ORDERS, ids=IDS)
def test_audit_catches_a_tail_only_radius(orders):
    # negative control: at depth 60 the tail 2^-60 / |lam| alone, without
    # the rounding bound, is below the rounding error of the float sum
    spec, w = _setup(orders)
    lams, _ = _truth(orders)
    err, _ = _errors(orders, 60)
    missed = err > w.tail_mass(60) / np.abs(lams)
    assert missed.mean() > 0.9, f"missed at {missed.sum()} of {missed.size}"


def _brute_gap(orders, lam, terms=TERMS):
    """min |lam - s| over {0}, U and (1 - q_n) U for n <= terms."""
    d = sum(orders)
    zeta = [cmath.exp(2j * cmath.pi * j / m) for m in orders for j in range(m)]
    best = abs(lam)
    for z in zeta:
        best = min(best, abs(lam - z))
        for n in range(1, terms + 1):
            best = min(best, abs(lam - (1.0 - 2.0 ** -n / d) * z))
    return best


@pytest.mark.parametrize("depth", [5, 20, 40, 60, 200])
@pytest.mark.parametrize("orders", ORDERS, ids=IDS)
def test_gap_is_a_lower_bound_within_the_tail_weight(orders, depth):
    # the kernel's gap is min over n <= depth and |lam - zeta| - q_{depth+1}
    # for the rest: never above the true distance, and below it by at most
    # q_{depth+1} (plus rounding)
    spec, w = _setup(orders)
    rng = np.random.default_rng(sum(orders) * 100 + depth)
    zeta = np.exp(2j * np.pi * np.array(
        [j / m for m in orders for j in range(m)]))
    damped = 1.0 - np.array([w.value(3), w.value(depth), w.value(depth + 2)])
    lams = np.concatenate([
        [0.0, 0.5j, 1.0, -1.0],
        damped * zeta[-1],
        rng.uniform(0.0, 1.2, 40) * np.exp(2j * np.pi * rng.random(40)),
        np.exp(2j * np.pi * rng.random(40)),
    ])
    gap = _circle_kernel(spec, w, lams, depth).gap
    slack = 4 * np.finfo(float).eps
    for lam, g in zip(lams, gap):
        true = _brute_gap(orders, complex(lam))
        assert g <= true + slack
        assert g >= true - w.value(depth + 1) - slack


# ---------------------------------------------------------------------------
# the empirical block bound
# ---------------------------------------------------------------------------

BOUND_RTOL = 32 * np.finfo(float).eps
BOUND_DEPTHS = [20, 40, 60]


@functools.lru_cache(maxsize=None)
def _block_truth(orders):
    """120 rim points and, for n <= 60, the exact value at each of them of
    max_m sum_{j<m} |mu|^j / |mu^m - 1| / r, mu = lam / r, r = 1 - q_n
    as the kernel rounds it."""
    spec, w = _setup(orders)
    lams = _rim(spec, w, points=120)
    radii = 1.0 - w.values(max(BOUND_DEPTHS))
    with mpmath.workdps(50):
        truth = np.empty((radii.size, lams.size), dtype=object)
        for i, r in enumerate(radii):
            r = mpmath.mpf(r)
            for k, lam in enumerate(lams):
                mu = mpmath.mpc(lam.real, lam.imag) / r
                truth[i, k] = max(_geometric(abs(mu), m) / abs(mu ** m - 1)
                                  for m in set(orders)) / r
    return lams, radii, truth


def _geometric(a, m):
    """sum_{j<m} a^j."""
    total = term = mpmath.mpf(1)
    for _ in range(m - 1):
        term *= a
        total += term
    return total


def _bound_errors(orders, depth, bounds):
    """Relative error of ``bounds`` against the exact block bound at depth."""
    lams, _, truth = _block_truth(orders)
    with mpmath.workdps(50):
        return np.array([float(abs(mpmath.mpf(b) - t) / t) for b, t in
                         zip(bounds, truth[:depth].max(axis=0))])


@pytest.mark.parametrize("depth", BOUND_DEPTHS)
@pytest.mark.parametrize("orders", ORDERS, ids=IDS)
def test_block_bound_matches_the_exact_formula(orders, depth):
    spec, w = _setup(orders)
    lams, _, _ = _block_truth(orders)
    bounds = _circle_kernel(spec, w, lams, depth).block_bound
    err = _bound_errors(orders, depth, bounds)
    assert err.max() <= BOUND_RTOL, f"worst {err.max() / BOUND_RTOL:.3g} tol"


def _horner_without_final_one(orders, depth):
    """The block bound with sum_{j<m} |mu|^j evaluated by Horner's rule
    whose last step drops its + 1."""
    lams, radii, _ = _block_truth(orders)
    bounds = np.zeros(lams.shape)
    for r in radii[:depth]:
        mu = lams / r
        for m in set(orders):
            acc = np.ones(lams.shape)
            for step in range(m - 1):
                acc = acc * np.abs(mu) + (step < m - 2)
            bounds = np.maximum(bounds, acc / np.abs(mu ** m - 1.0) / r)
    return bounds


@pytest.mark.parametrize("depth", BOUND_DEPTHS)
@pytest.mark.parametrize("orders", ORDERS[1:], ids=IDS[1:])
def test_block_bound_audit_catches_a_dropped_horner_term(orders, depth):
    # negative control: without the j = 0 term the sum is off by about 1/m
    # relative, far above the tolerance at every point (order 1 has no
    # Horner step to mutate)
    err = _bound_errors(orders, depth, _horner_without_final_one(orders, depth))
    assert (err > BOUND_RTOL).all()
