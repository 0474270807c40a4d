"""Independent oracles for the unit-circle certification kernel.

The denominator D(lam) = 1 - <q, R(lam,S) q>/lam is summed in 50-digit
mpmath over n = 1..200 (the omitted tail is below 1e-100 on the rim), with
exact dyadic weights and lam taken exactly from its float.  The kernel's
disk must hold that value at 52 rim points of the default scan, at every
depth up to the deepest the CLI accepts.  The gap
to sigma(S) is checked against a brute-force minimum over the explicit
spectrum {0}, (1 - q_n) zeta for n <= 200, and U itself.
"""

import cmath
import functools

import mpmath
import numpy as np
import pytest

from spectral_forge.model import GroupUnionSpec, dyadic_weights
from spectral_forge.scanner import _circle_kernel

ORDERS = [(1,), (2, 3), (4, 6), (5, 7)]
IDS = ["1", "2,3", "4,6", "5,7"]
TERMS = 200


def _rim(spec):
    """52 evenly spaced non-excluded points of the default grid 3600."""
    lams = np.exp(2j * np.pi * np.arange(3600) / 3600)
    rim = lams[~_circle_kernel(spec, lams, 20, 0.05).excluded]
    return rim[np.linspace(0, rim.size - 1, 52).round().astype(int)]


@functools.lru_cache(maxsize=None)
def _truth(orders):
    """The rim points and D at each of them, to 50 digits."""
    spec = GroupUnionSpec(orders)
    lams = _rim(spec)
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
    spec = GroupUnionSpec(orders)
    lams, values = _truth(orders)
    k = _circle_kernel(spec, lams, depth)
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
    spec = GroupUnionSpec(orders)
    lams, _ = _truth(orders)
    err, _ = _errors(orders, 60)
    missed = err > 2.0 ** -60 / np.abs(lams)
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
    spec = GroupUnionSpec(orders)
    rng = np.random.default_rng(sum(orders) * 100 + depth)
    zeta = np.exp(2j * np.pi * np.array(
        [j / m for m in orders for j in range(m)]))
    qs = dyadic_weights(depth + 2, spec.d)
    damped = 1.0 - qs[[2, depth - 1, depth + 1]]
    lams = np.concatenate([
        [0.0, 0.5j, 1.0, -1.0],
        damped * zeta[-1],
        rng.uniform(0.0, 1.2, 40) * np.exp(2j * np.pi * rng.random(40)),
        np.exp(2j * np.pi * rng.random(40)),
    ])
    gap = _circle_kernel(spec, lams, depth).gap
    slack = 4 * np.finfo(float).eps
    for lam, g in zip(lams, gap):
        true = _brute_gap(orders, complex(lam))
        assert g <= true + slack
        assert g >= true - qs[depth] - slack

