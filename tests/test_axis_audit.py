"""Independent oracle for the semigroup's denominator on the imaginary axis.

D(beta) = 1 - h(beta) / (i beta + 1), h(beta) = sum_n 2 pi q_n^2 /
(i beta + q_n), is summed in 50-digit mpmath over n = 1..200 with the exact
weights q_n = 2^-n / (2 pi) and beta taken exactly from its float; every
term is at most 2^-n in modulus, so the omitted tail is below 2^-200.  The
disk that ``coupling_series_batch`` returns at lam = 1 + i beta must hold
that value at every beta, the edge points beta = 0, +-1e-7 and +-0.999999
included.
"""

import functools

import mpmath
import numpy as np
import pytest

from spectral_forge.resolvent import coupling_series_batch
from spectral_forge.semigroup import GeneratorSpec

TERMS = 200
EDGE_BETAS = [0.0, -0.0, 1.0, -1.0, 1e-7, -1e-7, 0.999999, -0.999999]


@functools.lru_cache(maxsize=None)
def _truth():
    """The betas and D at each of them, to 50 digits."""
    rng = np.random.default_rng(40)
    betas = np.concatenate([EDGE_BETAS, rng.uniform(-1.0, 1.0, 400),
                            rng.normal(0.0, 5.0, 100),
                            rng.uniform(-1e-4, 1e-4, 100)])
    with mpmath.workdps(50):
        # 2 pi q^2 / (i beta + q) = 2 pi q^2 (q - i beta) / (q^2 + beta^2)
        qs = [mpmath.mpf(2) ** -n / (2 * mpmath.pi)
              for n in range(1, TERMS + 1)]
        squares = [q * q for q in qs]
        masses = [2 * mpmath.pi * q2 for q2 in squares]       # 2^-n q_n
        values = []
        for beta in betas.tolist():
            b2 = mpmath.mpf(beta) ** 2
            dens = [q2 + b2 for q2 in squares]
            re = mpmath.fsum(m * q / d for m, q, d in zip(masses, qs, dens))
            im = -beta * mpmath.fsum(m / d for m, d in zip(masses, dens))
            values.append(1 - mpmath.mpc(re, im) / mpmath.mpc(1, beta))
    return betas, values


def _errors(depth):
    """|den - D| and the radius at every beta."""
    betas, values = _truth()
    g = GeneratorSpec.default()
    den, radius, _ = coupling_series_batch(g.weights, 1.0 + 1j * betas, depth)
    with mpmath.workdps(50):
        err = np.array([float(abs(mpmath.mpc(c.real, c.imag) - v))
                        for c, v in zip(den, values)])
    return betas, err, radius


@pytest.mark.parametrize("depth", [1, 40, 60, 200])
def test_axis_denominator_disk_holds_the_true_value(depth):
    _, err, radius = _errors(depth)
    assert (err <= radius).all(), f"worst {(err / radius).max():.3g} radius"


def test_axis_audit_catches_a_tail_only_radius():
    # negative control: at depth 60 the tail 2^-60 / |1 + i beta| alone,
    # without the rounding bound, is below the rounding error of the sum
    betas, err, _ = _errors(60)
    missed = err > 2.0 ** -60 / np.abs(1.0 + 1j * betas)
    assert missed.mean() > 0.9, f"missed at {missed.sum()} of {missed.size}"
