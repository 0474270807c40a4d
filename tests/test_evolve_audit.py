"""High-precision audit of the stepped semigroup orbit.

The reference is e^{tM} e_0 for the float chain generator M, taken exactly
into 40-digit mpmath: one ``mpmath.expm`` at t = 1, raised to the integer
powers 100 and 500.  The batched ``evolve`` on a 2001-sample grid must land
within 1e-13 of it at the last sample; a perturbed step, or a Taylor sum
one term short of the remainder bound's degree or without the bound, must
not.
"""

import mpmath
import numpy as np
import pytest

from spectral_forge import semigroup
from spectral_forge.model import DEFAULT_DEPTH
from spectral_forge.semigroup import (SemigroupState, chain_generator,
                                      evolve, expm)

GATE = 1e-13
TIMES = (1, 100, 500)


@pytest.fixture(scope="module")
def audit():
    with mpmath.workdps(40):
        e1 = mpmath.expm(mpmath.matrix(
            chain_generator(DEFAULT_DEPTH).tolist()))
        powers = {1: e1}
        powers[100] = e1 ** 100
        powers[500] = powers[100] ** 5
        heads = {t: [e[i, 0] for i in range(DEFAULT_DEPTH + 1)]
                 for t, e in powers.items()}

    def error(t):
        orbit = evolve(SemigroupState(1.0), np.linspace(0.0, t, 2001))
        got = [orbit.head[-1]] + [orbit.coeff(n, 0)[-1]
                                  for n in range(1, DEFAULT_DEPTH + 1)]
        with mpmath.workdps(40):
            return max(float(abs(mpmath.mpc(z) - ref))
                       for z, ref in zip(got, heads[t]))

    return error


@pytest.mark.parametrize("t", TIMES)
def test_stepped_orbit_matches_high_precision_expm(audit, t):
    assert audit(t) <= GATE


@pytest.mark.parametrize("t", TIMES)
def test_audit_catches_a_perturbed_step(audit, t, monkeypatch):
    monkeypatch.setattr(semigroup, "expm",
                        lambda a: expm(a * (1.0 + 1e-9)))
    assert audit(t) > GATE


_DEGREE = semigroup._taylor_degree
_SHORT_SUMS = {
    "one-term-early": ("_taylor_degree",
                       lambda theta: max(1, _DEGREE(theta) - 1)),
    "no-remainder-check": ("_taylor_tail", lambda tau, theta, k: 0.0),
}


@pytest.mark.parametrize("variant", sorted(_SHORT_SUMS))
def test_audit_catches_a_short_taylor_sum(audit, variant, monkeypatch):
    monkeypatch.setattr(semigroup, *_SHORT_SUMS[variant])
    assert max(audit(t) for t in TIMES) > GATE
