"""The certified rank-one denominator, the gap to sigma(S), and the
resolvent of T against the dense raw finite section."""

import numpy as np
import pytest

from oracles import build_finite_section
from spectral_forge.model import GroupUnionSpec, apply_operator
from spectral_forge.resolvent import (CERTIFIED, SINGULAR, TAIL_INVALID,
                                      VERDICTS, coupling_series_batch)
from spectral_forge.scanner import _circle_kernel

# the depth-30 radius at |lam| = 1: the tail 2^-30 plus the rounding bound
# (29 + 11 + 7.07 + 1) u, plus u for the subtraction from 1, times 1 + 2^-48
RADIUS_30 = 9.313280225984146e-10


def _point(spec, lam, depth=40):
    """The kernel's answer at one parameter: a batch of one."""
    return _circle_kernel(spec, [lam], depth)


# ---------------------------------------------------------------------------
# the gap to sigma(S)
# ---------------------------------------------------------------------------

def test_spectrum_gap_examples():
    spec = GroupUnionSpec((2,))

    def gap(lam):
        return _point(spec, lam).gap[0]

    # at the origin and at peripheral points the gap collapses
    assert gap(0.0) == 0.0
    assert gap(-1.0) == 0.0
    assert gap(1.0) == 0.0
    # the damped copy of -1 is spectrum too (up to the rounding of exp(i*pi))
    assert gap(-(1.0 - 2.0 ** -3 / spec.d)) < 1e-15
    # but i keeps distance 1 to {0} and ~sqrt(2) to the rest
    assert gap(1j) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# certified coupling series
# ---------------------------------------------------------------------------

def test_coupling_series_frozen_reference():
    # 1 + sum of 2^-2n / (lam - 1 + 2^-n) at lam = -1, thirty terms
    den, radius, valid = coupling_series_batch(1, [-1.0], 30)
    assert den[0] == pytest.approx(1.0 - 0.21339030483058352, abs=1e-16)
    assert radius[0] == RADIUS_30
    assert valid[0]


def test_coupling_series_tail_bound_is_honest():
    # the depth-25 denominator disk holds the depth-50 centre
    spec = GroupUnionSpec((2, 3))
    rng = np.random.default_rng(17)
    lams = np.exp(2j * np.pi * rng.random(25))
    lams = lams[np.abs(lams - 1.0) >= 0.2]
    shallow = _circle_kernel(spec, lams, 25)
    deep = _circle_kernel(spec, lams, 50)
    assert shallow.valid.all() and deep.valid.all()
    assert (np.abs(shallow.den - deep.den) <= shallow.den_radius).all()
    assert (deep.den_radius < shallow.den_radius).all()


def test_coupling_series_rejects_the_distinguished_direction():
    spec = GroupUnionSpec((2,))
    # lam = 1 and the centre of the violating circle for n = 5
    k = _circle_kernel(spec, [1.0, 1.0 - 2.0 * 2.0 ** -5 / spec.d], 40)
    assert not k.valid.any()
    assert [VERDICTS[c] for c in k.verdict] == [TAIL_INVALID, TAIL_INVALID]
    assert (k.den_lower == 0.0).all()


def test_coupling_series_batch_agrees_with_scalar():
    # a scalar query is a batch of one, bit for bit
    lams = np.exp(2j * np.pi * np.linspace(0.03, 0.97, 40))
    den, radius, valid = coupling_series_batch(5, lams, 40)
    assert (radius > 2.0 ** -40 / np.abs(lams)).all()
    assert valid.all()
    for lam, val, rad in zip(lams, den, radius):
        one, radius1, _ = coupling_series_batch(5, [lam], 40)
        assert one[0] == val and radius1[0] == rad
    # lam = 1 is flagged invalid instead of raising
    _, _, valid1 = coupling_series_batch(5, np.array([1.0 + 0j]), 40)
    assert not valid1[0]


def test_resolvent_denominator_frozen_values():
    spec1 = GroupUnionSpec((1,))
    den1 = _point(spec1, -1.0, 30)
    assert den1.den[0] == pytest.approx(0.7866096951694165, abs=1e-16)
    assert den1.den_radius[0] == RADIUS_30
    assert den1.den_lower[0] > 0.0

    spec2 = GroupUnionSpec((2,))
    den2 = _point(spec2, -1.0, 40)
    # the denominator alone would wrongly suggest a resolvent point at -1
    assert den2.den[0] == pytest.approx(0.9065527236721663, abs=1e-15)
    assert den2.den_lower[0] > 0.0


# ---------------------------------------------------------------------------
# the resolvent of T against the dense raw section
# ---------------------------------------------------------------------------

def _dense_section(spec, n_keep):
    """The raw section T_K: head plus blocks 1..K, weights q_n unscaled."""
    return build_finite_section(spec, n_keep, renormalize=False).matrix


def _denominator_ratio(a, lam):
    """det(lam - T_K) / det(lam - S_K), S_K being T_K without its head row
    and column, through log-determinants."""
    s_k = a.copy()
    s_k[0, :] = 0.0
    s_k[:, 0] = 0.0
    eye = np.eye(a.shape[0])
    sign_t, log_t = np.linalg.slogdet(lam * eye - a)
    sign_s, log_s = np.linalg.slogdet(lam * eye - s_k)
    return sign_t / sign_s * np.exp(log_t - log_s)


@pytest.mark.parametrize("orders", [(1,), (2, 3), (4, 6), (5, 7)])
def test_certified_denominator_is_the_operators(orders):
    # the two rank-one steps give det(lam - T_K) / det(lam - S_K) =
    # 1 - <q, R(lam, S_K) q> / lam = D_K(lam) on the raw section; the
    # certified disk of the series must hold it
    spec = GroupUnionSpec(orders)
    depth = 40
    a = _dense_section(spec, depth)
    doubled = a.copy()                 # negative control: q -> 2 q
    doubled[0, 1:] *= 2.0
    doubled[1:, 0] *= 2.0
    for theta in (0.0082, 0.02, 0.13, 0.41, 0.49, 0.77, 0.95):
        lam = np.exp(2j * np.pi * theta)
        den, radius, valid = coupling_series_batch(spec.d, [lam], depth)
        assert valid[0]
        assert abs(_denominator_ratio(a, lam) - den[0]) <= radius[0]
        assert abs(_denominator_ratio(doubled, lam) - den[0]) > radius[0]


def test_neumann_resolvent_at_two_matches_dense_solve():
    # R(2, T) f = sum_k T^k f / 2^(k+1) through the forward map, against a
    # dense solve on the same deep raw section
    rng = np.random.default_rng(41)
    for orders in ((1,), (2, 3)):
        spec = GroupUnionSpec(orders)
        dense = _dense_section(spec, 45)
        f = np.zeros(dense.shape[0], dtype=complex)
        f[0] = 0.7
        f[1 + spec.d:1 + 3 * spec.d] = (rng.normal(size=2 * spec.d)
                                        + 1j * rng.normal(size=2 * spec.d))
        acc = np.zeros_like(f)
        term = f
        for k in range(60):
            acc += 0.5 ** (k + 1) * term
            term = apply_operator(spec, term)
        x = np.linalg.solve(2.0 * np.eye(dense.shape[0]) - dense, f)
        assert np.abs(acc - x).sum() <= 1e-12 * np.abs(f).sum()


# ---------------------------------------------------------------------------
# pointwise certification through the scanner's kernel
# ---------------------------------------------------------------------------

def test_certify_point_verdicts():
    spec1 = GroupUnionSpec((1,))
    spec2 = GroupUnionSpec((2,))

    k1 = _circle_kernel(spec1, [-1.0, 1j, 1.0], 40)
    assert [VERDICTS[c] for c in k1.verdict] == [CERTIFIED, CERTIFIED,
                                                 TAIL_INVALID]

    # with the second group the point -1 is peripheral spectrum: the
    # denominator still excludes zero there, so the gap check must veto
    k2 = _circle_kernel(spec2, [-1.0, 0.5j, 0.0], 40)
    assert [VERDICTS[c] for c in k2.verdict] == [SINGULAR, CERTIFIED,
                                                 SINGULAR]
    assert k2.valid[0] and k2.den_lower[0] > 0.0
    assert k2.gap[0] == 0.0
    # lam = 0 is head spectrum: no gap and no denominator disk
    assert k2.gap[2] == 0.0 and k2.den_lower[2] == 0.0


def test_certified_point_denominator_lower_bound():
    spec = GroupUnionSpec((2, 3))
    k = _point(spec, np.exp(0.41j * 2 * np.pi))
    assert VERDICTS[k.verdict[0]] == CERTIFIED
    assert k.den_lower[0] > 0.0
    assert k.den_lower[0] <= abs(k.den[0])

