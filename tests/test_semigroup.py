"""Rational speed schedule, Fourier states, generator, axis scan, evolution."""

import math
from fractions import Fraction

import numpy as np
import pytest

import cmath

from scipy.linalg import expm

from spectral_forge import semigroup
from spectral_forge.errors import SingularBlock
from spectral_forge.resolvent import (CERTIFIED, SINGULAR,
                                      coupling_series_batch)
from spectral_forge.semigroup import (TWO_PI, FourierState, GeneratorSpec,
                                      RationalSchedule, apply_block_generator,
                                      apply_generator, chain_generator,
                                      evolve, mode_certificate,
                                      resolvent_block_generator,
                                      scan_imaginary_axis)


@pytest.fixture(scope="module")
def gen():
    return GeneratorSpec.default()


# ---------------------------------------------------------------------------
# rational schedule
# ---------------------------------------------------------------------------

def test_base_enumeration_prefix():
    s = RationalSchedule()
    expect = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3),
              Fraction(5, 3), Fraction(5, 4), Fraction(7, 4)]
    assert [s.base_rational(i) for i in range(1, 8)] == expect


def test_base_index_round_trip():
    s = RationalSchedule()
    for i in range(1, 60):
        assert s.base_index(s.base_rational(i)) == i
    assert s.base_index(Fraction(7, 6)) == 12
    with pytest.raises(ValueError):
        s.base_index(Fraction(5, 2))


def test_omega_diagonal_sweep():
    s = RationalSchedule()
    expect = ["1", "1", "2", "1", "2", "3/2", "1", "2", "3/2", "4/3"]
    assert [str(s.omega(n)) for n in range(1, 11)] == expect


def test_index_of_inverts_omega():
    s = RationalSchedule()
    assert s.index_of(Fraction(3, 2)) == 6
    assert s.index_of(Fraction(7, 6)) == 78
    seen = {}
    for n in range(1, 500):
        r = s.omega(n)
        seen[r] = seen.get(r, 0) + 1
        assert s.index_of(r, seen[r]) == n


def test_every_speed_recurs(gen):
    s = RationalSchedule()
    # the same rational appears at strictly increasing block indices
    idx = [s.index_of(Fraction(4, 3), m) for m in range(1, 6)]
    assert idx == sorted(idx)
    assert len(set(idx)) == 5


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_fourier_state_mass_and_norm_single_mode():
    z = FourierState.single_mode(3, 2, 1.0 / TWO_PI)
    assert z.mass() == 0j                    # no mode-0 content
    assert z.norm1() == pytest.approx(1.0, abs=1e-15)
    h = FourierState.head_unit()
    assert h.mass() == 1.0
    assert h.norm1() == 1.0


def test_fourier_state_norm_multimode_quadrature():
    # oracle: dense sampling of |sum c_k e^(i k theta)| on a fine grid
    rng = np.random.default_rng(13)
    modes = {k: complex(rng.normal(), rng.normal()) for k in (-2, 0, 1, 3)}
    f = FourierState(0j, {1: modes})
    theta = np.linspace(0.0, TWO_PI, 200001)
    vals = sum(c * np.exp(1j * k * theta) for k, c in modes.items())
    ref = float(np.trapezoid(np.abs(vals), theta))
    assert f.norm1() == pytest.approx(ref, rel=1e-6)


def test_fourier_state_algebra():
    a = FourierState(1.0, {2: {1: 0.5j}})
    b = FourierState(-0.5, {2: {1: 0.25}, 3: {0: 1.0}})
    s = a + 2.0 * b
    assert s.head == 0.0
    assert s.coeff(2, 1) == 0.5j + 0.5
    assert s.coeff(3, 0) == 2.0
    d = s - s
    assert d.norm1() == 0.0


# ---------------------------------------------------------------------------
# generator action
# ---------------------------------------------------------------------------

def test_block_generator_multipliers(gen):
    f = FourierState(2.0, {1: {1: 1.0}, 6: {1: 1.0}})
    bf = apply_block_generator(gen, f)
    assert bf.head == -2.0
    q1 = gen.weights.value(1)
    assert bf.coeff(1, 1) == pytest.approx(1j - q1)
    # block 6 runs at speed 3/2
    q6 = gen.weights.value(6)
    assert bf.coeff(6, 1) == pytest.approx(1.5j - q6)


def test_apply_generator_couples_head_and_masses(gen):
    f = FourierState(1.0, {2: {0: 0.25}})
    af = apply_generator(gen, f)
    q2 = gen.weights.value(2)
    # head receives <q, f> and loses itself
    assert af.head == pytest.approx(-1.0 + TWO_PI * q2 * 0.25)
    # block 2 mode 0: decay of its own mass plus the head feed
    assert af.coeff(2, 0) == pytest.approx(-q2 * 0.25 + q2 * 1.0)
    # a deep block receives the head feed only
    assert af.coeff(gen.depth, 0) == pytest.approx(
        gen.weights.value(gen.depth))


def test_mass_derivative_telescopes(gen):
    # d/dt mass = -head * 2^-depth exactly (the truncated coupling)
    f = FourierState(1.0, {5: {0: 0.125}})
    af = apply_generator(gen, f)
    assert abs(af.mass() + 2.0 ** -gen.depth) < 1e-18


def test_resolvent_block_generator_inverts(gen):
    f = FourierState(1.0, {1: {1: 1.0}, 6: {-2: 0.5j}})
    beta = 0.3
    g = resolvent_block_generator(gen, beta, f)
    back = (1j * beta) * g - apply_block_generator(gen, g)
    assert abs(back.head - f.head) < 1e-14
    assert abs(back.coeff(1, 1) - 1.0) < 1e-14
    assert abs(back.coeff(6, -2) - 0.5j) < 1e-14


def test_resolvent_block_generator_guards_modes(gen):
    # at a deep block the weight drops below the guard, so hitting the
    # rotation frequency exactly leaves a denominator of modulus q_n
    n = 44
    beta = gen.omega_float(n, 1)
    q = gen.weights.value(n)
    assert q < 1e-14
    z = FourierState.single_mode(n, 1, 1.0)
    with pytest.raises(SingularBlock):
        resolvent_block_generator(gen, beta, z)


# ---------------------------------------------------------------------------
# certified series and denominator
# ---------------------------------------------------------------------------

def _axis_denominator(g, beta, depth=40):
    """D at i*beta and its radius, from the shared series as a batch of
    one at lam = 1 + i*beta."""
    den, radius, _ = coupling_series_batch(g.weights, [1.0 + 1j * beta],
                                           depth)
    return den[0], radius[0]


def test_generator_series_brute_force():
    gen = GeneratorSpec.default()
    for beta in (0.0, 0.25, -0.7):
        den, radius = _axis_denominator(gen, beta)
        h = sum(TWO_PI * gen.weights.value(n) ** 2
                / (1j * beta + gen.weights.value(n)) for n in range(1, 200))
        assert abs(den - (1.0 - h / (1j * beta + 1.0))) <= radius
        assert radius >= 2.0 ** -40 / abs(1j * beta + 1.0)


def test_generator_denominator_at_zero_is_the_tail(gen):
    den, radius = _axis_denominator(gen, 0.0)
    # telescoping: sum_{n<=N} 2 pi q_n^2 / q_n = 1 - 2^-N, exactly in floats
    assert den == 2.0 ** -40
    assert not abs(den) > radius             # the disk touches the origin


_EDGE_BETAS = [0.0, -0.0, 1.0, -1.0, 1e-7, -1e-7, 0.999999, -0.999999]


def test_scalar_queries_are_batches_of_one(gen):
    betas = np.array(_EDGE_BETAS + [0.3, -2.5])
    den, radius, _ = coupling_series_batch(gen.weights, 1.0 + 1j * betas, 40)
    rep = scan_imaginary_axis(gen, betas)
    for i, beta in enumerate(betas.tolist()):
        assert _axis_denominator(gen, beta) == (den[i], radius[i])
        one = scan_imaginary_axis(gen, [beta])
        assert one.certified[0] == rep.certified[i]
        assert one.denominator_abs_lower[0] == rep.denominator_abs_lower[i]


def test_scan_axis_uses_the_scalar_verdict_rule(gen):
    betas = _EDGE_BETAS + [0.05 * k for k in range(-25, 26)]
    rep = scan_imaginary_axis(gen, betas)
    for beta, got, low in zip(rep.betas.tolist(), rep.certified,
                              rep.denominator_abs_lower):
        den, radius = _axis_denominator(gen, beta)
        gap = min(abs(beta), 1.0 - abs(beta))
        certified = gap > 1e-9 and np.abs(den) > radius
        assert got == certified
        assert low == (np.abs(den) - radius if certified else 0.0)
    # counts are keyed in order of first appearance, as the JSON shows them
    assert list(rep.counts()) == [SINGULAR, CERTIFIED]
    assert list(scan_imaginary_axis(gen, [0.5, 0.0]).counts()) == \
        [CERTIFIED, SINGULAR]
    assert scan_imaginary_axis(gen, [0.5]).counts() == {CERTIFIED: 1}
    assert scan_imaginary_axis(gen, []).counts() == {}
    with pytest.raises(ValueError):
        scan_imaginary_axis(gen, [0.5, float("nan")])


def test_generator_denominator_depth_monotone(gen):
    # a deeper certified disk is contained in the shallower one
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9, -0.2, -0.8):
        d40, r40 = _axis_denominator(gen, beta, 40)
        d50, r50 = _axis_denominator(gen, beta, 50)
        assert abs(d50 - d40) + r50 <= r40 * 1.001
        assert abs(d40) > r40


# ---------------------------------------------------------------------------
# axis scan and certificates
# ---------------------------------------------------------------------------

def test_scan_axis_verdicts(gen):
    betas = [0.0, 0.1, -0.1, 0.5, 0.9, -0.9, 1.0, -1.3]
    rep = scan_imaginary_axis(gen, betas)
    verdicts = dict(zip(rep.betas.tolist(), rep.certified.tolist()))
    assert not verdicts[0.0]
    assert not verdicts[1.0]
    assert not verdicts[-1.3]
    for b in (0.1, -0.1, 0.5, 0.9, -0.9):
        assert verdicts[b]
    assert (rep.denominator_abs_lower[rep.certified] > 0.5).all()


def test_mode_certificates_residual_is_exactly_the_weight(gen):
    for r, k_exp, n_exp in [(Fraction(1), 1, 1), (Fraction(3, 2), 1, 6),
                            (Fraction(2), 1, 3), (Fraction(7, 3), 2, 78)]:
        c = mode_certificate(gen, r)
        assert c.k == k_exp
        assert c.block_index == n_exp
        assert c.matches
        assert c.residual == c.q_n           # bitwise equal, no tolerance


def test_mode_certificate_later_occurrence_is_deeper(gen):
    c1 = mode_certificate(gen, Fraction(3, 2), occurrence=1)
    c2 = mode_certificate(gen, Fraction(3, 2), occurrence=2)
    assert c2.block_index > c1.block_index
    assert c2.residual < c1.residual
    assert c2.matches


def test_mode_certificate_rejects_small_speeds(gen):
    with pytest.raises(ValueError):
        mode_certificate(gen, Fraction(1, 2))


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_chain_generator_columns_balance(gen):
    n = 12
    m = chain_generator(gen, n)
    # weighted column sums vanish up to the truncated tail: the mass
    # functional pairs head with 1 and block n with 2 pi
    weights = np.ones(n + 1)
    weights[1:] = TWO_PI
    bal = weights @ m
    assert abs(bal[0] + 2.0 ** -n) < 1e-15   # head column leaks the tail
    assert np.abs(bal[1:]).max() < 1e-15


def test_evolve_identity_at_zero(gen):
    f0 = FourierState(0.3, {2: {0: 0.1}, 6: {1: 0.2j}})
    f = evolve(gen, f0, 0.0)
    assert abs(f.head - 0.3) < 1e-15
    assert abs(f.coeff(2, 0) - 0.1) < 1e-15
    assert abs(f.coeff(6, 1) - 0.2j) < 1e-15


def test_evolve_semigroup_property(gen):
    f0 = FourierState.head_unit()
    a = evolve(gen, evolve(gen, f0, 1.7), 2.3)
    b = evolve(gen, f0, 4.0)
    assert abs(a.head - b.head) < 1e-12
    for n in (1, 5, 17, 40):
        assert abs(a.coeff(n, 0) - b.coeff(n, 0)) < 1e-12


def test_evolve_conserves_mass_and_positivity(gen):
    f0 = FourierState.head_unit()
    for t in (1.0, 10.0, 50.0):
        ft = evolve(gen, f0, t)
        assert abs(ft.mass().real - 1.0) < 1e-8
        assert ft.head.real > 0.0
        for n in range(1, gen.depth + 1):
            assert ft.coeff(n, 0).real >= -1e-10


def test_evolve_single_mode_decay(gen):
    z = FourierState.single_mode(6, 1, 1.0 / TWO_PI)
    q6 = gen.weights.value(6)
    for t in (0.5, 3.0, 25.0):
        zt = evolve(gen, z, t)
        assert abs(zt.norm1() - math.exp(-q6 * t)) < 1e-10
        # the phase advances at speed omega * k = 3/2
        expect = (1.0 / TWO_PI) * np.exp((1.5j - q6) * t)
        assert abs(zt.coeff(6, 1) - expect) < 1e-12


def test_evolve_deep_blocks_decay_decoupled(gen):
    f0 = FourierState(0j, {45: {0: 1.0}})    # beyond the chain depth
    ft = evolve(gen, f0, 2.0)
    q45 = gen.weights.value(45)
    assert abs(ft.coeff(45, 0) - math.exp(-2.0 * q45)) < 1e-14


def test_evolve_approximates_generator(gen):
    f0 = FourierState(1.0, {3: {0: 0.2}, 6: {1: 0.1}})
    af = apply_generator(gen, f0)
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        fh = evolve(gen, f0, h)
        errs.append(((1.0 / h) * (fh - f0) - af).norm1())
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert slope >= 0.9


def _per_time_evolve(g, f0, t, n_chain=None):
    """The one-exponential-per-time orbit that the stepped one replaced."""
    n_chain = g.depth if n_chain is None else n_chain
    out = FourierState(0j)
    v0 = np.zeros(n_chain + 1, dtype=complex)
    v0[0] = f0.head
    for n, modes in f0.blocks.items():
        for k, c in modes.items():
            if k == 0 and n <= n_chain:
                v0[n] += c
                continue
            q = g.weights.value(n)
            rate = (1j * g.omega_float(n, k) - q) if k != 0 else -q
            out.set_coeff(n, k, c * cmath.exp(rate * t))
    vt = expm(t * chain_generator(g, n_chain)) @ v0
    out.head += vt[0]
    for n in range(1, n_chain + 1):
        if vt[n] != 0:
            out.set_coeff(n, 0, out.coeff(n, 0) + vt[n])
    return out


_STATES = [FourierState.head_unit(),
           FourierState(0.3, {2: {0: 0.1}, 6: {1: 0.2j}, 45: {0: 0.05}}),
           FourierState.single_mode(6, 1, 1.0 / TWO_PI)]


def _bits(state):
    return (complex(state.head),
            {n: {k: complex(c) for k, c in m.items()}
             for n, m in state.blocks.items()})


@pytest.mark.parametrize("f0", _STATES, ids=["head", "mixed", "mode"])
def test_scalar_evolve_is_the_per_time_orbit(gen, f0):
    for t in (0.0, 0.25, 3.7, 50.0):
        assert _bits(evolve(gen, f0, t)) == _bits(_per_time_evolve(gen, f0, t))


@pytest.mark.parametrize("f0", _STATES, ids=["head", "mixed", "mode"])
def test_batched_evolve_starts_as_the_scalar_calls(gen, f0):
    times = np.linspace(0.0, 10.0, 51)
    orbit = evolve(gen, f0, times)
    for i in (0, 1):
        one = evolve(gen, f0, float(times[i]))
        assert orbit.head[i] == one.head
        assert np.signbit(orbit.head[i].real) == np.signbit(one.head.real)
        for n, modes in orbit.blocks.items():
            for k, col in modes.items():
                assert col[i] == one.coeff(n, k)
    # the t = 0 row is the initial state itself
    assert orbit.head[0] == f0.head
    for n in range(1, gen.depth + 1):
        assert orbit.coeff(n, 0)[0] == f0.coeff(n, 0)


def test_batched_evolve_stays_close_and_nonnegative(gen):
    f0 = FourierState.head_unit()
    times = np.linspace(0.0, 500.0, 2001)
    orbit = evolve(gen, f0, times)
    chain = np.column_stack([orbit.head] + [orbit.coeff(n, 0)
                                            for n in range(1, gen.depth + 1)])
    assert np.all(chain.imag == 0.0)
    assert np.all(chain.real >= 0.0)
    for i in (2, 7, 100, 1000, 2000):
        ref = _per_time_evolve(gen, f0, float(times[i]))
        ref_chain = [ref.head] + [ref.coeff(n, 0)
                                  for n in range(1, gen.depth + 1)]
        assert np.abs(chain[i] - ref_chain).max() <= 1e-13
    assert np.abs(orbit.mass().real - 1.0).max() <= 1e-8


def test_batched_evolve_needs_one_exponential_per_increment(gen,
                                                          monkeypatch):
    calls = []
    monkeypatch.setattr(semigroup, "expm",
                        lambda a: calls.append(a) or expm(a))
    evolve(gen, FourierState.head_unit(), np.linspace(0.0, 500.0, 2001))
    assert len(calls) == 2                   # increments 0 and 0.25


@pytest.mark.parametrize("t", [[0.0, 2.0, 1.0], [-1.0, 0.0], [0.0, np.nan],
                               [0.0, np.inf], -1.0, np.nan],
                         ids=["descending", "negative", "nan", "inf",
                              "negative-scalar", "nan-scalar"])
def test_evolve_rejects_bad_times(gen, t):
    with pytest.raises(ValueError):
        evolve(gen, FourierState.head_unit(), t)
