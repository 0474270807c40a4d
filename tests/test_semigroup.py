"""Rational speed schedule, flat states, generator, axis scan, evolution."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import cmath

from spectral_forge import semigroup
from spectral_forge.errors import BlockIndexOverflow
from spectral_forge.resolvent import (CERTIFIED, SINGULAR, VERDICTS,
                                      coupling_series_batch)
from spectral_forge.model import DEFAULT_DEPTH
from spectral_forge.semigroup import (TWO_PI, SemigroupState,
                                      apply_generator, base_index,
                                      base_rational, chain_generator,
                                      evolve, expm, index_of,
                                      mode_certificate, omega,
                                      scan_imaginary_axis)


CERTIFIED_CODE = VERDICTS.index(CERTIFIED)
SINGULAR_CODE = VERDICTS.index(SINGULAR)


# ---------------------------------------------------------------------------
# rational schedule
# ---------------------------------------------------------------------------

def test_base_enumeration_prefix():
    expect = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4, 3),
              Fraction(5, 3), Fraction(5, 4), Fraction(7, 4)]
    assert [base_rational(i) for i in range(1, 8)] == expect


def test_base_index_round_trip():
    for i in range(1, 60):
        assert base_index(base_rational(i)) == i
    assert base_index(Fraction(7, 6)) == 12
    with pytest.raises(ValueError):
        base_index(Fraction(5, 2))


def test_omega_diagonal_sweep():
    expect = ["1", "1", "2", "1", "2", "3/2", "1", "2", "3/2", "4/3"]
    assert [str(omega(n)) for n in range(1, 11)] == expect


def test_index_of_inverts_omega():
    assert index_of(Fraction(3, 2)) == 6
    assert index_of(Fraction(7, 6)) == 78
    seen = {}
    for n in range(1, 500):
        r = omega(n)
        seen[r] = seen.get(r, 0) + 1
        assert index_of(r, seen[r]) == n


def _enumeration(max_den):
    """The base list by its definition: denominators 1, 2, ..., then
    numerators ascending, lowest terms only."""
    return [Fraction(p, s) for s in range(1, max_den + 1)
            for p in range(s, 2 * s + 1) if math.gcd(p, s) == 1]


def test_closed_form_schedule_is_the_enumeration():
    base = _enumeration(60)
    positions = list(range(1, len(base) + 1))
    assert [base_rational(i) for i in positions] == base
    assert [base_index(r) for r in base] == positions
    # block n walks the anti-diagonals t = i + m of (base index i,
    # occurrence m), i ascending
    walk = [base[i - 1] for t in range(2, 80) for i in range(1, t)]
    assert [omega(n) for n in range(1, len(walk) + 1)] == walk


def test_index_of_is_fast_for_a_large_denominator():
    # 4999/2500 sits past about 1.9 million rationals of the base list
    t0 = time.perf_counter()
    n = index_of(Fraction(4999, 2500))
    assert time.perf_counter() - t0 < 0.5
    assert omega(n) == Fraction(4999, 2500)


def test_mode_certificate_refuses_a_block_past_int64():
    # the last occurrence of 3/2 whose block an int64 state entry holds,
    # and the next one; then the first occurrence of a speed whose
    # denominator would size a totient table of 10^9 entries, refused on a
    # bound of its base index alone
    cert = mode_certificate(Fraction(3, 2), 4294967294)
    assert cert.block_index == 9223372034707292163 <= semigroup.MAX_BLOCK
    with pytest.raises(BlockIndexOverflow, match="block index "
                       "9223372039002259459, past") as exc:
        mode_certificate(Fraction(3, 2), 4294967295)
    assert exc.value.first_fits
    t0 = time.perf_counter()
    with pytest.raises(BlockIndexOverflow, match="at least") as exc:
        mode_certificate(Fraction(1000000001, 1000000000))
    assert time.perf_counter() - t0 < 0.01
    assert not exc.value.first_fits


def test_totient_sum_floor_is_a_lower_bound():
    sums = np.cumsum(semigroup._totients(3000))
    assert all(semigroup._totient_sum_floor(n) <= sums[n]
               for n in range(3001))


def test_every_speed_recurs():
    # the same rational appears at strictly increasing block indices
    idx = [index_of(Fraction(4, 3), m) for m in range(1, 6)]
    assert idx == sorted(idx)
    assert len(set(idx)) == 5


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_fourier_state_mass_and_norm_single_mode():
    z = SemigroupState.single_mode(3, 2, 1.0 / TWO_PI)
    assert z.mass() == 0j                    # no mode-0 content
    assert z.norm1() == pytest.approx(1.0, abs=1e-15)
    h = SemigroupState(1.0)
    assert h.mass() == 1.0
    assert h.norm1() == 1.0


def _dense_l1(modes):
    """L1 norm of sum c_k e^(i k theta) by dense sampling."""
    theta = np.linspace(0.0, TWO_PI, 200001)
    vals = sum(c * np.exp(1j * k * theta) for k, c in modes.items())
    return float(np.trapezoid(np.abs(vals), theta))


def test_fourier_state_norm_bounds_the_multimode_l1_norm():
    # one mode: exactly 2 pi |c|; several: the triangle inequality bounds
    # the L1 norm from above, and by a margin where the modes cancel
    rng = np.random.default_rng(13)
    modes = {k: complex(rng.normal(), rng.normal()) for k in (-2, 0, 1, 3)}
    f = SemigroupState(0j, [1] * 4, list(modes), list(modes.values()))
    bound = TWO_PI * sum(abs(c) for c in modes.values())
    assert f.norm1() == pytest.approx(bound, rel=1e-15)
    assert f.norm1() >= _dense_l1(modes) * (1.0 + 1e-6)
    c = complex(rng.normal(), rng.normal())
    one = SemigroupState.single_mode(1, 3, c)
    assert one.norm1() == TWO_PI * abs(c)
    assert one.norm1() == pytest.approx(_dense_l1({3: c}), rel=1e-9)
    # repeated (n, k) entries are merged before their modulus is taken
    twice = SemigroupState(0j, [1, 1], [3, 3], [c, -c])
    assert twice.norm1() == 0.0 and twice.coeff(1, 3) == 0.0


# ---------------------------------------------------------------------------
# generator action
# ---------------------------------------------------------------------------

def test_block_generator_multipliers():
    f = SemigroupState(2.0, [1, 6], [1, 1], [1.0, 1.0])
    bf = apply_generator(f)                  # no mode 0: B f off the head
    assert bf.head == -2.0
    q1 = 2.0 ** -1 / TWO_PI
    assert bf.coeff(1, 1) == pytest.approx(1j - q1)
    # block 6 runs at speed 3/2
    q6 = 2.0 ** -6 / TWO_PI
    assert bf.coeff(6, 1) == pytest.approx(1.5j - q6)


def test_apply_generator_couples_head_and_masses():
    f = SemigroupState(1.0, [2], [0], [0.25])
    af = apply_generator(f)
    q2 = 2.0 ** -2 / TWO_PI
    # head receives <q, f> and loses itself
    assert af.head == pytest.approx(-1.0 + TWO_PI * q2 * 0.25)
    # block 2 mode 0: decay of its own mass plus the head feed
    assert af.coeff(2, 0) == pytest.approx(-q2 * 0.25 + q2 * 1.0)
    # a deep block receives the head feed only
    assert af.coeff(DEFAULT_DEPTH, 0) == pytest.approx(
        2.0 ** -DEFAULT_DEPTH / TWO_PI)


def test_mass_derivative_telescopes():
    # d/dt mass = -head * 2^-depth exactly (the truncated coupling)
    f = SemigroupState(1.0, [5], [0], [0.125])
    af = apply_generator(f)
    assert abs(af.mass() + 2.0 ** -DEFAULT_DEPTH) < 1e-18


# ---------------------------------------------------------------------------
# certified series and denominator
# ---------------------------------------------------------------------------

def _axis_denominator(beta, depth=DEFAULT_DEPTH):
    """D at i*beta and its radius, from the shared series as a batch of
    one at lam = 1 + i*beta."""
    den, radius, _ = coupling_series_batch(TWO_PI, [1.0 + 1j * beta],
                                           depth)
    return den[0], radius[0]


def test_generator_series_brute_force():
    for beta in (0.0, 0.25, -0.7):
        den, radius = _axis_denominator(beta)
        h = sum(TWO_PI * (2.0 ** -n / TWO_PI) ** 2
                / (1j * beta + 2.0 ** -n / TWO_PI) for n in range(1, 200))
        assert abs(den - (1.0 - h / (1j * beta + 1.0))) <= radius
        assert radius >= 2.0 ** -40 / abs(1j * beta + 1.0)


def test_generator_denominator_at_zero_is_the_tail():
    den, radius = _axis_denominator(0.0)
    # telescoping: sum_{n<=N} 2 pi q_n^2 / q_n = 1 - 2^-N, exactly in floats
    assert den == 2.0 ** -40
    assert not abs(den) > radius             # the disk touches the origin


_EDGE_BETAS = [0.0, -0.0, 1.0, -1.0, 1e-7, -1e-7, 0.999999, -0.999999]


def test_scalar_queries_are_batches_of_one():
    betas = np.array(_EDGE_BETAS + [0.3, -2.5])
    den, radius, _ = coupling_series_batch(TWO_PI, 1.0 + 1j * betas, 40)
    rep = scan_imaginary_axis(betas)
    for i, beta in enumerate(betas.tolist()):
        assert _axis_denominator(beta) == (den[i], radius[i])
        one = scan_imaginary_axis([beta])
        assert one.codes[0] == rep.codes[i]
        assert one.expected[0] == rep.expected[i]
        assert one.denominator_abs_lower[0] == rep.denominator_abs_lower[i]


def test_scan_axis_uses_the_scalar_verdict_rule():
    betas = _EDGE_BETAS + [0.05 * k for k in range(-25, 26)]
    rep = scan_imaginary_axis(betas)
    for beta, got, want, low in zip(rep.betas.tolist(), rep.codes,
                                    rep.expected, rep.denominator_abs_lower):
        den, radius = _axis_denominator(beta)
        gap = min(abs(beta), 1.0 - abs(beta))
        certified = gap > 1e-9 and np.abs(den) > radius
        assert got == (CERTIFIED_CODE if certified else SINGULAR_CODE)
        # the expectation is the gap alone: certified strictly inside it
        assert want == (CERTIFIED_CODE if gap > 1e-9 else SINGULAR_CODE)
        assert low == (np.abs(den) - radius if certified else 0.0)
    assert scan_imaginary_axis([0.0, 0.5]).counts() == \
        {CERTIFIED: 1, SINGULAR: 1}
    assert scan_imaginary_axis([0.5]).counts() == {CERTIFIED: 1}
    assert scan_imaginary_axis([]).counts() == {}
    with pytest.raises(ValueError):
        scan_imaginary_axis([0.5, float("nan")])


def test_generator_denominator_depth_monotone():
    # a deeper certified disk is contained in the shallower one
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9, -0.2, -0.8):
        d40, r40 = _axis_denominator(beta, 40)
        d50, r50 = _axis_denominator(beta, 50)
        assert abs(d50 - d40) + r50 <= r40 * 1.001
        assert abs(d40) > r40


# ---------------------------------------------------------------------------
# axis scan and certificates
# ---------------------------------------------------------------------------

def test_scan_axis_verdicts():
    betas = [0.0, 0.1, -0.1, 0.5, 0.9, -0.9, 1.0, -1.3]
    rep = scan_imaginary_axis(betas)
    certified = rep.codes == CERTIFIED_CODE
    verdicts = dict(zip(rep.betas.tolist(), certified.tolist()))
    assert not verdicts[0.0]
    assert not verdicts[1.0]
    assert not verdicts[-1.3]
    for b in (0.1, -0.1, 0.5, 0.9, -0.9):
        assert verdicts[b]
    assert (rep.denominator_abs_lower[certified] > 0.5).all()


def test_mode_certificates_residual_is_exactly_the_weight():
    for r, k_exp, n_exp in [(Fraction(1), 1, 1), (Fraction(3, 2), 1, 6),
                            (Fraction(2), 1, 3), (Fraction(7, 3), 2, 78)]:
        c = mode_certificate(r)
        assert c.mode == k_exp
        assert c.block_index == n_exp
        assert c.matches and c.resolved
        assert c.residual == c.expected      # bitwise equal, no tolerance
        assert c.identity == f"2^-{n_exp} * 1/(2 pi)"


def test_mode_certificate_later_occurrence_is_deeper():
    c1 = mode_certificate(Fraction(3, 2), occurrence=1)
    c2 = mode_certificate(Fraction(3, 2), occurrence=2)
    assert c2.block_index > c1.block_index
    assert c2.residual < c1.residual
    assert c2.matches


def test_mode_certificate_rejects_small_speeds():
    with pytest.raises(ValueError):
        mode_certificate(Fraction(1, 2))


def test_mode_certificate_states_the_identity_where_the_weight_underflows(
        monkeypatch):
    # 2^-1830 / (2 pi) rounds to 0.0, so no float residual is claimed
    # there: the identity is stated through n alone, and it holds only
    # while its premise omega_n k = r does
    c = mode_certificate(Fraction(15, 7))
    assert (c.block_index, c.mode, c.resolved) == (1830, 2, False)
    assert (c.expected, c.residual, c.tolerance, c.margin) == (None,) * 4
    assert c.log2_residual == pytest.approx(-1830 - math.log2(2 * math.pi),
                                            rel=0.0, abs=1e-12)
    assert c.matches
    # negative control: a speed one slot off in the schedule
    index = semigroup.index_of
    monkeypatch.setattr(semigroup, "index_of", lambda *a: index(*a) + 1)
    off = mode_certificate(Fraction(15, 7))
    assert (off.block_index, off.resolved) == (1831, False)
    assert not off.matches


def test_mode_certificate_gate_rejects_a_zero_residual(monkeypatch):
    # negative control: a generator map that returns the zero state makes
    # the residual 0, which must not match q_78 = 5.3e-25
    monkeypatch.setattr(semigroup, "apply_generator",
                        lambda z, lam: SemigroupState())
    c = mode_certificate(Fraction(7, 3))
    assert (c.block_index, c.residual) == (78, 0.0)
    assert not c.matches


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_chain_generator_columns_balance():
    n = 12
    m = chain_generator(n)
    # weighted column sums vanish up to the truncated tail: the mass
    # functional pairs head with 1 and block n with 2 pi
    weights = np.ones(n + 1)
    weights[1:] = TWO_PI
    bal = weights @ m
    assert abs(bal[0] + 2.0 ** -n) < 1e-15   # head column leaks the tail
    assert np.abs(bal[1:]).max() < 1e-15


def test_evolve_identity_at_zero():
    f0 = SemigroupState(0.3, [2, 6], [0, 1], [0.1, 0.2j])
    f = evolve(f0, 0.0)
    assert abs(f.head - 0.3) < 1e-15
    assert abs(f.coeff(2, 0) - 0.1) < 1e-15
    assert abs(f.coeff(6, 1) - 0.2j) < 1e-15


def test_evolve_semigroup_property():
    f0 = SemigroupState(1.0)
    a = evolve(evolve(f0, 1.7), 2.3)
    b = evolve(f0, 4.0)
    assert abs(a.head - b.head) < 1e-12
    for n in (1, 5, 17, 40):
        assert abs(a.coeff(n, 0) - b.coeff(n, 0)) < 1e-12


def test_evolve_conserves_mass_and_positivity():
    f0 = SemigroupState(1.0)
    for t in (1.0, 10.0, 50.0):
        ft = evolve(f0, t)
        assert abs(ft.mass().real - 1.0) < 1e-8
        assert ft.head.real > 0.0
        for n in range(1, DEFAULT_DEPTH + 1):
            assert ft.coeff(n, 0).real >= -1e-10


def test_evolve_single_mode_decay():
    z = SemigroupState.single_mode(6, 1, 1.0 / TWO_PI)
    q6 = 2.0 ** -6 / TWO_PI
    for t in (0.5, 3.0, 25.0):
        zt = evolve(z, t)
        assert abs(zt.norm1() - math.exp(-q6 * t)) < 1e-10
        # the phase advances at speed omega * k = 3/2
        expect = (1.0 / TWO_PI) * np.exp((1.5j - q6) * t)
        assert abs(zt.coeff(6, 1) - expect) < 1e-12


def test_evolve_deep_blocks_decay_decoupled():
    f0 = SemigroupState(0j, [45], [0], [1.0])   # beyond the chain depth
    ft = evolve(f0, 2.0)
    q45 = 2.0 ** -45 / TWO_PI
    assert abs(ft.coeff(45, 0) - math.exp(-2.0 * q45)) < 1e-14


def test_evolve_approximates_generator():
    f0 = SemigroupState(1.0, [3, 6], [0, 1], [0.2, 0.1])
    af = apply_generator(f0)
    errs = []
    for h in (1e-2, 1e-3, 1e-4):
        fh = evolve(f0, h)
        errs.append(_combination((1.0 / h, fh), (-1.0 / h, f0),
                                 (-1.0, af)).norm1())
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(errs), 1)[0]
    assert slope >= 0.9


def _combination(*terms):
    """sum s * f over the (s, f) terms, as one state that repeats the
    (n, k) pairs the terms share"""
    return SemigroupState(sum(s * f.head for s, f in terms),
                          np.concatenate([f.n for _, f in terms]),
                          np.concatenate([f.k for _, f in terms]),
                          np.concatenate([s * f.c for s, f in terms]))


def _per_time_evolve(f0, t, depth=DEFAULT_DEPTH):
    """The one-exponential-per-time orbit that the stepped one replaced,
    with the same exponential and a Python exponential per entry."""
    entries = {}
    v0 = np.zeros(depth + 1, dtype=complex)
    v0[0] = f0.head
    for n, k, c in zip(f0.n.tolist(), f0.k.tolist(), f0.c.tolist()):
        if k == 0 and n <= depth:
            v0[n] += c
            continue
        q = 2.0 ** -n / TWO_PI
        rate = (1j * float(omega(n) * k) - q) if k != 0 else -q
        entries[n, k] = c * cmath.exp(rate * t)
    vt = expm(t * chain_generator(depth)) @ v0
    for n in range(1, depth + 1):
        entries[n, 0] = entries.get((n, 0), 0j) + vt[n]
    return SemigroupState(vt[0], [n for n, _ in entries],
                          [k for _, k in entries], list(entries.values()))


_STATES = [SemigroupState(1.0),
           SemigroupState(0.3, [2, 6, 45], [0, 1, 0], [0.1, 0.2j, 0.05]),
           SemigroupState.single_mode(6, 1, 1.0 / TWO_PI)]


def _bits(state):
    """head and the nonzero coefficients by (n, k), for a state whose
    (n, k) pairs do not repeat"""
    return (complex(state.head),
            {(n, k): complex(c) for n, k, c in zip(
                state.n.tolist(), state.k.tolist(), state.c.tolist())
             if c != 0})


@pytest.mark.parametrize("f0", _STATES, ids=["head", "mixed", "mode"])
def test_scalar_evolve_is_the_per_time_orbit(f0):
    for t in (0.0, 0.25, 3.7, 50.0):
        assert _bits(evolve(f0, t)) == _bits(_per_time_evolve(f0, t))


@pytest.mark.parametrize("f0", _STATES, ids=["head", "mixed", "mode"])
def test_batched_evolve_starts_as_the_scalar_calls(f0):
    times = np.linspace(0.0, 10.0, 51)
    orbit = evolve(f0, times)
    for i in (0, 1):
        one = evolve(f0, float(times[i]))
        assert orbit.head[i] == one.head
        assert np.signbit(orbit.head[i].real) == np.signbit(one.head.real)
        for n, k, col in zip(orbit.n, orbit.k, orbit.c.T):
            assert col[i] == one.coeff(n, k)
    # the t = 0 row is the initial state itself
    assert orbit.head[0] == f0.head
    for n in range(1, DEFAULT_DEPTH + 1):
        assert orbit.coeff(n, 0)[0] == f0.coeff(n, 0)


def test_batched_evolve_stays_close_and_nonnegative():
    f0 = SemigroupState(1.0)
    times = np.linspace(0.0, 500.0, 2001)
    orbit = evolve(f0, times)
    blocks = range(1, DEFAULT_DEPTH + 1)
    chain = np.column_stack([orbit.head] + [orbit.coeff(n, 0)
                                            for n in blocks])
    assert np.all(chain.imag == 0.0)
    assert np.all(chain.real >= 0.0)
    for i in (2, 7, 100, 1000, 2000):
        ref = _per_time_evolve(f0, float(times[i]))
        ref_chain = [ref.head] + [ref.coeff(n, 0) for n in blocks]
        assert np.abs(chain[i] - ref_chain).max() <= 1e-13
    assert np.abs(orbit.mass().real - 1.0).max() <= 1e-8


def test_batched_evolve_needs_one_exponential_per_increment(monkeypatch):
    calls = []
    monkeypatch.setattr(semigroup, "expm",
                        lambda a: calls.append(a) or expm(a))
    evolve(SemigroupState(1.0), np.linspace(0.0, 500.0, 2001))
    assert len(calls) == 2                   # increments 0 and 0.25


def _copied_chain(f0, times, complex_steps=True):
    """The head/mode-0 chain rows as the loop v = step(dt) @ v computes
    them, one product and one copy per sample; with ``complex_steps``
    false, the same loop in real arithmetic."""
    m = chain_generator(DEFAULT_DEPTH)
    v = np.zeros(DEFAULT_DEPTH + 1, dtype=complex)
    v[0] = f0.head
    for n, c in zip(f0.n[f0.k == 0], f0.c[f0.k == 0]):
        v[n] += c
    if not complex_steps:
        v = v.real.copy()
    rows = np.empty((times.size, v.size), dtype=v.dtype)
    steps = {}
    for i, dt in enumerate(np.diff(times, prepend=0.0).tolist()):
        if dt not in steps:
            e = expm(dt * m)
            steps[dt] = e.astype(complex) if complex_steps else e
        v = rows[i] = steps[dt] @ v
    return rows


def _chain_rows(orbit):
    return np.column_stack([orbit.head, orbit.c[:, :DEFAULT_DEPTH]])


_GRID = np.linspace(0.0, 500.0, 2001)


@pytest.mark.parametrize("f0", [
    SemigroupState(1.0), SemigroupState.single_mode(3, 0, 1 / TWO_PI),
    SemigroupState.single_mode(5, -3, 1 / TWO_PI), SemigroupState(-0.0)],
    ids=["head", "mode-3-0", "mode-5-m3", "head-minus-zero"])
def test_evolve_chain_matches_the_copying_loop_bit_for_bit(f0):
    # stepping in place into the orbit's rows, and not stepping a chain
    # that starts at 0, leave every bit, the sign of a zero included
    got = _chain_rows(evolve(f0, _GRID))
    want = _copied_chain(f0, _GRID)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_the_bitwise_chain_comparison_can_fail():
    # negative control: the real loop rounds otherwise from the second
    # step on; the first is a column of e^{0.25 M}, exact either way
    f0 = SemigroupState(1.0)
    real = _copied_chain(f0, _GRID, complex_steps=False)
    differs = np.flatnonzero((real != _copied_chain(f0, _GRID).real)
                             .any(axis=1))
    assert differs.size > 0 and differs[0] == 2


@pytest.mark.parametrize("f0,exponentials", [
    (SemigroupState(1.0), 2),
    (SemigroupState.single_mode(5, -3, 1 / TWO_PI), 0)],
    ids=["head", "mode-5-m3"])
def test_a_chain_that_starts_at_zero_is_not_stepped(monkeypatch, f0,
                                                    exponentials):
    # the head start needs its two exponentials, dt = 0 and the grid step;
    # a start with no head and no mode-0 entry needs none and is all +0.0
    calls = []
    monkeypatch.setattr(semigroup, "expm",
                        lambda a: calls.append(a) or expm(a))
    chain = _chain_rows(evolve(f0, _GRID)).view(float)
    assert len(calls) == exponentials
    assert chain.any() == (exponentials > 0)
    assert not np.signbit(chain).any()


@pytest.mark.parametrize("t", [[0.0, 2.0, 1.0], [-1.0, 0.0], [0.0, np.nan],
                               [0.0, np.inf], -1.0, np.nan],
                         ids=["descending", "negative", "nan", "inf",
                              "negative-scalar", "nan-scalar"])
def test_evolve_rejects_bad_times(t):
    with pytest.raises(ValueError):
        evolve(SemigroupState(1.0), t)


def test_depth_below_one_is_refused():
    f0 = SemigroupState(1.0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        evolve(f0, 1.0, depth=0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        apply_generator(f0, depth=0)
