"""Seeded property suites."""

import dataclasses
import sys

import numpy as np
import pytest

from oracles import SMALL_SECTIONS, build_finite_section, cofactor_det_batch
from spectral_forge import verify
from spectral_forge.errors import NoSamples
from spectral_forge.finite import finite_spectrum
from spectral_forge.io import dump_json
from spectral_forge.model import GroupUnionSpec
from spectral_forge.verify import (SUITE_NAMES, run_suite, suite_denominator,
                                   suite_factorization, suite_stochasticity)


def test_suite_names():
    assert SUITE_NAMES == ("denominator", "stochasticity", "factorization")


@pytest.mark.parametrize("seed", range(10))
def test_suite_denominator_passes_and_its_control_fails(seed):
    ok = suite_denominator(seed=seed)
    # 4 order sets x 2 depths x 6 points, less the few the kernel refuses
    assert ok.passed and ok.failures == 0 and 40 <= ok.checks <= 48
    assert ok.checks + ok.detail["invalid_points"] == 48
    # the float evaluation uses a few per cent of its rounding term
    assert 0.0 < ok.detail["worst_error_over_radius"] < 0.1
    # without the rounding term every checked point falls outside the disk
    bad = suite_denominator(seed=seed, corrupt=True)
    assert not bad.passed and bad.failures == bad.checks == ok.checks


def _stub_series(monkeypatch, change):
    """Route the suite's kernel through ``change(den, radius, valid)``."""
    kernel = verify.coupling_series_batch

    def stub(unit, lams, depth):
        return change(*kernel(unit, lams, depth))

    monkeypatch.setattr(verify, "coupling_series_batch", stub)


def test_suite_denominator_catches_a_shifted_centre(monkeypatch):
    # a centre two radii off the exact series lies outside its own disk
    _stub_series(monkeypatch, lambda den, rad, valid:
                 (den + 2.0 * rad, rad, valid))
    res = suite_denominator(seed=0)
    assert not res.passed and res.failures == res.checks > 0
    assert res.detail["worst_error_over_radius"] > 1.9


def test_suite_denominator_without_valid_points_raises(monkeypatch):
    # a suite left with nothing to check must not report a pass
    _stub_series(monkeypatch, lambda den, rad, valid:
                 (den, rad, np.zeros_like(valid)))
    with pytest.raises(NoSamples, match="none of the 48 points valid"):
        suite_denominator(seed=0)


@pytest.mark.parametrize("seed", [0, 3])
def test_suite_stochasticity_control_breaks_the_operator(seed):
    # the control's weights 2^-n / (d + 1) leave the head column's mass
    # d / (d + 1) (1 - 2^-12) + 2^-12; every other column keeps mass 1
    ok = suite_stochasticity(seed=seed)
    assert ok.passed and ok.failures == 0 and ok.checks == 13 + 61 + 121
    # the rounding of a correct column uses a small part of gamma_{Nd+2}
    for case in ok.detail["cases"].values():
        assert case["failed_columns"] == [] and case["negative_entries"] == 0
        assert 0.0 <= case["worst_defect"] <= 0.2 * case["tolerance"]
    bad = suite_stochasticity(seed=seed, corrupt=True)
    assert not bad.passed and bad.failures == 3 and bad.checks == ok.checks
    for label, case in bad.detail["cases"].items():
        d = sum(map(int, label.split(",")))
        assert case["failed_columns"] == [0]
        assert case["negative_entries"] == 0
        assert case["worst_defect"] == pytest.approx(
            (1.0 - 2.0 ** -12) / (d + 1), rel=1e-12)
        assert case["margin"] == case["tolerance"] - case["worst_defect"] < 0


def test_suite_stochasticity_catches_one_negative_entry(monkeypatch):
    # negative control: column 1's head entry q_1 with its sign flipped
    # keeps every column's l1 mass, so only the positivity check sees it
    exact = verify.apply_operator

    def flipped(*args):
        out = exact(*args)
        out[1, 0] = -out[1, 0]
        return out

    monkeypatch.setattr(verify, "apply_operator", flipped)
    bad = suite_stochasticity()
    assert not bad.passed and bad.failures == 3
    for case in bad.detail["cases"].values():
        assert case["failed_columns"] == [1]
        assert case["negative_entries"] == 1 and case["margin"] >= 0.0


def test_suite_stochasticity_draws_nothing_from_the_seed():
    # the columns are the whole check, so the record is the same at every
    # seed, with and without the control
    for corrupt in (False, True):
        a, *rest = (dump_json(dataclasses.asdict(
            suite_stochasticity(seed=s, corrupt=corrupt))) for s in range(10))
        assert all(b == a for b in rest)


# ---------------------------------------------------------------------------
# the matrix-free section suites
# ---------------------------------------------------------------------------

def _disk(rng, count):
    """Seeded lam spread uniformly over the disk of radius 2."""
    return 2.0 * np.sqrt(rng.random(count)) \
        * np.exp(2j * np.pi * rng.random(count))


def _closed_form_gap(op, log_det, lams):
    """|log_det - the closed-form log det(lam - T_N)| at each lam, the
    imaginary part modulo 2 pi, and the factorization suite's tolerance
    for the section's computed spectrum at the same lam."""
    g = log_det - verify._log_char_poly(op, lams)[0]
    gap = np.hypot(g.real, (g.imag + np.pi) % (2 * np.pi) - np.pi)
    values = finite_spectrum(op).values
    return gap, verify._factorization_gaps(op, values, lams)[1]


def _dense_section(orders, n_blocks):
    return build_finite_section(GroupUnionSpec(orders), n_blocks)


@pytest.mark.parametrize("orders,n_blocks", SMALL_SECTIONS)
def test_closed_form_is_the_cofactor_determinant(orders, n_blocks):
    # the factorisation the suite checks against, tied to the matrix: the
    # cofactor expansion of det(lam - T_N) on the assembled section
    op = _dense_section(orders, n_blocks)
    lams = _disk(np.random.default_rng(n_blocks), 32)
    gap, tol = _closed_form_gap(op, np.log(cofactor_det_batch(op.matrix,
                                                              lams)), lams)
    assert (gap <= tol).all(), (gap / tol).max()


@pytest.mark.parametrize("orders,n_blocks", [((1,), 200), ((2, 3), 40),
                                             ((4, 6), 20), ((5, 7), 16)])
def test_closed_form_is_the_dense_log_determinant(orders, n_blocks):
    # dimension 193 to 201: np.linalg.slogdet of lam - T_N, by LU
    op = _dense_section(orders, n_blocks)
    lams = _disk(np.random.default_rng(n_blocks), 16)
    sign, log_abs = np.linalg.slogdet(lams[:, None, None] * np.eye(op.dim)
                                      - op.matrix)
    gap, tol = _closed_form_gap(op, log_abs + 1j * np.angle(sign), lams)
    assert (gap <= tol).all(), (gap / tol).max()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_suite_factorization_passes_and_its_control_fails(seed):
    ok = suite_factorization(seed=seed)
    assert ok.passed and ok.failures == 0 and ok.checks == 4 * 32
    assert ok.detail["cases"]["2,3"]["dim"] >= 501
    for case in ok.detail["cases"].values():
        # the gate is resolved: rounding of a correct spectrum uses a few
        # per cent of the derived tolerance
        assert 0.0 < case["gap"] < 0.1 * case["tolerance"]
        assert case["margin"] == case["tolerance"] - case["gap"]
    # the spectrum of the operator with weights 2^-n / (d + 1) misses the
    # closed form of the true one at every point
    bad = suite_factorization(seed=seed, corrupt=True)
    assert not bad.passed and bad.failures == bad.checks == ok.checks
    assert all(c["margin"] < 0.0 for c in bad.detail["cases"].values())


def test_suite_factorization_catches_a_perturbed_eigenvalue(monkeypatch):
    # negative control: one eigenvalue of each section moved by a relative
    # 1e-9 fails the derived tolerance at every point
    exact = verify.finite_spectrum

    def perturbed(*args, **kwargs):
        result = exact(*args, **kwargs)
        result.values[0] *= 1.0 + 1e-9
        return result

    monkeypatch.setattr(verify, "finite_spectrum", perturbed)
    bad = suite_factorization(seed=0)
    assert not bad.passed and bad.failures == bad.checks


@pytest.mark.parametrize("suite", [suite_factorization])
def test_section_suites_are_seeded(suite):
    # the same seed gives the same report byte for byte; another seed
    # draws another section size for every order set
    def sizes(res):
        return [c["n_blocks"] for c in res.detail["cases"].values()]

    a, b, c = suite(seed=3), suite(seed=3), suite(seed=4)
    assert dump_json(dataclasses.asdict(a)) == \
        dump_json(dataclasses.asdict(b))
    assert all(n != m for n, m in zip(sizes(a), sizes(c)))


def _package_modules_called(fn):
    """The ``spectral_forge`` modules whose Python functions ``fn`` calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return {m for m in seen if m.startswith("spectral_forge.")}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_exercises_the_package(name):
    # a suite that calls only NumPy (or only the report plumbing) checks
    # nothing of this package
    called = _package_modules_called(lambda: run_suite(name))
    assert called - {"spectral_forge.verify", "spectral_forge.io"}, called


def test_the_package_probe_sees_a_numpy_only_check():
    # control: a check of NumPy's own inverse calls nothing of the package
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    assert _package_modules_called(
        lambda: np.allclose(np.linalg.inv(a) @ a, np.eye(2))) == set()


@pytest.mark.parametrize("names", [[], ()], ids=["list", "tuple"])
def test_run_suites_refuses_an_empty_selection(names):
    # a report over no suite would carry all_passed = true
    with pytest.raises(ValueError, match="no suite to run"):
        verify.run_suites(names)
