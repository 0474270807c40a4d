"""Seeded property suites."""

import sys

import numpy as np
import pytest

from spectral_forge import verify
from spectral_forge.errors import NoSamples
from spectral_forge.model import (GroupUnionSpec, WeightSeq,
                                  stochasticity_check)
from spectral_forge.verify import (SUITE_NAMES, run_suite, suite_denominator,
                                   suite_stochasticity)


def test_suite_names():
    assert SUITE_NAMES == ("denominator", "stochasticity", "connectivity",
                           "factorization")


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

    def stub(w, lams, depth):
        return change(*kernel(w, lams, depth))

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
    # the control's weights 2^-n / (d + 1) leave the head column mass
    # d / (d + 1); the suite reports the defect the check measures on that
    # operator, not a correct defect shifted by a constant
    bad = suite_stochasticity(seed=seed, corrupt=True)
    assert not bad.passed and bad.failures == 3
    for orders in ((1,), (2, 3), (4, 6)):
        spec = GroupUnionSpec(orders)
        broken = stochasticity_check(
            spec, WeightSeq.dyadic_single(spec.d + 1), trials=40, seed=seed)
        case = bad.detail["cases"][",".join(map(str, orders))]
        assert case["max_norm_defect"] == broken.max_norm_defect > 1e-12


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
