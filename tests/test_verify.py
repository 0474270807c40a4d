"""Seeded property suites."""

import numpy as np
import pytest

from spectral_forge import verify
from spectral_forge.errors import NoSamples
from spectral_forge.verify import suite_circles


class _FixedDraws:
    """Stands in for the suite's generator: hands out the given draws."""

    def __init__(self, *draws):
        self._draws = [np.asarray(d, dtype=float) for d in draws]

    def random(self, size):
        return self._draws.pop(0)


def test_suite_circles_passes_and_its_control_fails():
    ok = suite_circles(seed=0)
    assert ok.passed and ok.failures == 0 and ok.checks == 100_000
    assert ok.detail["min_margin"] > 0.0
    bad = suite_circles(seed=0, corrupt=True)
    assert not bad.passed and bad.failures > 0


@pytest.mark.parametrize("p,theta,corrupt,checks,failures", [
    # lam = -1: |lam - 1 + p| = 1.75 > p
    ([0.25], [0.5], False, 1, 0),
    # lam = 1: p < |p| fails there, so the suite drops that sample
    ([0.25, 0.25], [0.0, 0.5], False, 1, 0),
    # p -> 2 - p = 2 puts lam = -1 = 1 - p on the circle: 2 < 0 fails
    ([0.0], [0.5], True, 1, 1),
], ids=["off-one", "at-one", "on-the-circle"])
def test_suite_circles_cases(monkeypatch, p, theta, corrupt, checks,
                             failures):
    monkeypatch.setattr(verify, "substream",
                        lambda seed, label: _FixedDraws(p, theta))
    res = suite_circles(samples=len(p), corrupt=corrupt)
    assert (res.checks, res.failures) == (checks, failures)
    assert res.passed == (failures == 0)


@pytest.mark.parametrize("p,theta", [([], []), ([0.25], [0.0]),
                                     ([0.25, 0.5], [0.0, 0.0])],
                         ids=["no-samples", "one-at-one", "all-at-one"])
def test_suite_circles_without_samples_raises(monkeypatch, p, theta):
    # a suite left with nothing to check must not report a pass
    monkeypatch.setattr(verify, "substream",
                        lambda seed, label: _FixedDraws(p, theta))
    with pytest.raises(NoSamples, match="nothing was checked"):
        suite_circles(samples=len(p))
