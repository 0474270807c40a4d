"""Top-level acceptance gate.

One test per headline claim, each printing a single PASS/FAIL line with
the measured quantity next to its tolerance.  Run with ``pytest -s`` to
see the lines on passing runs as well.
"""

import time
from fractions import Fraction

import numpy as np

from oracles import (build_finite_section, factorization_crosscheck,
                     strongly_connected)
from spectral_forge.finite import FiniteSection, finite_spectrum
from spectral_forge.io import dump_json
from spectral_forge.model import DEFAULT_DEPTH, GroupUnionSpec, union_values
from spectral_forge.resolvent import CERTIFIED, VERDICTS, \
    coupling_series_batch
from spectral_forge.scanner import _circle_kernel, scan_unit_circle
from spectral_forge.semigroup import (TWO_PI, SemigroupState, evolve,
                                      mode_certificate, scan_imaginary_axis)
from spectral_forge.verify import run_suite, run_suites


def _report(name: str, ok: bool, detail: str):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_1_unit_circle_scan_certifies_everything_off_the_targets():
    spec = GroupUnionSpec((2, 3))
    t0 = time.perf_counter()
    rep = scan_unit_circle(spec, 3600, 0.05, 40, cert_block=30)
    rim = np.concatenate([c.codes[~c.excluded] for c in rep.chunks])
    elapsed = time.perf_counter() - t0

    rim_ok = not rim.any()                  # code 0 is CertifiedResolvent
    # closed form 2 q_30 for the push-forward residual, plus one rounding
    # of (1 - q) z - z in the forward application
    limit = 2.0 * 2.0 ** -30 / 5 + 1e-14
    worst = max(c.residual for c in rep.certificates)
    cert_ok = len(rep.certificates) == 4 and worst <= limit and worst < 1e-8
    _report("1 circle scan", rim_ok and cert_ok and elapsed < 5.0,
            f"{len(rim)} rim points certified, 4 target residuals "
            f"<= {worst:.3e} (limit 7.5e-10), {elapsed:.2f}s < 5s")


def test_2_coupling_series_stays_strictly_below_one():
    # on the unit circle |<q, R(lam,S) q>| = |1 - den|, so the kernel's
    # denominator disk bounds the series from above
    rng = np.random.default_rng(2026)
    failures = 0
    worst = 0.0
    for orders in ((1,), (2,), (3,), (2, 3), (4, 6)):
        spec = GroupUnionSpec(orders)
        targets = union_values(spec)
        lams = []
        while len(lams) < 100:
            lam = np.exp(2j * np.pi * rng.random())
            if np.min(np.abs(targets - lam)) >= 0.05:
                lams.append(lam)
        k = _circle_kernel(spec, lams, 40)
        upper = np.abs(1.0 - k.den) + k.den_radius
        worst = max(worst, float(upper.max()))
        failures += int(np.count_nonzero(~(upper < 1.0) | ~k.valid))
    _report("2 coupling bound", failures == 0,
            f"500 sampled unit-circle points, certified upper bound "
            f"<= {worst:.4f} < 1, {failures} failures")


def test_3_certified_denominator_holds_the_exact_series():
    # D(lam) = 1 - <q, R(lam,S) q>/lam against its truncated series in
    # 60-digit decimal, at seeded lam on and off the rim, orders (1,),
    # (2,3), (4,6), (5,7) and depths 20, 60; the tail-only radius must fail
    t0 = time.perf_counter()
    res = run_suite("denominator", seed=0)
    elapsed = time.perf_counter() - t0
    bad = run_suite("denominator", seed=0, corrupt=True)
    worst = res.detail["worst_error_over_radius"]
    _report("3 certified denominator",
            res.passed and bad.failures == bad.checks and elapsed < 1.0,
            f"{res.checks} points inside the disk, worst |den - D_K| = "
            f"{worst:.3f} radius; tail-only radius misses "
            f"{bad.failures}/{bad.checks}, {elapsed:.3f}s < 1s")


def test_5_finite_sections_reproduce_the_peripheral_targets():
    t0 = time.perf_counter()
    spec = GroupUnionSpec((2, 3))
    result = finite_spectrum(FiniteSection.of(spec, 12))
    vals = result.values
    col = result.section.column_sums()
    q12 = FiniteSection.of(spec, 12).tilde_q[-1]

    ok_count = len(result) == 61
    ok_resid = result.max_residual() <= 1e-9
    ok_cols = float(np.abs(col - 1.0).max()) <= 1e-12
    # the closed form eigs reports (every weight nonzero), and the dense
    # edge search as its oracle
    ok_conn = result.section.strongly_connected() and \
        strongly_connected(build_finite_section(spec, 12).matrix)
    mods = np.abs(vals)
    peripheral = vals[mods >= 1.0 - 1e-10]
    ok_per = abs(mods.max() - 1.0) <= 1e-10 and \
        np.all(np.abs(peripheral - 1.0) <= 1e-10)
    gaps = [min(abs(vals - u)) for u in union_values(spec)]
    ok_targets = max(gaps) <= 2.0 * q12

    ok_cross = all(
        factorization_crosscheck(GroupUnionSpec(o), n).passed
        for o, n in (((1,), 3), ((2,), 3), ((3,), 3), ((2, 3), 3)))
    elapsed = time.perf_counter() - t0
    _report("5 finite sections",
            ok_count and ok_resid and ok_cols and ok_conn and ok_per
            and ok_targets and ok_cross and elapsed < 30.0,
            f"61 eigenvalues, residual {result.max_residual():.1e} <= 1e-9, "
            f"columns to {np.abs(col - 1.0).max():.1e}, connected, "
            f"peripheral only at 1, target dist {max(gaps):.3e} <= "
            f"{2 * q12:.3e}, cofactor crosscheck x4, {elapsed:.1f}s < 30s")


def test_6_imaginary_axis_scan_and_mode_certificates():
    t0 = time.perf_counter()
    betas = [s * k / 10.0 for k in range(1, 10) for s in (+1, -1)]
    rep = scan_imaginary_axis(betas)
    ok_axis = (rep.codes == VERDICTS.index(CERTIFIED)).all()

    den0, rad0, _ = coupling_series_batch(TWO_PI, [1.0 + 0j], DEFAULT_DEPTH)
    ok_zero = den0[0] == 2.0 ** -40 and not abs(den0[0]) > rad0[0]

    certs = [mode_certificate(Fraction(r)) for r in ("1", "3/2", "2", "7/3")]
    ok_cert = all(c.matches and c.residual == c.expected for c in certs)
    elapsed = time.perf_counter() - t0
    _report("6 axis scan", ok_axis and ok_zero and ok_cert and elapsed < 5.0,
            f"18 axis points certified, denominator at 0 exactly 2^-40, "
            f"4 mode residuals equal 2^-n / (2 pi) bit for bit, "
            f"{elapsed:.2f}s < 5s")


def test_7_evolution_conserves_mass_and_decays_single_modes():
    ft = evolve(SemigroupState(1.0), 50.0)
    drift = abs(ft.mass().real - 1.0)
    ok_mass = drift <= 1e-8
    chain = [ft.head.real] + [ft.coeff(n, 0).real for n in range(1, 41)]
    ok_pos = min(chain) >= -1e-10

    q6 = 2.0 ** -6 / TWO_PI
    z = SemigroupState.single_mode(6, 1, 1.0 / (2.0 * np.pi))
    decay = max(abs(evolve(z, t).norm1() - np.exp(-q6 * t))
                for t in (0.5, 5.0, 50.0))
    ok_decay = decay <= 1e-10
    _report("7 evolution", ok_mass and ok_pos and ok_decay,
            f"mass drift {drift:.2e} <= 1e-8 at t=50, chain >= "
            f"{min(chain):.1e} > -1e-10, mode decay error {decay:.1e} "
            f"<= 1e-10")


def test_8_verification_reports_are_deterministic():
    a = dump_json(run_suites(seed=11))
    b = dump_json(run_suites(seed=11))
    _report("8 determinism", a == b,
            f"two full verify runs serialize to identical JSON "
            f"({len(a)} bytes)")
