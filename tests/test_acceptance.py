"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import math
import time

import numpy as np
import pytest

from geodyn.helmholtz import builtin_systems, check
from geodyn.integrators import (
    METHOD_IDS,
    TwoStepState,
    bootstrap_first_point,
    del_two_step_vi1,
    run,
    step,
)
from geodyn.kepler import (
    PhaseState,
    analytic_reference,
    kepler_split,
    noether_residual,
)
from geodyn.modified import (
    linear_dispersion,
    linear_measured_frequency,
    linear_modified_series,
    measured_drift_order,
    per_period_drift,
    shadowing_ratio,
)
from geodyn.relativistic import (
    ExtPhaseState,
    del_relativistic,
    del_relativistic_seed,
    mass_shell_gamma,
    run_relativistic,
)

SPLIT = kepler_split()
SEED_E06 = PhaseState(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
SEED_WIDE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))
# generic off-axis state of the wide orbit: drift orders need a start away
# from the orbit's symmetry axis
SEED_GENERIC = analytic_reference(SEED_WIDE, 3.0)
SEED_CCW = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, -0.45]))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def long_runs():
    """10^5-step trajectories of all four methods (shared by criteria 3/4)."""
    t0 = time.perf_counter()
    recs = {m: run(m, SEED_WIDE, 0.05, 100_000, split=SPLIT) for m in METHOD_IDS}
    return recs, time.perf_counter() - t0


def test_criterion_1_del_equivalence():
    h, steps = 0.05, 1000
    t0 = time.perf_counter()
    rec = run("vi1", SEED_E06, h, steps, split=SPLIT, diagnostics=False)
    xs = [SEED_E06.x, bootstrap_first_point(SEED_E06, "L1st", h, SPLIT)]
    for _ in range(steps - 1):
        xs.append(del_two_step_vi1(TwoStepState(xs[-2], xs[-1], h), SPLIT))
    elapsed = time.perf_counter() - t0
    gap = float(np.max(np.abs(np.array(xs) - rec.xs)))
    report(1, gap < 1e-10 and elapsed < 1.0,
           f"two-step recurrence vs composition gap {gap:.2e} in {elapsed:.2f}s")


def test_criterion_2_relativistic_equivalence():
    h, steps = 0.05, 100
    u0 = np.array([0.0, 0.45])
    s0 = ExtPhaseState(0.0, np.array([-3.0, 0.0]), mass_shell_gamma(u0), u0)
    rec = run_relativistic("k1", s0, h, steps)
    ts = del_relativistic_seed(s0, h)
    qs = [ts.x_prev, ts.x_curr]
    for _ in range(steps - 1):
        qs.append(del_relativistic(TwoStepState(qs[-2], qs[-1], h)))
    qs = np.array(qs)
    gap = max(float(np.max(np.abs(qs[:, 0] - rec.ts))),
              float(np.max(np.abs(qs[:, 1:] - rec.xs))))
    report(2, gap < 1e-10, f"extended two-step vs k1 gap {gap:.2e}")


def test_criterion_3_bounded_energy(long_runs):
    recs, elapsed = long_runs
    max_err, slopes = {}, {}
    for m, rec in recs.items():
        err = rec.H - rec.H[0]
        max_err[m] = float(np.max(np.abs(err)))
        slopes[m] = abs(float(np.polyfit(np.arange(err.size), err, 1)[0]))
    first = min(max_err["sym-euler"], max_err["vi1"])
    second = max(max_err["sv"], max_err["vi2"])
    ok = (all(s < 1e-8 for s in slopes.values())
          and first >= 5.0 * second
          and elapsed < 30.0)
    report(3, ok,
           f"max|dH| {', '.join(f'{m}={e:.1e}' for m, e in max_err.items())}; "
           f"worst slope {max(slopes.values()):.1e}/step; {elapsed:.1f}s")


def test_criterion_4_angular_momentum(long_runs):
    recs, _ = long_runs
    exact = {m: float(np.max(np.abs(recs[m].m - recs[m].m[0])))
             for m in ("sym-euler", "sv")}
    bounded_slopes = {}
    for m in ("vi1", "vi2"):
        err = recs[m].m - recs[m].m[0]
        bounded_slopes[m] = abs(float(np.polyfit(np.arange(err.size), err, 1)[0]))
    ok = (all(v < 1e-12 for v in exact.values())
          and all(s < 1e-8 for s in bounded_slopes.values()))
    report(4, ok,
           f"exact {', '.join(f'{m}={v:.1e}' for m, v in exact.items())}; "
           f"vi slopes {', '.join(f'{m}={v:.1e}' for m, v in bounded_slopes.items())}")


def test_criterion_5_lrl_drift_orders():
    t0 = time.perf_counter()
    windows = {
        ("sym-euler", "ecc"): (2.0, 0.3), ("vi1", "ecc"): (2.0, 0.3),
        ("sv", "ecc"): (4.0, 0.4),
        ("sym-euler", "angle"): (2.0, 0.3), ("vi1", "angle"): (2.0, 0.3),
        ("sv", "angle"): (2.0, 0.3), ("vi2", "angle"): (2.0, 0.3),
    }
    fitted, ok = {}, True
    for (method, metric), (center, tol) in windows.items():
        order = measured_drift_order(method, metric, SEED_GENERIC).fitted_order
        fitted[(method, metric)] = order
        ok = ok and abs(order - center) < tol
    vi2_ecc = measured_drift_order("vi2", "ecc", SEED_GENERIC).fitted_order
    fitted[("vi2", "ecc")] = vi2_ecc
    ok = ok and vi2_ecc >= 3.5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(5, ok,
           "fitted orders "
           + ", ".join(f"{m}/{k}={v:.2f}" for (m, k), v in fitted.items())
           + f"; {elapsed:.1f}s")


def test_criterion_6_helmholtz_verdicts():
    systems = builtin_systems()
    kepler_ok = check(systems["kepler"]).passed
    rel_ok = check(systems["relativistic"]).passed
    damped = check(systems["damped"])
    damped_ok = (not damped.passed) and abs(damped.residual("a") - 2.0) < 1e-6
    report(6, kepler_ok and rel_ok and damped_ok,
           f"kepler {'PASS' if kepler_ok else 'FAIL'}, "
           f"relativistic {'PASS' if rel_ok else 'FAIL'}, "
           f"damped residual(a)={damped.residual('a'):.8f}")


def test_criterion_7_linear_modified_equation():
    lam, h = 1.0, 0.1
    freqs = {
        "series": math.sqrt(linear_modified_series(lam, h, 20)),
        "dispersion": linear_dispersion(lam, h),
        "measured": linear_measured_frequency(lam, h),
    }
    spread = (max(freqs.values()) - min(freqs.values())) / freqs["dispersion"]
    report(7, spread < 1e-6,
           ", ".join(f"{k}={v:.9f}" for k, v in freqs.items())
           + f"; pairwise rel spread {spread:.1e}")


def test_criterion_8_shadowing():
    ratio = shadowing_ratio(SEED_WIDE, 0.05)
    report(8, 3.4 <= ratio <= 4.6, f"h-halving error ratio {ratio:.3f}")


def test_criterion_9_property_suite():
    # symplecticity of every one-step map (finite-difference Jacobian)
    omega = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    worst_sympl = 0.0
    for method in METHOD_IDS:
        z0 = np.concatenate([SEED_E06.x, SEED_E06.v])
        jac = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            sp = step(method, PhaseState((z0 + e)[:2], (z0 + e)[2:]), 0.05, SPLIT)
            sm = step(method, PhaseState((z0 - e)[:2], (z0 - e)[2:]), 0.05, SPLIT)
            jac[:, j] = (np.concatenate([sp.x, sp.v])
                         - np.concatenate([sm.x, sm.v])) / 2e-6
        worst_sympl = max(worst_sympl,
                          float(np.max(np.abs(jac.T @ omega @ jac - omega))))
    sympl_ok = worst_sympl < 1e-5

    # adjoint identities: Phi_{-h}(Phi*_h(s)) = s
    adj_gap = 0.0
    for method in ("sym-euler", "vi1"):
        s = step(method, step(method, SEED_E06, 0.05, SPLIT, adjoint=True), -0.05, SPLIT)
        adj_gap = max(adj_gap, float(np.max(np.abs(s.x - SEED_E06.x))),
                      float(np.max(np.abs(s.v - SEED_E06.v))))
    adjoint_ok = adj_gap <= 1e-12

    # Noether residual decays at least quadratically in the sampling step
    def residual(dt):
        times = np.arange(9) * dt
        states = [analytic_reference(SEED_WIDE, t) for t in times]
        return noether_residual(times, states, "A2")

    noether_ratio = residual(0.02) / residual(0.01)
    noether_ok = noether_ratio > 3.5

    # precession directions on a counter-clockwise orbit
    drifts = {m: per_period_drift(m, "angle", SEED_CCW, 0.05) for m in METHOD_IDS}
    signs_ok = (drifts["sym-euler"] < 0 and drifts["sv"] < 0 and drifts["vi1"] > 0
                and abs(drifts["vi2"]) == min(abs(v) for v in drifts.values()))

    report(9, sympl_ok and adjoint_ok and noether_ok and signs_ok,
           f"symplecticity defect {worst_sympl:.1e}; adjoint gap {adj_gap:.1e}; "
           f"noether ratio {noether_ratio:.2f}; angle drifts "
           + ", ".join(f"{m}={v:.1e}" for m, v in drifts.items()))
