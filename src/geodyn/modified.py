"""Backward-error analysis tools: modified series, Lagrangians, and LRL drift.

Covers the closed-form modified equation of the linear central-difference
scheme, the truncated modified Lagrangians of the four Kepler integrators,
leading-order per-period drift predictions for the Laplace-Runge-Lenz vector,
and the measured drift orders that confirm them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from math import sqrt

import numpy as np

from geodyn.errors import (
    CircularOrbitError,
    NonFiniteStateError,
    StabilityBoundaryError,
    TrajectoryTooShortError,
)
from geodyn.integrators import TrajectoryRecord, _newton, method, run
from geodyn.kepler import (
    CIRCULAR_TOL,
    OrbitElements,
    PhaseState,
    SplitPotential,
    _analytic_states,
    _period_averages,
    check_step_size,
    kepler_split,
    orbit_elements,
    potential,
)

STABILITY_LIMIT = 4.0
MAX_STEPS_PER_PERIOD = 10**6


# --- Linear central-difference scheme: x_{n+1} - 2 x_n + x_{n-1} = -lambda h^2 x_n ---

def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def linear_modified_series(lam: float, h: float, k_max: int) -> float:
    """Partial sum of the modified frequency-squared series.

    Returns sum_{k=1}^{k_max} 2 ((k-1)!)^2 / (2k)! * h^(2k-2) * lam^k, the
    coefficient of -x in the modified equation of the central-difference
    scheme. Warns when lam*h^2 is at or beyond the convergence radius, and
    raises NonFiniteStateError when a power of h or lam overflows.
    """
    _check_lambda(lam)
    check_step_size(h)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if lam * h * h >= STABILITY_LIMIT:
        warnings.warn("modified series diverges for lambda*h^2 >= 4", stacklevel=2)
    total = 0.0
    for k in range(1, k_max + 1):
        coeff = 2.0 * math.factorial(k - 1) ** 2 / math.factorial(2 * k)
        try:
            total += coeff * h ** (2 * k - 2) * lam**k
        except OverflowError as exc:
            raise NonFiniteStateError(f"modified series term k = {k} overflows "
                                      f"for lambda = {lam!r}, h = {h!r}") from exc
    return total


def linear_dispersion(lam: float, h: float) -> float:
    """Effective frequency Omega of the scheme: Omega = (2/h) arcsin(h sqrt(lam)/2)."""
    _check_lambda(lam)
    check_step_size(h)
    if lam * h * h >= STABILITY_LIMIT:
        raise StabilityBoundaryError(
            f"lambda*h^2 = {lam * h * h:.6g} is at or beyond the stability boundary 4"
        )
    return 2.0 / h * math.asin(0.5 * h * math.sqrt(lam))


def linear_measured_frequency(lam: float, h: float) -> float:
    """Oscillation frequency of 10 000 iterates from interpolated zero crossings."""
    _check_lambda(lam)
    check_step_size(h)
    if lam * h * h >= STABILITY_LIMIT:
        raise StabilityBoundaryError("scheme is unstable for lambda*h^2 >= 4")
    # the central-difference recurrence x+ = 2x - x_prev - h^2 (lam x), on floats
    h2, steps = h**2, 10_000
    xs = [0.0, h]
    x_prev, x = xs
    for _ in range(1, steps):
        x_prev, x = x, 2.0 * x - x_prev - h2 * (lam * x)
        xs.append(x)
    x = np.array(xs)
    n = np.flatnonzero((x[:-1] != 0.0) & ((x[:-1] > 0) != (x[1:] > 0)))
    crossings = h * (n + x[n] / (x[n] - x[n + 1]))
    if len(crossings) < 2:
        raise ValueError(f"too few zero crossings in {steps} steps")
    return float(math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0]))


# --- Modified Lagrangians (truncated at the leading displayed order) ---

def _kepler_grad(x):
    """(x1/r^3, x2/r^3, r) at (2, ...) arrays of planar points."""
    r = np.sqrt(x[0] * x[0] + x[1] * x[1])
    r3 = r**3
    return x[0] / r3, x[1] / r3, r


def modified_lagrangian(method_id: str, s: PhaseState, h: float,
                        split: SplitPotential | None = None) -> float:
    """Truncated modified Lagrangian of the method at state ``s``.

    First-order methods keep the O(h) term, second-order methods the O(h^2)
    term; higher-order tails are dropped. ``split`` defaults to the equal
    Kepler split and must have two coordinate parts for vi1/vi2.
    """
    eps, lbar = perturbation_field(method_id, split)
    return 0.5 * float(s.v @ s.v) - potential(s.x) + eps(h) * float(lbar(s.x, s.v))


def perturbation_field(method_id: str, split: SplitPotential | None = None):
    """(epsilon(h), leading perturbation Lbar) with L_mod = L + epsilon*Lbar.

    The epsilon factor is the size of the leading perturbation: h/2 for the first-order
    methods, h^2/24 for Stormer-Verlet, h^2 for the second-order coordinate
    composition (whose bracket carries its own 1/96 and 1/24 weights). vi1
    and vi2 need a two-part split; a one-part split raises ValueError. Lbar is
    the function ``value(x, v)`` of (2, ...) arrays of positions and velocities.
    """
    method(method_id)      # UnknownMethodError for all but the Kepler methods
    split = split if split is not None else kepler_split()

    if method_id == "sym-euler":
        def value(x, v):
            g1, g2, _ = _kepler_grad(x)
            return -(v[0] * g1 + v[1] * g2)
        return (lambda h: 0.5 * h), value

    if method_id == "sv":
        def value(x, v):
            r = np.sqrt(x[0] * x[0] + x[1] * x[1])
            xv = x[0] * v[0] + x[1] * v[1]
            return 1.0 / r**4 - 2.0 * (v[0] * v[0] + v[1] * v[1]) / r**3 + 6.0 * xv * xv / r**5
        return (lambda h: h * h / 24.0), value

    if len(split) != 2:
        raise ValueError(f"the {method_id} modified Lagrangian needs a two-part split, "
                         f"got {len(split)} part(s)")
    w1, w2 = split.weights

    if method_id == "vi1":
        # The composition implemented here is the adjoint of the one behind
        # the displayed order-h formula, which flips the sign of the h term.
        def value(x, v):
            g1, g2, _ = _kepler_grad(x)
            return -((w1 * g1 + w2 * g1) * v[0] + (w2 * g2 - w1 * g2) * v[1])
        return (lambda h: 0.5 * h), value

    def value(x, v):       # vi2; part i's gradient is w_i grad(phi), its Hessian w_i hess(phi)
        g1, g2, r = _kepler_grad(x)
        r5 = r**5
        h11 = 1.0 / r**3 - 3.0 * x[0] * x[0] / r5
        h12 = -3.0 * x[0] * x[1] / r5
        h22 = 1.0 / r**3 - 3.0 * x[1] * x[1] / r5
        quad = (7.0 * (w1 * g1 + w2 * g1) ** 2 - 5.0 * (w1 * g2) ** 2
                + 2.0 * (w1 * g2) * (w2 * g2) + 7.0 * (w2 * g2) ** 2)
        kin = (-2.0 * (w1 * h11 + w2 * h11) * v[0] ** 2
               + 2.0 * (w1 * h12) * v[0] * v[1]
               + (w1 * h22) * v[1] ** 2
               - 4.0 * (w2 * h12) * v[0] * v[1]
               - 2.0 * (w2 * h22) * v[1] ** 2)
        return quad / 96.0 + kin / 24.0
    return (lambda h: h * h), value


# --- Per-period LRL drift: prediction and measurement ---

@dataclass(frozen=True)
class DriftEstimate:
    """Log-log fit of per-period LRL drift against step size."""
    method_id: str
    metric: str
    hs: tuple[float, ...]
    drifts: tuple[float, ...]
    fitted_order: float
    predicted_order: float


def predicted_drift(method_id: str, elements: OrbitElements, h: float,
                    split: SplitPotential | None = None,
                    nodes: int = 1024) -> tuple[float, float]:
    """Leading-order (delta ecc, delta angle) per period from the drift formulas.

    The orbit is rotated internally so the LRL vector lies along the +x2
    axis, the frame the averaging formulas assume. For sym-euler and sv the
    angle drift is frame-independent. The coordinate splits of vi1 and vi2
    are not rotation-invariant, so their drift is the one of an orbit with
    periapsis on +x2; other orientations drift differently.
    """
    check_step_size(h)
    if elements.e < CIRCULAR_TOL:
        raise CircularOrbitError("LRL drift is undefined for circular orbits")
    eps, lbar = perturbation_field(method_id, split)
    # periapsis on +x2: LRL along +x2, counter-clockwise motion
    rp = elements.a * (1.0 - elements.e)
    vp = math.sqrt((1.0 + elements.e) / rp)
    s0 = PhaseState(np.array([0.0, rp]), np.array([-vp, 0.0]))
    avg_a2, avg_a1 = _period_averages(lbar, ("A2", "A1"), s0, nodes, refine_tol=1e-8)
    decc = -eps(h) * elements.T * avg_a2
    dangle = eps(h) * elements.T / elements.e * avg_a1
    if not (math.isfinite(decc) and math.isfinite(dangle)):
        raise NonFiniteStateError(f"predicted drift ({decc}, {dangle}) is not finite "
                                  f"for h = {h!r}")
    return decc, dangle


def per_period_drift(method_id: str, metric: str, seed: PhaseState, h: float,
                     split: SplitPotential | None = None) -> float:
    """Signed change of ``metric`` ("ecc" or "angle") over one analytic period.

    The trajectory is integrated a few steps past t = T and the diagnostic
    series is polynomial-interpolated at the exact period.
    """
    if metric not in ("ecc", "angle"):
        raise ValueError(f"unknown drift metric {metric!r}")
    return drift_sweep(method_id, seed, (h,), split)[metric][0]


def drift_sweep(method_id: str, seed: PhaseState, hs,
                split: SplitPotential | None = None) -> dict[str, list[float]]:
    """One-period errors of ``method_id`` from ``seed`` at each step size in ``hs``.

    Each h makes one run of ceil(T/h) + 3 steps. It gives the signed "ecc"
    and "angle" drifts over the analytic period T and "pos", the position
    error after round(T/h) steps against the analytic orbit. A run of fewer
    than 8 samples, too few for the drift fit, raises TrajectoryTooShortError.
    """
    period = orbit_elements(seed).T
    sweep = []      # (h, steps, n) for each h, every h checked before the first run
    for h in hs:
        check_step_size(h)
        per_period = _steps_per_period(period, h)
        steps = int(math.ceil(per_period)) + 3
        if steps + 1 < 8:
            raise TrajectoryTooShortError(f"h = {h}: {steps + 1} samples over T = {period:.6g}; need 8")
        sweep.append((h, steps, int(round(per_period))))
    refs = _analytic_states(seed, [n * h for h, _, n in sweep])[0].T
    out = {"ecc": [], "angle": [], "pos": []}
    for (h, steps, n), ref in zip(sweep, refs):
        rec = run(method_id, seed, h, steps, split=split, diagnostics=True)
        for metric in ("ecc", "angle"):
            out[metric].append(_drift_over_period(rec, metric, period))
        out["pos"].append(float(np.linalg.norm(rec.xs[n] - ref)))
    return out


def _steps_per_period(period: float, h: float) -> float:
    """T/h; ValueError when it exceeds MAX_STEPS_PER_PERIOD or overflows."""
    per_period = period / h
    if not per_period <= MAX_STEPS_PER_PERIOD:
        raise ValueError(f"step size h = {h!r} is too small for the period T = {period:.6g}: "
                         f"T/h = {per_period:.3g} exceeds {MAX_STEPS_PER_PERIOD} steps")
    return per_period


def fitted_order(hs, values) -> float:
    """Least-squares slope of log|value| against log h."""
    return float(np.polyfit(np.log(hs), np.log(np.abs(values)), 1)[0])


def _drift_over_period(rec: TrajectoryRecord, metric: str, period: float) -> float:
    """Change of ``metric`` from t = 0 to t = period, interpolated on ``rec``.

    The angle window is unwrapped and its change reduced to [-pi, pi], so a
    drift across the arctan2 branch cut reads as the small drift it is.
    """
    series = rec.ecc if metric == "ecc" else rec.angle
    # interpolate at t = T over the 8 nearest samples
    idx = int(round(period / rec.h))
    lo = max(0, min(idx - 4, rec.steps + 1 - 8))
    window = slice(lo, lo + 8)
    ys = series[window] if metric == "ecc" else np.unwrap(series[window])
    poly = np.polynomial.Polynomial.fit(rec.times[window], ys, deg=7)
    drift = float(poly(period) - series[0])
    return drift if metric == "ecc" else math.remainder(drift, 2.0 * math.pi)


def measured_drift_order(method_id: str, metric: str, seed: PhaseState,
                         hs: tuple[float, ...] = tuple(0.5**i for i in range(1, 7)),
                         split: SplitPotential | None = None) -> DriftEstimate:
    """Fit the per-period drift order over a step-size sweep."""
    if len(hs) < 4:
        raise ValueError("need at least 4 step sizes for a credible fit")
    if orbit_elements(seed).e < CIRCULAR_TOL:
        raise CircularOrbitError("drift metrics are undefined for circular orbits")
    orders = method(method_id).drift_order
    if metric not in ("ecc", "angle"):
        raise ValueError(f"unknown drift metric {metric!r}")
    drifts = [abs(d) for d in drift_sweep(method_id, seed, hs, split)[metric]]
    return DriftEstimate(
        method_id=method_id, metric=metric, hs=tuple(hs), drifts=tuple(drifts),
        fitted_order=fitted_order(hs, drifts), predicted_order=orders[metric],
    )


# --- Modified-flow shadowing for the first-order coordinate composition ---

def _rk4(z, h: float, t_span: float, substeps: int) -> tuple[float, float, float, float]:
    """Fixed-step classical 4th-order integration of the modified flow.

    ``z`` is the planar state (x1, x2, v1, v2); the stages keep the order of
    the vector form x + (0.5*dt)*k and dt/6*(k1 + 2*k2 + 2*k3 + k4). Each
    stage writes out ``_modified_accel_vi1`` of tests/test_modified.py in its operation
    order; ``TestShadowing._reference_rk4`` there holds the two equal bit for bit.
    """
    n = max(1, int(round(t_span / h * substeps)))
    dt = t_span / n
    half = 0.5 * dt
    sixth = dt / 6.0
    c = -1.5 * h
    x1, x2, v1, v2 = z
    for _ in range(n):
        # k1 = (v, a1) at x
        r = sqrt(x1 * x1 + x2 * x2)
        r3 = r**3
        f = c * x1 * x2 / r**5
        a11 = -x1 / r3 + f * v2
        a12 = -x2 / r3 - f * v1
        p1 = v1 + half * a11
        p2 = v2 + half * a12
        # k2 = (p, a2) at y = x + half*v
        y1 = x1 + half * v1
        y2 = x2 + half * v2
        r = sqrt(y1 * y1 + y2 * y2)
        r3 = r**3
        f = c * y1 * y2 / r**5
        a21 = -y1 / r3 + f * p2
        a22 = -y2 / r3 - f * p1
        q1 = v1 + half * a21
        q2 = v2 + half * a22
        # k3 = (q, a3) at y = x + half*p
        y1 = x1 + half * p1
        y2 = x2 + half * p2
        r = sqrt(y1 * y1 + y2 * y2)
        r3 = r**3
        f = c * y1 * y2 / r**5
        a31 = -y1 / r3 + f * q2
        a32 = -y2 / r3 - f * q1
        s1 = v1 + dt * a31
        s2 = v2 + dt * a32
        # k4 = (s, a4) at y = x + dt*q
        y1 = x1 + dt * q1
        y2 = x2 + dt * q2
        r = sqrt(y1 * y1 + y2 * y2)
        r3 = r**3
        f = c * y1 * y2 / r**5
        a41 = -y1 / r3 + f * s2
        a42 = -y2 / r3 - f * s1
        x1 = x1 + sixth * (v1 + 2.0 * p1 + 2.0 * q1 + s1)
        x2 = x2 + sixth * (v2 + 2.0 * p2 + 2.0 * q2 + s2)
        v1 = v1 + sixth * (a11 + 2.0 * a21 + 2.0 * a31 + a41)
        v2 = v2 + sixth * (a12 + 2.0 * a22 + 2.0 * a32 + a42)
    return x1, x2, v1, v2


def shadowing_error(seed: PhaseState, h: float,
                    split: SplitPotential | None = None,
                    substeps: int | None = None) -> float:
    """Max position gap between vi1 iterates and the truncated modified flow.

    The modified trajectory starts at the seed position with its initial
    velocity adjusted (2-d shooting) so the flow passes through the first
    iterate; the gap over one period is then O(h^2). The flow is the modified
    equation of the equal split, so any other split raises ValueError. A
    shoot that does not settle raises NonConvergenceError.

    The flow takes ``substeps`` classical RK4 steps per vi1 step, a positive
    int (else ValueError). Over one period RK4 errs by O((h/s)^4) against a
    gap of O(h^2), so its relative error is O(h^2/s^4). The default None
    takes the fewest s that hold h^2/s^4 at its value for s = 16 at h = T/20,
    s = ceil(16*sqrt(20*h/T)): 16 at T/20, 12 at T/40, 8 at T/80. From the
    apoapsis seed x = (-3, 0), v = (0, 0.45) the gap then differs from the
    100-substep gap by 8.9e-7, relative, at T/5, 8.4e-7 at T/20, 7.9e-7 at
    T/80 and 4.0e-7 at h = 0.05.
    """
    if substeps is not None and (type(substeps) is not int or substeps < 1):
        raise ValueError(f"substeps must be a positive int, got {substeps!r}")
    check_step_size(h)
    split = split if split is not None else kepler_split()
    if split.weights != (0.5, 0.5):
        raise ValueError("the shadowing flow is the modified equation of the equal split "
                         f"(0.5, 0.5); vi1 with weights {split.weights} shadows another flow")
    period = orbit_elements(seed).T
    steps = int(round(_steps_per_period(period, h)))
    substeps = substeps or math.ceil(16 * sqrt(20 * h / period))
    rec = run(method_id="vi1", s0=seed, h=h, steps=steps, split=split, diagnostics=False)

    x0 = tuple(seed.x.tolist())
    target = rec.xs[1]

    def shoot(v):
        return _rk4(x0 + tuple(v.tolist()), h, h, substeps)

    v = _newton(lambda v: np.array(shoot(v)[:2]) - target, seed.v, tol=1e-13,
                what="shadowing shoot")
    # the settled shoot is the flow's step 1; vecdot keeps the 1-d norm's bits
    zs = [shoot(v)]
    for _ in range(2, steps + 1):
        zs.append(_rk4(zs[-1], h, h, substeps))
    d = np.array(zs)[:, :2] - rec.xs[1:]
    return float(np.sqrt(np.vecdot(d, d)).max())


def shadowing_ratio(seed: PhaseState, h: float,
                    split: SplitPotential | None = None) -> float:
    """Error contraction under h-halving; approximately 4 for the O(h^2) gap."""
    return shadowing_error(seed, h, split) / shadowing_error(seed, 0.5 * h, split)
