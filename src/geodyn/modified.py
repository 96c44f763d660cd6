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
    NonConvergenceError,
    StabilityBoundaryError,
)
from geodyn.integrators import TrajectoryRecord, method, run
from geodyn.kepler import (
    CIRCULAR_TOL,
    LagrangianField,
    OrbitElements,
    PhaseState,
    SplitPotential,
    _period_averages,
    kepler_split,
    orbit_elements,
    potential,
)

STABILITY_LIMIT = 4.0


# --- Linear central-difference scheme: x_{n+1} - 2 x_n + x_{n-1} = -lambda h^2 x_n ---

def linear_modified_series(lam: float, h: float, k_max: int) -> float:
    """Partial sum of the modified frequency-squared series.

    Returns sum_{k=1}^{k_max} 2 ((k-1)!)^2 / (2k)! * h^(2k-2) * lam^k, the
    coefficient of -x in the modified equation of the central-difference
    scheme. Warns when lam*h^2 is at or beyond the convergence radius.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if lam * h * h >= STABILITY_LIMIT:
        warnings.warn("modified series diverges for lambda*h^2 >= 4", stacklevel=2)
    total = 0.0
    for k in range(1, k_max + 1):
        coeff = 2.0 * math.factorial(k - 1) ** 2 / math.factorial(2 * k)
        total += coeff * h ** (2 * k - 2) * lam**k
    return total


def linear_dispersion(lam: float, h: float) -> float:
    """Effective frequency Omega of the scheme: Omega = (2/h) arcsin(h sqrt(lam)/2)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if lam * h * h >= STABILITY_LIMIT:
        raise StabilityBoundaryError(
            f"lambda*h^2 = {lam * h * h:.6g} is at or beyond the stability boundary 4"
        )
    return 2.0 / h * math.asin(0.5 * h * math.sqrt(lam))


def linear_measured_frequency(lam: float, h: float, steps: int = 10_000) -> float:
    """Oscillation frequency of the iterates from interpolated zero crossings."""
    if lam * h * h >= STABILITY_LIMIT:
        raise StabilityBoundaryError("scheme is unstable for lambda*h^2 >= 4")
    if h <= 0:
        raise ValueError("step size must be positive")
    # the central-difference recurrence x+ = 2x - x_prev - h^2 (lam x), on floats
    h2 = h**2
    xs = [0.0, h]
    x_prev, x = xs
    for _ in range(1, steps):
        x_prev, x = x, 2.0 * x - x_prev - h2 * (lam * x)
        xs.append(x)
    crossings = []
    for n in range(steps):
        if xs[n] != 0.0 and (xs[n] > 0) != (xs[n + 1] > 0):
            crossings.append(h * (n + xs[n] / (xs[n] - xs[n + 1])))
    if len(crossings) < 2:
        raise ValueError("too few zero crossings; increase steps")
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
    return 0.5 * float(s.v @ s.v) - potential(s.x) + eps(h) * float(lbar.value(s.x, s.v))


def perturbation_field(method_id: str, split: SplitPotential | None = None):
    """(epsilon(h), leading perturbation Lbar) with L_mod = L + epsilon*Lbar.

    The epsilon factor is the size of the leading perturbation: h/2 for the first-order
    methods, h^2/24 for Stormer-Verlet, h^2 for the second-order coordinate
    composition (whose bracket carries its own 1/96 and 1/24 weights). vi1
    and vi2 need a two-part split; a one-part split raises ValueError. The
    field takes (2, ...) arrays of positions and velocities.
    """
    method(method_id)      # UnknownMethodError for all but the Kepler methods
    split = split if split is not None else kepler_split()

    if method_id == "sym-euler":
        def value(x, v):
            g1, g2, _ = _kepler_grad(x)
            return -(v[0] * g1 + v[1] * g2)
        return (lambda h: 0.5 * h), LagrangianField(value)

    if method_id == "sv":
        def value(x, v):
            r = np.sqrt(x[0] * x[0] + x[1] * x[1])
            xv = x[0] * v[0] + x[1] * v[1]
            return 1.0 / r**4 - 2.0 * (v[0] * v[0] + v[1] * v[1]) / r**3 + 6.0 * xv * xv / r**5
        return (lambda h: h * h / 24.0), LagrangianField(value)

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
        return (lambda h: 0.5 * h), LagrangianField(value)

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
    return (lambda h: h * h), LagrangianField(value)


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
    if elements.e < CIRCULAR_TOL:
        raise CircularOrbitError("angle drift is undefined for circular orbits")
    eps, lbar = perturbation_field(method_id, split)
    # periapsis on +x2: LRL along +x2, counter-clockwise motion
    rp = elements.a * (1.0 - elements.e)
    vp = math.sqrt((1.0 + elements.e) / rp)
    s0 = PhaseState(np.array([0.0, rp]), np.array([-vp, 0.0]))
    avg_a2, avg_a1 = _period_averages(lbar, ("A2", "A1"), s0, nodes, refine_tol=1e-8)
    decc = -eps(h) * elements.T * avg_a2
    dangle = eps(h) * elements.T / elements.e * avg_a1
    return decc, dangle


def per_period_drift(method_id: str, metric: str, seed: PhaseState, h: float,
                     split: SplitPotential | None = None) -> float:
    """Signed change of ``metric`` ("ecc" or "angle") over one analytic period.

    The trajectory is integrated a few steps past t = T and the diagnostic
    series is polynomial-interpolated at the exact period.
    """
    if metric not in ("ecc", "angle"):
        raise ValueError(f"unknown drift metric {metric!r}")
    period, rec = _period_run(method_id, seed, h, split)
    return _drift_over_period(rec, metric, period)


def _period_run(method_id: str, seed: PhaseState, h: float,
                split: SplitPotential | None = None) -> tuple[float, TrajectoryRecord]:
    """(T, trajectory) with diagnostics, run ceil(T/h) + 3 steps from the seed.

    Its first round(T/h) steps are the one-period run, so one record serves
    both the drifts and the position error of a convergence sweep.
    """
    period = orbit_elements(seed).T
    steps = int(math.ceil(period / h)) + 3
    return period, run(method_id, seed, h, steps, split=split, diagnostics=True)


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
    drifts = [abs(per_period_drift(method_id, metric, seed, h, split)) for h in hs]
    slope = float(np.polyfit(np.log(hs), np.log(drifts), 1)[0])
    return DriftEstimate(
        method_id=method_id, metric=metric, hs=tuple(hs), drifts=tuple(drifts),
        fitted_order=slope, predicted_order=orders[metric],
    )


# --- Modified-flow shadowing for the first-order coordinate composition ---

def _modified_accel_vi1(x1: float, x2: float, v1: float, v2: float,
                        h: float) -> tuple[float, float]:
    """Acceleration of the order-h truncated modified equation, on plain floats."""
    r = sqrt(x1 * x1 + x2 * x2)
    r3 = r**3
    f = -1.5 * h * x1 * x2 / r**5
    return -x1 / r3 + f * v2, -x2 / r3 + f * -v1


def modified_rhs_vi1(x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Acceleration of the order-h truncated modified equation (equal split)."""
    x1, x2 = np.asarray(x, dtype=float).tolist()
    v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array(_modified_accel_vi1(x1, x2, v1, v2, h))


def _rk4(z, h: float, t_span: float, substeps: int) -> tuple[float, float, float, float]:
    """Fixed-step classical 4th-order integration of the modified flow.

    ``z`` is the planar state (x1, x2, v1, v2); the stages keep the order of
    the vector form x + (0.5*dt)*k and dt/6*(k1 + 2*k2 + 2*k3 + k4).
    """
    n = max(1, int(round(t_span / h * substeps)))
    dt = t_span / n
    half = 0.5 * dt
    sixth = dt / 6.0
    accel = _modified_accel_vi1
    x1, x2, v1, v2 = z
    for _ in range(n):
        # k1 = (v, a1), k2 = (p, a2), k3 = (q, a3), k4 = (s, a4)
        a11, a12 = accel(x1, x2, v1, v2, h)
        p1 = v1 + half * a11
        p2 = v2 + half * a12
        a21, a22 = accel(x1 + half * v1, x2 + half * v2, p1, p2, h)
        q1 = v1 + half * a21
        q2 = v2 + half * a22
        a31, a32 = accel(x1 + half * p1, x2 + half * p2, q1, q2, h)
        s1 = v1 + dt * a31
        s2 = v2 + dt * a32
        a41, a42 = accel(x1 + dt * q1, x2 + dt * q2, s1, s2, h)
        x1 = x1 + sixth * (v1 + 2 * p1 + 2 * q1 + s1)
        x2 = x2 + sixth * (v2 + 2 * p2 + 2 * q2 + s2)
        v1 = v1 + sixth * (a11 + 2 * a21 + 2 * a31 + a41)
        v2 = v2 + sixth * (a12 + 2 * a22 + 2 * a32 + a42)
    return x1, x2, v1, v2


_SHOOT_TOL = 1e-13
_SHOOT_MAXITER = 20


def shadowing_error(seed: PhaseState, h: float,
                    split: SplitPotential | None = None,
                    substeps: int = 100) -> float:
    """Max position gap between vi1 iterates and the truncated modified flow.

    The modified trajectory starts at the seed position with its initial
    velocity adjusted (2-d shooting) so the flow passes through the first
    iterate; the gap over one period is then O(h^2). A shoot that does not
    settle raises NonConvergenceError.
    """
    split = split if split is not None else kepler_split()
    period = orbit_elements(seed).T
    steps = int(round(period / h))
    rec = run(method_id="vi1", s0=seed, h=h, steps=steps, split=split)

    x0 = tuple(seed.x.tolist())
    target = rec.xs[1]
    v = seed.v.copy()

    def shoot(v):
        return np.array(_rk4(x0 + tuple(v.tolist()), h, h, substeps)[:2])

    for _ in range(_SHOOT_MAXITER):
        x1 = shoot(v)
        res = x1 - target
        gap = float(np.linalg.norm(res))
        if gap < _SHOOT_TOL:
            break
        jac = np.empty((2, 2))
        for j in range(2):
            dv = v.copy()
            dv[j] += 1e-7
            jac[:, j] = (shoot(dv) - x1) / 1e-7
        v = v - np.linalg.solve(jac, res)
    else:
        raise NonConvergenceError(
            f"shadowing shoot did not settle in {_SHOOT_MAXITER} iterations: "
            f"residual {gap:.3e}"
        )

    worst = 0.0
    z = x0 + tuple(v.tolist())
    for n in range(1, steps + 1):
        z = _rk4(z, h, h, substeps)
        worst = max(worst, float(np.linalg.norm(np.array(z[:2]) - rec.xs[n])))
    return worst


def shadowing_ratio(seed: PhaseState, h: float,
                    split: SplitPotential | None = None) -> float:
    """Error contraction under h-halving; approximately 4 for the O(h^2) gap."""
    return shadowing_error(seed, h, split) / shadowing_error(seed, 0.5 * h, split)
