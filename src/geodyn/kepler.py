"""Two-body Kepler model: potential splitting, conserved quantities, analytic orbits.

Units are dimensionless with unit gravitational parameter, so the potential is
phi(x) = -1/|x| and bound orbits have period T = 2*pi*a**1.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from geodyn.errors import (
    CircularOrbitError,
    NonConvergenceError,
    NonNegativeEnergyError,
    SingularOriginError,
    TrajectoryTooShortError,
)

ORIGIN_TOL = 1e-12
CIRCULAR_TOL = 1e-12
KEPLER_EQ_TOL = 1e-13
KEPLER_EQ_MAXITER = 50


# --- Domain types ---

@dataclass(frozen=True)
class PhaseState:
    """Position/velocity pair in R^N (N >= 2); every component finite."""
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape or self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("position and velocity must be equal-length vectors, N >= 2")
        x, v = self.x.tolist(), self.v.tolist()
        if not all(map(math.isfinite, x + v)):
            raise ValueError(f"state components must be finite, got x={x}, v={v}")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class SplitPotential:
    """Proportional split of the Kepler potential: phi^(i) = w_i * phi.

    ``weights`` are the shares w_i, one per part; ``kepler_split`` builds
    and checks them. Part i is 0-based in ``value``/``grad``.
    """
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.weights)

    def value(self, i: int, x: np.ndarray) -> float:
        return self.weights[i] * potential(x)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.weights[i] * grad_potential(x)


@dataclass(frozen=True)
class ConservedSet:
    """Energy, scalar angular momentum, LRL vector and its polar form (N = 2)."""
    H: float
    m: float
    A: np.ndarray
    ecc: float
    omega: float
    circular: bool = False


@dataclass(frozen=True)
class OrbitElements:
    """Elliptic orbit geometry; requires H < 0."""
    a: float
    b: float
    e: float
    T: float


# --- Potential ---

def origin_error(r: float) -> SingularOriginError:
    return SingularOriginError(f"|x| = {r:.3e} too close to the origin")


def potential(x: np.ndarray) -> float:
    """Kepler potential phi(x) = -1/|x|."""
    r = float(np.linalg.norm(x))
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return -1.0 / r


def grad_potential(x: np.ndarray) -> np.ndarray:
    """Gradient of the Kepler potential: x/|x|^3."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return x / r**3


def hess_potential(x: np.ndarray) -> np.ndarray:
    """Hessian of the Kepler potential: I/r^3 - 3 x x^T / r^5."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return np.eye(x.size) / r**3 - 3.0 * np.outer(x, x) / r**5


# --- Planar float forms for the step kernels ---

def potential_xy(x1: float, x2: float) -> float:
    """Kepler potential at the planar point (x1, x2), on plain floats."""
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return -1.0 / r


def grad_potential_xy(x1: float, x2: float) -> tuple[float, float]:
    """Gradient x/|x|^3 at the planar point (x1, x2), on plain floats.

    ``r**3`` raises OverflowError for |x| beyond about 1e102.
    """
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    return x1 / r3, x2 / r3


def check_segment_xy(a1: float, a2: float, b1: float, b2: float) -> None:
    """Reject a drift from (a1, a2) to (b1, b2) passing within ORIGIN_TOL of the origin."""
    d1 = b1 - a1
    d2 = b2 - a2
    # nearest point a + t*d, t in [0, 1]; t = 0 unless the drift heads inward
    ad = a1 * d1 + a2 * d2
    t = 0.0
    if ad < 0.0:
        dd = d1 * d1 + d2 * d2
        t = 1.0 if -ad >= dd else -ad / dd     # dd may underflow to 0
    n1 = a1 + t * d1
    n2 = a2 + t * d2
    if n1 * n1 + n2 * n2 < ORIGIN_TOL * ORIGIN_TOL:
        raise SingularOriginError("drift segment crosses the origin")


def kepler_split(weights: Sequence[float] = (0.5, 0.5)) -> SplitPotential:
    """Split the planar Kepler potential as phi^(i) = w_i * phi, one part per coordinate.

    Degenerate weights (a single nonzero entry) collapse to a one-part split.
    """
    w = tuple(float(wi) for wi in weights)
    if not all(map(math.isfinite, w)):
        raise ValueError(f"split weights must be finite, got {w}")
    if abs(sum(w) - 1.0) > 1e-12:
        raise ValueError("split weights must sum to 1")
    nonzero = [wi for wi in w if wi != 0.0]
    if len(nonzero) == 1:
        return SplitPotential((1.0,))
    if len(w) != 2:
        raise ValueError(f"a planar split needs 2 weights, one per coordinate; got {len(w)}")
    return SplitPotential(w)


# --- Conserved quantities ---

def energy(s: PhaseState) -> float:
    return 0.5 * float(s.v @ s.v) + potential(s.x)


def lrl_vector(s: PhaseState) -> np.ndarray:
    """Componentwise LRL vector A_i = x_i |v|^2 - v_i (x.v) - x_i/|x|."""
    r = float(np.linalg.norm(s.x))
    if r < ORIGIN_TOL:
        raise SingularOriginError("LRL vector undefined at the origin")
    v2 = float(s.v @ s.v)
    xv = float(s.x @ s.v)
    return s.x * v2 - s.v * xv - s.x / r


def conserved(s: PhaseState) -> ConservedSet:
    """Full conserved set for N = 2 states.

    The angle omega uses the two-argument arctangent and is reported as 0
    (flagged circular) when the eccentricity is below 1e-12.
    """
    if s.n != 2:
        raise ValueError("full conserved set implemented for N = 2 only")
    H = energy(s)
    m = float(s.x[0] * s.v[1] - s.x[1] * s.v[0])
    A = lrl_vector(s)
    ecc = float(np.hypot(A[0], A[1]))
    circ = ecc < CIRCULAR_TOL
    omega = 0.0 if circ else float(math.atan2(A[1], A[0]))
    return ConservedSet(H=H, m=m, A=A, ecc=ecc, omega=omega, circular=circ)


def orbit_elements(s: PhaseState) -> OrbitElements:
    """Elliptic elements from a state; raises for H >= 0."""
    return _elements(conserved(s))


def _elements(cs: ConservedSet) -> OrbitElements:
    if cs.H >= 0.0:
        raise NonNegativeEnergyError(f"H = {cs.H:.6g} is not a bound orbit")
    a = -1.0 / (2.0 * cs.H)
    e = cs.ecc
    b = a * math.sqrt(max(0.0, 1.0 - e * e))
    T = 2.0 * math.pi * a**1.5
    return OrbitElements(a=a, b=b, e=e, T=T)


def periapsis_state(el: OrbitElements) -> PhaseState:
    """Counter-clockwise periapsis state with the LRL vector along +x1."""
    r = el.a * (1.0 - el.e)
    vp = math.sqrt((1.0 + el.e) / r)
    return PhaseState(np.array([r, 0.0]), np.array([0.0, vp]))


# --- Analytic reference solution ---

def solve_kepler_equation(mean_anomaly: float, e: float) -> float:
    """Solve E - e*sin(E) = M by Newton iteration with bisection fallback."""
    m = math.remainder(mean_anomaly, 2.0 * math.pi)
    ecc_anom = m if e < 0.8 else math.pi if m >= 0 else -math.pi
    for _ in range(KEPLER_EQ_MAXITER):
        f = ecc_anom - e * math.sin(ecc_anom) - m
        if abs(f) < KEPLER_EQ_TOL:
            return ecc_anom + (mean_anomaly - m)
        ecc_anom -= f / (1.0 - e * math.cos(ecc_anom))
    # Newton stalled (possible only for corrupted elements); bisect on [-pi, pi].
    lo, hi = -math.pi, math.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - e * math.sin(mid) - m > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < KEPLER_EQ_TOL:
            return 0.5 * (lo + hi) + (mean_anomaly - m)
    raise NonConvergenceError("Kepler-equation solve failed; corrupted elements?")


def _rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _orbit_frame(s0: PhaseState):
    """Per-orbit set-up of the analytic reference: (sign, x0, v0, elements, omega, m0).

    A clockwise orbit is mirrored: sign = (1, -1), (x0, v0) the mirrored seed. omega
    and m0, its periapsis angle and mean anomaly at t = 0, are 0 if circular.
    """
    cs = conserved(s0)
    if cs.H >= 0.0:
        raise NonNegativeEnergyError("analytic reference requires H < 0")
    el = _elements(cs)
    sign = np.array([1.0, -1.0]) if cs.m < 0.0 else np.array([1.0, 1.0])
    x0, v0 = s0.x * sign, s0.v * sign
    if cs.circular:
        return sign, x0, v0, el, 0.0, 0.0
    # mirroring negates A2 exactly, so this is the mirrored state's LRL angle
    omega = math.atan2(cs.A[1] * sign[1], cs.A[0])
    back = _rot(-omega)
    xp, vp = back @ x0, back @ v0
    a, e = el.a, el.e
    r0 = float(np.linalg.norm(xp))
    cos_e0 = (1.0 - r0 / a) / e
    sin_e0 = float(xp @ vp) / (e * math.sqrt(a))
    e0 = math.atan2(sin_e0, cos_e0)
    return sign, x0, v0, el, omega, e0 - e * math.sin(e0)


def analytic_reference(s0: PhaseState, t: float) -> PhaseState:
    """Exact elliptic-orbit state at time t from the state s0 at time 0.

    Propagates via the eccentric anomaly; clockwise orbits are handled by
    mirroring across the x1-axis.
    """
    sign, x0, v0, el, omega, m0 = _orbit_frame(s0)
    a, b, e = el.a, el.b, el.e
    mean_motion = a**-1.5
    if e < CIRCULAR_TOL:
        rot = _rot(mean_motion * t)
        return PhaseState((rot @ x0) * sign, (rot @ v0) * sign)
    ecc_anom = solve_kepler_equation(m0 + mean_motion * t, e)
    ce, se = math.cos(ecc_anom), math.sin(ecc_anom)
    edot = mean_motion / (1.0 - e * ce)
    xp_t = np.array([a * (ce - e), b * se])
    vp_t = np.array([-a * se * edot, b * ce * edot])
    fwd = _rot(omega)
    return PhaseState((fwd @ xp_t) * sign, (fwd @ vp_t) * sign)


def _analytic_states(s0: PhaseState, ts) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities, each of shape (2,) + ts.shape, at the times ts.

    One vectorised Newton iteration solves the Kepler equation at all nodes;
    nodes unsettled after KEPLER_EQ_MAXITER iterations go to solve_kepler_equation.
    """
    sign, x0, v0, el, omega, m0 = _orbit_frame(s0)
    a, b, e = el.a, el.b, el.e
    mean_motion = a**-1.5
    ts = np.asarray(ts, dtype=float)
    if e < CIRCULAR_TOL:
        c, s = np.cos(mean_motion * ts), np.sin(mean_motion * ts)
        xp, vp = x0, v0
    else:
        mean = m0 + mean_motion * ts
        m = np.fmod(mean, 2.0 * math.pi)
        m -= 2.0 * math.pi * np.round(m / (2.0 * math.pi))     # exact, as math.remainder
        ecc_anom = m if e < 0.8 else np.where(m >= 0, math.pi, -math.pi)
        for _ in range(KEPLER_EQ_MAXITER):
            res = ecc_anom - e * np.sin(ecc_anom) - m
            todo = ~(np.abs(res) < KEPLER_EQ_TOL)
            if not todo.any():
                break
            ecc_anom = np.where(todo, ecc_anom - res / (1.0 - e * np.cos(ecc_anom)), ecc_anom)
        ecc_anom = np.array(ecc_anom + (mean - m))
        for i in np.flatnonzero(todo):      # Newton stalled at these nodes
            ecc_anom.flat[i] = solve_kepler_equation(float(np.ravel(mean)[i]), e)
        ce, se = np.cos(ecc_anom), np.sin(ecc_anom)
        edot = mean_motion / (1.0 - e * ce)
        xp, vp = (a * (ce - e), b * se), (-a * se * edot, b * ce * edot)
        c, s = math.cos(omega), math.sin(omega)
    return tuple(np.stack(np.broadcast_arrays(c * p[0] - s * p[1], sign[1] * (s * p[0] + c * p[1])))
                 for p in (xp, vp))


# --- Noether characteristics and residual ---

def characteristics(s: PhaseState) -> dict[str, np.ndarray]:
    """Characteristics of the four conservation laws (N = 2)."""
    return _characteristics(s.x, s.v)


def _characteristics(x: np.ndarray, v: np.ndarray) -> dict[str, np.ndarray]:
    """Characteristics at (2, ...) arrays of positions and velocities."""
    x1, x2 = x
    v1, v2 = v
    return {
        "H": np.array([v1, v2]),
        "m": np.array([-x2, x1]),
        "A1": np.array([-x2 * v2, 2.0 * x1 * v2 - v1 * x2]),
        "A2": np.array([2.0 * x2 * v1 - x1 * v2, -x1 * v1]),
    }


def _quantity_value(s: PhaseState, which: str) -> float:
    if which == "H":
        return energy(s)
    if which == "m":
        return float(s.x[0] * s.v[1] - s.x[1] * s.v[0])
    if which in ("A1", "A2"):
        return float(lrl_vector(s)[int(which[1]) - 1])
    raise ValueError(f"unknown quantity id {which!r}")


def noether_residual(times: np.ndarray, states: Sequence[PhaseState], which: str) -> float:
    """Max interior defect of dP/dt = Q . N[x] estimated by central differences.

    ``times`` must be uniformly spaced. For a trajectory sampled from an exact
    solution the residual is O(dt^2).
    """
    if len(states) < 3:
        raise TrajectoryTooShortError("need at least 3 samples for central differences")
    times = np.asarray(times, dtype=float)
    dt = times[1] - times[0]
    worst = 0.0
    for i in range(1, len(states) - 1):
        s = states[i]
        p_dot = (_quantity_value(states[i + 1], which) - _quantity_value(states[i - 1], which)) / (2.0 * dt)
        accel = (states[i + 1].v - states[i - 1].v) / (2.0 * dt)
        defect = accel + grad_potential(s.x)
        q = characteristics(s)[which]
        worst = max(worst, abs(p_dot - float(q @ defect)))
    return worst


# --- Perturbation averages along the analytic orbit ---

# 4th-order central-difference stencil for space (zero-weight centre left
# out), 6th-order for the on-orbit time derivative; the time stencil rides on
# exact states so the wider stencil costs only extra Kepler-equation solves.
_D1_4 = (np.array([1.0, -8.0, 8.0, -1.0]) / 12.0, (-2, -1, 1, 2))
_D1_7 = (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0, (-3, -2, -1, 0, 1, 2, 3))

_SPACE_DELTA = 1e-4
_TIME_DELTA = 2e-2


class LagrangianField:
    """Scalar field L(x, v) on (2, ...) arrays; its gradients are 4th-order central differences."""

    def __init__(self, value):
        self.value = value

    def grad_x(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._fd_grad(x, v, wrt="x")

    def grad_v(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._fd_grad(x, v, wrt="v")

    def _fd_grad(self, x, v, wrt):
        """Gradient of shape (2, ...) from one value call on every stencil point."""
        coeffs, offsets = _D1_4
        n, trail = x.shape[0], (1,) * (x.ndim - 1)
        # shift[j, k, i]: coordinate j moved by offsets[k] * delta at stencil point (k, i) if i == j
        shift = np.eye(n)[:, None, :] * (np.array(offsets) * _SPACE_DELTA)[:, None]
        pert = (x if wrt == "x" else v)[:, None, None] + shift.reshape(shift.shape + trail)
        other = np.broadcast_to((v if wrt == "x" else x)[:, None, None], pert.shape)
        vals = self.value(pert, other) if wrt == "x" else self.value(other, pert)
        return sum(c * vals[k] for k, c in enumerate(coeffs)) / _SPACE_DELTA


def euler_lagrange_on_orbit(lbar: LagrangianField, s0: PhaseState, t) -> np.ndarray:
    """EL(lbar) = d/dt(dL/dv) - dL/dx on the analytic orbit, shape (2,) + shape(t)."""
    return _euler_lagrange(lbar, s0, t)[0]


def _euler_lagrange(lbar: LagrangianField, s0: PhaseState, ts):
    """(EL vectors, positions, velocities) at the times ts, from one analytic-orbit call."""
    ts = np.asarray(ts, dtype=float)
    coeffs, offsets = _D1_7
    x, v = _analytic_states(s0, ts + np.array(offsets).reshape((7,) + (1,) * ts.ndim) * _TIME_DELTA)
    gv = lbar.grad_v(x, v)
    ddt = sum(c * gv[:, k] for k, c in enumerate(coeffs) if c) / _TIME_DELTA
    x, v = x[:, 3], v[:, 3]     # the offset-0 row: the nodes themselves
    return ddt - lbar.grad_x(x, v), x, v


def perturbation_average(
    lbar: LagrangianField,
    char,
    orbit: PhaseState | OrbitElements,
    nodes: int = 2048,
    refine_tol: float = 1e-8,
) -> float:
    """Period average [<EL(lbar), char>] by composite Simpson quadrature.

    ``char`` is a quantity id ("H", "m", "A1", "A2") or a callable mapping
    (2, M) arrays of positions and velocities to the (2, M) characteristic.
    The rule with ``2*nodes`` intervals is compared with the one with
    ``nodes`` intervals, whose nodes are every other fine node, so each
    node's EL vector is evaluated once; if the two disagree by more than
    ``refine_tol``, NonConvergenceError is raised.
    """
    s0 = periapsis_state(orbit) if isinstance(orbit, OrbitElements) else orbit
    return _period_averages(lbar, (char,), s0, nodes, refine_tol)[0]


def _period_averages(lbar: LagrangianField, chars, s0: PhaseState, nodes: int,
                     refine_tol: float) -> list[float]:
    """Fine Simpson averages of <EL(lbar), char> for each char, one EL per node.

    The coarse rule reuses the even fine nodes: linspace(0, T, 2n+1)[::2]
    equals linspace(0, T, n+1) bit for bit.
    """
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise ValueError(f"nodes must be a positive int, got {nodes!r}")
    period = orbit_elements(s0).T
    fine_n = 2 * nodes
    ts = np.linspace(0.0, period, fine_n + 1)
    el_vec, x, v = _euler_lagrange(lbar, s0, ts)
    named = _characteristics(x, v)
    qs = [char(x, v) if callable(char) else named[char] for char in chars]
    ys = [el_vec[0] * q[0] + el_vec[1] * q[1] for q in qs]

    def simpson(ys: np.ndarray, n: int) -> float:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float((ys * w).sum() * (period / n) / 3.0) / period

    out = []
    for row in ys:
        coarse = simpson(row[::2], nodes)
        fine = simpson(row, fine_n)
        if abs(fine - coarse) > refine_tol:
            raise NonConvergenceError(
                f"period-average quadrature did not settle: {coarse:.3e} vs {fine:.3e}"
            )
        out.append(fine)
    return out
