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
    NonConvergenceError,
    NonNegativeEnergyError,
    SingularOriginError,
    TrajectoryTooShortError,
)

ORIGIN_TOL = 1e-12
CIRCULAR_TOL = 1e-12
KEPLER_EQ_TOL = 1e-13
KEPLER_EQ_MAXITER = 50
_QUANTITY_IDS = ("H", "m", "A1", "A2")      # the conserved quantities, in _invariants' order


# --- Domain types ---

@dataclass(frozen=True)
class PhaseState:
    """Planar position/velocity pair, two finite components each (else ValueError)."""
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if (self.x.shape, self.v.shape) != ((2,), (2,)):
            raise ValueError(f"x and v must be planar 2-vectors, got {self.x.shape}, {self.v.shape}")
        x, v = self.x.tolist(), self.v.tolist()
        if not all(map(math.isfinite, x + v)):
            raise ValueError(f"state components must be finite, got x={x}, v={v}")


@dataclass(frozen=True)
class SplitPotential:
    """Proportional split of the Kepler potential: phi^(i) = w_i * phi.

    ``weights`` are the shares w_i, one per part: finite, at most two (one per
    coordinate) and summing to 1, else ValueError. Part i is 0-based in
    ``value``/``grad``.
    """
    weights: tuple[float, ...]

    def __post_init__(self):
        w = self.weights
        if not all(map(math.isfinite, w)):      # a nan sum passes the |sum - 1| test
            raise ValueError(f"split weights must be finite, got {w}")
        if abs(sum(w) - 1.0) > 1e-12:
            raise ValueError("split weights must sum to 1")
        if len(w) > 2:
            raise ValueError(f"a planar split needs 2 weights, one per coordinate; got {len(w)}")

    def __len__(self) -> int:
        return len(self.weights)

    def value(self, i: int, x: np.ndarray) -> float:
        return self.weights[i] * potential(x)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.weights[i] * grad_potential(x)


@dataclass(frozen=True)
class ConservedSet:
    """Energy, scalar angular momentum, LRL vector and its polar form."""
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
    """Kepler potential phi(x) = -1/|x|, |x| from a plain sum of squares."""
    r = sqrt(sum([c * c for c in map(float, x)]))
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return -1.0 / r


def grad_potential(x: np.ndarray) -> np.ndarray:
    """Gradient of the Kepler potential: x/|x|^3, |x| from a plain sum of squares, cubed as r * r * r,
    each component a float quotient as in the kernels: +-0.0 from R_MAX = 5.643803094122362e102 on."""
    xs = list(map(float, x))
    r = sqrt(sum([c * c for c in xs]))
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r * r * r
    return np.array([c / r3 for c in xs])


def grad_potential_arrays(x1, x2):
    """(x1/r^3, x2/r^3, r, r^3) at arrays of planar points, rounded as ``grad_potential``: r^3 is r * r * r."""
    with np.errstate(over="ignore"):
        r = np.sqrt(x1 * x1 + x2 * x2)
        r3 = r * r * r
    return x1 / r3, x2 / r3, r, r3


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


def check_step_size(h: float) -> None:
    """ValueError unless the step size h is positive and finite."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be positive and finite, got {h}")


def kepler_split(weights: Sequence[float] = (0.5, 0.5)) -> SplitPotential:
    """Split the planar Kepler potential as phi^(i) = w_i * phi, one part per coordinate.

    Degenerate weights (a single nonzero entry) collapse to a one-part split.
    """
    w = tuple(float(wi) for wi in weights)
    nonzero = tuple(wi for wi in w if wi != 0.0)
    split = SplitPotential(nonzero if len(nonzero) == 1 else w)     # checks the weights
    return SplitPotential((1.0,)) if len(split) == 1 else split


# --- Conserved quantities ---

def _invariants(x1, x2, v1, v2):
    """(H, m, A1, A2) at planar floats or columns, in plain products; inf or nan, without
    a warning, where they overflow. The one formula for the Kepler invariants."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.sqrt(x1 * x1 + x2 * x2)
        vv, xv = v1 * v1 + v2 * v2, x1 * v1 + x2 * v2
        return (0.5 * vv - 1.0 / r, x1 * v2 - x2 * v1,
                x1 * vv - v1 * xv - x1 / r, x2 * vv - v2 * xv - x2 / r)


def _state_invariants(s: PhaseState, undefined: str = "") -> tuple[float, float, float, float]:
    """(H, m, A1, A2) of a state; SingularOriginError, saying ``undefined`` if given, for |x| < ORIGIN_TOL."""
    (x1, x2), (v1, v2) = s.x.tolist(), s.v.tolist()
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise SingularOriginError(undefined) if undefined else origin_error(r)
    return tuple(map(float, _invariants(x1, x2, v1, v2)))


def energy(s: PhaseState) -> float:
    """H = |v|^2/2 - 1/|x|; inf or nan, without a warning, if the squares overflow."""
    return _state_invariants(s)[0]


def lrl_vector(s: PhaseState) -> np.ndarray:
    """Componentwise LRL vector A_i = x_i |v|^2 - v_i (x.v) - x_i/|x|; inf or nan
    components, without a warning, if the products overflow."""
    return np.array(_state_invariants(s, "LRL vector undefined at the origin")[2:])


def conserved(s: PhaseState) -> ConservedSet:
    """Full conserved set of a (planar) state.

    The angle omega uses the two-argument arctangent and is reported as 0
    (flagged circular) when the eccentricity is below 1e-12. A state whose
    squares overflow gets inf or nan values, which ``orbit_elements`` rejects.
    """
    H, m, A1, A2 = _state_invariants(s)
    ecc = float(np.hypot(A1, A2))
    circ = ecc < CIRCULAR_TOL
    omega = 0.0 if circ else math.atan2(A2, A1)
    return ConservedSet(H=H, m=m, A=np.array([A1, A2]), ecc=ecc, omega=omega, circular=circ)


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


# --- Analytic reference solution ---

def solve_kepler_equation(mean_anomaly: float, e: float) -> float:
    """Solve E - e*sin(E) = M by Newton iteration with bisection fallback."""
    return float(_solve_kepler(np.float64(mean_anomaly), e))


def _solve_kepler(mean, e: float) -> np.ndarray:
    """E with E - e*sin(E) = mean at each node of ``mean`` (0-d for one solve): one vectorised
    Newton iteration, then bisection on [-pi, pi] of the nodes still unsettled after
    KEPLER_EQ_MAXITER iterations. A non-finite mean anomaly raises ValueError."""
    mean = np.asarray(mean, dtype=float)
    if not np.isfinite(mean).all():
        raise ValueError(f"mean anomaly must be finite, got {mean[~np.isfinite(mean)][0]}")
    m = np.fmod(mean, 2.0 * math.pi)
    m = m - 2.0 * math.pi * np.round(m / (2.0 * math.pi))     # exact, as math.remainder
    ecc_anom = m if e < 0.8 else np.where(m >= 0, math.pi, -math.pi)
    for _ in range(KEPLER_EQ_MAXITER):
        res = ecc_anom - e * np.sin(ecc_anom) - m
        todo = ~(np.abs(res) < KEPLER_EQ_TOL)
        if not todo.any():
            break
        ecc_anom = np.where(todo, ecc_anom - res / (1.0 - e * np.cos(ecc_anom)), ecc_anom)
    # Newton stalled (possible only for corrupted elements); bisect on [-pi, pi].
    for i in np.flatnonzero(todo):
        mi = float(np.ravel(m)[i])
        lo, hi = -math.pi, math.pi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - e * math.sin(mid) - mi > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < KEPLER_EQ_TOL:
                break
        else:
            raise NonConvergenceError("Kepler-equation solve failed; corrupted elements?")
        ecc_anom.flat[i] = 0.5 * (lo + hi)
    return ecc_anom + (mean - m)


def _orbit_frame(s0: PhaseState):
    """Per-orbit set-up of the analytic reference: (sign, x0, v0, elements, omega, m0).

    A clockwise orbit is mirrored: sign = (1, -1), (x0, v0) the mirrored seed. omega
    and m0, its periapsis angle and mean anomaly at t = 0, are 0 if circular.
    """
    cs = conserved(s0)
    el = _elements(cs)
    sign = np.array([1.0, -1.0]) if cs.m < 0.0 else np.array([1.0, 1.0])
    x0, v0 = s0.x * sign, s0.v * sign
    if cs.circular:
        return sign, x0, v0, el, 0.0, 0.0
    # mirroring negates A2 exactly, so this is the mirrored state's LRL angle
    omega = math.atan2(cs.A[1] * sign[1], cs.A[0])
    c, s = math.cos(-omega), math.sin(-omega)
    (x1, x2), (v1, v2) = x0.tolist(), v0.tolist()
    xp1, xp2, vp1, vp2 = c * x1 - s * x2, s * x1 + c * x2, c * v1 - s * v2, s * v1 + c * v2
    a, e = el.a, el.e
    cos_e0 = (1.0 - sqrt(xp1 * xp1 + xp2 * xp2) / a) / e
    sin_e0 = (xp1 * vp1 + xp2 * vp2) / (e * math.sqrt(a))
    e0 = math.atan2(sin_e0, cos_e0)
    return sign, x0, v0, el, omega, e0 - e * math.sin(e0)


def analytic_reference(s0: PhaseState, t: float) -> PhaseState:
    """Exact elliptic-orbit state at time t from the state s0 at time 0."""
    return PhaseState(*_analytic_states(s0, t))


def _analytic_states(s0: PhaseState, ts) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities, each of shape (2,) + ts.shape, at the times ts.

    Propagates via the eccentric anomaly, from one Kepler-equation solve over
    all times; clockwise orbits are handled by mirroring across the x1-axis.
    A non-finite time, or one whose mean anomaly overflows, raises ValueError.
    """
    sign, x0, v0, el, omega, m0 = _orbit_frame(s0)
    a, b, e = el.a, el.b, el.e
    mean_motion = a**-1.5
    ts = np.asarray(ts, dtype=float)
    with np.errstate(over="ignore"):
        phase = mean_motion * ts
    if not np.isfinite(phase).all():
        raise ValueError(f"time t = {ts[~np.isfinite(phase)][0]} is not finite or overflows n*t")
    if e < CIRCULAR_TOL:
        c, s = np.cos(phase), np.sin(phase)
        xp, vp = x0, v0
    else:
        ecc_anom = _solve_kepler(m0 + phase, e)
        ce, se = np.cos(ecc_anom), np.sin(ecc_anom)
        edot = mean_motion / (1.0 - e * ce)
        xp, vp = (a * (ce - e), b * se), (-a * se * edot, b * ce * edot)
        c, s = math.cos(omega), math.sin(omega)
    # each sum starts at +0.0, as a matrix product does, so a zero component is +0.0
    return tuple(np.stack(np.broadcast_arrays(0.0 + c * p[0] - s * p[1],
                                              sign[1] * (0.0 + s * p[0] + c * p[1])))
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


def noether_residual(times: np.ndarray, states: Sequence[PhaseState], which: str) -> float:
    """Max interior defect of dP/dt = Q . N[x] estimated by central differences.

    ``times`` must be uniformly spaced. For a trajectory sampled from an exact
    solution the residual is O(dt^2). A state within ORIGIN_TOL of the origin
    raises SingularOriginError.
    """
    if len(states) < 3:
        raise TrajectoryTooShortError("need at least 3 samples for central differences")
    if which not in _QUANTITY_IDS:
        raise ValueError(f"unknown quantity id {which!r}")
    times = np.asarray(times, dtype=float)
    dt2 = 2.0 * (times[1] - times[0])
    x1, x2, v1, v2 = z = np.array([s.x.tolist() + s.v.tolist() for s in states]).T
    if (r := float(np.sqrt(x1 * x1 + x2 * x2).min())) < ORIGIN_TOL:
        raise origin_error(r)
    p = _invariants(x1, x2, v1, v2)[_QUANTITY_IDS.index(which)]
    g1, g2, _, _ = grad_potential_arrays(x1[1:-1], x2[1:-1])
    d1, d2 = (v1[2:] - v1[:-2]) / dt2 + g1, (v2[2:] - v2[:-2]) / dt2 + g2
    q = _characteristics(z[:2, 1:-1], z[2:, 1:-1])[which]
    return float(np.abs((p[2:] - p[:-2]) / dt2 - (q[0] * d1 + q[1] * d2)).max())


# --- Perturbation averages along the analytic orbit ---

# 4th-order central-difference stencil for space (zero-weight centre left
# out), 6th-order for the on-orbit time derivative; the time stencil rides on
# exact states so the wider stencil costs only extra Kepler-equation solves.
_D1_4 = (np.array([1.0, -8.0, 8.0, -1.0]) / 12.0, (-2, -1, 1, 2))
_D1_7 = (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0, (-3, -2, -1, 0, 1, 2, 3))

_SPACE_DELTA = 1e-4
_TIME_DELTA = 2e-2


def _fd_grad(value, x, v, wrt):
    """Gradient (2, ...) of the field ``value(x, v)`` in x or v from one call on every stencil point."""
    coeffs, offsets = _D1_4
    n, trail = x.shape[0], (1,) * (x.ndim - 1)
    # shift[j, k, i]: coordinate j moved by offsets[k] * delta at stencil point (k, i) if i == j
    shift = np.eye(n)[:, None, :] * (np.array(offsets) * _SPACE_DELTA)[:, None]
    pert = (x if wrt == "x" else v)[:, None, None] + shift.reshape(shift.shape + trail)
    other = np.broadcast_to((v if wrt == "x" else x)[:, None, None], pert.shape)
    vals = value(pert, other) if wrt == "x" else value(other, pert)
    return sum(c * vals[k] for k, c in enumerate(coeffs)) / _SPACE_DELTA


def euler_lagrange_on_orbit(lbar, s0: PhaseState, t) -> np.ndarray:
    """EL(lbar) = d/dt(dL/dv) - dL/dx of the field lbar(x, v) on the analytic orbit, shape (2,) + shape(t)."""
    return _euler_lagrange(lbar, s0, t)[0]


def _euler_lagrange(lbar, s0: PhaseState, ts):
    """(EL vectors, positions, velocities) at the times ts, from one analytic-orbit call."""
    ts = np.asarray(ts, dtype=float)
    coeffs, offsets = _D1_7
    x, v = _analytic_states(s0, ts + np.array(offsets).reshape((7,) + (1,) * ts.ndim) * _TIME_DELTA)
    gv = _fd_grad(lbar, x, v, "v")
    ddt = sum(c * gv[:, k] for k, c in enumerate(coeffs) if c) / _TIME_DELTA
    x, v = x[:, 3], v[:, 3]     # the offset-0 row: the nodes themselves
    return ddt - _fd_grad(lbar, x, v, "x"), x, v


def perturbation_average(
    lbar,
    char,
    orbit: PhaseState,
    nodes: int = 2048,
    refine_tol: float = 1e-8,
) -> float:
    """Period average [<EL(lbar), char>] by composite Simpson quadrature over the orbit of ``orbit``.

    ``char`` is a quantity id ("H", "m", "A1", "A2") or a callable mapping
    (2, M) arrays of positions and velocities to the (2, M) characteristic.
    The rule with ``2*nodes`` intervals is compared with the one with
    ``nodes`` intervals, whose nodes are every other fine node, so each
    node's EL vector is evaluated once; if the two disagree by more than
    ``refine_tol``, NonConvergenceError is raised.
    """
    return _period_averages(lbar, (char,), orbit, nodes, refine_tol)[0]


def _period_averages(lbar, chars, s0: PhaseState, nodes: int,
                     refine_tol: float) -> list[float]:
    """Fine Simpson averages of <EL(lbar), char> for each char, one EL per node.

    The coarse rule reuses the even fine nodes: linspace(0, T, 2n+1)[::2]
    equals linspace(0, T, n+1) bit for bit.
    """
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise ValueError(f"nodes must be a positive int, got {nodes!r}")
    if unknown := [c for c in chars if not callable(c) and c not in _QUANTITY_IDS]:
        raise ValueError(f"unknown quantity id {unknown[0]!r}")
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
