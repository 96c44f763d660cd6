"""One-step and two-step integrators, and the table of all six methods.

``METHODS`` is the one place that knows the methods: symplectic Euler,
Stormer-Verlet, vi1 (order 1) and vi2 (order 2) for the Kepler problem, and
k1 (order 1) and k2 (order 2) for the relativistic system of
``geodyn.relativistic``. Each entry gives the model, the plain-float step
kernel and its adjoint, and the predicted drift orders. vi1 and k1 compose
exact sub-flows, and their adjoints are the same sub-flows in reverse order;
vi2 and k2 are the adjoint half step followed by the half step. Each step
kernel, and symplectic Euler's adjoint, is written out as one float function;
the sub-flows stay as the public sub-steps, as the adjoints of vi1 and k1, and
as the reference the written-out kernels equal bit for bit. vi1 and vi2 also
exist in two-step discrete Euler-Lagrange form, equivalent to the compositions
once the first point is seeded through the discrete Legendre transform.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from math import inf, sqrt
from types import MappingProxyType
from typing import Callable

import numpy as np

from geodyn.errors import (
    NonConvergenceError,
    NonFiniteStateError,
    SingularOriginError,
    UnknownMethodError,
)
from geodyn.kepler import (
    ORIGIN_TOL,
    PhaseState,
    SplitPotential,
    check_segment_xy,
    check_step_size,
    grad_potential,
    grad_potential_xy,
    kepler_split,
    origin_error,
    potential,
    potential_xy,
)

LAGRANGIAN_IDS = ("L1", "L2", "L1st", "Lstar", "L2nd")


@dataclass(frozen=True)
class TwoStepState:
    """Consecutive positions of a two-step recurrence, finite and of one shape (else ValueError)."""
    x_prev: np.ndarray
    x_curr: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "x_prev", np.asarray(self.x_prev, dtype=float))
        object.__setattr__(self, "x_curr", np.asarray(self.x_curr, dtype=float))
        if self.x_prev.shape != self.x_curr.shape or not np.isfinite([self.x_prev, self.x_curr]).all():
            raise ValueError("positions must be finite and of one shape, "
                             f"got {self.x_prev.tolist()}, {self.x_curr.tolist()}")
        check_step_size(self.h)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniform-step trajectory with optional conserved-quantity columns.

    The time column is n*h by construction, not accumulated addition.
    """
    method_id: str
    h: float
    times: np.ndarray
    xs: np.ndarray          # (steps+1, 2)
    vs: np.ndarray          # (steps+1, 2)
    H: np.ndarray | None = None
    m: np.ndarray | None = None
    A: np.ndarray | None = None
    ecc: np.ndarray | None = None
    angle: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.xs.shape[0] - 1

    def state(self, n: int) -> PhaseState:
        return PhaseState(self.xs[n], self.vs[n])


# --- Step kernels on the planar state z = (x1, x2, v1, v2) ---
#
# A kernel maps (z, h) to the next state tuple, on plain floats. A table kernel is
# its sub-flow composition written out, force x/r**3 and potential -1/r inline in
# the sub-flows' operation order, e.g. v - h*(w*(x1/r3)). A drift's check_segment_xy
# runs only where it can raise, which keeps the composition's bits and errors:
# - a coordinate drift keeps c fixed, the check's nearest point has c exactly, and
#   fl(c*c) >= fl(tol*tol) once |c| >= tol: only -ORIGIN_TOL < c < ORIGIN_TOL can raise
#   (a NaN or infinite c makes the check's nearest point NaN, which never raises);
# - a full drift from a by d stays beyond |a|/2 >= 2*ORIGIN_TOL if 4|d|^2 < |a|^2 and
#   16*ORIGIN_TOL^2 <= |a|^2 < inf; the factor 2 covers all rounding. NaN or inf calls it.
_FAR2 = 16.0 * ORIGIN_TOL * ORIGIN_TOL


def _sym_euler(z, h):
    x1, x2, v1, v2 = z
    rr = x1 * x1 + x2 * x2
    r = sqrt(rr)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    v1, v2 = v1 - h * (x1 / r3), v2 - h * (x2 / r3)
    d1, d2 = h * v1, h * v2
    y1, y2 = x1 + d1, x2 + d2
    if not (4.0 * (d1 * d1 + d2 * d2) < rr and _FAR2 <= rr < inf):
        check_segment_xy(x1, x2, y1, y2)
    return y1, y2, v1, v2


def _sym_euler_adjoint(z, h):
    x1, x2, v1, v2 = z
    d1, d2 = h * v1, h * v2
    y1, y2 = x1 + d1, x2 + d2
    rr = x1 * x1 + x2 * x2
    if not (4.0 * (d1 * d1 + d2 * d2) < rr and _FAR2 <= rr < inf):
        check_segment_xy(x1, x2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    return y1, y2, v1 - h * (y1 / r3), v2 - h * (y2 / r3)


def _sv(z, h):
    x1, x2, v1, v2 = z
    rr = x1 * x1 + x2 * x2
    r = sqrt(rr)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    p1, p2 = v1 - 0.5 * h * (x1 / r3), v2 - 0.5 * h * (x2 / r3)
    d1, d2 = h * p1, h * p2
    y1, y2 = x1 + d1, x2 + d2
    if not (4.0 * (d1 * d1 + d2 * d2) < rr and _FAR2 <= rr < inf):
        check_segment_xy(x1, x2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    return y1, y2, p1 - 0.5 * h * (y1 / r3), p2 - 0.5 * h * (y2 / r3)


def _flow(i, z, h, w):
    """Sub-flow of v_i^2/2 + w*phi: drift coordinate i, then kick."""
    x1, x2, v1, v2 = z
    y1, y2 = (x1 + h * v1, x2) if i == 1 else (x1, x2 + h * v2)
    check_segment_xy(x1, x2, y1, y2)
    g1, g2 = grad_potential_xy(y1, y2)
    return y1, y2, v1 - h * (w * g1), v2 - h * (w * g2)


def _flow_adjoint(i, z, h, w):
    """Adjoint sub-flow: kick at the old point, then drift coordinate i."""
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential_xy(x1, x2)
    p1, p2 = v1 - h * (w * g1), v2 - h * (w * g2)
    y1, y2 = (x1 + h * p1, x2) if i == 1 else (x1, x2 + h * p2)
    check_segment_xy(x1, x2, y1, y2)
    return y1, y2, p1, p2


def _vi1_kernels(split: SplitPotential | None):
    """vi1 kernel and its adjoint for a split (default: the equal Kepler split).

    The step is _flow(2, _flow(1, z)) written out; the adjoint is the reverse
    composition _flow_adjoint(1, _flow_adjoint(2, z)) itself.
    """
    w = (split if split is not None else kepler_split()).weights
    if len(w) == 1:
        return _sym_euler, _sym_euler_adjoint
    w1, w2 = w

    def step(z, h):
        x1, x2, v1, v2 = z
        y1 = x1 + h * v1
        if -ORIGIN_TOL < x2 < ORIGIN_TOL:
            check_segment_xy(x1, x2, y1, x2)
        r = sqrt(y1 * y1 + x2 * x2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - h * (w1 * (y1 / r3)), v2 - h * (w1 * (x2 / r3))
        y2 = x2 + h * v2
        if -ORIGIN_TOL < y1 < ORIGIN_TOL:
            check_segment_xy(y1, x2, y1, y2)
        r = sqrt(y1 * y1 + y2 * y2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        return y1, y2, v1 - h * (w2 * (y1 / r3)), v2 - h * (w2 * (y2 / r3))

    return step, lambda z, h: _flow_adjoint(1, _flow_adjoint(2, z, h, w2), h, w1)


def _vi2_kernel(split: SplitPotential | None):
    """The vi1* half step, then the vi1 half step, as one function (sym-euler's on one part)."""
    w = (split if split is not None else kepler_split()).weights
    if len(w) == 1:
        return lambda z, h: _sym_euler(_sym_euler_adjoint(z, 0.5 * h), 0.5 * h)
    w1, w2 = w

    def kernel(z, h):
        c = 0.5 * h
        x1, x2, v1, v2 = z
        r = sqrt(x1 * x1 + x2 * x2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - c * (w2 * (x1 / r3)), v2 - c * (w2 * (x2 / r3))
        y2 = x2 + c * v2
        if -ORIGIN_TOL < x1 < ORIGIN_TOL:
            check_segment_xy(x1, x2, x1, y2)
        r = sqrt(x1 * x1 + y2 * y2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - c * (w1 * (x1 / r3)), v2 - c * (w1 * (y2 / r3))
        y1 = x1 + c * v1
        if -ORIGIN_TOL < y2 < ORIGIN_TOL:
            check_segment_xy(x1, y2, y1, y2)
        x1 = y1 + c * v1
        if -ORIGIN_TOL < y2 < ORIGIN_TOL:
            check_segment_xy(y1, y2, x1, y2)
        r = sqrt(x1 * x1 + y2 * y2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - c * (w1 * (x1 / r3)), v2 - c * (w1 * (y2 / r3))
        x2 = y2 + c * v2
        if -ORIGIN_TOL < x1 < ORIGIN_TOL:
            check_segment_xy(x1, y2, x1, x2)
        r = sqrt(x1 * x1 + x2 * x2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        return x1, x2, v1 - c * (w2 * (x1 / r3)), v2 - c * (w2 * (x2 / r3))

    return kernel


# --- Kernels on the relativistic planar state z = (t, x1, x2, gamma, u1, u2) ---
#
# k1 is _flow_hi(2, _flow_hi(1, _flow_ht(z))) written out; k1* is the reverse
# composition itself. A drift's gamma update reuses phi(start) from the flow before;
# k2's first drift evaluates its phi(start) after the drift check and phi(end), as
# _flow_hi does.

def _flow_ht(z, h):
    t, x1, x2, gamma, u1, u2 = z
    g1, g2 = grad_potential_xy(x1, x2)
    return t + h * gamma, x1, x2, gamma, u1 - h * gamma * g1, u2 - h * gamma * g2


def _flow_hi(i, z, h):
    t, x1, x2, gamma, u1, u2 = z
    y1, y2 = (x1 + h * u1, x2) if i == 1 else (x1, x2 + h * u2)
    check_segment_xy(x1, x2, y1, y2)
    return t, y1, y2, gamma - (potential_xy(y1, y2) - potential_xy(x1, x2)), u1, u2


def _k1(z, h):
    t, x1, x2, gamma, u1, u2 = z
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3, hg, p0 = r**3, h * gamma, -1.0 / r
    u1, u2 = u1 - hg * (x1 / r3), u2 - hg * (x2 / r3)
    y1 = x1 + h * u1
    if -ORIGIN_TOL < x2 < ORIGIN_TOL:
        check_segment_xy(x1, x2, y1, x2)
    r = sqrt(y1 * y1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    gamma = gamma - (p1 - p0)
    y2 = x2 + h * u2
    if -ORIGIN_TOL < y1 < ORIGIN_TOL:
        check_segment_xy(y1, x2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return t + hg, y1, y2, gamma - (-1.0 / r - p1), u1, u2


def _k2(z, h):
    """The k1* half step, then the k1 half step, written out; the time/kick flows share a force."""
    c = 0.5 * h
    t, x1, x2, gamma, u1, u2 = z
    y2 = x2 + c * u2
    if -ORIGIN_TOL < x1 < ORIGIN_TOL:
        check_segment_xy(x1, x2, x1, y2)
    r = sqrt(x1 * x1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    gamma = gamma - (p1 - -1.0 / r)
    y1 = x1 + c * u1
    if -ORIGIN_TOL < y2 < ORIGIN_TOL:
        check_segment_xy(x1, y2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p2 = -1.0 / r
    gamma = gamma - (p2 - p1)
    r3, hg = r**3, c * gamma
    u1, u2 = u1 - hg * (y1 / r3) - hg * (y1 / r3), u2 - hg * (y2 / r3) - hg * (y2 / r3)
    x1 = y1 + c * u1
    if -ORIGIN_TOL < y2 < ORIGIN_TOL:
        check_segment_xy(y1, y2, x1, y2)
    r = sqrt(x1 * x1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    gamma = gamma - (p1 - p2)
    x2 = y2 + c * u2
    if -ORIGIN_TOL < x1 < ORIGIN_TOL:
        check_segment_xy(x1, y2, x1, x2)
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return t + hg + hg, x1, x2, gamma - (-1.0 / r - p1), u1, u2


# --- The method table ---

@dataclass(frozen=True)
class Method:
    """One integrator of the table.

    ``model`` is "kepler" or "relativistic". ``kernels(split)`` returns the
    (step, adjoint) float kernels, each a (z, h) -> z map; the relativistic
    methods ignore the split, and a split of None is the equal Kepler split.
    ``drift_order`` maps "ecc" and "angle" to the predicted order of the
    per-period LRL drift; it is None for the relativistic methods.
    """
    id: str
    model: str
    kernels: Callable[[SplitPotential | None], tuple[Callable, Callable]]
    drift_order: dict[str, float] | None


METHODS = MappingProxyType({m.id: m for m in (
    Method("sym-euler", "kepler", lambda split: (_sym_euler, _sym_euler_adjoint),
           {"ecc": 2.0, "angle": 2.0}),
    Method("sv", "kepler", lambda split: (_sv, _sv), {"ecc": 4.0, "angle": 2.0}),
    Method("vi1", "kepler", _vi1_kernels, {"ecc": 2.0, "angle": 2.0}),
    Method("vi2", "kepler", lambda split: (_vi2_kernel(split),) * 2, {"ecc": 4.0, "angle": 2.0}),
    Method("k1", "relativistic",
           lambda split: (_k1, lambda z, h: _flow_ht(_flow_hi(1, _flow_hi(2, z, h), h), h)), None),
    Method("k2", "relativistic", lambda split: (_k2, _k2), None),
)})
METHOD_IDS = tuple(m.id for m in METHODS.values() if m.model == "kepler")
REL_METHOD_IDS = tuple(m.id for m in METHODS.values() if m.model == "relativistic")


def method(method_id: str, model: str = "kepler") -> Method:
    """The table entry of a method of ``model``; UnknownMethodError otherwise."""
    entry = METHODS.get(method_id)
    if entry is None or entry.model != model:
        raise UnknownMethodError(f"unknown {model} method {method_id!r}")
    return entry


# --- Public one-step maps: row 1 of a one-step run ---

def _planar(s) -> tuple[float, ...]:
    """The fields of a ``PhaseState`` or ``ExtPhaseState`` in order, as floats:
    (x1, x2, v1, v2) or (t, x1, x2, gamma, u1, u2)."""
    if isinstance(s, PhaseState):
        return (*s.x.tolist(), *s.v.tolist())
    return (float(s.t), *s.x.tolist(), float(s.gamma), *s.u.tolist())


def _one_step(kernel, s, h: float):
    """Row 1 of ``trajectory(kernel, _planar(s), h, 1)`` as the state type of ``s``:
    one step fails as a run does. h may be negative."""
    z = trajectory(kernel, _planar(s), h, 1)[1].tolist()
    if isinstance(s, PhaseState):
        return PhaseState(z[:2], z[2:])
    return type(s)(z[0], z[1:3], z[3], z[4:])


def step(method_id: str, s, h: float, split: SplitPotential | None = None,
         adjoint: bool = False):
    """One step of a table method, or of its adjoint, from ``s``.

    The model is the state's: a ``PhaseState`` steps a Kepler method, an
    ``ExtPhaseState`` a relativistic one. The result is row 1 of a one-step
    run, so a step raises SingularOriginError or NonFiniteStateError where a
    run would. h may be negative: Phi_{-h}(Phi*_h(s)) = s.
    """
    model = "kepler" if isinstance(s, PhaseState) else "relativistic"
    return _one_step(method(method_id, model).kernels(split)[int(adjoint)], s, h)


def step_sym_euler(s: PhaseState, h: float) -> PhaseState:
    """Kick-then-drift symplectic Euler: p+ = p - h grad(x); x+ = x + h p+."""
    return step("sym-euler", s, h)


def step_stormer_verlet(ts: TwoStepState, grad: Callable = grad_potential) -> np.ndarray:
    """Central-difference recurrence x+ = 2x - x_prev - h^2 grad(x) for any force ``grad``."""
    return 2.0 * ts.x_curr - ts.x_prev - ts.h**2 * grad(ts.x_curr)


def step_sv_one_step(s: PhaseState, h: float) -> PhaseState:
    """Kick-drift-kick Stormer-Verlet, consistent with the recurrence to round-off."""
    return step("sv", s, h)


def _part_weight(i: int, split: SplitPotential) -> float:
    if not 1 <= i <= len(split):
        raise ValueError(f"sub-flow index {i} out of range 1..{len(split)}")
    return split.weights[i - 1]


def substep_flow(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Sub-map of H(i) = p_i^2/2 + phi^(i): drift coordinate i, then kick."""
    return _one_step(partial(_flow, i, w=_part_weight(i, split)), s, h)


def substep_flow_adjoint(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Adjoint sub-map: kick with phi^(i) at the old point, then drift coordinate i."""
    return _one_step(partial(_flow_adjoint, i, w=_part_weight(i, split)), s, h)


def step_vi1(s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Composition of the sub-maps in ascending coordinate order.

    A single-part (degenerate) split collapses to symplectic Euler.
    """
    return step("vi1", s, h, split)


def step_vi2(s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Self-adjoint second-order step Phi_{h/2} o Phi*_{h/2} of the vi1 halves, written out."""
    return step("vi2", s, h, split)


# --- Discrete Lagrangians and Legendre transforms ---
#
# On a two-part split L1st(x0, x1) = kinetic - phi^(1)(x1_1, x0_2) - phi^(2)(x1), so its
# points must be planar; on the one-part split it is kinetic - phi(x0) in any dimension.

def discrete_lagrangian(lag_id: str, x0: np.ndarray, x1: np.ndarray, h: float,
                        split: SplitPotential | None = None) -> float:
    """Scalar value of the named discrete Lagrangian."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    d = x1 - x0
    kinetic = 0.5 * float(d @ d) / h**2
    if lag_id == "L2":
        return kinetic - 0.5 * (potential(x0) + potential(x1))
    lag_id, split = _require_split(lag_id, split, x0.size)
    if lag_id == "L1st":
        if len(split) == 1:
            return kinetic - split.value(0, x0)
        return kinetic - (split.value(0, np.array([x1[0], x0[1]])) + split.value(1, x1))
    if lag_id == "Lstar":
        return discrete_lagrangian("L1st", x1, x0, -h, split)
    if lag_id == "L2nd":
        xm = _midpoint_stage(x0, x1, h, split)
        return 0.5 * discrete_lagrangian("Lstar", x0, xm, 0.5 * h, split) \
            + 0.5 * discrete_lagrangian("L1st", xm, x1, 0.5 * h, split)
    raise UnknownMethodError(f"unknown discrete Lagrangian {lag_id!r}")


def _require_split(lag_id, split, n):
    """(lag_id, split), the default split filled in and checked against the points of
    every split Lagrangian, L1 included; L1 is L1st on the one-part split, and L2 takes
    no split."""
    if lag_id == "L2":
        return lag_id, split
    if split is None:
        split = kepler_split()
    if len(split) != 1 and (len(split), n) != (2, 2):
        raise ValueError(f"{lag_id} needs a one-part split, or a two-part split and planar points")
    if lag_id == "L1":
        return "L1st", SplitPotential((1.0,))
    return lag_id, split


def _l1st_minus(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """p_n = -h dL1st/dx_n in closed form."""
    if len(split) == 1:
        return (x1 - x0) / h + h * split.grad(0, x0)
    p = (x1 - x0) / h
    p[1] += h * split.grad(0, np.array([x1[0], x0[1]]))[1]
    return p


def _l1st_plus(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """p_{n+1} = h dL1st/dx_{n+1} in closed form."""
    if len(split) == 1:
        return (x1 - x0) / h
    p = (x1 - x0) / h
    g0, g1 = split.grad(0, np.array([x1[0], x0[1]])), split.grad(1, x1)
    p[0] -= h * (g0[0] + g1[0])
    p[1] -= h * g1[1]
    return p


def legendre_minus(lag_id: str, x0: np.ndarray, x1: np.ndarray, h: float,
                   split: SplitPotential | None = None) -> np.ndarray:
    """p_n = -h d1 L(x_n, x_{n+1}, h) for the named discrete Lagrangian."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if lag_id == "L2":
        return (x1 - x0) / h + 0.5 * h * grad_potential(x0)
    lag_id, split = _require_split(lag_id, split, x0.size)
    if lag_id == "L1st":
        return _l1st_minus(x0, x1, h, split)
    if lag_id == "Lstar":
        return _l1st_plus(x1, x0, -h, split)
    if lag_id == "L2nd":
        xm = _midpoint_stage(x0, x1, h, split)
        return legendre_minus("Lstar", x0, xm, 0.5 * h, split)
    raise UnknownMethodError(f"unknown discrete Lagrangian {lag_id!r}")


def legendre_plus(lag_id: str, x0: np.ndarray, x1: np.ndarray, h: float,
                  split: SplitPotential | None = None) -> np.ndarray:
    """p_{n+1} = h d2 L(x_n, x_{n+1}, h), the minus transform of the adjoint
    L*(x0, x1, h) = L(x1, x0, -h) at (x_{n+1}, x_n, -h): the adjoint swaps L1st
    and Lstar (L1 is L1st on the one-part split), and L2 and L2nd are their own."""
    x0 = np.asarray(x0, dtype=float)
    lag_id, split = _require_split(lag_id, split, x0.size)
    adjoint = {"L1st": "Lstar", "Lstar": "L1st"}.get(lag_id, lag_id)
    return legendre_minus(adjoint, x1, x0, -h, split)


def _midpoint_stage(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """Internal stage of L2nd: momentum matching of the two half Lagrangians."""
    g = 0.5 * h

    def residual(xm):       # Lstar's plus transform at (x0, xm) is L1st's minus one at (xm, x0, -g)
        return legendre_minus("L1st", xm, x0, -g, split) - legendre_minus("L1st", xm, x1, g, split)

    xm = 0.5 * (x0 + x1)
    return _newton(residual, xm, tol=_momentum_tol(1e-13, g, x0, x1), what="L2nd midpoint stage")


def _momentum_tol(tol: float, h: float, x0: np.ndarray, x1: np.ndarray) -> float:
    """``tol``, or 8 ulps of the largest coordinate of x0 and x1 over |h| if that is
    larger: a momentum difference (x1 - x0)/h cannot settle below that floor."""
    return max(tol, 8.0 * float(np.spacing(max(np.abs(x0).max(), np.abs(x1).max()))) / abs(h))


def _newton(residual, guess: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The one Newton solver: undamped, with the forward-difference Jacobian
    (residual(x + delta e_j) - r) / delta, delta = 1e-7. It returns x once
    max|residual(x)| < tol; a singular Jacobian, or no such x within 50
    iterations, raises NonConvergenceError naming ``what``."""
    x = np.array(guess, dtype=float)
    for _ in range(50):
        r = residual(x)
        norm = float(np.max(np.abs(r)))
        if norm < tol:
            return x
        jac = np.empty((r.size, x.size))
        for j in range(x.size):
            e = np.zeros(x.size)
            e[j] = 1e-7
            jac[:, j] = (residual(x + e) - r) / 1e-7
        try:
            x = x - np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"{what}: singular Jacobian") from exc
    raise NonConvergenceError(f"{what} did not settle in 50 iterations: residual {norm:.3e}")


def bootstrap_first_point(s0: PhaseState, lag_id: str, h: float,
                          split: SplitPotential | None = None) -> np.ndarray:
    """Solve v0 = -h d1 L(x0, x1) for the first multistep point x1."""
    check_step_size(h)

    def residual(x1):
        return legendre_minus(lag_id, s0.x, x1, h, split) - s0.v

    x1 = s0.x + h * s0.v
    return _newton(residual, x1, _momentum_tol(1e-12, h, s0.x, x1), f"bootstrap for {lag_id}")


def del_two_step_vi1(ts: TwoStepState, split: SplitPotential) -> np.ndarray:
    """Two-step discrete Euler-Lagrange update for the split Lagrangian.

    The staggered arguments make the solve explicit: coordinate 1 first, then
    coordinate 2 with the new coordinate 1. A two-part split needs planar
    points; a one-part split collapses to the plain central-difference
    recurrence.
    """
    x_prev, x, h = ts.x_prev, ts.x_curr, ts.h
    if len(split) == 1:
        return 2.0 * x - x_prev - h**2 * split.grad(0, x)
    if (len(split), x.size) != (2, 2):
        raise ValueError("a coordinate split needs two parts and planar points")
    g0, g1 = split.grad(0, np.array([x[0], x_prev[1]])), split.grad(1, x)
    y1 = 2.0 * x[0] - x_prev[0] - h**2 * (g0[0] + g1[0])
    g0 = split.grad(0, np.array([y1, x[1]]))
    return np.array([y1, 2.0 * x[1] - x_prev[1] - h**2 * (g0[1] + g1[1])])


# --- Trajectory running ---

def trajectory(kernel, z0: tuple[float, ...], h: float, steps: int) -> np.ndarray:
    """States z_0 .. z_steps of z_{k+1} = kernel(z_k, h), one row each.

    A singular drift or force raises SingularOriginError, and a non-finite
    state or a float overflow raises NonFiniteStateError; both name the step
    and carry it as ``step``, with the last finite state as ``state``.
    """
    width = len(z0)
    buf = array("d", z0)
    z = z0
    try:
        for k in range(1, steps + 1):
            z = kernel(z, h)
            buf.extend(z)
    except SingularOriginError as exc:
        raise SingularOriginError(f"step {k}: {exc}", step=k, state=tuple(z)) from exc
    except OverflowError as exc:
        _check_finite(np.frombuffer(buf).reshape(k, width))
        raise NonFiniteStateError(f"step {k}: float overflow ({exc})",
                                  step=k, state=tuple(z)) from exc
    out = np.frombuffer(buf).reshape(steps + 1, width)
    _check_finite(out)
    return out


def _check_finite(states: np.ndarray, names: tuple[str, ...] = (), *cols: np.ndarray) -> None:
    """Raise NonFiniteStateError at the first non-finite row of ``states`` or, given
    diagnostic columns, at their first non-finite value, one name per column (a 2-D
    column has one per column of it)."""
    table = np.column_stack(cols) if cols else states
    finite = np.isfinite(table)
    if not finite.all():
        k, j = divmod(int(np.argmin(finite)), table.shape[1])
        what = f"{names[j]} = {table[k, j]}" if cols else f"state {states[k].tolist()}"
        raise NonFiniteStateError(f"step {k}: {what} is not finite",
                                  step=k, state=tuple(states[k - 1].tolist()) if k else None)


def _states(method_id: str, model: str, s0, h: float, steps: int,
            split: SplitPotential | None = None) -> np.ndarray:
    """Rows z_0 .. z_steps of a ``steps``-step run of a ``model`` method from ``s0``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    check_step_size(h)
    return trajectory(method(method_id, model).kernels(split)[0], _planar(s0), h, steps)


def run(method_id: str, s0: PhaseState, h: float, steps: int,
        split: SplitPotential | None = None, diagnostics: bool = True) -> TrajectoryRecord:
    """Integrate ``steps`` uniform steps and record the trajectory.

    Conserved-quantity columns are evaluated vectorized after the run; the
    output is deterministic for a given configuration. A non-finite column
    value raises NonFiniteStateError naming the step and the column.
    """
    z = _states(method_id, "kepler", s0, h, steps, split)
    xs, vs = z[:, :2], z[:, 2:]
    times = h * np.arange(steps + 1)
    if not diagnostics:
        return TrajectoryRecord(method_id, h, times, xs, vs)

    with np.errstate(over="ignore", invalid="ignore"):
        r = np.linalg.norm(xs, axis=1)
        v2 = np.einsum("ij,ij->i", vs, vs)
        xv = np.einsum("ij,ij->i", xs, vs)
        H = 0.5 * v2 - 1.0 / r
        m = xs[:, 0] * vs[:, 1] - xs[:, 1] * vs[:, 0]
        A = xs * v2[:, None] - vs * xv[:, None] - xs / r[:, None]
        ecc = np.hypot(A[:, 0], A[:, 1])
        angle = np.arctan2(A[:, 1], A[:, 0])
    _check_finite(z, ("H", "m", "A1", "A2", "ecc", "angle"), H, m, A, ecc, angle)
    return TrajectoryRecord(method_id, h, times, xs, vs, H=H, m=m, A=A, ecc=ecc, angle=angle)
