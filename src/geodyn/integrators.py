"""One-step and two-step integrators, and the table of all six methods.

``METHODS`` is the one place that knows the methods: symplectic Euler,
Stormer-Verlet, vi1 (order 1) and vi2 (order 2) for the Kepler problem, and
k1 (order 1) and k2 (order 2) for the relativistic system of
``geodyn.relativistic``. Each entry gives the model, the plain-float step
kernel and its adjoint, and the predicted drift orders. vi1 and k1 compose
exact sub-flows; vi2 and k2 pair a half step with its adjoint (``paired``).
Each kernel is its composition written out as one float function (vi2 pairs
the written-out vi1 halves); the sub-flows stay as the public sub-steps and
as the reference the kernels equal bit for bit. vi1 and vi2 also exist in
two-step discrete Euler-Lagrange form, equivalent to the compositions once
the first point is seeded through the discrete Legendre transform.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import sqrt
from types import MappingProxyType
from typing import Callable

import numpy as np

from geodyn.errors import (
    NonConvergenceError,
    NonFiniteStateError,
    NonPlanarStateError,
    SingularOriginError,
    UnknownMethodError,
)
from geodyn.kepler import (
    ORIGIN_TOL,
    PhaseState,
    SplitPotential,
    check_segment_xy,
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
    """Consecutive positions of a two-step recurrence."""
    x_prev: np.ndarray
    x_curr: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "x_prev", np.asarray(self.x_prev, dtype=float))
        object.__setattr__(self, "x_curr", np.asarray(self.x_curr, dtype=float))
        if self.h <= 0:
            raise ValueError("step size must be positive")


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
# the sub-flows' operation order, e.g. v - h*(w*(x1/r3)). Every drift is segment-checked.

def _sym_euler(z, h):
    x1, x2, v1, v2 = z
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    v1, v2 = v1 - h * (x1 / r3), v2 - h * (x2 / r3)
    y1, y2 = x1 + h * v1, x2 + h * v2
    check_segment_xy(x1, x2, y1, y2)
    return y1, y2, v1, v2


def _sym_euler_adjoint(z, h):
    x1, x2, v1, v2 = z
    y1, y2 = x1 + h * v1, x2 + h * v2
    check_segment_xy(x1, x2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    return y1, y2, v1 - h * (y1 / r3), v2 - h * (y2 / r3)


def _sv(z, h):
    x1, x2, v1, v2 = z
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    r3 = r**3
    p1, p2 = v1 - 0.5 * h * (x1 / r3), v2 - 0.5 * h * (x2 / r3)
    y1, y2 = x1 + h * p1, x2 + h * p2
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

    The step is _flow(2, _flow(1, z)), the adjoint _flow_adjoint(1, _flow_adjoint(2, z)).
    """
    w = (split if split is not None else kepler_split()).weights
    if len(w) == 1:
        return _sym_euler, _sym_euler_adjoint
    w1, w2 = w

    def step(z, h):
        x1, x2, v1, v2 = z
        y1 = x1 + h * v1
        check_segment_xy(x1, x2, y1, x2)
        r = sqrt(y1 * y1 + x2 * x2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - h * (w1 * (y1 / r3)), v2 - h * (w1 * (x2 / r3))
        y2 = x2 + h * v2
        check_segment_xy(y1, x2, y1, y2)
        r = sqrt(y1 * y1 + y2 * y2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        return y1, y2, v1 - h * (w2 * (y1 / r3)), v2 - h * (w2 * (y2 / r3))

    def adjoint(z, h):
        x1, x2, v1, v2 = z
        r = sqrt(x1 * x1 + x2 * x2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - h * (w2 * (x1 / r3)), v2 - h * (w2 * (x2 / r3))
        y2 = x2 + h * v2
        check_segment_xy(x1, x2, x1, y2)
        r = sqrt(x1 * x1 + y2 * y2)
        if r < ORIGIN_TOL:
            raise origin_error(r)
        r3 = r**3
        v1, v2 = v1 - h * (w1 * (x1 / r3)), v2 - h * (w1 * (y2 / r3))
        y1 = x1 + h * v1
        check_segment_xy(x1, y2, y1, y2)
        return y1, y2, v1, v2

    return step, adjoint


# --- Kernels on the relativistic planar state z = (t, x1, x2, gamma, u1, u2) ---
#
# k1 is _flow_hi(2, _flow_hi(1, _flow_ht(z))) written out, k1* the reverse. A drift's
# gamma update reuses phi(start) from the flow before; k1* evaluates its first
# phi(start) after the drift check and phi(end), as _flow_hi does.

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
    check_segment_xy(x1, x2, y1, x2)
    r = sqrt(y1 * y1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    gamma = gamma - (p1 - p0)
    y2 = x2 + h * u2
    check_segment_xy(y1, x2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return t + hg, y1, y2, gamma - (-1.0 / r - p1), u1, u2


def _k1_adjoint(z, h):
    t, x1, x2, gamma, u1, u2 = z
    y2 = x2 + h * u2
    check_segment_xy(x1, x2, x1, y2)
    r = sqrt(x1 * x1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    gamma = gamma - (p1 - -1.0 / r)
    y1 = x1 + h * u1
    check_segment_xy(x1, y2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    gamma = gamma - (-1.0 / r - p1)
    r3, hg = r**3, h * gamma
    return t + hg, y1, y2, gamma, u1 - hg * (y1 / r3), u2 - hg * (y2 / r3)


def _k2(z, h):
    """paired(_k1, _k1_adjoint) written out; its two time/kick flows share one force."""
    c = 0.5 * h
    t, x1, x2, gamma, u1, u2 = z
    y2 = x2 + c * u2
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
    check_segment_xy(x1, y2, y1, y2)
    r = sqrt(y1 * y1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p2 = -1.0 / r
    gamma = gamma - (p2 - p1)
    r3, hg = r**3, c * gamma
    u1, u2 = u1 - hg * (y1 / r3) - hg * (y1 / r3), u2 - hg * (y2 / r3) - hg * (y2 / r3)
    x1 = y1 + c * u1
    check_segment_xy(y1, y2, x1, y2)
    r = sqrt(x1 * x1 + y2 * y2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    p1 = -1.0 / r
    gamma = gamma - (p1 - p2)
    x2 = y2 + c * u2
    check_segment_xy(x1, y2, x1, x2)
    r = sqrt(x1 * x1 + x2 * x2)
    if r < ORIGIN_TOL:
        raise origin_error(r)
    return t + hg + hg, x1, x2, gamma - (-1.0 / r - p1), u1, u2


def paired(step, adjoint):
    """Self-adjoint kernel Phi_{h/2} o Phi*_{h/2} from a kernel and its adjoint.

    The adjoint half step runs first. This is the map generated by the
    second-order discrete Lagrangian, and the pairing behind vi2 and k2.
    """
    def kernel(z, h):
        half = 0.5 * h
        return step(adjoint(z, half), half)
    return kernel


def _self_adjoint(kernel):
    return kernel, kernel


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
    Method("sv", "kepler", lambda split: _self_adjoint(_sv), {"ecc": 4.0, "angle": 2.0}),
    Method("vi1", "kepler", _vi1_kernels, {"ecc": 2.0, "angle": 2.0}),
    Method("vi2", "kepler", lambda split: _self_adjoint(paired(*_vi1_kernels(split))),
           {"ecc": 4.0, "angle": 2.0}),
    Method("k1", "relativistic", lambda split: (_k1, _k1_adjoint), None),
    Method("k2", "relativistic", lambda split: _self_adjoint(_k2), None),
)})
METHOD_IDS = tuple(m.id for m in METHODS.values() if m.model == "kepler")
REL_METHOD_IDS = tuple(m.id for m in METHODS.values() if m.model == "relativistic")


def method(method_id: str, model: str = "kepler") -> Method:
    """The table entry of a method of ``model``; UnknownMethodError otherwise."""
    entry = METHODS.get(method_id)
    if entry is None or entry.model != model:
        raise UnknownMethodError(f"unknown {model} method {method_id!r}")
    return entry


# --- Public one-step maps: PhaseState wrappers over the kernels ---

def _planar(s) -> tuple[float, ...]:
    """The fields of a planar ``PhaseState`` or ``ExtPhaseState`` in order, as
    floats: (x1, x2, v1, v2) or (t, x1, x2, gamma, u1, u2)."""
    if s.n != 2:
        raise NonPlanarStateError(f"the step kernels are planar; got a state with N = {s.n}")
    if isinstance(s, PhaseState):
        return (*s.x.tolist(), *s.v.tolist())
    return (float(s.t), *s.x.tolist(), float(s.gamma), *s.u.tolist())


def _phase(z) -> PhaseState:
    return PhaseState(np.array(z[:2]), np.array(z[2:]))


def step_sym_euler(s: PhaseState, h: float) -> PhaseState:
    """Kick-then-drift symplectic Euler: p+ = p - h grad(x); x+ = x + h p+."""
    return _phase(_sym_euler(_planar(s), h))


def step_sym_euler_adjoint(s: PhaseState, h: float) -> PhaseState:
    return _phase(_sym_euler_adjoint(_planar(s), h))


def step_stormer_verlet(ts: TwoStepState, grad: Callable = grad_potential) -> np.ndarray:
    """Central-difference recurrence x+ = 2x - x_prev - h^2 grad(x) for any force ``grad``."""
    return 2.0 * ts.x_curr - ts.x_prev - ts.h**2 * grad(ts.x_curr)


def step_sv_one_step(s: PhaseState, h: float) -> PhaseState:
    """Kick-drift-kick Stormer-Verlet, consistent with the recurrence to round-off."""
    return _phase(_sv(_planar(s), h))


def _part_weight(i: int, split: SplitPotential) -> float:
    if not 1 <= i <= len(split):
        raise ValueError(f"sub-flow index {i} out of range 1..{len(split)}")
    return split.weights[i - 1]


def substep_flow(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Sub-map of H(i) = p_i^2/2 + phi^(i): drift coordinate i, then kick."""
    return _phase(_flow(i, _planar(s), h, _part_weight(i, split)))


def substep_flow_adjoint(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Adjoint sub-map: kick with phi^(i) at the old point, then drift coordinate i."""
    return _phase(_flow_adjoint(i, _planar(s), h, _part_weight(i, split)))


def step_vi1(s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Composition of the sub-maps in ascending coordinate order.

    A single-part (degenerate) split collapses to symplectic Euler.
    """
    return _phase(_vi1_kernels(split)[0](_planar(s), h))


def step_vi1_adjoint(s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Reversed composition of adjoint sub-maps; inverse of the h -> -h map."""
    return _phase(_vi1_kernels(split)[1](_planar(s), h))


def step_vi2(s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Self-adjoint second-order step Phi_{h/2} o Phi*_{h/2} of the vi1 halves (``paired``)."""
    return _phase(paired(*_vi1_kernels(split))(_planar(s), h))


# --- Discrete Lagrangians and Legendre transforms ---

def _hat(base: np.ndarray, top: np.ndarray, count: int) -> np.ndarray:
    """base with its first ``count`` coordinates replaced from ``top``."""
    y = base.copy()
    y[:count] = top[:count]
    return y


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
        return kinetic - sum(
            split.value(j, _hat(x0, x1, j + 1)) for j in range(len(split))
        )
    if lag_id == "Lstar":
        return discrete_lagrangian("L1st", x1, x0, -h, split)
    if lag_id == "L2nd":
        xm = _midpoint_stage(x0, x1, h, split)
        return 0.5 * discrete_lagrangian("Lstar", x0, xm, 0.5 * h, split) \
            + 0.5 * discrete_lagrangian("L1st", xm, x1, 0.5 * h, split)
    raise UnknownMethodError(f"unknown discrete Lagrangian {lag_id!r}")


def _require_split(lag_id, split, n):
    """(lag_id, split) with the default split filled in; L1 is L1st on the one-part split."""
    if lag_id == "L1":
        return "L1st", SplitPotential((1.0,))
    if split is None:
        split = kepler_split()
    if len(split) not in (1, n):
        raise ValueError(f"{lag_id} needs a split with 1 or {n} parts")
    return lag_id, split


def _l1st_minus(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """p_n = -h dL1st/dx_n in closed form."""
    if len(split) == 1:
        return (x1 - x0) / h + h * split.grad(0, x0)
    p = (x1 - x0) / h
    for i in range(1, len(split)):      # coordinates 2..N (0-based i)
        acc = 0.0
        for j in range(i):              # parts 1..i-1
            acc += split.grad(j, _hat(x0, x1, j + 1))[i]
        p[i] += h * acc
    return p


def _l1st_plus(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """p_{n+1} = h dL1st/dx_{n+1} in closed form."""
    if len(split) == 1:
        return (x1 - x0) / h
    p = (x1 - x0) / h
    for i in range(len(split)):
        acc = 0.0
        for j in range(i, len(split)):  # parts i..N
            acc += split.grad(j, _hat(x0, x1, j + 1))[i]
        p[i] -= h * acc
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
    """p_{n+1} = h d2 L(x_n, x_{n+1}, h) for the named discrete Lagrangian."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if lag_id == "L2":
        return (x1 - x0) / h - 0.5 * h * grad_potential(x1)
    lag_id, split = _require_split(lag_id, split, x0.size)
    if lag_id == "L1st":
        return _l1st_plus(x0, x1, h, split)
    if lag_id == "Lstar":
        return _l1st_minus(x1, x0, -h, split)
    if lag_id == "L2nd":
        xm = _midpoint_stage(x0, x1, h, split)
        return legendre_plus("L1st", xm, x1, 0.5 * h, split)
    raise UnknownMethodError(f"unknown discrete Lagrangian {lag_id!r}")


def legendre_fd(lag_id: str, x0, x1, h, split=None):
    """Finite-difference cross-check of both Legendre transforms (delta = 1e-6)."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    p_minus = -h * central_diff(lambda x: discrete_lagrangian(lag_id, x, x1, h, split), x0, 1e-6)
    p_plus = h * central_diff(lambda x: discrete_lagrangian(lag_id, x0, x, h, split), x1, 1e-6)
    return p_minus, p_plus


def central_diff(fn, x: np.ndarray, delta: float) -> np.ndarray:
    """(fn(x + delta e_i) - fn(x - delta e_i)) / (2 delta) for each coordinate i.

    The differences are stacked along the last axis, so for a vector-valued
    ``fn`` the result is its Jacobian, column i the derivative along e_i.
    """
    n = x.size
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = delta
        cols.append((fn(x + e) - fn(x - e)) / (2 * delta))
    return np.stack(cols, axis=-1)


def _midpoint_stage(x0: np.ndarray, x1: np.ndarray, h: float, split: SplitPotential) -> np.ndarray:
    """Internal stage of L2nd: momentum matching of the two half Lagrangians."""
    g = 0.5 * h

    def residual(xm):
        return legendre_plus("Lstar", x0, xm, g, split) - legendre_minus("L1st", xm, x1, g, split)

    xm = 0.5 * (x0 + x1)
    return _newton(residual, xm, tol=1e-13, what="L2nd midpoint stage")


def _newton(residual, guess: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Damped Newton, at most 50 iterations, with a finite-difference Jacobian (delta = 1e-7)."""
    x = guess.astype(float).copy()
    for _ in range(50):
        r = residual(x)
        norm = float(np.max(np.abs(r)))
        if norm < tol:
            return x
        jac = central_diff(residual, x, 1e-7)
        try:
            dx = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"{what}: singular Jacobian") from exc
        lam = 1.0
        for _ in range(20):
            trial = x - lam * dx
            if float(np.max(np.abs(residual(trial)))) < norm or lam < 1e-4:
                x = trial
                break
            lam *= 0.5
    r = residual(x)
    if float(np.max(np.abs(r))) < tol:
        return x
    raise NonConvergenceError(f"{what}: Newton failed after 50 iterations")


def bootstrap_first_point(s0: PhaseState, lag_id: str, h: float,
                          split: SplitPotential | None = None) -> np.ndarray:
    """Solve v0 = -h d1 L(x0, x1) for the first multistep point x1."""

    def residual(x1):
        return legendre_minus(lag_id, s0.x, x1, h, split) - s0.v

    return _newton(residual, s0.x + h * s0.v, tol=1e-12, what=f"bootstrap for {lag_id}")


def del_two_step_vi1(ts: TwoStepState, split: SplitPotential) -> np.ndarray:
    """Two-step discrete Euler-Lagrange update for the split Lagrangian.

    The staggered arguments make the solve explicit in ascending coordinate
    order for any split whose part count equals the dimension; a one-part
    split collapses to the plain central-difference recurrence.
    """
    x_prev, x, h = ts.x_prev, ts.x_curr, ts.h
    n = x.size
    if len(split) == 1:
        return 2.0 * x - x_prev - h**2 * split.grad(0, x)
    if len(split) != n:
        raise ValueError("coordinate split must have one part per dimension")
    x_next = np.empty(n)
    for i in range(n):
        force = 0.0
        for j in range(i):
            force += split.grad(j, _hat(x, x_next, j + 1))[i]
        for j in range(i, n):
            force += split.grad(j, _hat(x_prev, x, j + 1))[i]
        x_next[i] = 2.0 * x[i] - x_prev[i] - h**2 * force
    return x_next


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


def _check_finite(states: np.ndarray) -> None:
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteStateError(f"step {k}: state {states[k].tolist()} is not finite",
                                  step=k, state=tuple(states[k - 1].tolist()) if k else None)


def one_step_map(method_id: str, split: SplitPotential | None = None):
    """One-step PhaseState map of a Kepler method; run() steps the same kernel on floats."""
    step = method(method_id).kernels(split)[0]
    return lambda s, h: _phase(step(_planar(s), h))


def _run_kernel(method_id: str, model: str, h: float, steps: int,
                split: SplitPotential | None = None):
    """The step kernel of a ``steps``-step run, after checking ``steps`` and ``h``."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if h <= 0:
        raise ValueError("step size must be positive")
    return method(method_id, model).kernels(split)[0]


def run(method_id: str, s0: PhaseState, h: float, steps: int,
        split: SplitPotential | None = None, diagnostics: bool = True) -> TrajectoryRecord:
    """Integrate ``steps`` uniform steps and record the trajectory.

    Conserved-quantity columns are evaluated vectorized after the run; the
    output is deterministic for a given configuration.
    """
    kernel = _run_kernel(method_id, "kepler", h, steps, split)
    z = trajectory(kernel, _planar(s0), h, steps)
    xs, vs = z[:, :2], z[:, 2:]
    times = h * np.arange(steps + 1)
    if not diagnostics:
        return TrajectoryRecord(method_id, h, times, xs, vs)

    r = np.linalg.norm(xs, axis=1)
    v2 = np.einsum("ij,ij->i", vs, vs)
    xv = np.einsum("ij,ij->i", xs, vs)
    H = 0.5 * v2 - 1.0 / r
    m = xs[:, 0] * vs[:, 1] - xs[:, 1] * vs[:, 0]
    A = xs * v2[:, None] - vs * xv[:, None] - xs / r[:, None]
    ecc = np.hypot(A[:, 0], A[:, 1])
    angle = np.arctan2(A[:, 1], A[:, 0])
    return TrajectoryRecord(method_id, h, times, xs, vs, H=H, m=m, A=A, ecc=ecc, angle=angle)
