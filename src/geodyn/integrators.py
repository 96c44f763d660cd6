"""One-step and two-step integrators, and the table of all six methods.

``METHODS`` is the one place that knows the methods: symplectic Euler,
Stormer-Verlet, vi1 (order 1) and vi2 (order 2) for the Kepler problem, and
k1 (order 1) and k2 (order 2) for the relativistic system of
``geodyn.relativistic``. Each entry gives the model, the step kernel and its
adjoint as state generators, and the predicted drift orders. vi1 and k1
compose exact sub-flows, their adjoints the same sub-flows in reverse; vi2
and k2 are the adjoint half step followed by the half step. A step kernel is
one loop that carries its closing force or potential into the next step and
yields each state as one packed row of floats, which ``trajectory`` joins in
1024-row chunks; one-step maps (sub-flows, adjoints) become generators through
``_iterate``, and the sub-flows are the reference the kernels equal bit for
bit. vi1 and k1 also exist in two-step discrete Euler-Lagrange form, a map from
one ``TwoStepState`` to the next, equivalent to the composition once the first
state is seeded through the discrete Legendre transform; on the one-part split
vi1's is the central-difference recurrence of sym-euler and sv.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, wraps
from itertools import islice
from math import inf, sqrt
from struct import Struct
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
    _invariants,
    check_segment_xy,
    check_step_size,
    grad_potential,
    kepler_split,
    origin_error,
    potential,
)

LAGRANGIAN_IDS = ("L1", "L2", "L1st", "Lstar", "L2nd")


@dataclass(frozen=True)
class TwoStepState:
    """Consecutive points x, or q = (t, x) in the relativistic recurrence, of a two-step
    recurrence, finite and of one shape; h*h neither 0.0 nor inf (else ValueError)."""
    prev: np.ndarray
    curr: np.ndarray
    h: float

    def __post_init__(self):
        object.__setattr__(self, "prev", np.asarray(self.prev, dtype=float))
        object.__setattr__(self, "curr", np.asarray(self.curr, dtype=float))
        if self.prev.shape != self.curr.shape or not np.isfinite([self.prev, self.curr]).all():
            raise ValueError("positions must be finite and of one shape, "
                             f"got {self.prev.tolist()}, {self.curr.tolist()}")
        check_step_size(self.h)
        _check_square(self.h)


def _check_square(h: float, inf_ok: bool = False) -> None:
    """The h rule of the two-step layer: ValueError if h*h is 0.0 or, unless ``inf_ok``, inf."""
    hh = float(h) * float(h)
    if hh == 0.0 or (hh == inf and not inf_ok):
        raise ValueError(f"step size h = {h!r} squares to {hh!r} in the two-step layer")


def _finite(value, what: str, h: float):
    """``value`` if all of it is finite, else NonFiniteStateError naming ``what`` and h."""
    if np.isfinite(value).all():
        return value
    raise NonFiniteStateError(f"{what} {np.asarray(value).tolist()} not finite for h = {h!r}")


def _finite_update(update):
    """The map ts -> TwoStepState(ts.curr, update(ts, ...), ts.h), unwarned; a next point
    that is not finite raises NonFiniteStateError."""
    @wraps(update)
    def checked(ts: TwoStepState, *args, **kwargs) -> TwoStepState:
        with np.errstate(over="ignore", invalid="ignore"):
            x_next = update(ts, *args, **kwargs)
        return TwoStepState(ts.curr, _finite(x_next, "two-step update", ts.h), ts.h)
    checked.__annotations__ = {**update.__annotations__, "return": TwoStepState}
    return checked


def _finite_transform(transform):
    """``transform(lag_id, x0, x1, h, split)``, unwarned: an h whose h*h is 0.0 raises ValueError
    (an inf h*h is fine), and a value that is not finite, its own or a nested transform's,
    NonFiniteStateError naming this call: the transform, ``lag_id`` and h."""
    @wraps(transform)
    def checked(lag_id: str, x0, x1, h: float, split: SplitPotential | None = None):
        _check_square(h, inf_ok=True)
        what = f"{transform.__name__} {lag_id}"
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = transform(lag_id, x0, x1, h, split)
        except NonFiniteStateError as exc:
            raise NonFiniteStateError(f"{what} not finite for h = {h!r}") from exc
        return _finite(value, what, h)
    return checked


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
# A table kernel is a state generator (z, h) -> z_1, z_2, ... on plain floats: its sub-flow
# composition written out in one loop, force x/r3 (r3 = r * r * r, as grad_potential
# cubes) and potential -1/r inline in the sub-flows' operation order, e.g. v - h*(w*(x1/r3)),
# the closing force (sv, vi2) or potential (k1, k2) kept for the next step. It yields each
# state as one row packed by _ROW4 or _ROW6, which trajectory joins 1024 rows at a time.
# _iterate makes a one-step map such a generator. A drift's check_segment_xy runs only
# where it can raise, which keeps the composition's bits and errors:
# - a coordinate drift keeps c fixed, the check's nearest point has c exactly, and
#   fl(c*c) >= fl(tol*tol) once |c| >= tol: only -ORIGIN_TOL < c < ORIGIN_TOL can raise
#   (a NaN or infinite c makes the check's nearest point NaN, which never raises);
# - a full drift from a by d stays beyond |a|/2 >= 2*ORIGIN_TOL if 4|d|^2 < |a|^2 and
#   16*ORIGIN_TOL^2 <= |a|^2 < inf; the factor 2 covers all rounding. NaN or inf calls it.
_FAR2 = 16.0 * ORIGIN_TOL * ORIGIN_TOL
_ROW4, _ROW6 = Struct("4d"), Struct("6d")      # a packed (x1, x2, v1, v2), (t, x1, x2, gamma, u1, u2)


def _iterate(kernel):
    """The state generator of a one-step map: packed rows z_{k+1} = kernel(z_k, h), k = 0, 1, ..."""
    def states(z, h):
        pack = (_ROW4 if len(z) == 4 else _ROW6).pack
        while True:
            z = kernel(z, h)
            yield pack(*z)
    return states


def _sym_euler_states(z, h):
    x1, x2, v1, v2 = z
    tol, far2, pack = ORIGIN_TOL, _FAR2, _ROW4.pack
    while True:
        rr = x1 * x1 + x2 * x2
        r = sqrt(rr)
        if r < tol:
            raise origin_error(r)
        r3 = r * r * r
        v1, v2 = v1 - h * (x1 / r3), v2 - h * (x2 / r3)
        d1, d2 = h * v1, h * v2
        y1, y2 = x1 + d1, x2 + d2
        if not (4.0 * (d1 * d1 + d2 * d2) < rr and far2 <= rr < inf):
            check_segment_xy(x1, x2, y1, y2)
        x1, x2 = y1, y2
        yield pack(x1, x2, v1, v2)


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
    r3 = r * r * r
    return y1, y2, v1 - h * (y1 / r3), v2 - h * (y2 / r3)


def _sv_states(z, h):
    x1, x2, v1, v2 = z
    c, tol, far2, pack = 0.5 * h, ORIGIN_TOL, _FAR2, _ROW4.pack
    rr = x1 * x1 + x2 * x2
    r = sqrt(rr)
    if r < tol:
        raise origin_error(r)
    r3 = r * r * r
    g1, g2 = x1 / r3, x2 / r3
    while True:
        v1, v2 = v1 - c * g1, v2 - c * g2
        d1, d2 = h * v1, h * v2
        y1, y2 = x1 + d1, x2 + d2
        if not (4.0 * (d1 * d1 + d2 * d2) < rr and far2 <= rr < inf):
            check_segment_xy(x1, x2, y1, y2)
        x1, x2 = y1, y2
        rr = x1 * x1 + x2 * x2
        r = sqrt(rr)
        if r < tol:
            raise origin_error(r)
        r3 = r * r * r
        g1, g2 = x1 / r3, x2 / r3
        v1, v2 = v1 - c * g1, v2 - c * g2
        yield pack(x1, x2, v1, v2)


def _flow(i, z, h, w):
    """Sub-flow of v_i^2/2 + w*phi: drift coordinate i, then kick."""
    x1, x2, v1, v2 = z
    y1, y2 = (x1 + h * v1, x2) if i == 1 else (x1, x2 + h * v2)
    check_segment_xy(x1, x2, y1, y2)
    g1, g2 = grad_potential((y1, y2)).tolist()
    return y1, y2, v1 - h * (w * g1), v2 - h * (w * g2)


def _flow_adjoint(i, z, h, w):
    """Adjoint sub-flow: kick at the old point, then drift coordinate i."""
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential((x1, x2)).tolist()
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
        return _sym_euler_states, _iterate(_sym_euler_adjoint)
    w1, w2 = w

    def states(z, h):
        x1, x2, v1, v2 = z
        tol, ntol, pack = ORIGIN_TOL, -ORIGIN_TOL, _ROW4.pack
        while True:
            y1 = x1 + h * v1
            if ntol < x2 < tol:
                check_segment_xy(x1, x2, y1, x2)
            r = sqrt(y1 * y1 + x2 * x2)
            if r < tol:
                raise origin_error(r)
            r3 = r * r * r
            v1, v2 = v1 - h * (w1 * (y1 / r3)), v2 - h * (w1 * (x2 / r3))
            y2 = x2 + h * v2
            if ntol < y1 < tol:
                check_segment_xy(y1, x2, y1, y2)
            r = sqrt(y1 * y1 + y2 * y2)
            if r < tol:
                raise origin_error(r)
            r3 = r * r * r
            x1, x2, v1, v2 = y1, y2, v1 - h * (w2 * (y1 / r3)), v2 - h * (w2 * (y2 / r3))
            yield pack(x1, x2, v1, v2)

    return states, _iterate(lambda z, h: _flow_adjoint(1, _flow_adjoint(2, z, h, w2), h, w1))


def _vi2_kernel(split: SplitPotential | None):
    """The vi1* half step, then the vi1 half step, as one generator (sym-euler's on one part)."""
    w = (split if split is not None else kepler_split()).weights
    if len(w) == 1:
        return _iterate(lambda z, h: _ROW4.unpack(
            next(_sym_euler_states(_sym_euler_adjoint(z, 0.5 * h), 0.5 * h))))
    w1, w2 = w

    def states(z, h):
        x1, x2, v1, v2 = z
        c, tol, ntol, pack = 0.5 * h, ORIGIN_TOL, -ORIGIN_TOL, _ROW4.pack
        r = sqrt(x1 * x1 + x2 * x2)
        if r < tol:
            raise origin_error(r)
        r3 = r * r * r
        g1, g2 = x1 / r3, x2 / r3
        while True:
            v1, v2 = v1 - c * (w2 * g1), v2 - c * (w2 * g2)
            y2 = x2 + c * v2
            if ntol < x1 < tol:
                check_segment_xy(x1, x2, x1, y2)
            r = sqrt(x1 * x1 + y2 * y2)
            if r < tol:
                raise origin_error(r)
            r3 = r * r * r
            v1, v2 = v1 - c * (w1 * (x1 / r3)), v2 - c * (w1 * (y2 / r3))
            y1 = x1 + c * v1
            x0, x1 = x1, y1 + c * v1
            if ntol < y2 < tol:
                check_segment_xy(x0, y2, y1, y2)
                check_segment_xy(y1, y2, x1, y2)
            r = sqrt(x1 * x1 + y2 * y2)
            if r < tol:
                raise origin_error(r)
            r3 = r * r * r
            v1, v2 = v1 - c * (w1 * (x1 / r3)), v2 - c * (w1 * (y2 / r3))
            x2 = y2 + c * v2
            if ntol < x1 < tol:
                check_segment_xy(x1, y2, x1, x2)
            r = sqrt(x1 * x1 + x2 * x2)
            if r < tol:
                raise origin_error(r)
            r3 = r * r * r
            g1, g2 = x1 / r3, x2 / r3
            v1, v2 = v1 - c * (w2 * g1), v2 - c * (w2 * g2)
            yield pack(x1, x2, v1, v2)

    return states


# --- Kernels on the relativistic planar state z = (t, x1, x2, gamma, u1, u2) ---
#
# k1 is _flow_hi(2, _flow_hi(1, _flow_ht(z))) written out; k1* is the reverse
# composition itself. A drift's gamma update reuses phi(start) from the flow before or
# the step before; k2's first drift evaluates its first phi(start) after the drift check
# and phi(end), as _flow_hi does.

def _flow_ht(z, h):
    t, x1, x2, gamma, u1, u2 = z
    g1, g2 = grad_potential((x1, x2)).tolist()
    return t + h * gamma, x1, x2, gamma, u1 - h * gamma * g1, u2 - h * gamma * g2


def _flow_hi(i, z, h):
    t, x1, x2, gamma, u1, u2 = z
    y1, y2 = (x1 + h * u1, x2) if i == 1 else (x1, x2 + h * u2)
    check_segment_xy(x1, x2, y1, y2)
    return t, y1, y2, gamma - (potential((y1, y2)) - potential((x1, x2))), u1, u2


def _k1_states(z, h):
    t, x1, x2, gamma, u1, u2 = z
    tol, ntol, pack = ORIGIN_TOL, -ORIGIN_TOL, _ROW6.pack
    r = sqrt(x1 * x1 + x2 * x2)
    if r < tol:
        raise origin_error(r)
    p0 = -1.0 / r
    while True:
        r3, hg = r * r * r, h * gamma
        u1, u2 = u1 - hg * (x1 / r3), u2 - hg * (x2 / r3)
        y1 = x1 + h * u1
        if ntol < x2 < tol:
            check_segment_xy(x1, x2, y1, x2)
        r = sqrt(y1 * y1 + x2 * x2)
        if r < tol:
            raise origin_error(r)
        p1 = -1.0 / r
        gamma = gamma - (p1 - p0)
        y2 = x2 + h * u2
        if ntol < y1 < tol:
            check_segment_xy(y1, x2, y1, y2)
        r = sqrt(y1 * y1 + y2 * y2)
        if r < tol:
            raise origin_error(r)
        p0 = -1.0 / r
        t, x1, x2, gamma = t + hg, y1, y2, gamma - (p0 - p1)
        yield pack(t, x1, x2, gamma, u1, u2)


def _k2_states(z, h):
    """The k1* half step, then the k1 half step, written out; the time/kick flows share a force."""
    t, x1, x2, gamma, u1, u2 = z
    c, tol, ntol, p0, pack = 0.5 * h, ORIGIN_TOL, -ORIGIN_TOL, None, _ROW6.pack
    while True:
        y2 = x2 + c * u2
        if ntol < x1 < tol:
            check_segment_xy(x1, x2, x1, y2)
        r = sqrt(x1 * x1 + y2 * y2)
        if r < tol:
            raise origin_error(r)
        p1 = -1.0 / r
        if p0 is None:
            r = sqrt(x1 * x1 + x2 * x2)
            if r < tol:
                raise origin_error(r)
            p0 = -1.0 / r
        gamma = gamma - (p1 - p0)
        y1 = x1 + c * u1
        if ntol < y2 < tol:
            check_segment_xy(x1, y2, y1, y2)
        r = sqrt(y1 * y1 + y2 * y2)
        if r < tol:
            raise origin_error(r)
        p2 = -1.0 / r
        gamma = gamma - (p2 - p1)
        r3, hg = r * r * r, c * gamma
        a1, a2 = hg * (y1 / r3), hg * (y2 / r3)
        u1, u2 = u1 - a1 - a1, u2 - a2 - a2
        x1 = y1 + c * u1
        if ntol < y2 < tol:
            check_segment_xy(y1, y2, x1, y2)
        r = sqrt(x1 * x1 + y2 * y2)
        if r < tol:
            raise origin_error(r)
        p1 = -1.0 / r
        gamma = gamma - (p1 - p2)
        x2 = y2 + c * u2
        if ntol < x1 < tol:
            check_segment_xy(x1, y2, x1, x2)
        r = sqrt(x1 * x1 + x2 * x2)
        if r < tol:
            raise origin_error(r)
        p0 = -1.0 / r
        t, gamma = t + hg + hg, gamma - (p0 - p1)
        yield pack(t, x1, x2, gamma, u1, u2)


# --- The method table ---

@dataclass(frozen=True)
class Method:
    """One integrator of the table.

    ``model`` is "kepler" or "relativistic". ``kernels(split)`` returns the
    (step, adjoint) state generators, each (z, h) -> iterator of z_1, z_2, ...
    as rows packed by ``_ROW4`` or ``_ROW6``; the relativistic methods ignore the split, and a split of None is the equal
    Kepler split. ``drift_order`` maps "ecc" and "angle" to the predicted order
    of the per-period LRL drift; it is None for the relativistic methods.
    """
    id: str
    model: str
    kernels: Callable[[SplitPotential | None], tuple[Callable, Callable]]
    drift_order: dict[str, float] | None


METHODS = MappingProxyType({m.id: m for m in (
    Method("sym-euler", "kepler", lambda split: (_sym_euler_states, _iterate(_sym_euler_adjoint)),
           {"ecc": 2.0, "angle": 2.0}),
    Method("sv", "kepler", lambda split: (_sv_states, _sv_states), {"ecc": 4.0, "angle": 2.0}),
    Method("vi1", "kepler", _vi1_kernels, {"ecc": 2.0, "angle": 2.0}),
    Method("vi2", "kepler", lambda split: (_vi2_kernel(split),) * 2, {"ecc": 4.0, "angle": 2.0}),
    Method("k1", "relativistic", lambda split: (
        _k1_states, _iterate(lambda z, h: _flow_ht(_flow_hi(1, _flow_hi(2, z, h), h), h))), None),
    Method("k2", "relativistic", lambda split: (_k2_states, _k2_states), None),
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


def _one_step(states, s, h: float):
    """Row 1 of ``trajectory(states, _planar(s), h, 1)`` as the state type of ``s``:
    one step fails as a run does. h may be negative."""
    z = trajectory(states, _planar(s), h, 1)[1].tolist()
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


def step_sv_one_step(s: PhaseState, h: float) -> PhaseState:
    """Kick-drift-kick Stormer-Verlet, consistent with the recurrence to round-off."""
    return step("sv", s, h)


def _part_weight(i: int, split: SplitPotential) -> float:
    if not 1 <= i <= len(split):
        raise ValueError(f"sub-flow index {i} out of range 1..{len(split)}")
    return split.weights[i - 1]


def substep_flow(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Sub-map of H(i) = p_i^2/2 + phi^(i): drift coordinate i, then kick."""
    return _one_step(_iterate(partial(_flow, i, w=_part_weight(i, split))), s, h)


def substep_flow_adjoint(i: int, s: PhaseState, split: SplitPotential, h: float) -> PhaseState:
    """Adjoint sub-map: kick with phi^(i) at the old point, then drift coordinate i."""
    return _one_step(_iterate(partial(_flow_adjoint, i, w=_part_weight(i, split))), s, h)


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

@_finite_transform
def discrete_lagrangian(lag_id: str, x0: np.ndarray, x1: np.ndarray, h: float,
                        split: SplitPotential | None = None) -> float:
    """Scalar value of the named discrete Lagrangian."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    d = x1 - x0
    kinetic = 0.5 * sum(c * c for c in d.tolist()) / (h * h)
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


@_finite_transform
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


@_finite_transform
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
    """Internal stage of L2nd: momentum matching of the two half Lagrangians. A half step whose
    square is 0.0 leaves their kinetic terms not finite: NonFiniteStateError, named by the caller."""
    g = 0.5 * h
    if g * g == 0.0:
        raise NonFiniteStateError(f"L2nd half step h/2 = {g!r} squares to 0.0")

    def residual(xm):       # Lstar's plus transform at (x0, xm) is L1st's minus one at (xm, x0, -g)
        return legendre_minus("L1st", xm, x0, -g, split) - legendre_minus("L1st", xm, x1, g, split)

    xm = 0.5 * (x0 + x1)
    return _newton(residual, xm, tol=_round_off_tol(1e-13, (x0, x1), g), what="L2nd midpoint stage")


def _round_off_tol(tol: float, points, h: float = 1.0) -> float:
    """``tol``, or 8 ulps of the largest coordinate of ``points`` over |h| if larger: a residual
    in them (h = 1), or a momentum difference (x1 - x0)/h, cannot settle below that floor."""
    return max(tol, 8.0 * float(np.spacing(max(np.abs(p).max() for p in points))) / abs(h))


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
                          split: SplitPotential | None = None) -> TwoStepState:
    """The first ``TwoStepState`` (x0, x1): x1 solves v0 = -h d1 L(x0, x1)."""
    check_step_size(h)

    def residual(x1):
        return legendre_minus(lag_id, s0.x, x1, h, split) - s0.v

    x1 = s0.x + h * s0.v
    x1 = _newton(residual, x1, _round_off_tol(1e-12, (s0.x, x1), h), f"bootstrap for {lag_id}")
    return TwoStepState(s0.x, x1, h)


@_finite_update
def del_two_step_vi1(ts: TwoStepState, split: SplitPotential) -> np.ndarray:
    """Two-step discrete Euler-Lagrange update for the split Lagrangian.

    The staggered arguments make the solve explicit: coordinate 1 first, then
    coordinate 2 with the new coordinate 1. A two-part split needs planar
    points; a one-part split collapses to the central-difference recurrence
    x+ = 2x - x_prev - h^2 grad(phi)(x), the position recurrence of sym-euler
    and sv, and the one Kepler recurrence of the package.
    """
    x_prev, x, h = ts.prev, ts.curr, ts.h
    _, split = _require_split("L1st", split, x.size)
    if len(split) == 1:
        return 2.0 * x - x_prev - h * h * split.grad(0, x)
    g0, g1 = split.grad(0, np.array([x[0], x_prev[1]])), split.grad(1, x)
    y1 = 2.0 * x[0] - x_prev[0] - h * h * (g0[0] + g1[0])
    g0 = split.grad(0, np.array([y1, x[1]]))
    return np.array([y1, 2.0 * x[1] - x_prev[1] - h * h * (g0[1] + g1[1])])


# --- Trajectory running ---

def trajectory(states, z0: tuple[float, ...], h: float, steps: int) -> np.ndarray:
    """States z_0 .. z_steps of the state generator ``states(z0, h)``, one row each.

    One pass: the generator's packed rows are joined 1024 at a time onto the packed
    z0 in one bytearray, which the returned (writable) array views. A run fails one of
    two ways, named with the step (``step``) and the last finite state (``state``): a
    drift or force within ORIGIN_TOL of the origin raises SingularOriginError, the first
    non-finite state NonFiniteStateError. Past R_MAX the force is +-0.0 (grad_potential).
    """
    row = _ROW4 if len(z0) == 4 else _ROW6
    buf, gen, rows = bytearray(row.pack(*z0)), states(z0, h), []
    try:
        for n in range(steps, 0, -1024):
            rows.extend(islice(gen, min(n, 1024)))
            buf += b"".join(rows)
            rows.clear()
    except SingularOriginError as exc:
        buf += b"".join(rows)           # list.extend keeps the rows yielded before the raise
        k, state = len(buf) // row.size, row.unpack_from(buf, len(buf) - row.size)
        raise SingularOriginError(f"step {k}: {exc}", step=k, state=state) from exc
    out = np.frombuffer(buf, float).reshape(steps + 1, len(z0))
    _check_finite(out)
    return out


def _check_finite(states: np.ndarray, names: tuple[str, ...] = (), *cols: np.ndarray) -> None:
    """Raise NonFiniteStateError at the first non-finite row of ``states`` or, given
    diagnostic columns, at their first non-finite value, one name per column (a 2-D
    column has one per column of it)."""
    if all(np.isfinite(col).all() for col in cols or (states,)):
        return
    table = np.column_stack(cols) if cols else states
    finite = np.isfinite(table)
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

    H, m, A1, A2 = _invariants(*z.T.copy())       # contiguous columns
    ecc, angle = np.hypot(A1, A2), np.arctan2(A2, A1)
    _check_finite(z, ("H", "m", "A1", "A2", "ecc", "angle"), H, m, A1, A2, ecc, angle)
    return TrajectoryRecord(method_id, h, times, xs, vs, H=H, m=m, A=np.column_stack((A1, A2)),
                            ecc=ecc, angle=angle)
