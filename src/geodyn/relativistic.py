"""Proper-time relativistic Kepler system and its K-symplectic integrators.

The extended state (t, x, gamma, u) evolves in proper time tau with
dt/dtau = gamma, dx/dtau = u, dgamma/dtau = -grad(phi).u, du/dtau = -gamma grad(phi).
The extended Hamiltonian splits into exactly solvable one-variable pieces,
composed in first- and second-order (palindromic) order. The plain-float
kernels of k1 and k2 and their entries in the method table live in
``geodyn.integrators``; this module holds the state, the public step
functions over it and the relativistic driver. Units use c = 1 throughout;
the CLI passes its inputs and outputs through unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from geodyn.integrators import (
    REL_METHOD_IDS,
    TwoStepState,
    _check_finite,
    _finite,
    _finite_update,
    _flow_hi,
    _flow_ht,
    _iterate,
    _one_step,
    _states,
    step,
)
from geodyn.kepler import check_step_size, grad_potential, potential


@dataclass(frozen=True)
class ExtPhaseState:
    """Extended state (t, x, gamma, u) in proper time; planar and finite (else ValueError)."""
    t: float
    x: np.ndarray
    gamma: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if (self.x.shape, self.u.shape) != ((2,), (2,)):
            raise ValueError(f"x and u must be planar 2-vectors, got {self.x.shape}, {self.u.shape}")
        x, u = self.x.tolist(), self.u.tolist()
        if not all(map(math.isfinite, [self.t, self.gamma] + x + u)):
            raise ValueError(f"state components must be finite, got t={self.t!r}, "
                             f"x={x}, gamma={self.gamma!r}, u={u}")


def mass_shell_gamma(u: np.ndarray) -> float:
    """On-shell Lorentz factor sqrt(1 + |u|^2), c = 1, |u|^2 a plain sum; inf if it overflows."""
    return math.sqrt(1.0 + sum(c * c for c in np.asarray(u, dtype=float).tolist()))


def _hamiltonian(u1, u2, gamma):
    """The one formula for H = (|u|^2 - gamma^2)/2, on floats or columns; inf or nan, unwarned."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * ((u1 * u1 + u2 * u2) - gamma * gamma)


def extended_hamiltonian(s: ExtPhaseState) -> float:
    """H = (|u|^2 - gamma^2)/2, conserved up to a bounded defect by the methods."""
    return float(_hamiltonian(*s.u.tolist(), s.gamma))


# --- Public one-step maps: row 1 of a one-step run, as integrators.step ---

def flow_ht(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Exact flow of the -gamma^2/2 piece: advance t, kick u; x and gamma fixed."""
    return _one_step(_iterate(_flow_ht), s, h)


def flow_hi(i: int, s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Exact flow of the u_i^2/2 piece: drift coordinate i, update gamma.

    The gamma update is the exact potential difference along the drift.
    """
    if i not in (1, 2):
        raise ValueError(f"sub-flow index {i} out of range 1..2")
    return _one_step(_iterate(partial(_flow_hi, i)), s, h)


def step_k1(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """First-order K-symplectic step: coordinate drifts after the time/kick flow."""
    return step("k1", s, h)


def step_k2(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Palindromic second-order step: the k1* half step, then the k1 half step, written out."""
    return step("k2", s, h)


# --- Two-step variational form on q = (t, x1, x2) ---

def del_relativistic_seed(s0: ExtPhaseState, h: float) -> TwoStepState:
    """The first ``TwoStepState``: q0 = (t, x) of ``s0``, q1 from the discrete Legendre
    transform of the extended Lagrangian; a q1 that is not finite raises NonFiniteStateError."""
    check_step_size(h)
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = s0.t + h * s0.gamma
        x1 = s0.x + h * s0.u - h * (t1 - s0.t) * grad_potential(s0.x)
    return TwoStepState([s0.t, *s0.x.tolist()], _finite([t1, *x1], "two-step seed", h), h)


@_finite_update
def del_relativistic(ts: TwoStepState) -> np.ndarray:
    """Two-step update of q = (t, x1, x2) from the extended discrete Euler-Lagrange equations."""
    q_prev, q, h = ts.prev, ts.curr, ts.h
    t_next = 2.0 * q[0] - q_prev[0] - h * (potential(q[1:]) - potential(q_prev[1:]))
    x_next = 2.0 * q[1:] - q_prev[1:] - h * (t_next - q[0]) * grad_potential(q[1:])
    return np.array([t_next, *x_next])


@dataclass(frozen=True)
class ExtTrajectoryRecord:
    """Proper-time indexed relativistic trajectory (tau = n*h)."""
    method_id: str
    h: float
    taus: np.ndarray
    ts: np.ndarray
    xs: np.ndarray
    gammas: np.ndarray
    us: np.ndarray
    H: np.ndarray

    @property
    def steps(self) -> int:
        return self.xs.shape[0] - 1

    def state(self, n: int) -> ExtPhaseState:
        return ExtPhaseState(self.ts[n], self.xs[n], self.gammas[n], self.us[n])


def run_relativistic(method_id: str, s0: ExtPhaseState, h: float, steps: int) -> ExtTrajectoryRecord:
    """Integrate the extended system over uniform proper-time steps."""
    z = _states(method_id, "relativistic", s0, h, steps)
    ts, xs, gs, us = z[:, 0], z[:, 1:3], z[:, 3], z[:, 4:]
    taus = h * np.arange(steps + 1)
    H = _hamiltonian(us[:, 0], us[:, 1], gs)
    _check_finite(z, ("H",), H)
    return ExtTrajectoryRecord(method_id, h, taus, ts, xs, gs, us, H)
