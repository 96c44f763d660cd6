"""Proper-time relativistic Kepler system and its K-symplectic integrators.

The extended state (t, x, gamma, u) evolves in proper time tau with
dt/dtau = gamma, dx/dtau = u, dgamma/dtau = -grad(phi).u, du/dtau = -gamma grad(phi).
The extended Hamiltonian splits into exactly solvable one-variable pieces,
composed here in first- and second-order (palindromic) order. Units use c = 1
throughout; the CLI passes its inputs and outputs through unscaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from geodyn.errors import NonPlanarStateError
from geodyn.integrators import symmetric_composition, trajectory
from geodyn.kepler import (
    check_segment_xy,
    grad_potential,
    grad_potential_xy,
    potential,
    potential_xy,
)

REL_METHOD_IDS = ("k1", "k2")


@dataclass(frozen=True)
class ExtPhaseState:
    """Extended relativistic state (t, x, gamma, u) in proper time; every component finite."""
    t: float
    x: np.ndarray
    gamma: float
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        if self.x.shape != self.u.shape or self.x.ndim != 1:
            raise ValueError("x and u must be equal-length vectors")
        x, u = self.x.tolist(), self.u.tolist()
        if not all(map(math.isfinite, [self.t, self.gamma] + x + u)):
            raise ValueError(f"state components must be finite, got t={self.t!r}, "
                             f"x={x}, gamma={self.gamma!r}, u={u}")

    @property
    def n(self) -> int:
        return self.x.size


def mass_shell_gamma(u: np.ndarray) -> float:
    """On-shell Lorentz factor gamma = sqrt(1 + |u|^2) with c = 1; inf if |u|^2 overflows."""
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        return float(np.sqrt(1.0 + u @ u))


def extended_hamiltonian(s: ExtPhaseState) -> float:
    """H = (|u|^2 - gamma^2)/2, conserved up to a bounded defect by the methods."""
    return 0.5 * (float(s.u @ s.u) - s.gamma**2)


# --- Kernels on the planar state z = (t, x1, x2, gamma, u1, u2) ---

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
    return _flow_hi(2, _flow_hi(1, _flow_ht(z, h), h), h)


def _k1_adjoint(z, h):
    return _flow_ht(_flow_hi(1, _flow_hi(2, z, h), h), h)


_k2 = symmetric_composition(_k1_adjoint, _k1)


def _planar(s: ExtPhaseState) -> tuple[float, ...]:
    if s.n != 2:
        raise NonPlanarStateError(f"the step kernels are planar; got a state with N = {s.n}")
    x1, x2 = s.x.tolist()
    u1, u2 = s.u.tolist()
    return float(s.t), x1, x2, float(s.gamma), u1, u2


def _ext(z) -> ExtPhaseState:
    return ExtPhaseState(z[0], np.array(z[1:3]), z[3], np.array(z[4:]))


# --- Exact subflows ---

def flow_ht(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Exact flow of the -gamma^2/2 piece: advance t, kick u; x and gamma fixed."""
    return _ext(_flow_ht(_planar(s), h))


def flow_hi(i: int, s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Exact flow of the u_i^2/2 piece: drift coordinate i, update gamma.

    The gamma update is the exact potential difference along the drift.
    """
    if not 1 <= i <= s.n:
        raise ValueError(f"sub-flow index {i} out of range 1..{s.n}")
    return _ext(_flow_hi(i, _planar(s), h))


# --- Composed one-step maps ---

def step_k1(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """First-order K-symplectic step: coordinate drifts after the time/kick flow."""
    return _ext(_k1(_planar(s), h))


def step_k1_adjoint(s: ExtPhaseState, h: float) -> ExtPhaseState:
    """Reversed composition; each subflow is exact, hence self-adjoint."""
    return _ext(_k1_adjoint(_planar(s), h))


def step_k2(s: ExtPhaseState, h: float, variant: str = "adjoint-last") -> ExtPhaseState:
    """Palindromic second-order step; self-adjoint in either variant.

    The default applies the adjoint half step first, mirroring the pairing
    generated by the second-order extended discrete Lagrangian;
    ``adjoint-first`` is the reversed pairing.
    """
    if variant == "adjoint-first":
        kernel = symmetric_composition(_k1, _k1_adjoint)
    elif variant == "adjoint-last":
        kernel = _k2
    else:
        raise ValueError(f"unknown k2 variant {variant!r}")
    return _ext(kernel(_planar(s), h))


# --- Two-step variational form ---

def del_relativistic_seed(s0: ExtPhaseState, h: float) -> tuple[float, np.ndarray]:
    """(t1, x1) from the discrete Legendre transform of the extended Lagrangian."""
    t1 = s0.t + h * s0.gamma
    x1 = s0.x + h * s0.u - h * (t1 - s0.t) * grad_potential(s0.x)
    return t1, x1


def del_relativistic(t_prev: float, t_curr: float, x_prev: np.ndarray,
                     x_curr: np.ndarray, h: float) -> tuple[float, np.ndarray]:
    """Two-step update for (t, x) from the extended discrete Euler-Lagrange equations."""
    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    t_next = 2.0 * t_curr - t_prev - h * (potential(x_curr) - potential(x_prev))
    x_next = 2.0 * x_curr - x_prev - h * (t_next - t_curr) * grad_potential(x_curr)
    return t_next, x_next


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
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if h <= 0:
        raise ValueError("step size must be positive")
    if method_id == "k1":
        kernel = _k1
    elif method_id == "k2":
        kernel = _k2
    else:
        raise ValueError(f"unknown relativistic method {method_id!r}")
    z = trajectory(kernel, _planar(s0), h, steps)
    ts, xs, gs, us = z[:, 0], z[:, 1:3], z[:, 3], z[:, 4:]
    taus = h * np.arange(steps + 1)
    H = 0.5 * (np.einsum("ij,ij->i", us, us) - gs**2)
    return ExtTrajectoryRecord(method_id, h, taus, ts, xs, gs, us, H)
