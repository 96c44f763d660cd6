"""Integrator tests: elementary steps, Legendre transforms, DEL equivalence."""

import argparse
import math
import re
import struct
import tracemalloc
from functools import partial
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodyn import integrators, kepler
from geodyn.cli import build_parser
from geodyn.errors import (
    GeodynError,
    NonConvergenceError,
    NonFiniteStateError,
    SingularOriginError,
    UnknownMethodError,
)
from geodyn.integrators import (
    LAGRANGIAN_IDS,
    METHOD_IDS,
    METHODS,
    REL_METHOD_IDS,
    TwoStepState,
    _flow,
    _flow_adjoint,
    _flow_hi,
    _flow_ht,
    _iterate,
    _k2_states,
    _sv_states,
    bootstrap_first_point,
    del_two_step_vi1,
    discrete_lagrangian,
    legendre_minus,
    legendre_plus,
    run,
    step,
    step_sv_one_step,
    step_sym_euler,
    step_vi1,
    step_vi2,
    substep_flow,
    substep_flow_adjoint,
    trajectory,
)
from geodyn.kepler import (
    ORIGIN_TOL,
    PhaseState,
    SplitPotential,
    analytic_reference,
    check_segment_xy,
    energy,
    grad_potential,
    kepler_split,
    orbit_elements,
    potential,
)
from geodyn.modified import modified_lagrangian
from geodyn.relativistic import (
    ExtPhaseState,
    del_relativistic,
    del_relativistic_seed,
    flow_hi,
    flow_ht,
    mass_shell_gamma,
    run_relativistic,
    step_k1,
    step_k2,
)

S0 = PhaseState(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
S_WIDE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))
SPLIT = kepler_split()
SINGLE = kepler_split((1.0, 0.0))     # one part: the central-difference recurrence
H = 0.05


class TestElementarySteps:
    def test_sym_euler_worked_example(self):
        s = step_sym_euler(S0, H)
        assert np.max(np.abs(s.v - np.array([-0.3125, 2.0]))) < 1e-14
        assert np.max(np.abs(s.x - np.array([0.384375, 0.1]))) < 1e-14

    def test_substep_worked_example(self):
        s = substep_flow(1, S0, SPLIT, H)
        assert np.max(np.abs(s.x - S0.x)) < 1e-14   # v1 = 0: no drift
        assert np.max(np.abs(s.v - np.array([-0.15625, 2.0]))) < 1e-14

    def test_substep_index_range(self):
        with pytest.raises(ValueError):
            substep_flow(3, S0, SPLIT, H)
        with pytest.raises(ValueError):
            substep_flow(0, S0, SPLIT, H)

    def test_stormer_verlet_linear_field(self):
        # at x = (1, 0) the Kepler force x/r^3 equals the linear field x
        ts = TwoStepState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.1)
        out = del_two_step_vi1(ts, SINGLE).curr
        assert np.max(np.abs(out - np.array([0.99, 0.0]))) < 1e-15

    def test_sv_one_step_matches_recurrence(self):
        s1 = step_sv_one_step(S0, H)
        s2 = step_sv_one_step(s1, H)
        rec = del_two_step_vi1(TwoStepState(S0.x, s1.x, H), SINGLE).curr
        assert np.max(np.abs(rec - s2.x)) < 1e-13

    def test_drift_through_origin_rejected(self):
        s = PhaseState(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(SingularOriginError):
            substep_flow(1, s, SPLIT, 2.0)

    @pytest.mark.parametrize("method_id", METHOD_IDS + REL_METHOD_IDS)
    def test_step_through_origin_rejected(self, method_id):
        # a diagonal drift of the whole of x, or a coordinate drift along x2 (a half
        # step's drift for vi2 and k2), from 1 or sqrt(2) before the origin to as far past it
        z = (1.0, 1.0, -40.0, -40.0) if method_id in ("sym-euler", "sv") else (0.0, 1.0, 0.0, -80.0)
        s = PhaseState(np.array(z[:2]), np.array(z[2:]))
        if method_id in REL_METHOD_IDS:
            s = ExtPhaseState(0.0, s.x, mass_shell_gamma(s.v), s.v)
        with pytest.raises(SingularOriginError):
            step(method_id, s, H, SPLIT)


class TestAdjoints:
    """Phi*_h is the inverse of Phi_{-h}; composition must return the start."""

    def test_sym_euler_adjoint_identity(self):
        fwd = step("sym-euler", S0, H, adjoint=True)
        back = step_sym_euler(fwd, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert np.max(np.abs(back.v - S0.v)) < 1e-13

    def test_vi1_adjoint_identity(self):
        fwd = step("vi1", S0, H, SPLIT, adjoint=True)
        back = step_vi1(fwd, SPLIT, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert np.max(np.abs(back.v - S0.v)) < 1e-13

    def test_substep_adjoint_identity(self):
        fwd = substep_flow_adjoint(2, S0, SPLIT, H)
        back = substep_flow(2, fwd, SPLIT, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-14

    @pytest.mark.parametrize("pairing", ["adjoint-last"])    # the one pairing paired() builds
    def test_vi2_is_self_adjoint(self, pairing):
        fwd = step_vi2(S0, SPLIT, H)
        back = step_vi2(fwd, SPLIT, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert np.max(np.abs(back.v - S0.v)) < 1e-13

    def test_vi1_single_part_collapses_to_sym_euler(self):
        single = kepler_split((1.0, 0.0))
        a = step_vi1(S0, single, H)
        b = step_sym_euler(S0, H)
        assert np.max(np.abs(a.x - b.x)) == 0.0
        assert np.max(np.abs(a.v - b.v)) == 0.0


class TestSymplecticity:
    OMEGA = np.array([[0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [-1.0, 0.0, 0.0, 0.0],
                      [0.0, -1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_jacobian_preserves_two_form(self, method):
        z0 = np.concatenate([S0.x, S0.v])
        delta = 1e-6
        jac = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = delta
            sp = step(method, PhaseState((z0 + e)[:2], (z0 + e)[2:]), H, SPLIT)
            sm = step(method, PhaseState((z0 - e)[:2], (z0 - e)[2:]), H, SPLIT)
            jac[:, j] = (np.concatenate([sp.x, sp.v])
                         - np.concatenate([sm.x, sm.v])) / (2 * delta)
        defect = jac.T @ self.OMEGA @ jac - self.OMEGA
        assert np.max(np.abs(defect)) < 1e-5

    # dx1^du1 + dx2^du2 - dt^dw in the coordinates (t, x1, x2, w = gamma + phi(x), u1, u2);
    # with +dt^dw instead the defect below is 0.18 for both methods
    K_OMEGA = np.zeros((6, 6))
    K_OMEGA[1, 4] = K_OMEGA[2, 5] = K_OMEGA[3, 0] = 1.0
    K_OMEGA[4, 1] = K_OMEGA[5, 2] = K_OMEGA[0, 3] = -1.0

    @pytest.mark.parametrize("method", REL_METHOD_IDS)
    def test_jacobian_preserves_extended_two_form(self, method):
        def one_step(y):
            t, x, w, u = y[0], y[1:3], y[3], y[4:]
            s = step(method, ExtPhaseState(t, x, w - potential(x), u), H)
            return np.array([s.t, *s.x, s.gamma + potential(s.x), *s.u])

        x, u = np.array([0.7, 0.2]), np.array([-0.3, 1.1])
        y0 = np.array([0.0, *x, mass_shell_gamma(u) + potential(x), *u])
        delta = 1e-6
        jac = np.stack([(one_step(y0 + e) - one_step(y0 - e)) / (2 * delta)
                        for e in np.eye(6) * delta], axis=1)
        defect = jac.T @ self.K_OMEGA @ jac - self.K_OMEGA
        assert np.max(np.abs(defect)) < 1e-5      # 1.1e-10 for k1, 1.2e-10 for k2


def _legendre_fd(lag_id, x0, x1, h, split=None):
    """Both Legendre transforms by central differences of the discrete Lagrangian:
    for each coordinate i, (L(x + delta e_i) - L(x - delta e_i)) / (2 delta), delta = 1e-6."""
    lag = partial(discrete_lagrangian, lag_id, h=h, split=split)
    p_minus = -h * (np.stack([lag(x0 + e, x1) - lag(x0 - e, x1) for e in np.eye(x0.size) * 1e-6]) / 2e-6)
    p_plus = h * (np.stack([lag(x0, x1 + e) - lag(x0, x1 - e) for e in np.eye(x1.size) * 1e-6]) / 2e-6)
    return p_minus, p_plus


class TestDiscreteLagrangians:
    X0 = np.array([0.4, 0.0])
    X1 = np.array([0.384375, 0.1])

    @pytest.mark.parametrize("lag_id", LAGRANGIAN_IDS)
    def test_closed_form_matches_finite_differences(self, lag_id):
        pm_fd, pp_fd = _legendre_fd(lag_id, self.X0, self.X1, H, SPLIT)
        pm = legendre_minus(lag_id, self.X0, self.X1, H, SPLIT)
        pp = legendre_plus(lag_id, self.X0, self.X1, H, SPLIT)
        assert np.max(np.abs(pm - pm_fd)) < 1e-7
        assert np.max(np.abs(pp - pp_fd)) < 1e-7

    def test_adjoint_lagrangian_value(self):
        a = discrete_lagrangian("Lstar", self.X0, self.X1, H, SPLIT)
        b = discrete_lagrangian("L1st", self.X1, self.X0, -H, SPLIT)
        assert abs(a - b) < 1e-14

    def test_single_part_l1st_reduces_to_l1(self):
        single = kepler_split((1.0, 0.0))
        a = discrete_lagrangian("L1st", self.X0, self.X1, H, single)
        b = discrete_lagrangian("L1", self.X0, self.X1, H)
        assert abs(a - b) < 1e-14

    def test_unknown_lagrangian(self):
        with pytest.raises(UnknownMethodError):
            discrete_lagrangian("L9", self.X0, self.X1, H)

    def test_legendre_generates_sym_euler(self):
        # L1's one-step map (p from minus transform, then plus) is symplectic Euler
        x1 = bootstrap_first_point(S0, "L1", H).curr
        p1 = legendre_plus("L1", S0.x, x1, H)
        ref = step_sym_euler(S0, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-11
        assert np.max(np.abs(p1 - ref.v)) < 1e-11

    def test_legendre_generates_vi1(self):
        x1 = bootstrap_first_point(S0, "L1st", H, SPLIT).curr
        p1 = legendre_plus("L1st", S0.x, x1, H, SPLIT)
        ref = step_vi1(S0, SPLIT, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-11
        assert np.max(np.abs(p1 - ref.v)) < 1e-11

    def test_legendre_generates_vi2(self):
        x1 = bootstrap_first_point(S0, "L2nd", H, SPLIT).curr
        p1 = legendre_plus("L2nd", S0.x, x1, H, SPLIT)
        ref = step_vi2(S0, SPLIT, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-10
        assert np.max(np.abs(p1 - ref.v)) < 1e-10

    @pytest.mark.parametrize("h", [0.007, 0.005, 0.002])
    def test_l2nd_bootstrap_settles_at_small_h(self, h):
        # the Newton residuals are momentum differences with a round-off floor of
        # about ulp(|x|)/h; an absolute tolerance left the midpoint stage stalled
        # at residual 1.776e-13 for h = 0.005
        x1 = bootstrap_first_point(S_WIDE, "L2nd", h, SPLIT).curr
        p1 = legendre_plus("L2nd", S_WIDE.x, x1, h, SPLIT)
        ref = step_vi2(S_WIDE, SPLIT, h)
        assert np.max(np.abs(x1 - ref.x)) < 1e-13
        assert np.max(np.abs(p1 - ref.v)) < 1e-11

    def test_bootstrap_satisfies_legendre_condition(self):
        x1 = bootstrap_first_point(S0, "L2", H).curr
        assert np.max(np.abs(legendre_minus("L2", S0.x, x1, H) - S0.v)) < 1e-11

    @pytest.mark.parametrize("seed", [S0, S_WIDE, PhaseState(np.array([1.3, -0.7]),
                                                             np.array([0.2, 0.9]))])
    def test_l1_is_l1st_on_the_one_part_split_bit_for_bit(self, seed):
        # L1 = |d|^2/(2h^2) - phi(x0); its transforms are d/h + h grad(x0) and d/h
        single = kepler_split((1.0, 0.0))
        x0, x1 = seed.x, bootstrap_first_point(seed, "L1", H).curr
        d = x1 - x0
        assert np.array_equal(x1, bootstrap_first_point(seed, "L1st", H, single).curr)
        value = discrete_lagrangian("L1", x0, x1, H)
        assert value == discrete_lagrangian("L1st", x0, x1, H, single)
        assert value == 0.5 * float(d @ d) / H**2 - potential(x0)
        for lag_id, split in (("L1", None), ("L1st", single)):
            assert np.array_equal(legendre_minus(lag_id, x0, x1, H, split),
                                  d / H + H * grad_potential(x0))
            assert np.array_equal(legendre_plus(lag_id, x0, x1, H, split), d / H)

    def test_newton_singular_jacobian_raises(self):
        # the residual ignores x2, so every Jacobian has a zero column
        with pytest.raises(NonConvergenceError, match="^test solve: singular Jacobian$"):
            integrators._newton(lambda x: np.array([x[0] - 1.0, x[0] + 1.0]),
                                np.zeros(2), tol=1e-12, what="test solve")

    def test_newton_residual_floor_raises(self):
        # sqrt(x^2 + 1e-6) has no root: Newton runs to its floor 1e-3 and stays there
        with pytest.raises(NonConvergenceError,
                           match=r"^test solve did not settle in 50 iterations: residual 1\.000e-03$"):
            integrators._newton(lambda x: np.sqrt(x * x + 1e-6), np.ones(1), tol=1e-12,
                                what="test solve")

    @pytest.mark.parametrize("lag_id", ["L1", "L1st", "Lstar", "L2nd"])
    def test_two_part_split_rejects_non_planar_points(self, lag_id):
        x0, x1 = np.array([1.0, 0.2, 0.1]), np.array([0.98, 0.25, 0.1])
        for fn in (discrete_lagrangian, legendre_minus, legendre_plus):
            with pytest.raises(ValueError, match="planar"):
                fn(lag_id, x0, x1, H, SPLIT)


# --- The plus transforms as closed forms, held to the adjoint's minus transform ---

def _ref_legendre_plus(lag_id, x0, x1, h, split=None):
    """p_{n+1} = h d2 L(x_n, x_{n+1}, h) written out per Lagrangian, as legendre_plus
    computed it before it became the minus transform of the adjoint."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if lag_id == "L2":
        return (x1 - x0) / h - 0.5 * h * grad_potential(x1)
    lag_id, split = integrators._require_split(lag_id, split, x0.size)
    if lag_id == "L1st":
        return integrators._l1st_plus(x0, x1, h, split)
    if lag_id == "Lstar":
        return integrators._l1st_minus(x1, x0, -h, split)
    if lag_id == "L2nd":
        g = 0.5 * h

        def residual(xm):       # Lstar's plus transform minus L1st's minus transform
            return integrators._l1st_minus(xm, x0, -g, split) - integrators._l1st_minus(xm, x1, g, split)

        xm = integrators._newton(residual, 0.5 * (x0 + x1), integrators._round_off_tol(1e-13, (x0, x1), g),
                                 "L2nd midpoint stage")
        return integrators._l1st_plus(xm, x1, g, split)
    raise UnknownMethodError(f"unknown discrete Lagrangian {lag_id!r}")


def _plus_outcome(fn, lag_id, x0, x1, h, split):
    """The momentum as float.hex strings, or the exception's type and message."""
    try:
        return [float.hex(float(p)) for p in fn(lag_id, x0, x1, h, split)]
    except (GeodynError, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_POINT = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-12, 1e-300]))


class TestLegendrePlusIsTheAdjointsMinus:
    """legendre_plus keeps the bits of the closed forms it replaced, with one exception:
    the sign of an L2 component that is zero because x0_i == x1_i and h/2 grad_i(x1) is
    zero (x1_i zero, or the product underflows). The closed form is 0/h - h/2 grad_i
    there and the adjoint's minus transform 0/(-h) + (-h)/2 grad_i, zeros of each sign."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @example(x0=[0.0, 1.0], dx=[0.0] * 3, same=True, h=0.1, sign=1.0, lag_id="L2", split=None)
    @example(x0=[1.0, 5e-324], dx=[0.0] * 3, same=True, h=0.1, sign=1.0, lag_id="L2", split=None)
    @given(x0=st.lists(_POINT, min_size=2, max_size=3), dx=st.lists(_POINT, min_size=3, max_size=3),
           same=st.booleans(), h=st.floats(1e-3, 1.0), sign=st.sampled_from([1.0, -1.0]),
           lag_id=st.sampled_from(LAGRANGIAN_IDS + ("L9",)),
           split=st.one_of(st.none(), st.just(SplitPotential((1.0,))),
                           st.builds(lambda w: SplitPotential((w, 1.0 - w)), st.floats(-0.5, 1.5))))
    def test_bits_match_the_closed_forms(self, x0, dx, same, h, sign, lag_id, split):
        x0 = np.array(x0)
        x1 = x0.copy() if same else x0 + 0.1 * np.array(dx[:x0.size])
        ref = _plus_outcome(_ref_legendre_plus, lag_id, x0, x1, sign * h, split)
        new = _plus_outcome(legendre_plus, lag_id, x0, x1, sign * h, split)
        if lag_id == "L2" and isinstance(ref, list) and isinstance(new, list):
            for i in np.flatnonzero(x0 == x1):
                if float.fromhex(ref[i]) == 0.0:
                    assert float.fromhex(new[i]) == 0.0
                    new[i] = ref[i]
        assert new == ref


class TestDelRecurrence:
    def test_matches_vi1_composition(self):
        ts = bootstrap_first_point(S0, "L1st", H, SPLIT)
        rec = run("vi1", S0, H, 50, split=SPLIT, diagnostics=False)
        xs = [ts.prev, ts.curr]
        for _ in range(49):
            ts = del_two_step_vi1(ts, SPLIT)
            xs.append(ts.curr)
        assert np.max(np.abs(np.array(xs) - rec.xs)) < 1e-11

    def test_single_part_is_central_difference(self):
        # sym-euler's and sv's position recurrence, bit for bit
        ts = TwoStepState(np.array([1.0, 0.2]), np.array([0.98, 0.25]), H)
        out = del_two_step_vi1(ts, SINGLE)
        assert np.array_equal(out.prev, ts.curr) and out.h == H
        assert (out.curr == 2.0 * ts.curr - ts.prev - H * H * grad_potential(ts.curr)).all()

    def test_two_part_split_rejects_non_planar_points(self):
        ts = TwoStepState(np.array([1.0, 0.2, 0.1]), np.array([0.98, 0.25, 0.1]), H)
        with pytest.raises(ValueError, match="planar"):
            del_two_step_vi1(ts, SPLIT)

    @pytest.mark.parametrize("x_prev,x_curr,message", [
        ([math.nan, 0.0], [1.0, 0.0], "finite"),
        ([1.0, 0.0], [1.0, -math.inf], "finite"),
        ([1.0, 0.0], [0.9, 0.1, 0.0], "one shape"),
    ])
    def test_state_rejects_bad_positions(self, x_prev, x_curr, message):
        with pytest.raises(ValueError, match=message):
            TwoStepState(x_prev, x_curr, H)

    # h * h is inf from h = 1.34e154 on, where h**2 raised a raw OverflowError: TwoStepState
    # rejects such an h, and just below it h * h * grad overflows to a named error, not -inf
    @pytest.mark.parametrize("h, error", [(1e200, ValueError), (1.3e154, NonFiniteStateError)])
    def test_stormer_verlet_names_an_overflow(self, h, error):
        with pytest.raises(error, match=re.escape(f"h = {h!r}")):
            del_two_step_vi1(TwoStepState([0.5, 0.0], [0.5, 0.0], h), SINGLE)

    @pytest.mark.parametrize("h, error", [(1e200, ValueError), (1.3e154, NonFiniteStateError)])
    def test_del_recurrence_names_an_overflow(self, h, error):
        with pytest.raises(error, match=re.escape(f"h = {h!r}")):
            del_two_step_vi1(TwoStepState([0.5, 0.0], [0.5, 0.0], h), SPLIT)

    def test_discrete_lagrangian_at_a_huge_step(self):
        # the kinetic term d.d / (h * h) is 0.0 at h = 1e200, where h**2 raised OverflowError
        x0, x1 = np.array([1.0, 0.0]), np.array([1.0, 0.1])
        assert discrete_lagrangian("L2", x0, x1, 1e200) == -0.5 * (potential(x0) + potential(x1))
        assert all(math.isfinite(discrete_lagrangian(lag, x0, x1, 1e200)) for lag in LAGRANGIAN_IDS)

    def test_state_keeps_any_dimension(self):
        ts = TwoStepState(np.array([1.0, 0.2, 0.1]), np.array([0.98, 0.25, 0.1]), H)
        out = del_two_step_vi1(ts, SplitPotential((1.0,))).curr
        assert np.array_equal(out, 2.0 * ts.curr - ts.prev - H**2 * grad_potential(ts.curr))


class TestRun:
    def test_times_and_diagnostics(self):
        rec = run("sv", S_WIDE, 0.1, 20)
        assert np.max(np.abs(rec.times - 0.1 * np.arange(21))) == 0.0
        assert abs(rec.H[0] - energy(S_WIDE)) < 1e-14
        assert rec.steps == 20
        s5 = rec.state(5)
        assert np.max(np.abs(s5.x - rec.xs[5])) == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run("sv", S_WIDE, 0.1, 0)
        with pytest.raises(ValueError):
            run("sv", S_WIDE, -0.1, 5)
        with pytest.raises(UnknownMethodError):
            run("rk4", S_WIDE, 0.1, 5)

    def test_singular_failure_reports_step(self):
        s = PhaseState(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(SingularOriginError, match=r"step \d+"):
            run("vi1", s, 2.0, 5, split=SPLIT)

    def test_underflowing_drift_at_the_origin_reports_step(self):
        # h * v is so small that |d|^2 underflows to 0 in the segment check
        s = PhaseState(np.array([1e-150, 0.0]), np.array([-1e-15, 0.0]))
        with pytest.raises(SingularOriginError, match="step 1: drift segment") as info:
            run("vi1", s, 1e-150, 3)
        assert info.value.step == 1

    @pytest.mark.parametrize("method", ["sym-euler", "sv"])
    def test_radial_infall_stops_at_origin(self, method):
        # falls straight through the origin unless the drift is segment-checked
        s = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(SingularOriginError, match=r"step \d+"):
            run(method, s, 0.5, 6)

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_non_finite_state_reports_step(self, method):
        s = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1e200]))
        with pytest.raises(NonFiniteStateError, match=r"step \d+"):
            run(method, s, 1e200, 3, split=SPLIT)

    def test_float_overflow_reports_step(self):
        # x and h*v are finite, but the drift x + h*v overflows to inf
        s = PhaseState(np.array([1e308, 0.0]), np.array([1e308, 0.0]))
        with pytest.raises(NonFiniteStateError, match=r"step 1: state \[inf, "):
            run("sv", s, 1.0, 3)

    def test_overflow_carries_step_and_state(self):
        s = PhaseState(np.array([1e308, 0.0]), np.array([1e308, 0.0]))
        with pytest.raises(NonFiniteStateError) as info:
            run("sv", s, 1.0, 3)
        assert (info.value.step, info.value.state) == (1, (1e308, 0.0, 1e308, 0.0))

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_huge_r_run_keeps_the_seed(self, method):
        # |x| = 1e150 is past R_MAX, where r * r * r is inf: the force is 0.0 and nothing moves
        s = PhaseState(np.array([1e150, 0.0]), np.array([0.0, 0.0]))
        rec = run(method, s, 0.1, 3)
        assert np.array_equal(np.hstack((rec.xs, rec.vs)), np.tile([1e150, 0.0, 0.0, 0.0], (4, 1)))

    @pytest.mark.parametrize("method", REL_METHOD_IDS)
    def test_huge_r_relativistic_run_advances_only_t(self, method):
        # the kick is 0.0, and gamma's update is a potential difference of 0.0
        s = ExtPhaseState(0.0, np.array([1e150, 0.0]), 1.0, np.array([0.0, 0.0]))
        rec = run_relativistic(method, s, 0.1, 3)
        assert np.array_equal(np.column_stack((rec.xs, rec.gammas, rec.us)),
                              np.tile([1e150, 0.0, 1.0, 0.0, 0.0], (4, 1)))
        assert np.all(np.diff(rec.ts) > 0.0) and np.allclose(rec.ts, 0.1 * np.arange(4), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("method", ["sym-euler", "sv"])
    def test_radial_infall_carries_step_and_state(self, method):
        # the error names the failed step and the last finite state, which
        # is the last row of a run that stops one step short
        s = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(SingularOriginError) as info:
            run(method, s, 0.5, 6)
        exc = info.value
        assert f"step {exc.step}:" in str(exc)
        before = run(method, s, 0.5, exc.step - 1, diagnostics=False)
        assert exc.state == (*before.xs[-1].tolist(), *before.vs[-1].tolist())

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_non_finite_state_carries_step_and_state(self, method):
        s = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1e200]))
        with pytest.raises(NonFiniteStateError) as info:
            run(method, s, 1e200, 3, split=SPLIT)
        assert (info.value.step, info.value.state) == (1, (1.0, 0.0, 0.0, 1e200))

    @pytest.mark.parametrize("method,h,steps,column", [("vi1", 1e308, 1, "H = inf"),
                                                       ("sv", 1e150, 2, "A1 = nan")])
    def test_non_finite_diagnostics_name_step_and_column(self, method, h, steps, column):
        # every state is finite, but |v|^2 overflows in the diagnostic columns
        with pytest.raises(NonFiniteStateError, match=f"step 1: {column} is not finite") as info:
            run(method, S_WIDE, h, steps)
        assert (info.value.step, info.value.state) == (1, (-3.0, 0.0, 0.0, 0.45))

    def test_errors_raised_outside_a_run_carry_no_step(self):
        exc = SingularOriginError("potential undefined at the origin")
        assert (exc.step, exc.state) == (None, None)

    def test_non_planar_state_rejected(self):
        # the dimension is checked once, where the state is built
        with pytest.raises(ValueError, match="planar"):
            PhaseState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("method,order", [
        ("sym-euler", 1), ("vi1", 1), ("sv", 2), ("vi2", 2),
    ])
    def test_global_convergence_order(self, method, order):
        t_end = 2.0

        def err(h):
            rec = run(method, S_WIDE, h, int(round(t_end / h)),
                      split=SPLIT, diagnostics=False)
            return np.max(np.abs(rec.xs[-1] - analytic_reference(S_WIDE, t_end).x))

        ratio = err(0.02) / err(0.01)
        assert 2.0**order * 0.7 < ratio < 2.0**order * 1.4

    def test_energy_bounded_medium_run(self):
        period = orbit_elements(S_WIDE).T
        steps = int(10 * period / 0.05)
        for method in METHOD_IDS:
            rec = run(method, S_WIDE, 0.05, steps, split=SPLIT)
            assert np.max(np.abs(rec.H - rec.H[0])) < 0.01


class TestMethodTable:
    SEED = PhaseState(np.array([0.7, 0.2]), np.array([-0.3, 1.1]))
    EXT_SEED = ExtPhaseState(0.0, SEED.x, mass_shell_gamma(SEED.v), SEED.v)

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_adjoint_inverts_the_reversed_step(self, method_id):
        step, adjoint = METHODS[method_id].kernels(SPLIT)
        s = self.SEED if METHODS[method_id].model == "kepler" else self.EXT_SEED
        z = _flat(s)
        back = _unpack(next(step(_unpack(next(adjoint(z, H))), -H)))
        assert max(abs(a - b) for a, b in zip(back, z)) < 1e-13

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_public_step_is_row_one_of_a_run(self, method_id):
        if METHODS[method_id].model == "kepler":
            one = step(method_id, self.SEED, H, SPLIT)
            rec = run(method_id, self.SEED, H, 1, split=SPLIT)
        else:
            one = step(method_id, self.EXT_SEED, H)
            rec = run_relativistic(method_id, self.EXT_SEED, H, 1)
        assert _flat(one) == _flat(rec.state(1))

    def test_ids_come_from_the_table(self):
        assert METHOD_IDS + REL_METHOD_IDS == tuple(METHODS)
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        conv = sub.choices["convergence"]
        methods = next(a for a in conv._actions if a.dest == "methods")
        assert tuple(methods.choices) == METHOD_IDS

    @pytest.mark.parametrize("call", [
        lambda: run("k1", S_WIDE, H, 3),
        lambda: run_relativistic("sv", TestMethodTable.EXT_SEED, H, 3),
        lambda: step("k2", S0, H),
        lambda: modified_lagrangian("k1", S0, H),
    ], ids=["run", "run_relativistic", "step", "modified_lagrangian"])
    def test_one_unknown_method_error(self, call):
        with pytest.raises(UnknownMethodError):
            call()


# --- Every public one-step map is row 1 of a run, and fails as a run does ---

# (model, call(s, split, i, h)): each table method and its adjoint through step(),
# then the named maps; i is a sub-flow index of the split
_PUBLIC_STEPS = [
    (METHODS[m].model, lambda s, split, i, h, m=m, a=a: step(m, s, h, split, adjoint=a))
    for m in METHODS for a in (False, True)
] + [
    ("kepler", lambda s, split, i, h: step_sym_euler(s, h)),
    ("kepler", lambda s, split, i, h: step_sv_one_step(s, h)),
    ("kepler", lambda s, split, i, h: step_vi1(s, split, h)),
    ("kepler", lambda s, split, i, h: step_vi2(s, split, h)),
    ("kepler", lambda s, split, i, h: substep_flow(i, s, split, h)),
    ("kepler", lambda s, split, i, h: substep_flow_adjoint(i, s, split, h)),
    ("relativistic", lambda s, split, i, h: step_k1(s, h)),
    ("relativistic", lambda s, split, i, h: step_k2(s, h)),
    ("relativistic", lambda s, split, i, h: flow_ht(s, h)),
    ("relativistic", lambda s, split, i, h: flow_hi(i, s, h)),
]
# near ORIGIN_TOL, ordinary, and past R_MAX = 5.64e102, where r * r * r is inf
_POLICY_X = st.sampled_from([0.0, 1e-13, -1e-13, 1.5 * ORIGIN_TOL, 0.7, -1.0, 1e103, -1e150])
_POLICY_V = st.sampled_from([0.0, 0.5, -1.1, 1e13, -1e13, 1e200])


class TestOneStepPolicy:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(k=st.integers(0, len(_PUBLIC_STEPS) - 1), x=st.tuples(_POLICY_X, _POLICY_X),
           v=st.tuples(_POLICY_V, _POLICY_V), t=st.sampled_from([0.0, 1e308]),
           gamma=st.sampled_from([1.0, 1.5, 1e200]),
           h=st.sampled_from([0.1, -0.1, 1e308, math.nan, 1e-320]),
           w1=st.sampled_from([0.5, 0.3, 1.0]), i=st.sampled_from([1, 2]))
    def test_returns_a_finite_state_or_raises_a_named_error(self, k, x, v, t, gamma, h, w1, i):
        model, call = _PUBLIC_STEPS[k]
        split = kepler_split((w1, 1.0 - w1))
        s = PhaseState(x, v) if model == "kepler" else ExtPhaseState(t, x, gamma, v)
        try:
            out = call(s, split, min(i, len(split)), h)
        except GeodynError:
            return
        assert type(out) is type(s) and all(map(math.isfinite, _flat(out)))


# --- Past R_MAX the force is 0.0, and no layer raises a raw OverflowError ---

def _huge_calls(r, h=0.1):
    """(name, call) for the force, every discrete Lagrangian, Legendre transform, bootstrap
    and two-step update, and the step and adjoint of every table method, at positions of
    size r and step h."""
    x0, x1, v = np.array([r, 0.0]), np.array([r, 0.5 * r]), np.array([0.0, 1.0])
    ext = ExtPhaseState(0.0, x0, 1.0, v)
    calls = [("grad_potential", lambda: grad_potential(x0)),
             ("del_two_step_vi1 one-part", lambda: del_two_step_vi1(TwoStepState(x0, x1, h), SINGLE)),
             ("del_two_step_vi1", lambda: del_two_step_vi1(TwoStepState(x0, x1, h), SPLIT)),
             ("del_relativistic_seed", lambda: del_relativistic_seed(ext, h)),
             ("del_relativistic", lambda: del_relativistic(TwoStepState([0.0, *x0], [h, *x1], h)))]
    for lag in LAGRANGIAN_IDS:
        calls += [(f"discrete_lagrangian {lag}", lambda lag=lag: discrete_lagrangian(lag, x0, x1, h)),
                  (f"legendre_minus {lag}", lambda lag=lag: legendre_minus(lag, x0, x1, h)),
                  (f"legendre_plus {lag}", lambda lag=lag: legendre_plus(lag, x0, x1, h)),
                  (f"bootstrap_first_point {lag}",
                   lambda lag=lag: bootstrap_first_point(PhaseState(x0, v), lag, h))]
    for m in METHODS:
        s = PhaseState(x0, v) if METHODS[m].model == "kepler" else ext
        calls += [(f"step {m} adjoint={a}", lambda m=m, s=s, a=a: step(m, s, h, adjoint=a))
                  for a in (False, True)]
    return calls


def _floats(out):
    """The floats of a state, an array, or a tuple of them."""
    if isinstance(out, (PhaseState, ExtPhaseState)):
        return _flat(out)
    if isinstance(out, TwoStepState):
        return _floats((out.prev, out.curr))
    if isinstance(out, tuple):
        return tuple(f for part in out for f in _floats(part))
    return tuple(np.ravel(out).tolist())


def _unnamed_failures(calls, named=lambda exc: isinstance(exc, GeodynError)):
    """{name: what went wrong} for each call that neither returns finite floats nor raises
    an exception that ``named`` accepts."""
    bad = {}
    for name, call in calls:
        try:
            out = call()
        except Exception as exc:
            if not named(exc):
                bad[name] = repr(exc)
            continue
        if not all(map(math.isfinite, _floats(out))):
            bad[name] = out
    return bad


@pytest.mark.parametrize("r", [1e103, 1e150])
def test_huge_positions_give_a_finite_result_or_a_named_error(r):
    # r * r * r is inf past R_MAX = 5.64e102, where the power r**3 raises OverflowError
    assert _unnamed_failures(_huge_calls(r)) == {}


@pytest.mark.parametrize("r, h", [(1.0, 1e-320), (1e300, 1e-300)])
def test_tiny_steps_give_a_finite_result_or_a_named_error(r, h):
    # h passes check_step_size, but h * h underflows to 0.0, which the kinetic term divides
    # by, and (x1 - x0) / h overflows: every two-step state, discrete Lagrangian and
    # Legendre transform rejects such an h with a ValueError naming it
    def named(exc):
        return isinstance(exc, GeodynError) or (
            isinstance(exc, ValueError) and f"h = {h!r} squares to 0.0" in str(exc))

    assert _unnamed_failures(_huge_calls(r, h), named) == {}


@pytest.mark.parametrize("lag", LAGRANGIAN_IDS)
def test_lagrangian_of_an_overflowing_step_names_h(lag):
    # h * h is finite, but (x1 - x0) / h and the kinetic term overflow to inf; the error
    # names the caller's call, also where a nested transform overflowed: legendre_plus is
    # the adjoint's minus transform at -h, and L2nd's halves and midpoint stage take +-h/2
    x0, x1, h = np.array([1.0, 0.0]), np.array([1.0, 1e300]), 1e-100
    for fn in (discrete_lagrangian, legendre_minus, legendre_plus):
        with pytest.raises(NonFiniteStateError, match=rf"^{fn.__name__} {lag} .*h = 1e-100$"):
            fn(lag, x0, x1, h)
    with pytest.raises(ValueError, match=r"h = 5e-324 squares to 0\.0"):
        bootstrap_first_point(PhaseState([3.0, 0.0], [0.0, 1.0]), lag, 5e-324)


@pytest.mark.parametrize("h", [1.6e-162, 2e-162, 3.1e-162])
def test_l2nd_half_step_names_the_callers_h(h):
    # h*h is a subnormal, but L2nd's halves and midpoint stage take +-h/2, whose square is
    # 0.0: the error names the caller's h, not a nested +-h/2 or legendre_plus's adjoint -h
    assert h * h > 0.0 and (0.5 * h) * (0.5 * h) == 0.0
    x0, x1 = np.array([1.0, 0.0]), np.array([1.0, 1e-3])
    for fn in (discrete_lagrangian, legendre_minus, legendre_plus):
        with pytest.raises(NonFiniteStateError, match=rf"^{fn.__name__} L2nd not finite for h = {h!r}$"):
            fn("L2nd", x0, x1, h)


# --- Each fused table kernel equals its sub-flow composition, bit for bit ---

def _ref_sym_euler(z, h):
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential((x1, x2)).tolist()
    v1 = v1 - h * g1
    v2 = v2 - h * g2
    y1 = x1 + h * v1
    y2 = x2 + h * v2
    check_segment_xy(x1, x2, y1, y2)
    return y1, y2, v1, v2


def _ref_sym_euler_adjoint(z, h):
    x1, x2, v1, v2 = z
    y1 = x1 + h * v1
    y2 = x2 + h * v2
    check_segment_xy(x1, x2, y1, y2)
    g1, g2 = grad_potential((y1, y2)).tolist()
    return y1, y2, v1 - h * g1, v2 - h * g2


def _ref_sv(z, h):
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential((x1, x2)).tolist()
    p1 = v1 - 0.5 * h * g1
    p2 = v2 - 0.5 * h * g2
    y1 = x1 + h * p1
    y2 = x2 + h * p2
    check_segment_xy(x1, x2, y1, y2)
    g1, g2 = grad_potential((y1, y2)).tolist()
    return y1, y2, p1 - 0.5 * h * g1, p2 - 0.5 * h * g2


def paired(step, adjoint):
    """Self-adjoint kernel Phi_{h/2} o Phi*_{h/2} from a kernel and its adjoint.

    The adjoint half step runs first. This is the map generated by the
    second-order discrete Lagrangian, and the pairing behind vi2 and k2.
    """
    def kernel(z, h):
        half = 0.5 * h
        return step(adjoint(z, half), half)
    return kernel


def _ref_kernels(method_id, split):
    """(step, adjoint) of a method composed from the sub-flows the kernels write out."""
    w1, w2 = split.weights
    vi1 = (lambda z, h: _flow(2, _flow(1, z, h, w1), h, w2),
           lambda z, h: _flow_adjoint(1, _flow_adjoint(2, z, h, w2), h, w1))
    k1 = (lambda z, h: _flow_hi(2, _flow_hi(1, _flow_ht(z, h), h), h),
          lambda z, h: _flow_ht(_flow_hi(1, _flow_hi(2, z, h), h), h))
    return {"sym-euler": (_ref_sym_euler, _ref_sym_euler_adjoint), "sv": (_ref_sv, _ref_sv),
            "vi1": vi1, "vi2": (paired(*vi1),) * 2, "k1": k1, "k2": (paired(*k1),) * 2}[method_id]


def _unpack(row):
    """The floats of a packed row."""
    return struct.unpack(f"{len(row) // 8}d", row)


def _outcome(kernel, z, h):
    """The next state as float.hex strings, or the exception's type and message; a table
    kernel's next state is the first packed row it yields."""
    try:
        out = kernel(z, h)
        return tuple(map(float.hex, out if isinstance(out, tuple) else _unpack(next(out))))
    except (GeodynError, ArithmeticError) as exc:    # a named error, or one both sides raise alike
        return type(exc), str(exc)


def _assert_fused_equals_composed(method_id, z, h, split):
    """z is a Kepler state; a relativistic method steps (0.5, x1, x2, 1.25, v1, v2)."""
    if METHODS[method_id].model == "relativistic" and len(z) == 4:
        z = (0.5, *z[:2], 1.25, *z[2:])
    for fused, composed in zip(METHODS[method_id].kernels(split), _ref_kernels(method_id, split)):
        assert _outcome(fused, z, h) == _outcome(composed, z, h)


_COORD = st.floats(-3.0, 3.0)

# at and next to the origin, drifts onto and through it, and |x| ~ 1e103, where
# r * r * r is inf; a drift that lands on the origin tells the drift check's
# place from the end point's force or potential
_EDGE_STATES = [
    (0.0, 0.0, 1.0, 0.5), (0.0, 0.0, 0.0, 0.0), (1e-13, 0.0, 0.0, 1.0), (0.0, -1e-13, 1.0, 0.0),
    (1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0), (1.0, 1.0, -1.0, -1.0), (-1.0, 0.0, 3.0, 0.0),
    (1.0, 0.0, 0.25, 0.0),                  # k1's kicked drift lands on the origin at h = 1
    (1e103, 0.0, 0.0, 1.0), (0.0, -1e103, 1.0, 0.0), (1.0, 0.0, 1e103, 0.0),
    # a coordinate drift across an axis at ORIGIN_TOL and one ulp inside it, and
    # full drifts from |x| = 4 ORIGIN_TOL toward the origin
    (1.0, 1e-12, -1.0, 0.0), (1.0, -math.nextafter(1e-12, 0.0), -1.0, 0.0),
    (-1e-12, 1.0, 0.0, -1.0), (math.nextafter(1e-12, 0.0), 1.0, 0.0, -1.0),
    (4e-12, 0.0, -3e-12, 0.0), (0.0, -4e-12, 0.0, 2e-12), (4e-12, 1e-13, -4e-12, 0.0),
    # inside 4 ORIGIN_TOL, a short drift that ends inside 1 (h = 1e-20 for the kicked ones),
    # and kicked full drifts of 0.9999999999999 |x| straight at the origin (sym-euler, sv)
    (1.5e-12, 0.0, -0.6e-12, 0.0), (1.5e-12, 0.0, -6e7, 0.0),
    (1.0, 0.0, 1e-13, 0.0), (1.0, 0.0, -0.4999999999999, 0.0),
    # later drifts whose fixed coordinate lands on ORIGIN_TOL exactly: vi1's and k1's
    # second at h = 1, vi1*'s and k1*'s second at h = 1 and k2's second and third at
    # h = 2, k2's fourth at h = 1
    (0.0, 1.0, 1e-12, -1.0), (1.0, 0.0, 0.0, 1e-12), (-1e-12, 1.0, 2e-12, 0.0),
]
_REL_EDGE_STATES = [(0.0, 0.5, 0.0, 1.75, 0.5, 0.0)]   # k2's second half lands on it at h = 2


class TestFusedKernels:
    """Each table kernel and its adjoint is the sub-flow composition written out."""

    @pytest.mark.parametrize("method_id", list(METHODS))
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(z4=st.tuples(_COORD, _COORD, _COORD, _COORD), h=st.floats(1e-3, 1.0),
           sign=st.sampled_from([1.0, -1.0]), w1=st.floats(-0.5, 1.5))
    def test_equals_the_composition(self, method_id, z4, h, sign, w1):
        split = SplitPotential((w1, 1.0 - w1))
        _assert_fused_equals_composed(method_id, z4, sign * h, split)

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_equals_the_composition_at_the_edges(self, method_id):
        states = _EDGE_STATES
        if METHODS[method_id].model == "relativistic":
            states = states + _REL_EDGE_STATES
        for z in states:
            for h in (1.0, 2.0, -2.0):
                _assert_fused_equals_composed(method_id, z, h, SplitPotential((0.3, 0.7)))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(z=st.tuples(_COORD, _COORD, _COORD, _COORD), h=st.floats(1e-3, 1.0),
           sign=st.sampled_from([1.0, -1.0]))
    def test_vi2_on_one_part_is_paired_sym_euler(self, z, h, sign):
        kernel = METHODS["vi2"].kernels(kepler_split((1.0, 0.0)))[0]
        composed = paired(_ref_sym_euler, _ref_sym_euler_adjoint)
        assert _outcome(kernel, z, sign * h) == _outcome(composed, z, sign * h)

    def test_vi2_on_one_part_is_paired_sym_euler_at_the_edges(self):
        kernel = METHODS["vi2"].kernels(kepler_split((1.0, 0.0)))[0]
        composed = paired(_ref_sym_euler, _ref_sym_euler_adjoint)
        for z in _EDGE_STATES:
            for h in (1.0, 2.0, -2.0):
                assert _outcome(kernel, z, h) == _outcome(composed, z, h), (z, h)


# --- A table kernel's run is its composition's run: what it carries is what the next step computes ---

def _run_outcome(kernel, z, h, n):
    """The rows of an n-step run as bytes, or the error's type, message, step and state."""
    try:
        return trajectory(kernel, z, h, n).tobytes()
    except GeodynError as exc:
        state = exc.state if exc.state is None else tuple(map(float.hex, exc.state))
        return type(exc), str(exc), exc.step, state


def _assert_runs_equal(method_id, z, h, split, n):
    """z is a Kepler state; a relativistic method steps (0.5, x1, x2, 1.25, v1, v2)."""
    if METHODS[method_id].model == "relativistic" and len(z) == 4:
        z = (0.5, *z[:2], 1.25, *z[2:])
    for kernel, ref in zip(METHODS[method_id].kernels(split), _ref_kernels(method_id, split)):
        assert _run_outcome(kernel, z, h, n) == _run_outcome(_iterate(ref), z, h, n), (z, h, n)


def _failing_at(kernel, k, error):
    """A state generator that yields ``kernel``'s rows 1 .. k-1, then raises an ``error``
    where row k would be; an ``error`` of None makes row k NaN instead."""
    def states(z, h):
        for j, row in enumerate(kernel(z, h), start=1):
            if j == k:
                if error is not None:
                    raise error("raised where row k would be")
                row = struct.pack(f"{len(z)}d", *[math.nan] * len(z))
            yield row
    return states


class TestMultiStepKernels:
    """Each table kernel and its adjoint run as their one-step composition does, for up
    to 8 steps and across trajectory's 1024-row chunks: rows, error, failing step and
    last state."""

    @pytest.mark.parametrize("method_id", list(METHODS))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(z4=st.tuples(_COORD, _COORD, _COORD, _COORD), h=st.floats(1e-3, 1.0),
           sign=st.sampled_from([1.0, -1.0]), w1=st.floats(-0.5, 1.5), n=st.integers(1, 8))
    def test_equals_the_composition(self, method_id, z4, h, sign, w1, n):
        _assert_runs_equal(method_id, z4, sign * h, SplitPotential((w1, 1.0 - w1)), n)

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_equals_the_composition_at_the_edges(self, method_id):
        states = _EDGE_STATES
        if METHODS[method_id].model == "relativistic":
            states = states + _REL_EDGE_STATES
        for z in states:
            for h in (1.0, 2.0, -2.0):
                _assert_runs_equal(method_id, z, h, SplitPotential((0.3, 0.7)), 8)

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_equals_the_composition_across_chunks(self, method_id):
        z, h = (1.0, 0.0, 0.1, 1.1), 0.01
        if METHODS[method_id].model == "relativistic":
            z = (0.5, *z[:2], 1.25, *z[2:])
        for n in (1023, 1024, 1025, 2049):
            _assert_runs_equal(method_id, z, h, SplitPotential((0.3, 0.7)), n)
            for kernel in METHODS[method_id].kernels(SplitPotential((0.3, 0.7))):
                # the joined chunks are the kernel's rows, each once and in order
                rows = [struct.pack(f"{len(z)}d", *z), *islice(kernel(z, h), n)]
                assert trajectory(kernel, z, h, n).tobytes() == b"".join(rows), n

    @pytest.mark.parametrize("error", [SingularOriginError, None], ids=["singular", "nan"])
    @pytest.mark.parametrize("method_id", ["sv", "k2"])
    def test_a_failure_past_a_chunk_names_its_step(self, method_id, error):
        z, h = (1.0, 0.0, 0.1, 1.1), 0.01
        if METHODS[method_id].model == "relativistic":
            z = (0.5, *z[:2], 1.25, *z[2:])
        kernel = METHODS[method_id].kernels(None)[0]
        rows = trajectory(kernel, z, h, 1500)
        for k in (1, 2, 1024, 1025, 1500):
            with pytest.raises(GeodynError) as info:
                trajectory(_failing_at(kernel, k, error), z, h, 1500)
            assert type(info.value) is (error if error is SingularOriginError else NonFiniteStateError)
            assert str(info.value).startswith(f"step {k}: "), (k, str(info.value))
            assert info.value.step == k
            assert tuple(map(float.hex, info.value.state)) == tuple(map(float.hex, rows[k - 1])), k

    @pytest.mark.parametrize("error", [SingularOriginError], ids=["singular"])
    def test_a_failed_run_makes_one_pass(self, error):
        # the failing step and last state come from the rows already collected;
        # the run is not made again from z0 to find them
        z, h, made = (1.0, 0.0, 0.1, 1.1), 0.01, []
        failing = _failing_at(_sv_states, 1500, error)

        def counted(z, h):
            made.append(z)
            return failing(z, h)

        with pytest.raises(GeodynError) as info:
            trajectory(counted, z, h, 2000)
        assert len(made) == 1
        assert type(info.value) is error
        assert str(info.value).startswith("step 1500: ") and info.value.step == 1500
        last = trajectory(_sv_states, z, h, 1499)[-1]
        assert tuple(map(float.hex, info.value.state)) == tuple(map(float.hex, last))


@pytest.mark.parametrize("kernel,z", [(_sv_states, (1.0, 0.0, 0.1, 1.1)),
                                      (_k2_states, (0.5, 1.0, 0.0, 1.25, 0.1, 1.1))],
                         ids=["sv", "k2"])
def test_trajectory_memory_stays_bounded(kernel, z):
    # the packed rows are joined a chunk at a time; one join of all of them would hold
    # a bytes object per row, several times the result, at its peak. A short untraced
    # run first: a kernel's first steps under tracemalloc made k2's run take 2-3 s, not 0.5 s
    trajectory(kernel, z, 0.01, 20)
    tracemalloc.start()
    try:
        out = trajectory(kernel, z, 0.01, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes, peak / out.nbytes


# --- The kernels' drift-check prefilters skip only checks that cannot raise ---

def _ulps(x, k):
    """x moved by k ulps, up for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


_SIGN = st.sampled_from([1.0, -1.0])
_EDGE = st.one_of(
    st.builds(lambda s, k: s * _ulps(ORIGIN_TOL, k), _SIGN, st.integers(-3, 3)),
    st.builds(lambda s, f: s * f * ORIGIN_TOL, _SIGN, st.floats(3.5, 4.5)),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(-10 * ORIGIN_TOL, 10 * ORIGIN_TOL),
    st.floats(-3.0, 3.0),
)
# v = (f x + e) / h aims a drift from x at f x + e: through the origin for f = -1, e = 0
_AIM = st.one_of(st.sampled_from([-1.0, -0.5, 0.0]), st.floats(-2.5, 0.5))
_OFFSET = st.one_of(st.just(0.0), _EDGE)


class _CheckSpy:
    """Stands in for check_segment_xy while entered; records each call as
    (args as float.hex, raised)."""

    def __enter__(self):
        self.calls = []
        self.patch = pytest.MonkeyPatch()
        self.patch.setattr(integrators, "check_segment_xy", self)
        self.patch.setitem(globals(), "check_segment_xy", self)   # the _ref_* kernels above
        return self

    def __exit__(self, *exc):
        self.patch.undo()

    def __call__(self, *args):
        key = tuple(map(float.hex, args))
        try:
            kepler.check_segment_xy(*args)
        except SingularOriginError:
            self.calls.append((key, True))
            raise
        self.calls.append((key, False))

    def run(self, kernel, z, h):
        """The kernel's outcome and the checks it made."""
        self.calls = []
        return _outcome(kernel, z, h), self.calls


# the table kernels that are their sub-flow composition, (method id, 1 for the adjoint)
_COMPOSED = {("vi1", 1), ("k1", 1)}


def _assert_skips_only_silent_checks(spy, method_id, z, h, split):
    """A composed table kernel makes exactly the composition's checks. A fused one makes
    a subsequence of them: every one that raises, and for a coordinate drift exactly
    those with |fixed coordinate| < ORIGIN_TOL."""
    if METHODS[method_id].model == "relativistic" and len(z) == 4:
        z = (0.5, *z[:2], 1.25, *z[2:])
    coordinate = method_id not in ("sym-euler", "sv")
    kernels = zip(METHODS[method_id].kernels(split), _ref_kernels(method_id, split))
    for j, (fused, composed) in enumerate(kernels):
        got, made = spy.run(fused, z, h)
        want, needed = spy.run(composed, z, h)
        assert got == want
        made = [key for key, _ in made]
        if (method_id, j) in _COMPOSED:
            assert made == [key for key, _ in needed]
            continue
        for key, raised in needed:
            called = bool(made) and made[0] == key
            if called:
                made.pop(0)
            assert called or not raised, (key, "skipped a check that raises")
            if coordinate:
                fixed = [float.fromhex(a) for a, b in (key[0::2], key[1::2]) if a == b]
                assert called in {-ORIGIN_TOL < c < ORIGIN_TOL for c in fixed}, (key, called)
        assert not made


class TestDriftCheckPrefilters:
    """Drifts at, next to and through the origin, NaN and inf included."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=st.tuples(_EDGE, _EDGE), f=_AIM, e=st.tuples(_OFFSET, _OFFSET),
           h=st.sampled_from([1.0, -1.0, 2.0, 0.25, 1e-20]))
    def test_no_skipped_check_would_raise(self, x, f, e, h):
        z = (*x, *[(f * xi + ei) / h for xi, ei in zip(x, e)])
        with _CheckSpy() as spy:
            for method_id in METHODS:
                _assert_skips_only_silent_checks(spy, method_id, z, h, SplitPotential((0.3, 0.7)))

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_no_skipped_check_would_raise_at_the_edges(self, method_id):
        states = _EDGE_STATES
        if METHODS[method_id].model == "relativistic":
            states = states + _REL_EDGE_STATES
        mirrored = [tuple(-c for c in z) for z in _EDGE_STATES]   # -ORIGIN_TOL for +ORIGIN_TOL
        with _CheckSpy() as spy:
            for z in states + mirrored:
                for h in (1.0, 2.0, -2.0, 1e-20):
                    _assert_skips_only_silent_checks(spy, method_id, z, h,
                                                     SplitPotential((0.3, 0.7)))


def _flat(s):
    """A PhaseState or ExtPhaseState as the tuple of floats the kernels step."""
    if isinstance(s, PhaseState):
        return tuple(s.x.tolist() + s.v.tolist())
    return (s.t, *s.x.tolist(), s.gamma, *s.u.tolist())
