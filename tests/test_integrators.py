"""Integrator tests: elementary steps, Legendre transforms, DEL equivalence."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodyn.cli import build_parser
from geodyn.errors import (
    GeodynError,
    NonFiniteStateError,
    NonPlanarStateError,
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
    bootstrap_first_point,
    del_two_step_vi1,
    discrete_lagrangian,
    legendre_fd,
    legendre_minus,
    legendre_plus,
    one_step_map,
    paired,
    run,
    step_stormer_verlet,
    step_sv_one_step,
    step_sym_euler,
    step_sym_euler_adjoint,
    step_vi1,
    step_vi1_adjoint,
    step_vi2,
    substep_flow,
    substep_flow_adjoint,
)
from geodyn.kepler import (
    PhaseState,
    SplitPotential,
    analytic_reference,
    check_segment_xy,
    energy,
    grad_potential,
    grad_potential_xy,
    kepler_split,
    orbit_elements,
    potential,
)
from geodyn.modified import modified_lagrangian
from geodyn.relativistic import (
    ExtPhaseState,
    mass_shell_gamma,
    run_relativistic,
    step_k1,
    step_k2,
)

S0 = PhaseState(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
S_WIDE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))
SPLIT = kepler_split()
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
        ts = TwoStepState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.1)
        out = step_stormer_verlet(ts, grad=lambda x: x)
        assert np.max(np.abs(out - np.array([0.99, 0.0]))) < 1e-15

    def test_sv_one_step_matches_recurrence(self):
        s1 = step_sv_one_step(S0, H)
        s2 = step_sv_one_step(s1, H)
        rec = step_stormer_verlet(TwoStepState(S0.x, s1.x, H))
        assert np.max(np.abs(rec - s2.x)) < 1e-13

    def test_drift_through_origin_rejected(self):
        s = PhaseState(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        with pytest.raises(SingularOriginError):
            substep_flow(1, s, SPLIT, 2.0)


class TestAdjoints:
    """Phi*_h is the inverse of Phi_{-h}; composition must return the start."""

    def test_sym_euler_adjoint_identity(self):
        fwd = step_sym_euler_adjoint(S0, H)
        back = step_sym_euler(fwd, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert np.max(np.abs(back.v - S0.v)) < 1e-13

    def test_vi1_adjoint_identity(self):
        fwd = step_vi1_adjoint(S0, SPLIT, H)
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
        step = one_step_map(method, SPLIT)
        z0 = np.concatenate([S0.x, S0.v])
        delta = 1e-6
        jac = np.empty((4, 4))
        for j in range(4):
            e = np.zeros(4)
            e[j] = delta
            sp = step(PhaseState((z0 + e)[:2], (z0 + e)[2:]), H)
            sm = step(PhaseState((z0 - e)[:2], (z0 - e)[2:]), H)
            jac[:, j] = (np.concatenate([sp.x, sp.v])
                         - np.concatenate([sm.x, sm.v])) / (2 * delta)
        defect = jac.T @ self.OMEGA @ jac - self.OMEGA
        assert np.max(np.abs(defect)) < 1e-5


class TestDiscreteLagrangians:
    X0 = np.array([0.4, 0.0])
    X1 = np.array([0.384375, 0.1])

    @pytest.mark.parametrize("lag_id", LAGRANGIAN_IDS)
    def test_closed_form_matches_finite_differences(self, lag_id):
        pm_fd, pp_fd = legendre_fd(lag_id, self.X0, self.X1, H, SPLIT)
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
        x1 = bootstrap_first_point(S0, "L1", H)
        p1 = legendre_plus("L1", S0.x, x1, H)
        ref = step_sym_euler(S0, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-11
        assert np.max(np.abs(p1 - ref.v)) < 1e-11

    def test_legendre_generates_vi1(self):
        x1 = bootstrap_first_point(S0, "L1st", H, SPLIT)
        p1 = legendre_plus("L1st", S0.x, x1, H, SPLIT)
        ref = step_vi1(S0, SPLIT, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-11
        assert np.max(np.abs(p1 - ref.v)) < 1e-11

    def test_legendre_generates_vi2(self):
        x1 = bootstrap_first_point(S0, "L2nd", H, SPLIT)
        p1 = legendre_plus("L2nd", S0.x, x1, H, SPLIT)
        ref = step_vi2(S0, SPLIT, H)
        assert np.max(np.abs(x1 - ref.x)) < 1e-10
        assert np.max(np.abs(p1 - ref.v)) < 1e-10

    def test_bootstrap_satisfies_legendre_condition(self):
        x1 = bootstrap_first_point(S0, "L2", H)
        assert np.max(np.abs(legendre_minus("L2", S0.x, x1, H) - S0.v)) < 1e-11

    @pytest.mark.parametrize("seed", [S0, S_WIDE, PhaseState(np.array([1.3, -0.7]),
                                                             np.array([0.2, 0.9]))])
    def test_l1_is_l1st_on_the_one_part_split_bit_for_bit(self, seed):
        # L1 = |d|^2/(2h^2) - phi(x0); its transforms are d/h + h grad(x0) and d/h
        single = kepler_split((1.0, 0.0))
        x0, x1 = seed.x, bootstrap_first_point(seed, "L1", H)
        d = x1 - x0
        assert np.array_equal(x1, bootstrap_first_point(seed, "L1st", H, single))
        value = discrete_lagrangian("L1", x0, x1, H)
        assert value == discrete_lagrangian("L1st", x0, x1, H, single)
        assert value == 0.5 * float(d @ d) / H**2 - potential(x0)
        for lag_id, split in (("L1", None), ("L1st", single)):
            assert np.array_equal(legendre_minus(lag_id, x0, x1, H, split),
                                  d / H + H * grad_potential(x0))
            assert np.array_equal(legendre_plus(lag_id, x0, x1, H, split), d / H)


class TestDelRecurrence:
    def test_matches_vi1_composition(self):
        x1 = bootstrap_first_point(S0, "L1st", H, SPLIT)
        rec = run("vi1", S0, H, 50, split=SPLIT, diagnostics=False)
        xs = [S0.x, x1]
        for _ in range(49):
            xs.append(del_two_step_vi1(TwoStepState(xs[-2], xs[-1], H), SPLIT))
        assert np.max(np.abs(np.array(xs) - rec.xs)) < 1e-11

    def test_single_part_is_central_difference(self):
        single = kepler_split((1.0, 0.0))
        ts = TwoStepState(np.array([1.0, 0.2]), np.array([0.98, 0.25]), H)
        out = del_two_step_vi1(ts, single)
        ref = step_stormer_verlet(ts)
        assert np.max(np.abs(out - ref)) < 1e-15


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
        # |x| = 1e150 is finite, but r**3 overflows
        s = PhaseState(np.array([1e150, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(NonFiniteStateError, match=r"step 1: float overflow"):
            run("sv", s, 0.1, 3)

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

    def test_overflow_carries_step_and_state(self):
        s = PhaseState(np.array([1e150, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(NonFiniteStateError) as info:
            run("sv", s, 0.1, 3)
        assert (info.value.step, info.value.state) == (1, (1e150, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("method", METHOD_IDS)
    def test_non_finite_state_carries_step_and_state(self, method):
        s = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1e200]))
        with pytest.raises(NonFiniteStateError) as info:
            run(method, s, 1e200, 3, split=SPLIT)
        assert (info.value.step, info.value.state) == (1, (1.0, 0.0, 0.0, 1e200))

    def test_errors_raised_outside_a_run_carry_no_step(self):
        exc = SingularOriginError("potential undefined at the origin")
        assert (exc.step, exc.state) == (None, None)

    def test_non_planar_state_rejected(self):
        s = PhaseState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NonPlanarStateError):
            run("sv", s, 0.1, 3)

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
        back = step(adjoint(z, H), -H)
        assert max(abs(a - b) for a, b in zip(back, z)) < 1e-13

    @pytest.mark.parametrize("method_id", list(METHODS))
    def test_public_step_is_row_one_of_a_run(self, method_id):
        if METHODS[method_id].model == "kepler":
            one = one_step_map(method_id, SPLIT)(self.SEED, H)
            rec = run(method_id, self.SEED, H, 1, split=SPLIT)
        else:
            one = {"k1": step_k1, "k2": step_k2}[method_id](self.EXT_SEED, H)
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
        lambda: one_step_map("k2"),
        lambda: modified_lagrangian("k1", S0, H),
    ], ids=["run", "run_relativistic", "one_step_map", "modified_lagrangian"])
    def test_one_unknown_method_error(self, call):
        with pytest.raises(UnknownMethodError):
            call()


# --- Each fused table kernel equals its sub-flow composition, bit for bit ---

def _ref_sym_euler(z, h):
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential_xy(x1, x2)
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
    g1, g2 = grad_potential_xy(y1, y2)
    return y1, y2, v1 - h * g1, v2 - h * g2


def _ref_sv(z, h):
    x1, x2, v1, v2 = z
    g1, g2 = grad_potential_xy(x1, x2)
    p1 = v1 - 0.5 * h * g1
    p2 = v2 - 0.5 * h * g2
    y1 = x1 + h * p1
    y2 = x2 + h * p2
    check_segment_xy(x1, x2, y1, y2)
    g1, g2 = grad_potential_xy(y1, y2)
    return y1, y2, p1 - 0.5 * h * g1, p2 - 0.5 * h * g2


def _ref_kernels(method_id, split):
    """(step, adjoint) of a method composed from the sub-flows the kernels write out."""
    w1, w2 = split.weights
    vi1 = (lambda z, h: _flow(2, _flow(1, z, h, w1), h, w2),
           lambda z, h: _flow_adjoint(1, _flow_adjoint(2, z, h, w2), h, w1))
    k1 = (lambda z, h: _flow_hi(2, _flow_hi(1, _flow_ht(z, h), h), h),
          lambda z, h: _flow_ht(_flow_hi(1, _flow_hi(2, z, h), h), h))
    return {"sym-euler": (_ref_sym_euler, _ref_sym_euler_adjoint), "sv": (_ref_sv, _ref_sv),
            "vi1": vi1, "vi2": (paired(*vi1),) * 2, "k1": k1, "k2": (paired(*k1),) * 2}[method_id]


def _outcome(kernel, z, h):
    """The next state as float.hex strings, or the exception's type and message."""
    try:
        return tuple(map(float.hex, kernel(z, h)))
    except (GeodynError, ArithmeticError) as exc:    # SingularOriginError, OverflowError
        return type(exc), str(exc)


def _assert_fused_equals_composed(method_id, z, h, split):
    """z is a Kepler state; a relativistic method steps (0.5, x1, x2, 1.25, v1, v2)."""
    if METHODS[method_id].model == "relativistic" and len(z) == 4:
        z = (0.5, *z[:2], 1.25, *z[2:])
    for fused, composed in zip(METHODS[method_id].kernels(split), _ref_kernels(method_id, split)):
        assert _outcome(fused, z, h) == _outcome(composed, z, h)


_COORD = st.floats(-3.0, 3.0)

# at and next to the origin, drifts onto and through it, and |x| ~ 1e103, where
# r**3 overflows; a drift that lands on the origin tells the drift check's
# place from the end point's force or potential
_EDGE_STATES = [
    (0.0, 0.0, 1.0, 0.5), (0.0, 0.0, 0.0, 0.0), (1e-13, 0.0, 0.0, 1.0), (0.0, -1e-13, 1.0, 0.0),
    (1.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, -1.0), (1.0, 1.0, -1.0, -1.0), (-1.0, 0.0, 3.0, 0.0),
    (1.0, 0.0, 0.25, 0.0),                  # k1's kicked drift lands on the origin at h = 1
    (1e103, 0.0, 0.0, 1.0), (0.0, -1e103, 1.0, 0.0), (1.0, 0.0, 1e103, 0.0),
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


def _flat(s):
    """A PhaseState or ExtPhaseState as the tuple of floats the kernels step."""
    if isinstance(s, PhaseState):
        return tuple(s.x.tolist() + s.v.tolist())
    return (s.t, *s.x.tolist(), s.gamma, *s.u.tolist())
