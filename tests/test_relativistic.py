"""Tests for the proper-time relativistic system and its splitting integrators."""

import re

import numpy as np
import pytest

from geodyn.errors import NonFiniteStateError
from geodyn.integrators import TwoStepState, step
from geodyn.kepler import potential
from geodyn.relativistic import (
    ExtPhaseState,
    del_relativistic,
    del_relativistic_seed,
    extended_hamiltonian,
    flow_hi,
    flow_ht,
    mass_shell_gamma,
    run_relativistic,
    step_k1,
    step_k2,
)

U0 = np.array([0.0, 0.45])
S0 = ExtPhaseState(0.0, np.array([-3.0, 0.0]), mass_shell_gamma(U0), U0)
H = 0.05

# Bounded-defect regression constants measured at the first run of this
# configuration (20000 steps of h = 0.05 from S0); asserted with 2x headroom.
MASS_SHELL_DEFECT_K1 = 1.883e-2
MASS_SHELL_DEFECT_K2 = 9.845e-4
ENERGY_DEFECT_K1 = 3.927e-2
ENERGY_DEFECT_K2 = 2.246e-3


class TestStateAndInvariants:
    def test_mass_shell_gamma(self):
        assert mass_shell_gamma(np.zeros(2)) == 1.0
        assert abs(mass_shell_gamma(np.array([3.0, 4.0])) - np.sqrt(26.0)) < 1e-14

    def test_extended_hamiltonian_on_shell(self):
        # on the mass shell H = (|u|^2 - 1 - |u|^2)/2 = -1/2 ... plus potential shift
        s = ExtPhaseState(0.0, np.array([2.0, 0.0]), mass_shell_gamma(U0), U0)
        assert abs(extended_hamiltonian(s) + 0.5) < 1e-14

    @pytest.mark.parametrize("method", ["k1", "k2"])
    def test_extended_hamiltonian_is_the_run_column(self, method):
        # one formula: the H of a state is the H column of the run it is a row of, bit for
        # bit (an einsum column and u @ u differed on about 7 % of these rows)
        rng = np.random.default_rng(32)
        for _ in range(15):
            x, u = S0.x + rng.uniform(-0.5, 0.5, 2), U0 + rng.uniform(-0.1, 0.1, 2)
            rec = run_relativistic(method, ExtPhaseState(0.0, x, mass_shell_gamma(u), u), H, 200)
            for n in range(0, 201, 10):
                assert extended_hamiltonian(rec.state(n)) == rec.H[n], n

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ExtPhaseState(0.0, np.array([1.0, 0.0]), 1.0, np.array([0.1]))

    @pytest.mark.parametrize("n", [1, 3])
    def test_non_planar_shape_rejected(self, n):
        with pytest.raises(ValueError, match="planar"):
            ExtPhaseState(0.0, np.ones(n), 1.0, np.zeros(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", ["t", "x", "gamma", "u"])
    def test_non_finite_component_rejected(self, bad, slot):
        parts = {"t": 0.0, "x": np.array([1.0, 0.0]), "gamma": 1.0, "u": np.array([0.0, 0.1])}
        if slot in ("x", "u"):
            parts[slot] = np.array([0.5, bad])
        else:
            parts[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            ExtPhaseState(**parts)


class TestSubflows:
    def test_time_flow(self):
        s = flow_ht(S0, H)
        assert abs(s.t - H * S0.gamma) < 1e-15
        assert np.max(np.abs(s.x - S0.x)) == 0.0
        assert s.gamma == S0.gamma
        # kick: u - h*gamma*grad(phi), grad(phi) = x/r^3 = (-1/9, 0)
        expect = S0.u - H * S0.gamma * np.array([-1.0 / 9.0, 0.0])
        assert np.max(np.abs(s.u - expect)) < 1e-15

    def test_coordinate_flow_updates_gamma_exactly(self):
        s = flow_hi(2, S0, H)
        assert s.x[1] == S0.x[1] + H * S0.u[1]
        assert abs(s.gamma - (S0.gamma - (potential(s.x) - potential(S0.x)))) < 1e-15
        assert s.t == S0.t

    def test_index_validation(self):
        with pytest.raises(ValueError):
            flow_hi(3, S0, H)


class TestComposedSteps:
    def test_k1_adjoint_identity(self):
        fwd = step("k1", S0, H, adjoint=True)
        back = step_k1(fwd, -H)
        assert abs(back.t - S0.t) < 1e-13
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert abs(back.gamma - S0.gamma) < 1e-13
        assert np.max(np.abs(back.u - S0.u)) < 1e-13

    @pytest.mark.parametrize("pairing", ["adjoint-last"])    # the one pairing paired() builds
    def test_k2_self_adjoint(self, pairing):
        fwd = step_k2(S0, H)
        back = step_k2(fwd, -H)
        assert np.max(np.abs(back.x - S0.x)) < 1e-13
        assert abs(back.gamma - S0.gamma) < 1e-13

    def test_k2_second_order_against_fine_k1(self):
        # one k2 step vs a Richardson-style fine reference from many k1 steps
        fine = S0
        for _ in range(1000):
            fine = step_k2(fine, H / 1000.0)

        def err(h):
            s = S0
            for _ in range(int(round(H / h))):
                s = step_k2(s, h)
            return np.max(np.abs(s.x - fine.x))

        assert err(H / 2.0) / err(H / 8.0) > 10.0   # ~16 for a second-order method


class TestDelForm:
    def test_seed_formula(self):
        ts = del_relativistic_seed(S0, H)
        assert ts.h == H
        assert ts.x_prev.tolist() == [S0.t, *S0.x.tolist()]
        t1, x1 = ts.x_curr[0], ts.x_curr[1:]
        assert abs(t1 - H * S0.gamma) < 1e-15
        expect = S0.x + H * S0.u - H * (t1 - S0.t) * np.array([-1.0 / 9.0, 0.0])
        assert np.max(np.abs(x1 - expect)) < 1e-15

    def test_two_step_matches_k1(self):
        rec = run_relativistic("k1", S0, H, 100)
        ts = del_relativistic_seed(S0, H)
        qs = [ts.x_prev, ts.x_curr]
        for _ in range(99):
            ts = TwoStepState(ts.x_curr, del_relativistic(ts), H)
            qs.append(ts.x_curr)
        qs = np.array(qs)
        assert np.max(np.abs(qs[:, 0] - rec.ts)) < 1e-10
        assert np.max(np.abs(qs[:, 1:] - rec.xs)) < 1e-10

    # h * (t1 - t0) * grad overflows in the seed at gamma = 1e10, and
    # h * (t_next - t) * grad in the update: each a named error, never a warning
    def test_overflowing_seed_names_h(self):
        s = ExtPhaseState(0.0, np.array([1.0, 0.0]), 1e10, np.array([0.0, 0.6]))
        with pytest.raises(NonFiniteStateError, match=re.escape("h = 1e+150")):
            del_relativistic_seed(s, 1e150)

    def test_overflowing_update_names_h(self):
        with pytest.raises(NonFiniteStateError, match=re.escape("h = 1e+150")):
            del_relativistic(TwoStepState([0.0, 1.0, 0.0], [1e200, 1.0, 0.1], 1e150))


class TestRun:
    def test_record_layout(self):
        rec = run_relativistic("k2", S0, H, 10)
        assert rec.steps == 10
        assert np.max(np.abs(rec.taus - H * np.arange(11))) == 0.0
        s3 = rec.state(3)
        assert s3.gamma == rec.gammas[3]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_relativistic("k3", S0, H, 5)

    @pytest.mark.parametrize("method,shell_bound,energy_bound", [
        ("k1", MASS_SHELL_DEFECT_K1, ENERGY_DEFECT_K1),
        ("k2", MASS_SHELL_DEFECT_K2, ENERGY_DEFECT_K2),
    ])
    def test_bounded_defects_regression(self, method, shell_bound, energy_bound):
        rec = run_relativistic(method, S0, H, 20000)
        shell = np.abs(rec.gammas
                       - np.sqrt(1.0 + np.einsum("ij,ij->i", rec.us, rec.us)))
        assert np.max(shell) < 2.0 * shell_bound
        assert np.max(np.abs(rec.H - rec.H[0])) < 2.0 * energy_bound
        # and no secular trend
        slope = abs(np.polyfit(np.arange(rec.H.size), rec.H - rec.H[0], 1)[0])
        assert slope < 1e-8

    @pytest.mark.parametrize("method", ["k1", "k2"])
    def test_non_finite_state_reports_step(self, method):
        u = np.array([0.0, 1e150])
        s = ExtPhaseState(0.0, np.array([1.0, 0.0]), mass_shell_gamma(u), u)
        with pytest.raises(NonFiniteStateError, match=r"step 1"):
            run_relativistic(method, s, 1e200, 3)

    def test_non_finite_energy_column_names_step(self):
        # the states are finite, but gamma**2 overflows in the H column
        s = ExtPhaseState(0.0, np.array([1.0, 0.0]), 1e200, np.array([0.0, 1.0]))
        with pytest.raises(NonFiniteStateError, match=r"step 0: H = -inf is not finite") as info:
            run_relativistic("k1", s, 1e-200, 1)
        assert (info.value.step, info.value.state) == (0, None)

    def test_non_planar_state_rejected(self):
        # the dimension is checked once, where the state is built
        u = np.array([0.0, 0.45, 0.0])
        with pytest.raises(ValueError, match="planar"):
            ExtPhaseState(0.0, np.array([-3.0, 0.0, 0.0]), mass_shell_gamma(u), u)

    def test_coordinate_time_is_monotone(self):
        rec = run_relativistic("k2", S0, H, 500)
        assert np.all(np.diff(rec.ts) > 0.0)
