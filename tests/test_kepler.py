"""Tests for the Kepler model: potentials, conserved quantities, reference flow."""

import math

import numpy as np
import pytest

from geodyn import kepler
from geodyn.errors import (
    CircularOrbitError,
    NonConvergenceError,
    NonNegativeEnergyError,
    SingularOriginError,
    TrajectoryTooShortError,
)
from geodyn.kepler import (
    LagrangianField,
    PhaseState,
    analytic_reference,
    characteristics,
    check_segment_xy,
    conserved,
    energy,
    euler_lagrange_on_orbit,
    grad_potential,
    grad_potential_xy,
    hess_potential,
    kepler_split,
    lrl_vector,
    noether_residual,
    orbit_elements,
    periapsis_state,
    perturbation_average,
    potential,
    potential_xy,
    solve_kepler_equation,
)

S_CANONICAL = PhaseState(np.array([0.4, 0.0]), np.array([0.0, 2.0]))
S_WIDE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))


class TestPhaseState:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", ["x", "v"])
    def test_non_finite_component_rejected(self, bad, slot):
        parts = {"x": np.array([1.0, 0.0]), "v": np.array([0.0, 1.0])}
        parts[slot] = np.array([0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            PhaseState(**parts)


class TestPotential:
    def test_value(self):
        assert potential(np.array([2.0, 0.0])) == -0.5

    def test_gradient_matches_finite_differences(self):
        x = np.array([0.7, -1.2])
        g = grad_potential(x)
        for i in range(2):
            dx = np.zeros(2)
            dx[i] = 1e-6
            fd = (potential(x + dx) - potential(x - dx)) / 2e-6
            assert abs(g[i] - fd) < 1e-9

    def test_hessian_matches_finite_differences(self):
        x = np.array([0.9, 0.4])
        hess = hess_potential(x)
        for j in range(2):
            dx = np.zeros(2)
            dx[j] = 1e-6
            fd = (grad_potential(x + dx) - grad_potential(x - dx)) / 2e-6
            assert np.max(np.abs(hess[:, j] - fd)) < 1e-8

    def test_origin_rejected(self):
        with pytest.raises(SingularOriginError):
            potential(np.zeros(2))
        with pytest.raises(SingularOriginError):
            grad_potential(np.array([1e-13, 0.0]))

    def test_float_forms_match_vector_forms(self):
        # |x| is rounded differently (sqrt of a sum vs a BLAS dot), and r**3
        # triples that relative error, so allow a few ulps
        tol = 8 * np.finfo(float).eps
        rng = np.random.default_rng(7)
        for x in rng.uniform(-3.0, 3.0, size=(200, 2)):
            g = np.array(grad_potential_xy(*x.tolist()))
            assert np.max(np.abs(g - grad_potential(x))) <= tol * np.max(np.abs(g))
            assert abs(potential_xy(*x.tolist()) - potential(x)) <= tol * abs(potential(x))
        with pytest.raises(SingularOriginError):
            potential_xy(0.0, 0.0)
        with pytest.raises(SingularOriginError):
            grad_potential_xy(1e-13, 0.0)

    def test_segment_check(self):
        check_segment_xy(1.0, 0.5, -1.0, 0.5)      # passes 0.5 from the origin
        check_segment_xy(1.0, 0.0, 0.5, 0.0)       # stops short of it
        with pytest.raises(SingularOriginError):
            check_segment_xy(1.0, 0.0, -1.0, 0.0)
        with pytest.raises(SingularOriginError):
            check_segment_xy(0.0, 1.0, 0.0, 0.0)   # ends on it


class TestSplit:
    def test_parts_sum_to_total(self):
        split = kepler_split((0.3, 0.7))
        x = np.array([1.1, -0.4])
        assert abs(sum(split.value(i, x) for i in range(len(split))) - potential(x)) < 1e-14
        assert np.max(np.abs(split.grad(0, x) + split.grad(1, x) - grad_potential(x))) < 1e-14

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            kepler_split((0.5, 0.6))

    def test_degenerate_weight_collapses_to_one_part(self):
        assert len(kepler_split((1.0, 0.0))) == 1
        assert len(kepler_split((0.5, 0.5))) == 2

    def test_split_arity_is_planar(self):
        with pytest.raises(ValueError, match="2 weights"):
            kepler_split((0.3, 0.3, 0.4))
        assert len(kepler_split((0.0, 0.0, 1.0))) == 1


class TestConserved:
    def test_canonical_seed_values(self):
        cs = conserved(S_CANONICAL)
        assert abs(cs.H + 0.5) < 1e-14
        assert abs(cs.m - 0.8) < 1e-14
        assert np.max(np.abs(cs.A - np.array([0.6, 0.0]))) < 1e-14
        assert abs(cs.ecc - 0.6) < 1e-14
        assert cs.omega == 0.0
        assert not cs.circular

    def test_circular_flag(self):
        cs = conserved(PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        assert cs.circular
        assert cs.omega == 0.0

    def test_lrl_vector_definition(self):
        s = PhaseState(np.array([0.8, -0.3]), np.array([0.4, 1.1]))
        v2 = float(s.v @ s.v)
        xv = float(s.x @ s.v)
        expected = s.x * v2 - s.v * xv - s.x / np.linalg.norm(s.x)
        assert np.max(np.abs(lrl_vector(s) - expected)) < 1e-14


class TestOrbitElements:
    def test_wide_orbit(self):
        el = orbit_elements(S_WIDE)
        # a = -1/(2H) with H = 0.5*0.45^2 - 1/3
        h0 = 0.5 * 0.45**2 - 1.0 / 3.0
        assert abs(el.a + 1.0 / (2.0 * h0)) < 1e-12
        assert abs(el.T - 2.0 * math.pi * el.a**1.5) < 1e-12
        assert abs(el.a - 2.154398563734291) < 1e-12
        assert abs(el.T - 19.868676773967707) < 1e-12

    def test_unbound_orbit_rejected(self):
        with pytest.raises(NonNegativeEnergyError):
            orbit_elements(PhaseState(np.array([1.0, 0.0]), np.array([0.0, 2.0])))

    def test_periapsis_roundtrip(self):
        el = orbit_elements(S_CANONICAL)
        el2 = orbit_elements(periapsis_state(el))
        assert abs(el.a - el2.a) < 1e-12
        assert abs(el.e - el2.e) < 1e-12


class TestKeplerEquation:
    @pytest.mark.parametrize("e", [0.0, 0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("mean", [-2.5, -0.4, 0.0, 0.7, 3.0, 12.0])
    def test_roundtrip(self, e, mean):
        ecc_anom = solve_kepler_equation(mean, e)
        assert abs(ecc_anom - e * math.sin(ecc_anom) - mean) < 1e-12

    def test_zero_anomaly(self):
        assert solve_kepler_equation(0.0, 0.5) == 0.0


class TestAnalyticReference:
    @pytest.mark.parametrize("seed", [S_CANONICAL, S_WIDE])
    def test_period_return(self, seed):
        period = orbit_elements(seed).T
        s = analytic_reference(seed, period)
        assert np.max(np.abs(s.x - seed.x)) < 1e-10
        assert np.max(np.abs(s.v - seed.v)) < 1e-10

    def test_invariants_along_flow(self):
        a0 = lrl_vector(S_WIDE)
        for t in np.linspace(0.3, 17.0, 9):
            s = analytic_reference(S_WIDE, t)
            assert abs(energy(s) - energy(S_WIDE)) < 1e-12
            assert np.max(np.abs(lrl_vector(s) - a0)) < 1e-11

    def test_clockwise_orbit(self):
        # S_WIDE has m = -1.35 < 0; the mirrored seed must trace the mirror orbit
        mirrored = PhaseState(S_WIDE.x.copy(), -S_WIDE.v)
        s_cw = analytic_reference(S_WIDE, 2.0)
        s_ccw = analytic_reference(mirrored, 2.0)
        assert abs(s_cw.x[0] - s_ccw.x[0]) < 1e-12
        assert abs(s_cw.x[1] + s_ccw.x[1]) < 1e-12

    def test_circular_orbit(self):
        seed = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        s = analytic_reference(seed, math.pi / 2.0)
        assert np.max(np.abs(s.x - np.array([0.0, 1.0]))) < 1e-12

    def test_consistency_with_velocity(self):
        dt = 1e-6
        sp = analytic_reference(S_WIDE, 1.0 + dt)
        sm = analytic_reference(S_WIDE, 1.0 - dt)
        s = analytic_reference(S_WIDE, 1.0)
        fd = (sp.x - sm.x) / (2.0 * dt)
        assert np.max(np.abs(fd - s.v)) < 1e-8

    # float.hex of (x1, x2, v1, v2) from the reference that rebuilt the orbit
    # set-up on every call; sharing it across calls kept every bit
    PINNED = {
        ("ccw", 0.0):
            ("0x1.9999999999998p-2", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+1"),
        ("ccw", 0.7):
            ("-0x1.3aa56b0c15cf3p-2", "0x1.87a86161ba4c9p-1", "-0x1.28f08f22b4a62p+0", "0x1.22e51e7e0eadfp-2"),
        ("ccw", 23.5):
            ("-0x1.2345501b2790ep+0", "-0x1.5954223f8d949p-1", "0x1.465b4e6ef0c17p-1", "-0x1.4d1319f503cd0p-2"),
        ("cw", 0.0):
            ("-0x1.8000000000002p+1", "-0x1.17c62645fa501p-52", "-0x1.1451ece975a45p-54", "0x1.ccccccccccccap-2"),
        ("cw", 0.7):
            ("-0x1.7c83be761c6f8p+1", "0x1.4195050722067p-2", "0x1.3ebf5c74ea36fp-4", "0x1.c89a43c54144ep-2"),
        ("cw", 23.5):
            ("-0x1.21a9b92415feap+1", "0x1.7e05ee89e5c4dp+0", "0x1.a1923c017fcd9p-2", "0x1.4f83d3139f808p-2"),
        ("circular", 0.0):
            ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"),
        ("circular", 0.7):
            ("0x1.87996529f9d93p-1", "0x1.49d6e694619b8p-1", "-0x1.49d6e694619b8p-1", "0x1.87996529f9d93p-1"),
        ("circular", 23.5):
            ("-0x1.fb20cfa4f83acp-5", "-0x1.ff049b89cb31cp-1", "0x1.ff049b89cb31cp-1", "-0x1.fb20cfa4f83acp-5"),
    }
    SEEDS = {"ccw": S_CANONICAL, "cw": S_WIDE,
             "circular": PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))}

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_bits_pinned(self, key):
        name, t = key
        s = analytic_reference(self.SEEDS[name], t)
        assert tuple(c.hex() for c in np.concatenate([s.x, s.v]).tolist()) == self.PINNED[key]

    def test_orbit_set_up_once_per_call(self, monkeypatch):
        calls = []
        original = kepler.conserved
        monkeypatch.setattr(kepler, "conserved", lambda s: calls.append(s) or original(s))
        analytic_reference(S_WIDE, 2.0)
        assert len(calls) == 1


def _e09_seed():
    return periapsis_state(kepler.OrbitElements(a=1.3, b=0.0, e=0.9, T=0.0))


class TestAnalyticStates:
    SEEDS = {"ccw": S_CANONICAL, "cw": S_WIDE, "e0.9": _e09_seed(),
             "circular": PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))}

    @staticmethod
    def grid(seed):
        period = orbit_elements(seed).T
        return np.linspace(-1.3 * period, 3.7 * period, 40).reshape(5, 8)

    @staticmethod
    def assert_matches_reference(seed, ts, x, v, ulps=4):
        assert x.shape == v.shape == (2,) + ts.shape
        for idx in np.ndindex(ts.shape):
            ref = analytic_reference(seed, float(ts[idx]))
            scale = max(np.max(np.abs(ref.x)), np.max(np.abs(ref.v)))
            tol = ulps * np.finfo(float).eps * scale
            assert np.max(np.abs(x[(slice(None),) + idx] - ref.x)) <= tol
            assert np.max(np.abs(v[(slice(None),) + idx] - ref.v)) <= tol

    @pytest.mark.parametrize("name", sorted(SEEDS))
    def test_agrees_with_scalar_reference(self, name):
        seed = self.SEEDS[name]
        ts = self.grid(seed)
        self.assert_matches_reference(seed, ts, *kepler._analytic_states(seed, ts))

    def test_scalar_time(self):
        x, v = kepler._analytic_states(S_WIDE, 2.0)
        ref = analytic_reference(S_WIDE, 2.0)
        assert x.shape == v.shape == (2,)
        assert np.max(np.abs(x - ref.x)) < 1e-14 and np.max(np.abs(v - ref.v)) < 1e-14

    @pytest.mark.parametrize("name", ["cw", "e0.9"])
    def test_stalled_newton_falls_back_to_scalar_solve(self, monkeypatch, name):
        # one Newton step settles no node, so every node goes through
        # solve_kepler_equation, which then bisects
        seed = self.SEEDS[name]
        ts = self.grid(seed)
        settled = kepler._analytic_states(seed, ts)
        calls = []
        original = kepler.solve_kepler_equation

        def counting(mean, e):
            calls.append(mean)
            return original(mean, e)

        monkeypatch.setattr(kepler, "KEPLER_EQ_MAXITER", 1)
        monkeypatch.setattr(kepler, "solve_kepler_equation", counting)
        x, v = kepler._analytic_states(seed, ts)
        assert len(calls) == ts.size
        self.assert_matches_reference(seed, ts, x, v)
        assert np.max(np.abs(x - settled[0])) < 1e-12
        assert np.max(np.abs(v - settled[1])) < 1e-11


class TestNoether:
    @pytest.mark.parametrize("which", ["H", "m", "A1", "A2"])
    def test_residual_decays_quadratically(self, which):
        def residual(dt):
            times = np.arange(9) * dt
            states = [analytic_reference(S_WIDE, t) for t in times]
            return noether_residual(times, states, which)

        r1, r2 = residual(0.02), residual(0.01)
        if r1 > 1e-13:     # below that, roundoff dominates the ratio
            # at least quadratic; some quantities land on a higher-order point
            assert r1 / r2 > 3.5

    def test_too_short_trajectory(self):
        with pytest.raises(TrajectoryTooShortError):
            noether_residual(np.array([0.0, 0.1]),
                             [S_WIDE, analytic_reference(S_WIDE, 0.1)], "H")

    def test_characteristics_shape(self):
        ch = characteristics(S_CANONICAL)
        assert set(ch) == {"H", "m", "A1", "A2"}
        assert np.max(np.abs(ch["m"] - np.array([0.0, 0.4]))) < 1e-14


def _kepler_rate(x, v):
    """-v . grad(phi) on (2, ...) arrays."""
    return -(v[0] * x[0] + v[1] * x[1]) / (x[0] ** 2 + x[1] ** 2) ** 1.5


def _inverse_r4(x, v):
    return 1.0 / (x[0] ** 2 + x[1] ** 2) ** 2


class TestPerturbationAverage:
    def test_total_derivative_has_zero_average(self):
        # Lbar = -v . grad(phi) is d/dt(-phi) on shell: every period average
        # against a conservation-law characteristic vanishes.
        field = LagrangianField(_kepler_rate)
        avg = perturbation_average(field, "A2", S_WIDE, nodes=512)
        assert abs(avg) < 1e-10

    def test_euler_lagrange_of_classical_lagrangian_vanishes(self):
        field = LagrangianField(lambda x, v: 0.5 * (v[0] ** 2 + v[1] ** 2)
                                + 1.0 / np.hypot(x[0], x[1]))
        el = euler_lagrange_on_orbit(field, S_WIDE, 2.0)
        assert el.shape == (2,)
        assert np.max(np.abs(el)) < 1e-7

    def test_euler_lagrange_matches_scalar_stencil_loop(self):
        # reference: per-node loop over analytic_reference states and a
        # per-coordinate 5-point stencil, as the quadrature once evaluated it
        field = LagrangianField(_inverse_r4)
        ts = np.array([[0.0, 1.3], [7.7, 20.0]])
        coeffs = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

        def fd(f, p):
            out = np.zeros(2)
            for i in range(2):
                for c, k in zip(coeffs, (-2, -1, 1, 2)):
                    q = p.copy()
                    q[i] += k * 1e-4
                    out[i] += c * f(q)
            return out / 1e-4

        el = euler_lagrange_on_orbit(field, S_WIDE, ts)
        assert el.shape == (2, 2, 2)
        for idx in np.ndindex(ts.shape):
            t = ts[idx]
            ddt = np.zeros(2)
            for c, k in zip(np.array([-1.0, 9.0, -45.0, 45.0, -9.0, 1.0]) / 60.0,
                            (-3, -2, -1, 1, 2, 3)):
                sk = analytic_reference(S_WIDE, t + k * 2e-2)
                ddt += c * fd(lambda v: _inverse_r4(sk.x, v), sk.v)
            s = analytic_reference(S_WIDE, t)
            ref = ddt / 2e-2 - fd(lambda x: _inverse_r4(x, s.v), s.x)
            assert np.max(np.abs(el[(slice(None),) + idx] - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_one_analytic_orbit_call_per_quadrature(self, monkeypatch):
        # the coarse Simpson rule reuses the even nodes of the fine one, and
        # one call covers the 7-point time stencil of all 2n+1 nodes
        calls = []
        original = kepler._analytic_states

        def counting(s0, ts):
            calls.append(np.array(ts))
            return original(s0, ts)

        monkeypatch.setattr(kepler, "_analytic_states", counting)
        n = 8
        perturbation_average(LagrangianField(_kepler_rate), "A2", S_CANONICAL, nodes=n,
                             refine_tol=1.0)
        assert len(calls) == 1
        assert calls[0].shape == (7, 2 * n + 1)
        assert np.unique(calls[0]).size == 7 * (2 * n + 1)

    def test_callable_characteristic_matches_named(self):
        field = LagrangianField(_inverse_r4)
        named = perturbation_average(field, "A1", S_WIDE, nodes=16, refine_tol=1.0)
        shapes = []

        def a1(x, v):
            shapes.append((x.shape, v.shape))
            return np.array([-x[1] * v[1], 2.0 * x[0] * v[1] - v[0] * x[1]])

        fn = perturbation_average(field, a1, S_WIDE, nodes=16, refine_tol=1.0)
        assert fn == named
        assert shapes == [((2, 33), (2, 33))]

    def test_unsettled_refinement_raises(self):
        field = LagrangianField(_inverse_r4)
        with pytest.raises(NonConvergenceError, match="did not settle"):
            perturbation_average(field, "A1", S_WIDE, nodes=4, refine_tol=1e-14)
