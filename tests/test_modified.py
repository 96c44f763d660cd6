"""Backward-error analysis tests: linear series, modified Lagrangians, drift."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodyn import integrators, kepler, modified
from geodyn.errors import (
    CircularOrbitError,
    GeodynError,
    NonConvergenceError,
    NonFiniteStateError,
    StabilityBoundaryError,
    TrajectoryTooShortError,
    UnknownMethodError,
)
from geodyn.integrators import TwoStepState, bootstrap_first_point, run
from geodyn.kepler import (
    OrbitElements,
    PhaseState,
    analytic_reference,
    euler_lagrange_on_orbit,
    grad_potential,
    kepler_split,
    orbit_elements,
)
from geodyn.modified import (
    drift_sweep,
    fitted_order,
    linear_dispersion,
    linear_measured_frequency,
    linear_modified_series,
    measured_drift_order,
    modified_lagrangian,
    per_period_drift,
    perturbation_field,
    predicted_drift,
    shadowing_error,
    shadowing_ratio,
)
from geodyn.relativistic import ExtPhaseState, del_relativistic_seed, run_relativistic

BASE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))
# generic (off-axis) state of the same orbit; periapsis/apoapsis starts sit on
# the orbit's symmetry axis and suppress the leading drift term
GENERIC = analytic_reference(BASE, 3.0)
CCW = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, -0.45]))


def _modified_accel_vi1(x1: float, x2: float, v1: float, v2: float,
                        h: float) -> tuple[float, float]:
    """Acceleration of the order-h truncated modified equation, on plain floats.

    ``modified._rk4`` writes this formula out in each of its stages, in the same
    operation order; ``TestShadowing`` holds the two equal bit for bit.
    """
    r = math.sqrt(x1 * x1 + x2 * x2)
    r3 = r * r * r
    f = -1.5 * h * x1 * x2 / (r3 * r * r)
    return -x1 / r3 + f * v2, -x2 / r3 + f * -v1


def modified_rhs_vi1(x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Acceleration of the order-h truncated modified equation (equal split)."""
    x1, x2 = np.asarray(x, dtype=float).tolist()
    v1, v2 = np.asarray(v, dtype=float).tolist()
    return np.array(_modified_accel_vi1(x1, x2, v1, v2, h))


# Every library entry point that takes a step size checks it with one rule; the
# linear-scheme functions are held to it in TestLinearSeries. integrators.step
# accepts any h, negative included; the discrete Lagrangians and Legendre transforms take
# a negative or huge h too, but reject one whose h * h underflows to 0.0.
STEP_SIZE_ENTRY_POINTS = {
    "run": lambda h: run("sv", BASE, h, 3),
    "run_relativistic": lambda h: run_relativistic("k1", ExtPhaseState(0.0, BASE.x, 1.1, BASE.v), h, 3),
    "TwoStepState": lambda h: TwoStepState(BASE.x, BASE.x, h),
    "bootstrap_first_point": lambda h: bootstrap_first_point(BASE, "L1st", h),
    "predicted_drift": lambda h: predicted_drift("sv", orbit_elements(BASE), h),
    "drift_sweep": lambda h: drift_sweep("sv", BASE, (h,)),
    "per_period_drift": lambda h: per_period_drift("sv", "ecc", BASE, h),
    "measured_drift_order": lambda h: measured_drift_order("sv", "ecc", GENERIC, (h, 0.1, 0.05, 0.02)),
    "shadowing_error": lambda h: shadowing_error(BASE, h),
    "del_relativistic_seed": lambda h: del_relativistic_seed(ExtPhaseState(0.0, BASE.x, 1.1, BASE.v), h),
}


@pytest.mark.parametrize("h", [math.nan, 0.0, -0.1, math.inf])
@pytest.mark.parametrize("entry", STEP_SIZE_ENTRY_POINTS)
def test_one_step_size_rule(entry, h):
    with pytest.raises(ValueError, match=r"step size h must be positive and finite, got "):
        STEP_SIZE_ENTRY_POINTS[entry](h)


class TestLinearSeries:
    def test_leading_term(self):
        assert linear_modified_series(2.5, 0.1, 1) == 2.5

    def test_second_term_coefficient(self):
        # 2 (1!)^2 / 4! = 1/12
        assert abs(linear_modified_series(1.0, 0.1, 2) - (1.0 + 0.01 / 12.0)) < 1e-15

    def test_matches_dispersion_squared(self):
        for lam, h in [(1.0, 0.1), (4.0, 0.2), (0.3, 0.5)]:
            omega = linear_dispersion(lam, h)
            assert abs(linear_modified_series(lam, h, 20) - omega**2) < 1e-12

    def test_divergence_warning(self):
        with pytest.warns(UserWarning):
            linear_modified_series(1.0, 2.1, 5)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            linear_modified_series(-1.0, 0.1, 5)
        with pytest.raises(ValueError):
            linear_modified_series(1.0, 0.1, 0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("fn", [lambda lam, h: linear_modified_series(lam, h, 5),
                                    linear_dispersion, linear_measured_frequency],
                             ids=["series", "dispersion", "measured"])
    def test_lambda_must_be_positive_and_finite(self, fn, lam):
        # checked before the divergence warning and the stability boundary
        with pytest.raises(ValueError, match="lambda"):
            fn(lam, 0.1)


    @pytest.mark.parametrize("h", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("fn", [lambda lam, h: linear_modified_series(lam, h, 5),
                                    linear_dispersion, linear_measured_frequency],
                             ids=["series", "dispersion", "measured"])
    def test_h_must_be_positive_and_finite(self, fn, h):
        with pytest.raises(ValueError, match="step size h must be positive and finite"):
            fn(1.0, h)

    def test_overflowing_term_is_a_named_error(self):
        # lambda*h^2 = 1 is stable, but lambda**20 overflows
        with pytest.raises(NonFiniteStateError, match="term k = 20 overflows"):
            linear_modified_series(1e16, 1e-8, 20)

    def test_overflowing_h_squared_is_a_named_error(self):
        # lambda*h^2 ~ 5e-14 is stable, but h**2 overflows
        with pytest.raises(NonFiniteStateError, match=r"h\*\*2 overflows for lambda = 5e-324, h = 1e\+155"):
            linear_measured_frequency(5e-324, 1e155)


class TestLinearDispersion:
    def test_reference_value(self):
        assert abs(linear_dispersion(1.0, 0.1) - 20.0 * math.asin(0.05)) < 1e-15

    def test_small_h_limit(self):
        assert abs(linear_dispersion(2.0, 1e-6) - math.sqrt(2.0)) < 1e-9

    def test_stability_boundary(self):
        with pytest.raises(StabilityBoundaryError):
            linear_dispersion(1.0, 2.0)
        with pytest.raises(StabilityBoundaryError):
            linear_dispersion(1.0, 2.1)

    def test_measured_frequency_agreement(self):
        omega = linear_dispersion(1.0, 0.1)
        measured = linear_measured_frequency(1.0, 0.1)
        assert abs(measured - omega) / omega < 1e-6

    def test_measured_frequency_unstable(self):
        with pytest.raises(StabilityBoundaryError):
            linear_measured_frequency(1.0, 2.1)

    @pytest.mark.parametrize("lam, h, omega", [(1.0, 1e-308, "inf"), (1.0, 5e-324, "nan"),
                                               (5e-324, 1e-200, "0.0")])
    @pytest.mark.parametrize("fn", [linear_dispersion, linear_measured_frequency])
    def test_frequency_must_be_positive_and_finite(self, fn, lam, h, omega):
        # 2/h overflows to inf; at h = 5e-324 it multiplies asin(0.0) to nan; and at lambda =
        # 5e-324, h sqrt(lambda)/2 underflows to 0.0. Each passes the stability check.
        with pytest.raises(ValueError) as info:
            fn(lam, h)
        assert str(info.value) == f"Omega = {omega} is not positive and finite for lambda = {lam!r}, h = {h!r}"

    @pytest.mark.parametrize("fn", [linear_dispersion, linear_measured_frequency])
    def test_one_stability_message(self, fn):
        # one check holds the rule, so both functions give its message
        with pytest.raises(StabilityBoundaryError) as info:
            fn(1.0, 2.5)
        assert str(info.value) == "lambda*h^2 = 6.25 is at or beyond the stability boundary 4"


class TestModifiedLagrangian:
    S = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("method", ["sym-euler", "sv", "vi1", "vi2"])
    def test_h_zero_is_classical(self, method):
        classical = 0.5 + 1.0   # |v|^2/2 + 1/|x| at S
        assert abs(modified_lagrangian(method, self.S, 0.0) - classical) < 1e-14

    def test_sv_quadratic_coefficient(self):
        # (1/24)(1/r^4 - 2|v|^2/r^3 + 6 (x.v)^2/r^5) = (1 - 2 + 0)/24 at S
        h = 0.2
        coeff = (modified_lagrangian("sv", self.S, h)
                 - modified_lagrangian("sv", self.S, 0.0)) / h**2
        assert abs(coeff + 1.0 / 24.0) < 1e-13

    def test_vi1_linear_term_equal_split(self):
        s = PhaseState(np.array([0.8, -0.5]), np.array([0.3, 0.6]))
        h = 0.1
        term = modified_lagrangian("vi1", s, h) - modified_lagrangian("vi1", s, 0.0)
        r = np.linalg.norm(s.x)
        # v1^2/2 is bracketed with both kicks, w1 + w2 = 1; v2^2/2's two brackets cancel
        assert abs(term + 0.5 * h * s.x[0] * s.v[0] / r**3) < 1e-13

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            modified_lagrangian("rk4", self.S, 0.1)

    def test_state_past_r_max_is_finite_and_unwarned(self):
        # r^3 = r * r * r is inf past R_MAX = 5.64e102, where the array force is +-0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(modified_lagrangian("sv", PhaseState([1e103, 0.0], [0.0, 1.0]), 0.1))

    @pytest.mark.parametrize("method", ["sym-euler", "sv", "vi1", "vi2"])
    def test_modified_energy_gains_two_orders(self, method):
        # H - eps(h)*Lbar is the modified energy: on the iterates of a second-order method
        # it changes by O(h^4) where H changes by O(h^2), so its largest change over t in
        # [0, 0.4] falls about 16x when h halves, and for a first-order method by O(h^2)
        # where H changes by O(h), about 4x; a bracket that is not the method's own falls
        # as plain H does, 4x or 2x (sym-euler's bracket of the other sign read 2.0x)
        ratio = {"sym-euler": 3.3, "vi1": 3.3, "sv": 12.0, "vi2": 12.0}[method]
        eps, lbar = perturbation_field(method)
        rng = np.random.default_rng(36)
        for _ in range(3):
            r, theta, phi = rng.uniform(1.0, 2.0), rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
            speed = rng.uniform(0.4, 0.9) * math.sqrt(2.0 / r)     # below escape speed: bound
            seed = PhaseState([r * math.cos(theta), r * math.sin(theta)],
                              [speed * math.cos(phi), speed * math.sin(phi)])

            def change(h):
                rec = run(method, seed, h, round(0.4 / h))
                energy = rec.H - eps(h) * lbar(rec.xs.T, rec.vs.T)
                return float(np.abs(energy - energy[0]).max())

            assert change(0.02) / change(0.01) > ratio, seed

    def test_vi1_rhs_consistent_with_perturbation_field(self):
        eps, lbar = perturbation_field("vi1")
        t, h = 2.0, 0.05
        s = analytic_reference(BASE, t)
        el_vec = euler_lagrange_on_orbit(lbar, BASE, t)
        lhs = modified_rhs_vi1(s.x, s.v, h)
        rhs = -grad_potential(s.x) - eps(h) * el_vec
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_vi1_rhs_matches_float_kernel(self):
        # the numpy wrapper and the vector formula -x/r^3 + f*(v2, -v1),
        # f = -1.5 h x1 x2 / r^5, against the float kernel the RK4 loop steps;
        # |x| rounds differently through np.linalg.norm, so allow a few ulps
        tol = 8 * np.finfo(float).eps
        rng = np.random.default_rng(11)
        for x, v, h in zip(rng.uniform(-3.0, 3.0, size=(200, 2)),
                           rng.uniform(-1.0, 1.0, size=(200, 2)),
                           rng.uniform(0.01, 0.5, size=200)):
            kernel = np.array(_modified_accel_vi1(*x.tolist(), *v.tolist(), h))
            r = float(np.linalg.norm(x))
            f = -1.5 * h * x[0] * x[1] / r**5
            vector = -x / r**3 + f * np.array([v[1], -v[0]])
            scale = 1.0 / r**2 + abs(f) * float(np.linalg.norm(v))
            assert np.max(np.abs(modified_rhs_vi1(x, v, h) - kernel)) <= tol * scale
            assert np.max(np.abs(vector - kernel)) <= tol * scale


def _closed_form(method_id: str, split):
    """(epsilon(h), Lbar) of a Kepler method written out by hand, one formula per method:
    the reference for the brackets perturbation_field derives from each composition.
    sym-euler's has the opposite sign: -grad(phi).v, where kick then drift gives +."""
    w1, w2 = split.weights
    if method_id == "sym-euler":
        def value(x, v):
            g1, g2, _, _ = kepler.grad_potential_arrays(x[0], x[1])
            return -(v[0] * g1 + v[1] * g2)
        return (lambda h: 0.5 * h), value

    if method_id == "sv":
        def value(x, v):
            _, _, r, r3 = kepler.grad_potential_arrays(x[0], x[1])
            xv = x[0] * v[0] + x[1] * v[1]
            return 1.0 / (r3 * r) - 2.0 * (v[0] * v[0] + v[1] * v[1]) / r3 + 6.0 * xv * xv / (r3 * r * r)
        return (lambda h: h * h / 24.0), value

    if method_id == "vi1":
        def value(x, v):
            g1, g2, _, _ = kepler.grad_potential_arrays(x[0], x[1])
            return -((w1 * g1 + w2 * g1) * v[0] + (w2 * g2 - w1 * g2) * v[1])
        return (lambda h: 0.5 * h), value

    def value(x, v):       # vi2; part i's gradient is w_i grad(phi), its Hessian w_i hess(phi)
        g1, g2, r, r3 = kepler.grad_potential_arrays(x[0], x[1])
        r5 = r3 * r * r
        h11 = 1.0 / r3 - 3.0 * x[0] * x[0] / r5
        h12 = -3.0 * x[0] * x[1] / r5
        h22 = 1.0 / r3 - 3.0 * x[1] * x[1] / r5
        quad = ((w1 * g1 + w2 * g1) ** 2 - 2.0 * (w1 * g2) ** 2
                + 2.0 * (w1 * g2) * (w2 * g2) + (w2 * g2) ** 2)
        kin = (-2.0 * (w1 * h11 + w2 * h11) * v[0] ** 2
               + 2.0 * (w1 * h12) * v[0] * v[1]
               + (w1 * h22) * v[1] ** 2
               - 4.0 * (w2 * h12) * v[0] * v[1]
               - 2.0 * (w2 * h22) * v[1] ** 2)
        return (quad + kin) / 24.0
    return (lambda h: h * h), value


class TestGeneratedBrackets:
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)])
    @pytest.mark.parametrize("method", ["sym-euler", "sv", "vi1", "vi2"])
    def test_equals_the_closed_form(self, method, weights):
        # eps(h)*Lbar from the composition's BCH terms against the hand-written formula,
        # to round-off of the largest value, on 2000 drawn states away from the origin
        rng = np.random.default_rng(41)
        r, theta = rng.uniform(0.3, 4.0, 2000), rng.uniform(-math.pi, math.pi, 2000)
        x = np.array([r * np.cos(theta), r * np.sin(theta)])
        v = rng.uniform(-1.5, 1.5, (2, 2000))
        split = kepler_split(weights)
        eps, lbar = perturbation_field(method, split)
        ref_eps, ref = _closed_form(method, split)
        sign = -1.0 if method == "sym-euler" else 1.0
        for h in (0.1, 0.013):
            want = sign * ref_eps(h) * ref(x, v)
            assert np.abs(eps(h) * lbar(x, v) - want).max() <= 1e-13 * np.abs(want).max()


class TestPredictedDrift:
    EL = orbit_elements(BASE)

    @pytest.mark.parametrize("method", ["sym-euler", "vi1"])
    def test_first_order_leading_terms_vanish(self, method):
        decc, dangle = predicted_drift(method, self.EL, 0.05, nodes=256)
        assert abs(decc) < 1e-10
        assert abs(dangle) < 1e-10

    def test_sv_ecc_vanishes_angle_matches_measurement(self):
        decc, dangle = predicted_drift("sv", self.EL, 0.05, nodes=256)
        assert abs(decc) < 1e-10
        measured = per_period_drift("sv", "angle", CCW, 0.05)
        assert abs(dangle - measured) / abs(measured) < 0.02

    # periapsis on +x2, a = 2, e = 0.1; float.hex of (decc, dangle) from the
    # array quadrature (one analytic-orbit call, one stacked stencil per
    # gradient); TestParentDrifts bounds its distance from the per-node loop
    PINNED = {
        "sv": ("-0x1.1fb920a3bf852p-49", "-0x1.09e6717e8a442p-11"),
        "vi1": ("-0x1.f0c03b538ff85p-42", "0x1.8b8975992d7dfp-39"),
    }

    @staticmethod
    def pinned_orbit(a: float = 2.0, e: float = 0.1) -> OrbitElements:
        rp = a * (1.0 - e)
        vp = math.sqrt((1.0 + e) / rp)
        return orbit_elements(PhaseState(np.array([0.0, rp]), np.array([-vp, 0.0])))

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_bits_pinned(self, method):
        decc, dangle = predicted_drift(method, self.pinned_orbit(), 0.05, nodes=32)
        assert (decc.hex(), dangle.hex()) == self.PINNED[method]

    @pytest.mark.parametrize("method,h", [("sv", 1e200), ("vi1", 1e308)])
    def test_overflowing_drift_is_a_named_error(self, method, h):
        # eps(h) * T * average overflows to (inf, -inf) and (-inf, inf)
        with pytest.raises(NonFiniteStateError, match=re.escape(f"not finite for h = {h!r}")):
            predicted_drift(method, self.EL, h)

    def test_one_analytic_orbit_call_per_prediction(self, monkeypatch):
        calls = []
        original = kepler._analytic_states

        def counting(s0, ts):
            calls.append(np.array(ts))
            return original(s0, ts)

        monkeypatch.setattr(kepler, "_analytic_states", counting)
        n = 32
        predicted_drift("sv", self.pinned_orbit(), 0.05, nodes=n)
        assert len(calls) == 1
        assert np.unique(calls[0]).size == calls[0].size == 7 * (2 * n + 1)

    @pytest.mark.parametrize("nodes", [0, -3, 2.5, True])
    def test_nodes_must_be_a_positive_int(self, nodes):
        with pytest.raises(ValueError, match="nodes must be a positive int"):
            predicted_drift("sv", self.pinned_orbit(), 0.05, nodes=nodes)

    def test_vi2_angle_matches_measurement_in_its_frame(self):
        # periapsis on +x2 is the frame predicted_drift assumes, so the
        # orientation dependence of the coordinate split does not enter
        a, e = 2.0, 0.1
        rp = a * (1.0 - e)
        s = PhaseState(np.array([0.0, rp]), np.array([-math.sqrt((1.0 + e) / rp), 0.0]))
        _, dangle = predicted_drift("vi2", orbit_elements(s), 0.02, nodes=256)
        measured = per_period_drift("vi2", "angle", s, 0.02)
        assert abs(dangle - measured) / abs(measured) < 0.02

    @pytest.mark.parametrize("method", ["vi1", "vi2"])
    def test_split_methods_need_two_parts(self, method):
        with pytest.raises(ValueError, match="two-part split"):
            predicted_drift(method, self.EL, 0.05, kepler_split((1.0, 0.0)))

    def test_relativistic_method_rejected_by_the_table(self):
        with pytest.raises(UnknownMethodError, match="unknown kepler method 'k1'"):
            predicted_drift("k1", self.EL, 0.05)

    def test_circular_orbit_rejected(self):
        circ = orbit_elements(PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0])))
        with pytest.raises(CircularOrbitError):
            predicted_drift("sv", circ, 0.05)


class TestParentDrifts:
    """Predicted drifts against the per-node scalar quadrature they replaced.

    float.hex of (decc, dangle) at h = 0.05 from the loop that evaluated each
    Simpson node's EL vector with 8 analytic_reference calls, for orbits
    with periapsis on +x2. The vi2 entries come from the same loop over the
    corrected vi2 bracket (the nested-Strang h^2 term of its composition). The
    array quadrature rounds differently, so the nonzero angle drifts (sv, vi2)
    are held to 1e-9 relative and the terms that vanish analytically to 1e-10
    absolute.
    """
    PARENT = {
        (2.0, 0.1, "sym-euler", 32): ("0x1.55a0ebdf16ee6p-42", "-0x1.3806ba53b7084p-43"),
        (2.0, 0.1, "sym-euler", 256): ("0x1.16bbe6818a74ep-44", "-0x1.940a58a2e2d9cp-44"),
        (2.0, 0.1, "sv", 32): ("-0x1.443f2abe57c4dp-52", "-0x1.09e6717e4c07ap-11"),
        (2.0, 0.1, "sv", 256): ("0x1.ff9cdf25647d3p-52", "-0x1.09e6717e73ee6p-11"),
        (2.0, 0.1, "vi1", 32): ("0x1.6064bdc90bac1p-43", "0x1.e1c677f958c46p-39"),
        (2.0, 0.1, "vi1", 256): ("0x1.c57ac107838e4p-44", "0x1.24be8ca588d1cp-41"),
        (2.0, 0.1, "vi2", 32): ("-0x1.8c0650f949902p-51", "0x1.1087f5eb15d4bp-15"),
        (2.0, 0.1, "vi2", 256): ("0x1.f7cb161992709p-52", "0x1.1087f5ebbc058p-15"),
        (1.5, 0.13, "sym-euler", 32): ("0x1.3050614a09acap-42", "-0x1.3046b0daf21e1p-41"),
        (1.5, 0.13, "sym-euler", 256): ("0x1.35b7f8a4f2945p-52", "0x1.5a39b84b6edc4p-41"),
        (1.5, 0.13, "sv", 32): ("0x1.efecc34153299p-47", "-0x1.42607f41161cdp-10"),
        (1.5, 0.13, "sv", 256): ("-0x1.19cd45f48e888p-53", "-0x1.42607f4164fe1p-10"),
        (1.5, 0.13, "vi1", 32): ("0x1.043bf6a163911p-40", "0x1.e27eec89989bep-40"),
        (1.5, 0.13, "vi1", 256): ("0x1.b63f4d8b13599p-48", "0x1.86507f5e9eac0p-42"),
        (1.5, 0.13, "vi2", 32): ("0x1.e5bf8d4d6fbf2p-47", "0x1.4ff0a7fd1592ep-14"),
        (1.5, 0.13, "vi2", 256): ("0x1.56497231045ebp-53", "0x1.4ff0a80064c2bp-14"),
        (3.0, 0.05, "sym-euler", 32): ("0x1.23d7e70c93635p-46", "0x1.26026c3d5dadep-42"),
        (3.0, 0.05, "sym-euler", 256): ("0x1.e8167f238357ep-44", "-0x1.59a06a6c5ada5p-43"),
        (3.0, 0.05, "sv", 32): ("0x1.397dbebcc4c45p-50", "-0x1.3382749a14ccep-13"),
        (3.0, 0.05, "sv", 256): ("0x1.c22d09f56687dp-52", "-0x1.3382749a41f0cp-13"),
        (3.0, 0.05, "vi1", 32): ("-0x1.0072daad09508p-43", "0x1.bc37e584ab5b8p-41"),
        (3.0, 0.05, "vi1", 256): ("0x1.62f52bed3ffdfp-43", "-0x1.03c8c47a28ed9p-41"),
        (3.0, 0.05, "vi2", 32): ("-0x1.a8ee979a0b6d0p-51", "0x1.356e29d76210bp-17"),
        (3.0, 0.05, "vi2", 256): ("0x1.af56f1c85385ap-54", "0x1.356e29d6ff3a4p-17"),
    }

    @pytest.mark.parametrize("key", sorted(PARENT), ids=lambda k: "-".join(map(str, k)))
    def test_within_contract(self, key):
        a, e, method, nodes = key
        decc, dangle = predicted_drift(method, TestPredictedDrift.pinned_orbit(a, e), 0.05,
                                       nodes=nodes)
        old_dangle = float.fromhex(self.PARENT[key][1])
        assert abs(decc) < 1e-10
        if method in ("sv", "vi2"):
            assert abs(dangle - old_dangle) <= 1e-9 * abs(old_dangle)
        else:
            assert abs(dangle) < 1e-10


class TestMeasuredDrift:
    def test_metric_validation(self):
        with pytest.raises(ValueError):
            per_period_drift("sv", "energy", BASE, 0.1)

    def test_needs_enough_levels(self):
        with pytest.raises(ValueError):
            measured_drift_order("sv", "ecc", BASE, hs=(0.5, 0.25))

    CIRCULAR = PhaseState(np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("call", [
        lambda s: drift_sweep("sv", s, (0.1,)),
        lambda s: per_period_drift("sv", "angle", s, 0.1),
        lambda s: per_period_drift("sv", "ecc", s, 0.1),
        lambda s: measured_drift_order("sv", "angle", s),
    ], ids=["drift_sweep", "per_period_drift-angle", "per_period_drift-ecc", "measured_drift_order"])
    def test_circular_seed_rejected(self, monkeypatch, call):
        # the angle of a near-zero LRL vector is noise, so no drift is read from it
        def no_steps(*a, **k):
            raise AssertionError("the run started")

        monkeypatch.setattr(modified, "run", no_steps)
        with pytest.raises(CircularOrbitError, match="drift metrics are undefined for circular orbits"):
            call(self.CIRCULAR)

    def test_sv_superconvergence_small_sweep(self):
        est = measured_drift_order("sv", "ecc", GENERIC,
                                   hs=(0.25, 0.125, 0.0625, 0.03125))
        assert abs(est.fitted_order - 4.0) < 0.4
        assert est.predicted_order == 4.0

    @pytest.mark.parametrize("method", ["sym-euler", "sv", "vi1", "vi2"])
    def test_angle_drift_across_branch_cut(self, method):
        # the LRL vector of S points along -x1, where arctan2 jumps by 2 pi;
        # -S is S turned by pi, which every method steps as the mirror image.
        # Which orientation drifts across the cut depends on the method.
        for v2 in (0.45, -0.45):
            s = PhaseState(np.array([3.0, 0.0]), np.array([0.0, v2]))
            mirror = PhaseState(-s.x, -s.v)
            drift = per_period_drift(method, "angle", s, 0.05)
            assert drift == pytest.approx(per_period_drift(method, "angle", mirror, 0.05),
                                          rel=1e-9)

    def test_drift_signs_flip_with_orientation(self):
        cw = per_period_drift("sv", "angle", BASE, 0.05)
        ccw = per_period_drift("sv", "angle", CCW, 0.05)
        assert cw == pytest.approx(-ccw, rel=1e-6)

    @pytest.mark.parametrize("entry", ["drift_sweep", "per_period_drift", "shadowing_error"])
    def test_step_count_overflow_is_a_value_error(self, entry):
        # T/h is infinite for a tiny positive h; int() of it raised OverflowError
        with pytest.raises(ValueError, match=r"h = 1e-320 is too small for the period T = 19\.8"):
            STEP_SIZE_ENTRY_POINTS[entry](1e-320)

    @pytest.mark.parametrize("entry", ["drift_sweep", "per_period_drift", "shadowing_error"])
    def test_step_count_is_capped(self, entry, monkeypatch):
        # h = 1e-9 asks for 2e10 steps over T = 19.87; the rule refuses before any step
        def stepped(*args, **kwargs):
            raise AssertionError("stepped past the steps-per-period cap")

        monkeypatch.setattr(integrators, "run", stepped)
        monkeypatch.setattr(modified, "run", stepped)
        monkeypatch.setattr(modified, "_rk4", stepped)
        with pytest.raises(ValueError, match=r"h = 1e-09 is too small for the period T = 19\.8"
                                             r".*exceeds 1000000 steps"):
            STEP_SIZE_ENTRY_POINTS[entry](1e-9)

    def test_sweep_needs_eight_samples_per_run(self):
        # T = 1.44: h = 0.4 makes a run of 8 samples, exactly the drift fit's
        # window; h = 0.5 makes 7, too few for a degree-7 fit
        seed = PhaseState(np.array([0.3, 0.0]), np.array([0.0, 2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(drift_sweep("sv", seed, [0.4])["angle"]) == 1
            with pytest.raises(TrajectoryTooShortError, match=r"h = 0\.5: 7 samples over T = 1\.44"):
                drift_sweep("sv", seed, [0.25, 0.5])

    def test_one_analytic_orbit_call_per_sweep(self, monkeypatch):
        # every h is checked first, then one call gives each run's reference position
        calls = []
        original = kepler._orbit_frame
        monkeypatch.setattr(kepler, "_orbit_frame", lambda s0: calls.append(s0) or original(s0))
        hs = (0.2, 0.1, 0.05)
        pos = drift_sweep("sv", BASE, hs)["pos"]
        assert len(calls) == 1
        for h, err in zip(hs, pos):
            n = round(orbit_elements(BASE).T / h)
            ref = analytic_reference(BASE, n * h).x
            d1, d2 = (run("sv", BASE, h, n).xs[n] - ref).tolist()
            assert err == math.sqrt(d1 * d1 + d2 * d2)

    @pytest.mark.parametrize("method", ["sym-euler", "sv", "vi1", "vi2"])
    def test_drift_reading_is_the_fitted_interpolant(self, method):
        # through 8 samples the degree-7 least-squares fit is the interpolant, so the
        # Lagrange reading agrees with Polynomial.fit's up to round-off, on any BLAS
        rng = np.random.default_rng(32)
        for _ in range(3):
            a, e, phase = rng.uniform(0.8, 1.6), rng.uniform(0.1, 0.6), rng.uniform(0, 2 * math.pi)
            rp, c, s = a * (1.0 - e), math.cos(phase), math.sin(phase)
            vp = math.sqrt((1.0 + e) / rp)
            seed = PhaseState(np.array([rp * c, rp * s]), np.array([-vp * s, vp * c]))
            period = orbit_elements(seed).T
            hs = [period / k for k in (23, 40, 57, 90)]
            sweep = drift_sweep(method, seed, hs)
            for i, h in enumerate(hs):
                rec = run(method, seed, h, int(math.ceil(period / h)) + 3)
                window = slice(lo := max(0, min(round(period / h) - 4, rec.steps + 1 - 8)), lo + 8)
                for metric, series, ys in (("ecc", rec.ecc, rec.ecc[window]),
                                           ("angle", rec.angle, np.unwrap(rec.angle[window]))):
                    fit = np.polynomial.Polynomial.fit(rec.times[window], ys, deg=7)
                    want = float(fit(period) - series[0])
                    if metric == "angle":
                        want = math.remainder(want, 2.0 * math.pi)
                    assert abs(sweep[metric][i] - want) <= 1e-14, (metric, h)

    @pytest.mark.parametrize("order", [-1.0, 1.0, 2.0, 4.0])
    def test_fitted_order_recovers_a_power_law(self, order):
        hs = (0.5, 0.25, 0.125, 0.0625)
        signed = [-3.0 * h**order for h in hs]
        assert fitted_order(hs, signed) == pytest.approx(order, abs=1e-12)


class TestShadowing:
    def test_error_scale(self):
        # gap between vi1 iterates and its truncated modified flow is O(h^2);
        # dropping the O(h) correction would leave an O(h) gap ~0.05 here
        err = shadowing_error(BASE, 0.05)
        assert err < 0.01

    def test_bits_pinned(self):
        # float.hex at the default substeps: 4 per vi1 step at h = 0.05, 3 at 0.025
        assert shadowing_error(BASE, 0.05).hex() == "0x1.9f7a19ea46864p-9"
        assert shadowing_ratio(BASE, 0.05).hex() == "0x1.ffebfd341e72ap+1"

    def test_rk4_bits_pinned_at_100_substeps(self):
        # float.hex of the RK4 loop that called _modified_accel_vi1 per stage
        assert shadowing_error(BASE, 0.05, substeps=100).hex() == "0x1.9f7a24d27e87fp-9"

    @pytest.mark.parametrize("per_period", [5, 10, 20, 40, 80, 0.05, 0.025])
    def test_default_substeps_within_bound(self, per_period):
        # RK4's relative error is O(h^2/s^4), and the default s holds it at its
        # T/20 value; an int is steps per period, a float is criterion 8's h
        # (16 substeps at every h gave 1.4e-5 at T/5 and 2.9e-6 at T/10)
        h = orbit_elements(BASE).T / per_period if isinstance(per_period, int) else per_period
        assert shadowing_error(BASE, h) == pytest.approx(shadowing_error(BASE, h, substeps=100),
                                                          rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("step, want", [(20, 16), (40, 12), (80, 8), (0.05, 4)],
                             ids=["T/20", "T/40", "T/80", "0.05"])
    def test_default_substeps_follow_the_bound(self, monkeypatch, step, want):
        # s = ceil(16*sqrt(20*h/T)), handed to every _rk4 call of the shoot and the flow
        original = modified._rk4
        seen = set()

        def recording(z, h, substeps):
            seen.add(substeps)
            return original(z, h, substeps)

        monkeypatch.setattr(modified, "_rk4", recording)
        shadowing_error(BASE, orbit_elements(BASE).T / step if isinstance(step, int) else step)
        assert seen == {want}

    @pytest.mark.parametrize("substeps", [0, -3, True, 2.5], ids=["0", "-3", "True", "2.5"])
    def test_bad_substeps_rejected(self, monkeypatch, substeps):
        # each used to run silently: 0, -3 and True as one substep, 2.5 rounded
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(modified, "run", no_step)
        monkeypatch.setattr(modified, "_rk4", no_step)
        with pytest.raises(ValueError, match=re.escape(f"got {substeps!r}")):
            shadowing_error(BASE, 0.05, substeps=substeps)

    @pytest.mark.parametrize("per_period, steps", [(1.0, 1), (0.5, 0)], ids=["h=T", "h=2T"])
    def test_under_two_steps_per_period_rejected(self, monkeypatch, per_period, steps):
        # step 1 is the shoot's target, so h = T returned the shoot's own residual
        # (9.93e-15) as the gap, and h = 2T failed in run with "steps must be >= 1"
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(modified, "run", no_step)
        monkeypatch.setattr(modified, "_rk4", no_step)
        period = orbit_elements(BASE).T
        with pytest.raises(TrajectoryTooShortError, match=f"{steps} steps over T = {period:.6g}; need 2"):
            shadowing_error(BASE, period / per_period)

    def test_vectorised_gap_equals_norm_per_row(self):
        # shadowing_error takes its gaps as sqrt(d1*d1 + d2*d2) on columns over all
        # steps at once, the distance drift_sweep takes on floats; np.linalg.norm and
        # sqrt(vecdot) differ from it in the last bit on about 8 % of these rows
        rng = np.random.default_rng(24)
        d = rng.standard_normal((20000, 2)) * 10.0 ** rng.uniform(-9.0, 3.0, (20000, 1))
        d1, d2 = d.T
        got = np.sqrt(d1 * d1 + d2 * d2)
        want = np.array([math.sqrt(a * a + b * b) for a, b in d.tolist()])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _reference_rk4(z, h, substeps):
        # one _modified_accel_vi1 call per stage, in the vector form's order
        n = substeps
        dt = h / n
        half = 0.5 * dt
        sixth = dt / 6.0
        accel = _modified_accel_vi1
        x1, x2, v1, v2 = z
        for _ in range(n):
            a11, a12 = accel(x1, x2, v1, v2, h)
            p1, p2 = v1 + half * a11, v2 + half * a12
            a21, a22 = accel(x1 + half * v1, x2 + half * v2, p1, p2, h)
            q1, q2 = v1 + half * a21, v2 + half * a22
            a31, a32 = accel(x1 + half * p1, x2 + half * p2, q1, q2, h)
            s1, s2 = v1 + dt * a31, v2 + dt * a32
            a41, a42 = accel(x1 + dt * q1, x2 + dt * q2, s1, s2, h)
            x1 = x1 + sixth * (v1 + 2 * p1 + 2 * q1 + s1)
            x2 = x2 + sixth * (v2 + 2 * p2 + 2 * q2 + s2)
            v1 = v1 + sixth * (a11 + 2 * a21 + 2 * a31 + a41)
            v2 = v2 + sixth * (a12 + 2 * a22 + 2 * a32 + a42)
        return x1, x2, v1, v2

    @pytest.mark.parametrize("per_period", [20, 40])
    def test_default_substeps_hold_the_reference_gap(self, monkeypatch, per_period):
        # the 100-substep gap comes from _reference_rk4, not from _rk4, so an _rk4 that
        # miscounts its substeps (one RK4 step per vi1 step in place of s) moves the
        # default gap off it by far more than the 1e-6 relative the default keeps
        h = orbit_elements(BASE).T / per_period
        got = shadowing_error(BASE, h)
        monkeypatch.setattr(modified, "_rk4", self._reference_rk4)
        assert got == pytest.approx(shadowing_error(BASE, h, substeps=100), rel=1e-6, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(r=st.floats(0.5, 4.0), theta=st.floats(-math.pi, math.pi),
           bound=st.floats(0.1, 0.95), phi=st.floats(-math.pi, math.pi),
           h=st.floats(0.01, 0.3), substeps=st.integers(1, 20))
    def test_fused_rk4_equals_reference(self, r, theta, bound, phi, h, substeps):
        # a bound state: speed below escape speed sqrt(2/r)
        speed = bound * math.sqrt(2.0 / r)
        z = (r * math.cos(theta), r * math.sin(theta),
             speed * math.cos(phi), speed * math.sin(phi))
        got = modified._rk4(z, h, substeps)
        want = self._reference_rk4(z, h, substeps)
        assert [c.hex() for c in got] == [c.hex() for c in want]

    def test_huge_orbit_ends_in_a_named_error(self):
        # a power r**5 raises OverflowError from r = 4.5e61 on; r3 * r * r is inf there and
        # the flow's h-term 0.0, so a flow that reaches r = 1e62 says so, not a gap without it
        seed = PhaseState(np.array([1e62, 0.0]), np.array([0.0, 5e-32]))
        with pytest.raises(GeodynError, match=r"r\^5 overflows"):
            shadowing_error(seed, orbit_elements(seed).T / 40)

    def test_scaled_orbit_settles_with_a_scaled_gap(self):
        # x -> 1000 x, v -> v / sqrt(1000), t -> 1000^1.5 t maps the Kepler flow, the
        # modified flow and the vi1 iterates onto themselves, so the gap scales by 1000;
        # a shoot tolerance of 1e-13 is below the round-off of coordinates near 3000
        scaled = PhaseState(1000.0 * BASE.x, BASE.v / math.sqrt(1000.0))
        gap = shadowing_error(scaled, orbit_elements(scaled).T / 40)
        assert gap == pytest.approx(1000.0 * shadowing_error(BASE, orbit_elements(BASE).T / 40),
                                    rel=1e-6, abs=0.0)

    def test_unsettled_shoot_raises(self, monkeypatch):
        # a modified flow whose end point keeps moving: the 2-d shoot cannot
        # bring the residual under its tolerance and must say so
        original = modified._rk4
        calls = []

        def drifting(z, h, substeps):
            calls.append(1)
            x1, x2, v1, v2 = original(z, h, substeps)
            return x1 + 1e-6 * len(calls), x2, v1, v2

        monkeypatch.setattr(modified, "_rk4", drifting)
        with pytest.raises(NonConvergenceError, match="residual"):
            shadowing_error(BASE, 0.2, substeps=2)
