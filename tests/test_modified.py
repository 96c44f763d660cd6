"""Backward-error analysis tests: linear series, modified Lagrangians, drift."""

import math

import numpy as np
import pytest

from geodyn import kepler, modified
from geodyn.errors import (
    CircularOrbitError,
    NonConvergenceError,
    StabilityBoundaryError,
    UnknownMethodError,
)
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
    linear_dispersion,
    linear_measured_frequency,
    linear_modified_series,
    measured_drift_order,
    modified_lagrangian,
    modified_rhs_vi1,
    per_period_drift,
    perturbation_field,
    predicted_drift,
    shadowing_error,
)

BASE = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, 0.45]))
# generic (off-axis) state of the same orbit; periapsis/apoapsis starts sit on
# the orbit's symmetry axis and suppress the leading drift term
GENERIC = analytic_reference(BASE, 3.0)
CCW = PhaseState(np.array([-3.0, 0.0]), np.array([0.0, -0.45]))


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
        # adjoint pairing flips the displayed order-h term's sign
        assert abs(term + 0.5 * h * s.x[0] * s.v[0] / r**3) < 1e-13

    def test_unknown_method(self):
        with pytest.raises(UnknownMethodError):
            modified_lagrangian("rk4", self.S, 0.1)

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
            kernel = np.array(modified._modified_accel_vi1(*x.tolist(), *v.tolist(), h))
            r = float(np.linalg.norm(x))
            f = -1.5 * h * x[0] * x[1] / r**5
            vector = -x / r**3 + f * np.array([v[1], -v[0]])
            scale = 1.0 / r**2 + abs(f) * float(np.linalg.norm(v))
            assert np.max(np.abs(modified_rhs_vi1(x, v, h) - kernel)) <= tol * scale
            assert np.max(np.abs(vector - kernel)) <= tol * scale


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
        "sv": ("-0x1.c4760a13dd154p-49", "-0x1.09e6717def3cfp-11"),
        "vi1": ("0x1.eb737ba73eb23p-44", "0x1.a8bcd7603bd82p-39"),
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

    @pytest.mark.xfail(strict=True, reason="the vi2 field overshoots the measured angle "
                       "drift about 6x at e = 0.1, by a ratio constant in h")
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
    with periapsis on +x2. The array quadrature rounds differently, so the
    nonzero angle drifts (sv, vi2) are held to 1e-9 relative and the terms
    that vanish analytically to 1e-10 absolute.
    """
    PARENT = {
        (2.0, 0.1, "sym-euler", 32): ("0x1.55a0ebdf16ee6p-42", "-0x1.3806ba53b7084p-43"),
        (2.0, 0.1, "sym-euler", 256): ("0x1.16bbe6818a74ep-44", "-0x1.940a58a2e2d9cp-44"),
        (2.0, 0.1, "sv", 32): ("-0x1.443f2abe57c4dp-52", "-0x1.09e6717e4c07ap-11"),
        (2.0, 0.1, "sv", 256): ("0x1.ff9cdf25647d3p-52", "-0x1.09e6717e73ee6p-11"),
        (2.0, 0.1, "vi1", 32): ("0x1.6064bdc90bac1p-43", "0x1.e1c677f958c46p-39"),
        (2.0, 0.1, "vi1", 256): ("0x1.c57ac107838e4p-44", "0x1.24be8ca588d1cp-41"),
        (2.0, 0.1, "vi2", 32): ("0x1.9f32334888602p-48", "0x1.b154c142bb0c2p-13"),
        (2.0, 0.1, "vi2", 256): ("-0x1.1947673933d4ep-51", "0x1.b154c141e87e2p-13"),
        (1.5, 0.13, "sym-euler", 32): ("0x1.3050614a09acap-42", "-0x1.3046b0daf21e1p-41"),
        (1.5, 0.13, "sym-euler", 256): ("0x1.35b7f8a4f2945p-52", "0x1.5a39b84b6edc4p-41"),
        (1.5, 0.13, "sv", 32): ("0x1.efecc34153299p-47", "-0x1.42607f41161cdp-10"),
        (1.5, 0.13, "sv", 256): ("-0x1.19cd45f48e888p-53", "-0x1.42607f4164fe1p-10"),
        (1.5, 0.13, "vi1", 32): ("0x1.043bf6a163911p-40", "0x1.e27eec89989bep-40"),
        (1.5, 0.13, "vi1", 256): ("0x1.b63f4d8b13599p-48", "0x1.86507f5e9eac0p-42"),
        (1.5, 0.13, "vi2", 32): ("0x1.12d44269d48a9p-50", "0x1.0733eb37afad1p-11"),
        (1.5, 0.13, "vi2", 256): ("0x1.63d990a142f22p-49", "0x1.0733eb370b271p-11"),
        (3.0, 0.05, "sym-euler", 32): ("0x1.23d7e70c93635p-46", "0x1.26026c3d5dadep-42"),
        (3.0, 0.05, "sym-euler", 256): ("0x1.e8167f238357ep-44", "-0x1.59a06a6c5ada5p-43"),
        (3.0, 0.05, "sv", 32): ("0x1.397dbebcc4c45p-50", "-0x1.3382749a14ccep-13"),
        (3.0, 0.05, "sv", 256): ("0x1.c22d09f56687dp-52", "-0x1.3382749a41f0cp-13"),
        (3.0, 0.05, "vi1", 32): ("-0x1.0072daad09508p-43", "0x1.bc37e584ab5b8p-41"),
        (3.0, 0.05, "vi1", 256): ("0x1.62f52bed3ffdfp-43", "-0x1.03c8c47a28ed9p-41"),
        (3.0, 0.05, "vi2", 32): ("-0x1.6f8e45c4da71ap-50", "0x1.f4102f725a9efp-15"),
        (3.0, 0.05, "vi2", 256): ("-0x1.9550ee94489aep-53", "0x1.f4102f762fe47p-15"),
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


class TestShadowing:
    def test_error_scale(self):
        # gap between vi1 iterates and its truncated modified flow is O(h^2);
        # dropping the O(h) correction would leave an O(h) gap ~0.05 here
        err = shadowing_error(BASE, 0.05)
        assert err < 0.01

    def test_unsettled_shoot_raises(self, monkeypatch):
        # a modified flow whose end point keeps moving: the 2-d shoot cannot
        # bring the residual under its tolerance and must say so
        original = modified._rk4
        calls = []

        def drifting(z, h, t_span, substeps):
            calls.append(1)
            x1, x2, v1, v2 = original(z, h, t_span, substeps)
            return x1 + 1e-6 * len(calls), x2, v1, v2

        monkeypatch.setattr(modified, "_rk4", drifting)
        with pytest.raises(NonConvergenceError, match="residual"):
            shadowing_error(BASE, 0.2, substeps=2)
