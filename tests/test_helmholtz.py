"""Tests for the self-adjointness checkers and the Lagrangian reconstruction."""

import numpy as np
import pytest

from geodyn.errors import ExpressionError, GeodynError, NonConvergenceError
from geodyn.helmholtz import (
    SecondOrderSystem,
    _accelerations,
    acceleration,
    builtin_systems,
    check,
    check_constant_mass,
    check_general,
    check_velocity_mass,
    load_system_file,
    sample_cloud,
    vainberg_lagrangian,
)

SYSTEMS = builtin_systems()


class TestSampling:
    def test_deterministic(self):
        a = sample_cloud(SYSTEMS["kepler"], count=16)
        b = sample_cloud(SYSTEMS["kepler"], count=16)
        for (ta, xa, va), (tb, xb, vb) in zip(a, b):
            assert ta == tb
            assert np.array_equal(xa, xb)
            assert np.array_equal(va, vb)

    def test_exclusion_radius_respected(self):
        for _, x, _ in sample_cloud(SYSTEMS["kepler"], count=64):
            assert np.linalg.norm(x) >= SYSTEMS["kepler"].exclusion_radius

    def test_boxes_respected(self):
        sys_ = SYSTEMS["relativistic"]
        for _, x, v in sample_cloud(sys_, count=32):
            assert np.all(np.abs(v) <= sys_.v_box[1])
            assert np.linalg.norm(v) < 1.0     # subluminal


class TestBuiltinVerdicts:
    def test_kepler_passes(self):
        assert check(SYSTEMS["kepler"]).passed

    def test_damped_fails_condition_a_with_residual_two(self):
        report = check(SYSTEMS["damped"])
        assert not report.passed
        assert abs(report.residual("a") - 2.0) < 1e-6

    def test_magnetic_passes(self):
        assert check(SYSTEMS["magnetic"]).passed

    def test_relativistic_passes(self):
        assert check(SYSTEMS["relativistic"]).passed

    def test_kepler_also_passes_general_checker(self):
        assert check_general(SYSTEMS["kepler"]).passed

    def test_damped_also_fails_general_checker(self):
        assert not check_general(SYSTEMS["damped"]).passed

    def test_nan_residual_fails(self):
        # a force undefined on part of the cloud must not pass unnoticed
        sys_ = SecondOrderSystem(name="holey", n=1, structure="constant-mass",
                                 force=lambda t, x, v: np.where(x > 1.5, np.nan, -x))
        report = check(sys_)
        assert not report.passed
        assert np.isnan(report.residual("a"))

    def test_velocity_mass_force_not_affine_in_v_raises(self):
        cubic = SecondOrderSystem(name="cubic", n=2, structure="velocity-mass",
                                  force=lambda t, x, v: -x + v[:, ::-1] ** 3 * [1.0, -1.0])
        with pytest.raises(ValueError, match=r"^cubic: the force is not affine in v \(max\|f - A v "
                                             r"- phi\| = [0-9.e+-]+ on the sample cloud\)"):
            check(cubic)

    def test_structure_dispatch_guards(self):
        with pytest.raises(ValueError):
            check_constant_mass(SYSTEMS["magnetic"])
        with pytest.raises(ValueError):
            check_velocity_mass(SYSTEMS["kepler"])


class TestMassHandling:
    def test_acceleration_constant_mass(self):
        a = acceleration(SYSTEMS["kepler"], 0.0, np.array([2.0, 0.0]), np.zeros(2))
        assert np.max(np.abs(a - np.array([-0.25, 0.0]))) < 1e-12

    def test_acceleration_velocity_mass_consistent(self):
        sys_ = SYSTEMS["relativistic"]
        x = np.array([1.5, 0.5])
        v = np.array([0.2, -0.1])
        a = acceleration(sys_, 0.0, x, v)
        # residual of d/dt(M v) = f via finite differences of M(v(t)) v(t)
        sigma = 1e-6
        gam = lambda vv: 1.0 / np.sqrt(1.0 - vv @ vv)
        lhs = (gam(v + sigma * a) * (v + sigma * a)
               - gam(v - sigma * a) * (v - sigma * a)) / (2 * sigma)
        f = sys_.force(0.0, x, v)
        assert np.max(np.abs(lhs - f)) < 1e-6

    @pytest.mark.parametrize("c_t,c_v", [(0.0, 1.0), (0.1, 1.5)])
    def test_acceleration_matches_sherman_morrison(self, c_t, c_v):
        # M = g I with g = 1 + c_t t + c_v |v|^2: dp/dv = g I + v grad_v(g)^T, so
        # a = (r - v (grad_v(g).r) / (g + grad_v(g).v)) / g with r = f - dp/dt - (dp/dx) v
        sys_ = SecondOrderSystem(
            name="speed-mass", n=2, structure="general",
            force=lambda t, x, v: -x,
            mass=lambda t, x, v: (1.0 + c_t * t + c_v * np.vecdot(v, v))[..., None, None]
            * np.eye(2),
        )
        samples = sample_cloud(sys_)
        t, x, v = (np.array([s[k] for s in samples]) for k in range(3))
        g = (1.0 + c_t * t + c_v * np.vecdot(v, v))[:, None]
        grad = 2.0 * c_v * v
        r = -x - c_t * v
        exact = (r - v * np.vecdot(grad, r)[:, None] / (g + np.vecdot(grad, v)[:, None])) / g
        batched = _accelerations(sys_, t, x, v)
        assert np.array([acceleration(sys_, *s) for s in samples]).tobytes() == batched.tobytes()
        error = np.linalg.norm(batched - exact, axis=1) / np.linalg.norm(exact, axis=1)
        assert np.max(error) < 1e-8

    def test_asymmetric_mass_rejected(self):
        bad = SecondOrderSystem(
            name="bad", n=2, structure="general",
            force=lambda t, x, v: -x,
            mass=lambda t, x, v: np.array([[1.0, 0.3], [0.0, 1.0]]),
        )
        with pytest.raises(GeodynError, match="symmetric"):
            check(bad)

    def test_unknown_structure_tag(self):
        with pytest.raises(ValueError):
            SecondOrderSystem(name="x", n=1, structure="weird",
                              force=lambda t, x, v: -x)


class TestVainberg:
    def test_harmonic_oscillator_exact(self):
        nfield = lambda t, x, v, a: a + x
        x = np.array([0.7, -0.4])
        v = np.array([0.3, 0.2])
        a = np.array([-0.7, 0.4])
        value = vainberg_lagrangian(nfield, 0.0, x, v, a)
        expected = 0.5 * (x @ a + x @ x)
        assert abs(value - expected) < 1e-13

    def test_gradient_of_reconstructed_potential_recovers_force(self):
        # for N[x] = grad V(x) the construction gives L(x) = V(x) - V(0);
        # its x-gradient must reproduce the force term
        nfield = lambda t, x, v, a: x + 0.1 * float(x @ x) * x
        x = np.array([0.5, 0.2])
        zeros = np.zeros(2)
        delta = 1e-5
        g = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = delta
            g[i] = (vainberg_lagrangian(nfield, 0.0, x + e, zeros, zeros)
                    - vainberg_lagrangian(nfield, 0.0, x - e, zeros, zeros)) / (2 * delta)
        assert np.max(np.abs(g - nfield(0.0, x, zeros, zeros))) < 1e-9

    def test_non_finite_integrand_rejected(self):
        nfield = lambda t, x, v, a: np.array([np.nan, 0.0])
        with pytest.raises(NonConvergenceError):
            vainberg_lagrangian(nfield, 0.0, np.ones(2), np.zeros(2), np.zeros(2))


class TestSystemFiles:
    def test_damped_file(self, tmp_path):
        path = tmp_path / "damped.sys"
        path.write_text("# damped oscillator\nn = 1\nstructure = constant-mass\nf1 = -x1 - v1\n")
        system = load_system_file(str(path))
        report = check(system)
        assert not report.passed
        assert abs(report.residual("a") - 2.0) < 1e-6

    def test_velocity_mass_file(self, tmp_path):
        path = tmp_path / "magnetic.sys"
        path.write_text(
            "n = 2\nstructure = velocity-mass\n"
            "a12 = 1\na21 = -1\nphi1 = -x1\nphi2 = -x2\n"
        )
        system = load_system_file(str(path))
        assert check(system).passed

    def test_velocity_mass_file_from_phi_alone(self, tmp_path):
        # missing a entries are 0; this file used to miss its force entries
        path = tmp_path / "spring.sys"
        path.write_text("n = 2\nstructure = velocity-mass\nphi1 = -x1\nphi2 = -x2\n")
        report = check(load_system_file(str(path)))
        assert report.passed
        assert [c.residual for c in report.conditions] == [0.0, 0.0, 0.0, 0.0]

    def test_decomposition_next_to_the_force_is_rejected(self, tmp_path):
        # the check read a11 and phi while the system integrated the damped f: it passed
        path = tmp_path / "damped.sys"
        path.write_text("n = 2\nstructure = velocity-mass\nf1 = -x1 - v1\nf2 = -x2 - v2\n"
                        "a11 = 0\nphi1 = -x1\nphi2 = -x2\n")
        with pytest.raises(ExpressionError, match="unknown key 'a11' for n = 2") as info:
            load_system_file(str(path))
        assert info.value.line == 5

    def test_damped_velocity_mass_force_fails(self, tmp_path):
        path = tmp_path / "damped.sys"
        path.write_text("n = 2\nstructure = velocity-mass\nf1 = -x1 - v1\nf2 = -x2 - v2\n")
        report = check(load_system_file(str(path)))
        assert not report.passed
        assert abs(report.residual("b") - 2.0) < 1e-12

    @pytest.mark.parametrize("key", ["a12", "phi1"])
    def test_decomposition_keys_need_velocity_mass(self, tmp_path, key):
        path = tmp_path / "bad.sys"
        path.write_text(f"n = 2\nstructure = constant-mass\nf1 = -x1\nf2 = -x2\n{key} = 1\n")
        with pytest.raises(ExpressionError, match=f"unknown key '{key}' for n = 2") as info:
            load_system_file(str(path))
        assert info.value.line == 5

    @pytest.mark.parametrize("structure,mass,variable", [
        ("constant-mass", "1 + x1^2", "x1"),
        ("constant-mass", "1 + v2^2", "v2"),
        ("constant-mass", "2 + t", "t"),
        ("velocity-mass", "1 + x2^2", "x2"),
        ("velocity-mass", "1 + t*v1^2", "t"),
    ])
    def test_mass_entry_must_fit_the_structure_tag(self, tmp_path, structure, mass, variable):
        # a constant-mass check never reads M, so a position-dependent mass passed unseen
        path = tmp_path / "bad.sys"
        path.write_text(f"n = 2\nstructure = {structure}\nf1 = -x1\nf2 = -x2\nm11 = {mass}\n")
        with pytest.raises(ExpressionError, match=f"mass entry 'm11' uses '{variable}'") as info:
            load_system_file(str(path))
        assert info.value.line == 5

    @pytest.mark.parametrize("structure,mass", [("constant-mass", "2"),
                                                ("velocity-mass", "1/sqrt(1 - v1^2 - v2^2)"),
                                                ("general", "1 + x1^2 + t")])
    def test_mass_entry_that_fits_its_tag_loads(self, tmp_path, structure, mass):
        path = tmp_path / "ok.sys"
        path.write_text(f"n = 2\nstructure = {structure}\nf1 = -x1\nf2 = -x2\nm11 = {mass}\n")
        assert load_system_file(str(path)).structure == structure

    @pytest.mark.parametrize("n", ["5", "600"])
    def test_dimension_beyond_the_sample_cloud(self, tmp_path, n):
        # n = 5 loaded without error, and n = 600 built 720k known keys first
        path = tmp_path / "big.sys"
        path.write_text(f"n = {n}\nf1 = -x1\n")
        with pytest.raises(ExpressionError, match=f"dimension n = {n} exceeds 4") as info:
            load_system_file(str(path))
        assert info.value.line == 1

    def test_missing_dimension(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("f1 = -x1\n")
        with pytest.raises(ExpressionError, match="'n'"):
            load_system_file(str(path))

    @pytest.mark.parametrize("n", ["0", "-1", "1.7", "two", "inf"])
    def test_dimension_must_be_a_positive_integer(self, tmp_path, n):
        path = tmp_path / "bad.sys"
        path.write_text(f"n = {n}\nf1 = -x1\n")
        with pytest.raises(ExpressionError, match="positive integer") as info:
            load_system_file(str(path))
        assert info.value.line == 1

    def test_missing_force(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("n = 2\nf1 = -x1\n")
        with pytest.raises(ExpressionError, match="force"):
            load_system_file(str(path))

    @pytest.mark.parametrize("key", ["bogus", "f3", "m13", "phi0", "x1"])
    def test_unknown_key_rejected_at_its_line(self, tmp_path, key):
        path = tmp_path / "bad.sys"
        path.write_text(f"n = 2\nf1 = -x1\nf2 = -x2\n{key} = 1/0.5\n")
        with pytest.raises(ExpressionError, match=f"unknown key '{key}' for n = 2") as info:
            load_system_file(str(path))
        assert info.value.line == 4

    def test_unknown_structure_tag_names_its_line(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("n = 1\nstructure = bogus\nf1 = -x1\n")
        with pytest.raises(ExpressionError, match="line 2, column 1: unknown structure tag 'bogus'") as info:
            load_system_file(str(path))
        assert info.value.line == 2

    def test_missing_mass_entries_default_to_identity(self, tmp_path):
        path = tmp_path / "osc.sys"
        path.write_text("n = 2\nf1 = -x1\nf2 = -x2\nm11 = 2\nm12 = 0.5\nm21 = 0.5\n")
        system = load_system_file(str(path))
        x = np.zeros((3, 2))
        t = np.zeros(3)
        assert np.array_equal(system.mass(t, x, x), np.broadcast_to([[2.0, 0.5], [0.5, 1.0]], (3, 2, 2)))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("n = 1\nf1 = -x1 $\n")
        with pytest.raises(ExpressionError) as info:
            load_system_file(str(path))
        assert info.value.line == 2
