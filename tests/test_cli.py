"""End-to-end CLI tests: headers, determinism, exit statuses."""

import hashlib
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from geodyn import cli as cli_module
from geodyn.cli import KEPLER_HEADER, RELATIVISTIC_HEADER, canonical_seed, main
from geodyn.helmholtz import load_system_file
from geodyn.integrators import run
from geodyn.kepler import PhaseState, analytic_reference, kepler_split, orbit_elements
from geodyn.modified import per_period_drift
from geodyn.svgplot import svg_lines


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "geodyn.cli", *args],
        capture_output=True, text=True,
    )


class TestRunCommand:
    def test_kepler_csv_shape(self, tmp_path):
        out = tmp_path / "orbit.csv"
        assert main(["run", "--method", "vi2", "--model", "kepler", "--ecc", "0.6",
                     "--h", "0.05", "--steps", "40", "-o", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == KEPLER_HEADER
        assert len(lines) == 43      # header + 41 rows + trailing newline
        assert lines[-1] == ""
        first = lines[1].split(",")
        assert len(first) == 12
        assert first[0] == "0"
        assert first[2] == "0.4"     # x1 of the canonical e=0.6 seed

    def test_relativistic_csv_shape(self, tmp_path):
        out = tmp_path / "rel.csv"
        assert main(["run", "--method", "k1", "--model", "relativistic",
                     "--x0", "-3", "0", "--v0", "0", "0.45",
                     "--h", "0.05", "--steps", "10", "-o", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == RELATIVISTIC_HEADER
        assert len(lines[1].split(",")) == 9

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--method", "sv", "--ecc", "0.3", "--h", "0.1",
                "--steps", "100", "-o"]
        main(args + [str(a)])
        main(args + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_steps_is_usage_error(self):
        assert main(["run", "--method", "sv", "--h", "0.05", "--steps", "0"]) == 2

    def test_unknown_method_is_usage_error(self):
        assert main(["run", "--method", "rk4", "--h", "0.05", "--steps", "5"]) == 2

    def test_conflicting_seeds(self):
        assert main(["run", "--method", "sv", "--h", "0.05", "--steps", "5",
                     "--ecc", "0.3", "--x0", "1", "0", "--v0", "0", "1"]) == 2

    def test_integrator_failure_reports_step(self):
        proc = cli("run", "--method", "vi1", "--x0", "1", "0", "--v0", "-1", "0",
                   "--h", "2.0", "--steps", "5")
        assert proc.returncode == 1
        assert "step" in proc.stderr

    @pytest.mark.parametrize("method", ["sym-euler", "sv"])
    def test_radial_infall_exits_1(self, method):
        proc = cli("run", "--method", method, "--h", "0.5", "--steps", "6",
                   "--x0", "1", "0", "--v0", "0", "0")
        assert proc.returncode == 1
        assert "crosses the origin" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_state_exits_1(self):
        proc = cli("run", "--method", "sv", "--h", "1e200", "--steps", "3",
                   "--x0", "1", "0", "--v0", "0", "1e200")
        assert proc.returncode == 1
        assert "step 1" in proc.stderr and "not finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("method,steps,h,column", [("vi1", "1", "1e308", "H = inf"),
                                                       ("sv", "2", "1e150", "A1 = nan")])
    def test_non_finite_diagnostics_exit_1(self, capsys, method, steps, h, column):
        # the states stay finite, the diagnostic columns overflow: no warning, no CSV
        assert main(["run", "--method", method, "--steps", steps, "--h", h]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"step 1: {column} is not finite" in captured.err

    @staticmethod
    def rejected_before_any_step(monkeypatch, capsys, *args):
        # a usage error (exit 2) raised before any trajectory is integrated,
        # with no numpy warning on the way
        def no_steps(*a, **k):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli_module, "run", no_steps)
        monkeypatch.setattr(cli_module, "run_relativistic", no_steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--steps", "3", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_nan_step_size_is_usage_error(self, monkeypatch, capsys):
        err = self.rejected_before_any_step(monkeypatch, capsys,
                                            "--method", "sv", "--h", "nan", "--ecc", "0.5")
        assert "step size h must be positive and finite, got nan" in err

    def test_nan_seed_is_usage_error(self, monkeypatch, capsys):
        err = self.rejected_before_any_step(monkeypatch, capsys, "--method", "sv",
                                            "--h", "0.05", "--x0", "nan", "0", "--v0", "0", "1")
        assert "state components must be finite" in err

    def test_overflowing_lorentz_factor_is_usage_error(self, monkeypatch, capsys):
        err = self.rejected_before_any_step(monkeypatch, capsys, "--model", "relativistic",
                                            "--method", "k1", "--h", "1e200",
                                            "--x0", "1", "0", "--v0", "0", "1e200")
        assert "gamma=inf" in err

    def test_bad_split_is_usage_error_for_every_model(self, monkeypatch, capsys):
        # k1/k2 ignore the split, but a split that does not sum to 1 is still bad usage
        err = self.rejected_before_any_step(monkeypatch, capsys, "--model", "relativistic",
                                            "--method", "k1", "--h", "0.05", "--split", "5", "5")
        assert "sum to 1" in err

    @pytest.mark.parametrize("model", ["kepler", "relativistic"])
    @pytest.mark.parametrize("split", [("nan", "nan"), ("nan", "1"), ("inf", "0")],
                             ids=["nan-nan", "nan-1", "inf-0"])
    def test_non_finite_split_is_usage_error(self, monkeypatch, capsys, model, split):
        err = self.rejected_before_any_step(
            monkeypatch, capsys, "--model", model, "--method", "vi1" if model == "kepler" else "k1",
            "--h", "0.05", "--split", *split)
        assert "finite" in err and "step" not in err

    @pytest.mark.parametrize("model", ["kepler", "relativistic"])
    @pytest.mark.parametrize("seed", [
        ("--x0", "0", "0", "--v0", "1", "0"), ("--x0", "1e-13", "0", "--v0", "1", "0"),
        ("--ecc", "0.9999999999999"),       # periapsis 1 - e = 1e-13
    ], ids=["zero", "1e-13", "ecc"])
    def test_seed_at_the_origin_is_usage_error(self, monkeypatch, capsys, model, seed):
        err = self.rejected_before_any_step(
            monkeypatch, capsys, "--model", model, "--method", "sv" if model == "kepler" else "k1",
            "--h", "0.05", *seed)
        assert "ORIGIN_TOL" in err and "step" not in err

    @pytest.mark.parametrize("model", ["kepler", "relativistic"])
    def test_seed_inside_origin_tol_by_the_kernels_distance(self, monkeypatch, capsys, model):
        # |x0| is 1.000e-12 by hypot but just under it by sqrt(x1*x1 + x2*x2), the
        # kernels' distance: the usage check passed it and step 1 then failed (exit 1)
        err = self.rejected_before_any_step(
            monkeypatch, capsys, "--model", model, "--method", "sv" if model == "kepler" else "k1",
            "--h", "0.05", "--x0", "9.966071323417085e-13", "8.230567274274718e-14",
            "--v0", "0", "1")
        assert "ORIGIN_TOL" in err and "step" not in err

    def test_svg_output(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert main(["run", "--method", "vi1", "--ecc", "0.6", "--h", "0.05",
                     "--steps", "50", "--format", "svg", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert 'width="800" height="600"' in text

    def test_svg_to_stdout(self, tmp_path, monkeypatch, capsys):
        # "-o -" means stdout for SVG as for CSV, and creates no file named "-"
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--method", "vi1", "--ecc", "0.6", "--h", "0.05", "--steps", "50",
                "--format", "svg", "-o"]
        assert main(argv + ["orbit.svg"]) == 0
        assert main(argv + ["-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg") and out == (tmp_path / "orbit.svg").read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["orbit.svg"]

    def test_canonical_seed_expansion(self):
        s = canonical_seed(0.6)
        assert s.x[0] == pytest.approx(0.4)
        assert s.v[1] == pytest.approx(2.0)
        with pytest.raises(Exception):
            canonical_seed(1.5)


class TestConvergenceCommand:
    def test_small_sweep_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--methods", "sv", "--levels", "3",
                     "--x0", "-2.49779468", "1.27168501",
                     "--v0", "0.3360784", "0.36937149", "-o", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,h,decc,dangle,poserr"
        assert len([l for l in lines if l.startswith("sv,")]) == 3
        assert any(l.startswith("# slopes sv:") for l in lines)

    def test_single_level_warns(self, tmp_path):
        proc = cli("convergence", "--methods", "sv", "--levels", "1",
                   "--x0", "-3", "0", "--v0", "0", "0.45",
                   "-o", str(tmp_path / "one.csv"))
        assert proc.returncode == 0
        assert "warning" in proc.stderr

    def test_one_run_per_step_size_matches_separate_runs(self, tmp_path):
        # the table from one trajectory per (method, h) equals the one built
        # from separate ecc-drift, angle-drift and position-error runs
        out = tmp_path / "conv.csv"
        x0, v0 = (-2.49779468, 1.27168501), (0.3360784, 0.36937149)
        methods, hs = ("sym-euler", "vi2"), (0.5, 0.25, 0.125)
        assert main(["convergence", "--methods", *methods, "--levels", str(len(hs)),
                     "--x0", *map(str, x0), "--v0", *map(str, v0), "-o", str(out)]) == 0

        seed, split = PhaseState(np.array(x0), np.array(v0)), kepler_split()
        period = orbit_elements(seed).T
        rows, slope_lines = ["method,h,decc,dangle,poserr"], []
        for method in methods:
            cols = {m: [per_period_drift(method, m, seed, h, split) for h in hs]
                    for m in ("ecc", "angle")}
            pos = []
            for h in hs:
                steps = int(round(period / h))
                rec = run(method, seed, h, steps, split=split, diagnostics=False)
                ref = analytic_reference(seed, steps * h)
                d1, d2 = (rec.xs[-1] - ref.x).tolist()
                pos.append(math.sqrt(d1 * d1 + d2 * d2))
            for i, h in enumerate(hs):
                rows.append(",".join([method, repr(h), repr(cols["ecc"][i]),
                                      repr(cols["angle"][i]), repr(pos[i])]))
            fits = [(m, np.polyfit(np.log(hs), np.log(np.abs(v)), 1)[0])
                    for m, v in (("ecc", cols["ecc"]), ("angle", cols["angle"]), ("pos", pos))]
            slope_lines.append(f"# slopes {method}: "
                               + " ".join(f"{m}={float(v):.3f}" for m, v in fits))
        assert out.read_bytes() == ("\n".join(rows + slope_lines) + "\n").encode()

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_levels_below_one_is_usage_error(self, monkeypatch, capsys, levels):
        def no_sweep(*a, **k):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli_module, "drift_sweep", no_sweep)
        assert main(["convergence", "--methods", "sv", "--levels", levels]) == 2
        captured = capsys.readouterr()
        assert "--levels" in captured.err and captured.out == ""

    def test_too_few_samples_per_period_exits_1(self, capsys):
        # T = 1.44, so h = 0.5 gives a run of 7 samples, one short of the drift fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["convergence", "--levels", "2", "--x0", "0.3", "0",
                         "--v0", "0", "2"]) == 1
        captured = capsys.readouterr()
        assert "h = 0.5" in captured.err and "T = 1.44" in captured.err
        assert captured.out == ""

    @staticmethod
    def rejected_before_any_sweep(monkeypatch, capsys, argv):
        def no_work(*a, **k):
            raise AssertionError("the sweep started")

        for name in ("drift_sweep", "predicted_drift", "measured_drift_order"):
            monkeypatch.setattr(cli_module, name, no_work)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("argv", [
        ["convergence", "--methods", "sv"],
        ["modified", "--drift", "sv", "--h", "0.05"],
    ], ids=["convergence", "modified"])
    def test_seed_at_the_origin_is_usage_error(self, monkeypatch, capsys, argv):
        err = self.rejected_before_any_sweep(monkeypatch, capsys,
                                             [*argv, "--x0", "0", "0", "--v0", "1", "0"])
        assert "--x0" in err and "origin" in err

    @pytest.mark.parametrize("argv", [
        ["convergence", "--methods", "vi1"],
        ["modified", "--drift", "vi1", "--h", "0.05"],
    ], ids=["convergence", "modified"])
    def test_non_finite_split_is_usage_error(self, monkeypatch, capsys, argv):
        err = self.rejected_before_any_sweep(monkeypatch, capsys, [*argv, "--split", "nan", "nan"])
        assert "finite" in err

    def test_overflowing_seed_energy_warns_nothing(self, capsys):
        # |v|^2 overflows: the error names the energy, and no RuntimeWarning precedes it
        assert main(["convergence", "--levels", "1",
                     "--x0", "1e308", "0", "--v0", "1e-320", "1e308"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: H = inf is not a bound orbit\n")

    def test_metric_projection(self, tmp_path):
        out = tmp_path / "conv.csv"
        main(["convergence", "--methods", "sv", "--levels", "2",
              "--metric", "angle", "--x0", "-3", "0", "--v0", "0", "0.45",
              "-o", str(out)])
        assert out.read_text().split("\n")[0] == "method,h,dangle,poserr"


class TestCheckCommand:
    def test_builtin_verdicts(self):
        assert cli("check", "kepler").returncode == 0
        assert cli("check", "relativistic").returncode == 0
        proc = cli("check", "damped")
        assert proc.returncode == 1
        assert "condition (a)" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_expression_file(self, tmp_path):
        path = tmp_path / "osc.sys"
        path.write_text("n = 2\nf1 = -x1\nf2 = -x2\n")
        assert cli("check", str(path)).returncode == 0

    def test_parse_error_exit_status(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("n = 1\nf1 = sin(x1)\n")
        proc = cli("check", str(path))
        assert proc.returncode == 2
        assert "parse error" in proc.stderr

    def test_unknown_system(self):
        assert cli("check", "nosuchsystem").returncode == 2

    def test_unknown_key_exit_status(self, tmp_path, capsys):
        # a key that is not n, structure, f<i>, m<ij>, a<ij> or phi<i> is an error, not ignored
        path = tmp_path / "bad.sys"
        path.write_text("n = 2\nf1 = -x1\nf2 = -x2\nbogus = 1/0.5\nf3 = x3\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 4, column 1: unknown key 'bogus' for n = 2\n"

    def test_repeated_key_exit_status(self, tmp_path, capsys):
        # the second f1 used to replace the first without a word, and the damped system passed
        path = tmp_path / "bad.sys"
        path.write_text("n = 1\nf1 = -x1 - v1\n# undamped\nf1 = -x1\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: line 4, column 1: repeated key 'f1', first set on line 2\n"

    @pytest.mark.parametrize("structure", ["", "structure = general\n"])
    def test_missing_mass_entries_default_to_identity(self, tmp_path, capsys, structure):
        # m11 = 2 alone is the mass diag(2, 1), not the singular diag(2, 0)
        outs = []
        for name, mass in (("one", "m11 = 2\n"), ("both", "m11 = 2\nm22 = 1\n")):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "osc.sys"
            path.write_text(structure + "n = 2\nf1 = -x1\nf2 = -x2\n" + mass)
            assert main(["check", str(path)]) == 0
            outs.append(capsys.readouterr().out.replace(str(path), "osc.sys"))
        assert outs[0] == outs[1]
        assert outs[0].endswith("PASS\n")

    @pytest.mark.parametrize("text", [
        # L = |v|^2/2 + t x1 v2: a time-dependent uniform field with its induced E
        "n = 2\nf1 = t*v2\nf2 = -x1 - t*v1\n",
        # L = (|v|^2 - |x|^2)/2 + (x1 + x1^2/2) v2: a static field 1 + x1
        "n = 2\nf1 = -x1 + (1 + x1)*v2\nf2 = -x2 - (1 + x1)*v1\n",
        # L = (1 + x1^2/4) |v|^2/2: a position-dependent mass
        "n = 2\nstructure = general\nm11 = 1 + x1^2/4\nm22 = 1 + x1^2/4\n"
        "f1 = x1/4*(v1^2 + v2^2)\nf2 = 0\n",
    ], ids=["time-dependent-field", "static-field", "position-mass"])
    def test_variational_systems_pass(self, tmp_path, capsys, text):
        # d/dt df/dv enters condition (b) and the general (c) with a minus sign; with
        # a plus these three failed at residuals of 2.0, 1.99 and 0.98
        path = tmp_path / "field.sys"
        path.write_text(text)
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.endswith("PASS\nPASS\n")

    def test_field_without_its_induced_e_fails(self, tmp_path, capsys):
        # the field B = t without the electric field its change induces is not variational
        path = tmp_path / "field.sys"
        path.write_text("n = 2\nf1 = t*v2\nf2 = -t*v1\n")
        assert main(["check", str(path)]) == 1
        assert "residual=1.000000e+00 FAIL\nFAIL\n" in capsys.readouterr().out

    def test_singular_momentum_jacobian_is_named(self, tmp_path, capsys):
        # m22 = 0 leaves a2 undetermined; numpy's "Singular matrix" used to exit 2
        path = tmp_path / "singular.sys"
        path.write_text("n = 2\nstructure = general\nf1 = -x1\nf2 = -x2\nm11 = 1\nm22 = 0\n")
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: dp/dv = d(M v)/dv is singular, "
                                "so the acceleration is not determined\n")

    def test_velocity_mass_force_that_is_not_affine_exits_2(self, tmp_path, capsys):
        # A and phi are read off f, which only holds for f affine in v
        path = tmp_path / "cubic.sys"
        path.write_text("n = 2\nstructure = velocity-mass\nf1 = -x1 + v2^3\nf2 = -x2 - v1^3\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: the force is not affine in v")

    def test_mass_that_breaks_the_structure_tag_exits_2(self, tmp_path, capsys):
        # the constant-mass check never reads M, so this file passed with exit 0
        path = tmp_path / "tagged.sys"
        path.write_text("n = 2\nf1 = -x1^5\nf2 = -x2\nm11 = 1 + x1^2\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: line 4, column 1: mass entry 'm11' uses 'x1', "
            "which a constant-mass system's mass may not depend on\n")

    @pytest.mark.parametrize("entries,line,key,var", [
        ("phi1 = -x1\nphi2 = -x2\na12 = v1\n", 5, "a12", "v1"),
        ("phi1 = -x1 + 0.5*v2\nphi2 = -x2 - 0.5*v1\n", 3, "phi1", "v2"),
    ], ids=["a-uses-v", "phi-uses-v"])
    def test_velocity_form_entry_that_uses_v_exits_2(self, tmp_path, capsys, entries, line, key, var):
        # the first file failed the affine test naming no line, the second passed with exit 0
        path = tmp_path / "vform.sys"
        path.write_text("n = 2\nstructure = velocity-mass\n" + entries)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line {line}, column 1: entry {key!r} uses {var!r}, but A and phi "
            "of f = A(t,x) v + phi(t,x) may depend on t and x only\n")

    LORENTZ = ("n = 2\nstructure = velocity-mass\nphi1 = -x1\nphi2 = -x2\na12 = 1\na21 = -1\n"
               "m11 = 1/sqrt(1 - v1^2 - v2^2)\nm22 = 1/sqrt(1 - v1^2 - v2^2)\n")

    def test_v_box_samples_v_where_the_mass_is_defined(self, tmp_path, capsys):
        # sampled in [-1, 1]^2, this mass takes the root of a negative number
        path = tmp_path / "lorentz.sys"
        path.write_text(self.LORENTZ)
        assert main(["check", str(path)]) == 2
        assert "sqrt(-0.46" in capsys.readouterr().err
        path.write_text(self.LORENTZ + "v_box = -0.45 0.45\n")
        assert load_system_file(str(path)).v_box == (-0.45, 0.45)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "PASS" and len(out) == 6 and all(s.endswith(" PASS") for s in out[1:5])

    @pytest.mark.parametrize("box", ["-0.45", "0.45 -0.45", "0 0", "nan 1", "-inf 1", "a b", "-1 0 1"])
    def test_bad_v_box_exits_2(self, tmp_path, capsys, box):
        path = tmp_path / "lorentz.sys"
        path.write_text(self.LORENTZ + f"v_box = {box}\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: line 9, column 1: v_box must be two finite numbers lo < hi, got {box!r}\n")

    @pytest.mark.parametrize("force,message,column", [
        ("1/(x1-x1)", "division by zero", 2),
        ("(-x1)^0.5", "complex result", 6),
    ])
    def test_evaluation_error_exit_status(self, tmp_path, force, message, column):
        path = tmp_path / "bad.sys"
        path.write_text(f"n = 2\nf1 = {force}\nf2 = -x2\n")
        proc = cli("check", str(path))
        assert proc.returncode == 2
        assert f"line 2, column {column}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "PASS" not in proc.stdout


_POLY_FORCE = (
    "f1 = 0.896 * x1^0 * x2^1 + -1.136 * x1^1 * x2^0 + 0.577 * x1^0 * x2^2"
    " + 0.944 * x1^1 * x2^1 + 1.092 * x1^2 * x2^0 + 0.344 * x1^0 * x2^3"
    " + -1.484 * x1^1 * x2^2 + -0.636 * x1^2 * x2^1 + 2.816 * x1^3 * x2^0{d1}\n"
    "f2 = 0.754 * x1^0 * x2^1 + 0.896 * x1^1 * x2^0 + 0.006 * x1^0 * x2^2"
    " + 1.154 * x1^1 * x2^1 + 0.472 * x1^2 * x2^0 + -0.784 * x1^0 * x2^3"
    " + 1.032 * x1^1 * x2^2 + -1.484 * x1^2 * x2^1 + -0.212 * x1^3 * x2^0{d2}\n"
)
_CONSTANT_MASS = ("condition (a) df_i/dv_j + df_j/dv_i = 0: residual={a}\n"
                  "condition (b) df_i/dx_j - df_j/dx_i - d/dt df_i/dv_j = 0: residual={b}\n")
# stdout of `geodyn check`, as printed before the checks were batched over the cloud
_CHECK_STDOUT = {
    "kepler": "system: kepler (structure: constant-mass)\n" + _CONSTANT_MASS.format(
        a="0.000000e+00 PASS", b="3.985701e-09 PASS") + "PASS\n",
    "damped": "system: damped (structure: constant-mass)\n" + _CONSTANT_MASS.format(
        a="2.000000e+00 FAIL", b="1.110229e-07 PASS") + "FAIL\n",
    "magnetic": "system: magnetic (structure: velocity-mass)\n"
    "condition (a) velocity-mass contraction symmetric: residual=0.000000e+00 PASS\n"
    "condition (b) A skew-symmetric: residual=2.220446e-16 PASS\n"
    "condition (c) cyclic closedness of A: residual=5.551115e-12 PASS\n"
    "condition (d) curl(phi) = dA/dt: residual=0.000000e+00 PASS\n"
    "PASS\n",
    "relativistic": "system: relativistic (structure: velocity-mass)\n"
    "condition (a) velocity-mass contraction symmetric: residual=1.324418e-11 PASS\n"
    "condition (b) A skew-symmetric: residual=0.000000e+00 PASS\n"
    "condition (c) cyclic closedness of A: residual=0.000000e+00 PASS\n"
    "condition (d) curl(phi) = dA/dt: residual=3.985701e-09 PASS\n"
    "PASS\n",
    "poly.sys": "system: {path} (structure: constant-mass)\n" + _CONSTANT_MASS.format(
        a="0.000000e+00 PASS", b="1.776357e-10 PASS") + "PASS\n",
    "damped.sys": "system: {path} (structure: constant-mass)\n" + _CONSTANT_MASS.format(
        a="1.580000e+00 FAIL", b="4.440892e-07 PASS") + "FAIL\n",
}
_SYSTEM_FILES = {
    "poly.sys": "n = 2\nstructure = constant-mass\n" + _POLY_FORCE.format(d1="", d2=""),
    "damped.sys": "n = 2\nstructure = constant-mass\n"
    + _POLY_FORCE.format(d1=" - 0.79 * v1", d2=" - 0.79 * v2"),
}


class TestCheckOutputBytes:
    @pytest.mark.parametrize("system", sorted(_CHECK_STDOUT))
    def test_stdout_is_pinned(self, tmp_path, capsys, system):
        arg = system
        if system in _SYSTEM_FILES:
            arg = str(tmp_path / system)
            (tmp_path / system).write_text(_SYSTEM_FILES[system])
        status = main(["check", arg])
        expected = _CHECK_STDOUT[system].replace("{path}", arg)
        assert capsys.readouterr().out == expected
        assert status == (0 if expected.endswith("PASS\n") else 1)


class TestEvaluationErrorPrefix:
    def test_evaluation_error_is_not_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.sys"
        path.write_text("n = 2\nf1 = 1/(x1-x1)\nf2 = -x2\n")
        proc = cli("check", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("evaluation error: line 2, column 2: division by zero")
        assert "at sample 0 (x1=" in proc.stderr
        assert "parse error" not in proc.stderr


class TestModifiedCommand:
    def test_linear_frequencies_agree(self):
        proc = cli("modified", "--linear", "--lambda", "1", "--h", "0.1")
        assert proc.returncode == 0
        values = [float(line.split(":")[1]) for line in proc.stdout.strip().split("\n")]
        assert len(values) == 3
        spread = max(values) - min(values)
        assert spread / values[0] < 1e-6

    def test_stability_error_surfaces(self):
        proc = cli("modified", "--linear", "--lambda", "1", "--h", "2.1")
        assert proc.returncode == 1
        assert "boundary" in proc.stderr

    def test_usage_without_mode(self):
        assert main(["modified"]) == 2

    def test_unstable_linear_scheme_warns_nothing(self, capsys):
        # the stability check runs before the series, whose divergence warning never shows
        assert main(["modified", "--linear", "--lambda", "0.5", "--h", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lambda*h^2 = 4.5 is at or beyond the stability boundary 4\n"

    @pytest.mark.parametrize("lam,h,message", [("1e308", "0.5", "stability boundary"),
                                               ("1e16", "1e-8", "term k = 20 overflows")])
    def test_huge_lambda_is_a_named_error(self, capsys, lam, h, message):
        assert main(["modified", "--linear", "--lambda", lam, "--h", h]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_small_linear_step_measures_two_periods(self, capsys):
        # 10 000 steps of h = 3e-4 cover half of the period 2 pi, too few for two zero
        # crossings; the run takes two periods, 41 888 steps, and the three frequencies agree
        assert main(["modified", "--linear", "--lambda", "1", "--h", "3e-4"]) == 0
        captured = capsys.readouterr()
        values = [float(line.split(":")[1]) for line in captured.out.strip().split("\n")]
        assert captured.err == "" and len(values) == 3
        assert (max(values) - min(values)) / values[0] < 1e-6

    def test_linear_step_past_the_steps_per_period_rule_is_usage_error(self, capsys):
        # T/h = 6.3e6 steps for a period is past the 10^6 rule of the drift sweeps
        assert main(["modified", "--linear", "--lambda", "1", "--h", "1e-6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: step size h = 1e-06 is too small for the period T = 6.28319: "
                                "T/h = 6.28e+06 exceeds 1000000 steps\n")

    def test_linear_step_with_an_overflowing_frequency_is_usage_error(self, capsys):
        # 2/h overflows: the dispersion frequency is refused before the series or any step
        assert main(["modified", "--linear", "--h", "1e-308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Omega = inf is not positive and finite for lambda = 1.0, h = 1e-308\n"

    def test_overflowing_drift_prediction_exits_1(self, capsys):
        # the prediction overflowed to -inf and was printed as a success
        assert main(["modified", "--drift", "sv", "--h", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: predicted drift (inf, -inf) is not finite for h = 1e+200\n"

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, lam):
        proc = cli("modified", "--linear", "--lambda", lam)
        assert proc.returncode == 2
        assert "lambda" in proc.stderr and "Warning" not in proc.stderr

    def test_split_drift_needs_two_part_split(self, capsys):
        assert main(["modified", "--drift", "vi2", "--split", "1", "0"]) == 2
        assert "two-part split" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["bogus", "k1"])
    def test_unknown_drift_method_is_usage_error(self, capsys, method):
        assert main(["modified", "--drift", method]) == 2
        assert repr(method) in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["ecc", "angle"])
    def test_circular_drift_seed_is_usage_error(self, capsys, metric):
        assert main(["modified", "--drift", "sv", "--ecc", "0", "--metric", metric]) == 2
        assert "LRL drift is undefined for circular orbits" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--linear"], ["--drift", "sv", "--ecc", "0.1"]])
    @pytest.mark.parametrize("h", ["nan", "0"])
    def test_bad_step_size_is_usage_error(self, mode, h):
        assert main(["modified", *mode, "--h", h]) == 2


class TestLibraryRulesAreUsageErrors:
    """Each rule the library holds, reached from the command line: exit 2 before any step,
    one ``error:`` line and no traceback."""

    @pytest.mark.parametrize("args,message", [
        (("run", "--method", "sv", "--h", "0.05", "--steps", "0"), "steps must be >= 1"),
        (("run", "--method", "k1", "--model", "relativistic", "--h", "0.05", "--steps", "-1"),
         "steps must be >= 1"),
        (("run", "--method", "sv", "--h", "0.05", "--steps", "3", "--x0", "nan", "0", "--v0", "0", "1"),
         "state components must be finite"),
        (("run", "--method", "sv", "--h", "0.05", "--steps", "3", "--x0", "1", "0", "--v0", "inf", "1"),
         "state components must be finite"),
        (("run", "--model", "relativistic", "--method", "k1", "--h", "1e200", "--steps", "3",
          "--x0", "1", "0", "--v0", "0", "1e200"), "gamma=inf"),
        (("modified", "--linear", "--metric", "bogus"), "invalid choice: 'bogus'"),
        (("modified", "--drift", "sv", "--metric", "bogus"), "invalid choice: 'bogus'"),
        (("convergence", "--ecc", "0", "--levels", "2"), "drift metrics are undefined for circular orbits"),
        (("convergence", "--x0", "1", "0", "--v0", "0", "1", "--levels", "2"),
         "drift metrics are undefined for circular orbits"),
    ], ids=["zero-steps", "negative-steps-relativistic", "nan-x0", "inf-v0", "lorentz-factor",
            "linear-metric", "drift-metric", "circular-ecc", "circular-x0"])
    def test_exit_2_with_one_error_line(self, args, message):
        proc = cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        last = proc.stderr.strip().split("\n")[-1]
        assert "error:" in last and message in last

    def test_circular_convergence_seed_runs_no_step(self, monkeypatch, capsys):
        def no_steps(*a, **k):
            raise AssertionError("the run started")

        monkeypatch.setattr("geodyn.modified.run", no_steps)
        assert main(["convergence", "--methods", "sv", "--ecc", "0"]) == 2
        assert capsys.readouterr().err == "error: drift metrics are undefined for circular orbits\n"


class TestConfigAndPlumbing:
    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("method=sv\nh=0.05\nsteps=5\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg), "run", "-o", str(out)]) == 0
        assert out.read_text().split("\n")[0] == KEPLER_HEADER

    def test_config_equals_form_reads_the_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("split=0.3 0.7\n")
        argv = ["run", "--method", "vi1", "--h", "0.05", "--steps", "20", "-o"]
        outs = {}
        for name, form in (("spaced", ["--config", str(cfg)]), ("equals", [f"--config={cfg}"]),
                           ("default", [])):
            assert main(form + argv + [str(tmp_path / name)]) == 0
            outs[name] = (tmp_path / name).read_bytes()
        assert outs["equals"] == outs["spaced"] != outs["default"]

    def test_missing_config(self):
        assert main(["--config", "/nonexistent/cfg", "run"]) == 2

    class _ClosedStdout:
        """A stdout whose reader has gone, as after ``geodyn ... | head -1``."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    @pytest.mark.parametrize("argv", [["run", "--method", "sv", "--h", "0.05", "--steps", "3"],
                                      ["modified", "--linear"]], ids=["run", "modified-linear"])
    def test_closed_stdout_is_not_a_usage_error(self, monkeypatch, capsys, argv):
        with monkeypatch.context() as patch:     # undone before capsys restores stdout
            patch.setattr(sys, "stdout", self._ClosedStdout())
            status = main(argv)
        assert status == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 29.8 GiB for an array", ""])
    def test_allocation_failure_is_one_error_line(self, monkeypatch, capsys, message):
        # a run too long for memory ended in numpy's raw _ArrayMemoryError traceback
        def no_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli_module, "run", no_memory)
        assert main(["run", "--method", "sv", "--h", "0.05", "--steps", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'out of memory'}\n"

    def test_no_command(self):
        assert main([]) == 2

    def test_cached_parser_runs_the_current_handler(self, monkeypatch):
        # the parser is built once; a handler rebound after that (a tracing wrapper,
        # say) is still the one that runs
        assert main(["check", "kepler"]) == 0
        assert cli_module.build_parser() is cli_module.build_parser()
        seen = []
        monkeypatch.setattr(cli_module, "cmd_check", lambda args: seen.append(args.system) or 7)
        assert main(["check", "kepler"]) == 7
        assert seen == ["kepler"]

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["run", "--method", "sv", "--h", "0.1", "--steps", "3", "-o"],
        ["run", "--method", "sv", "--h", "0.1", "--steps", "3", "--format", "svg", "-o"],
        ["convergence", "--methods", "sv", "--levels", "2", "-o"],
    ], ids=["check-dir", "run", "run-svg", "convergence"])
    def test_bad_path_is_usage_error(self, tmp_path, capsys, argv):
        # a directory for check, a file in a missing directory for -o
        bad = str(tmp_path) if argv == ["check"] else str(tmp_path / "missing" / "out")
        assert main(argv + [bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bad in err

    def test_svg_needs_two_points(self):
        for series in ([], [(0.0, 1.0)]):
            with pytest.raises(ValueError):
                svg_lines(series)

    def test_svg_deterministic(self, tmp_path):
        series = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]
        assert svg_lines(series, title="t") == svg_lines(series, title="t")
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["run", "--method", "vi2", "--h", "0.1", "--steps", "50", "--format", "svg", "-o"]
        assert main(args + [str(a)]) == main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of the output files, the same with and without FMA and SIMD loops;
# the default seed (-3, 0), (0, 0.45) throughout
_GOLDEN_ARGS = {
    **{f"run {m}": ["run", "--method", m, "--h", "0.05", "--steps", "200"]
       for m in ("sym-euler", "sv", "vi1", "vi2")},
    **{f"run {m}": ["run", "--model", "relativistic", "--method", m,
                    "--h", "0.05", "--steps", "200"] for m in ("k1", "k2")},
    **{f"run {m} split": ["run", "--method", m, "--split", "0.3", "0.7",
                          "--h", "0.05", "--steps", "200"] for m in ("vi1", "vi2")},
    "convergence": ["convergence", "--levels", "3"],
}
_GOLDEN_SHA256 = {
    "run sym-euler": "204b7026ac50157ca3f87e3f570e1a54fa442ceb8f23f2e68c146dcab3ace08a",
    "run sv": "585f2da5b87018da500a75a6a6232b2536ee61027ea82a28c167c2b0a7b2420f",
    "run vi1": "ed8f1e7c35edd0beb0af0ff879910f2df77fc8bfde0937d87bc80ee627feec4f",
    "run vi2": "f629255f7b5725f11c060c4f4f67e40268524a3ffc4a3c6c4e72e63cc1a483b1",
    "run k1": "e7173fceb753d7f8cf63e72eacb2c5a04fe8859a606d809ee64061c3b58c45a2",
    "run k2": "2efcc3649fb590570eb6814ea357e0426f56307b0f05997ede5d480b884c1bb6",
    "run vi1 split": "9b6b5672ed1d367b5beac50949254dab24aea0879da890aabef6d60bd06def78",
    "run vi2 split": "0f4d4cbe8f057b271f74c1df8088c7bd1822d0ba9c124b5d83941672b7813019",
    "convergence": "d2d55ce24f86540ccbb51f4d77880875934ec7cdd430285f6387dde6e70a85fb",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("case", sorted(_GOLDEN_ARGS))
    def test_output_bytes_are_pinned(self, tmp_path, case):
        out = tmp_path / "out.csv"
        assert main(_GOLDEN_ARGS[case] + ["-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_SHA256[case]
