"""End-to-end CLI tests: headers, determinism, exit statuses."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from geodyn import cli as cli_module
from geodyn.cli import KEPLER_HEADER, RELATIVISTIC_HEADER, canonical_seed, main
from geodyn.integrators import run
from geodyn.kepler import PhaseState, analytic_reference, kepler_split, orbit_elements
from geodyn.modified import per_period_drift
from geodyn.svgplot import emit_svg


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
        assert "--h" in err

    def test_nan_seed_is_usage_error(self, monkeypatch, capsys):
        err = self.rejected_before_any_step(monkeypatch, capsys, "--method", "sv",
                                            "--h", "0.05", "--x0", "nan", "0", "--v0", "0", "1")
        assert "--x0" in err

    def test_overflowing_lorentz_factor_is_usage_error(self, monkeypatch, capsys):
        err = self.rejected_before_any_step(monkeypatch, capsys, "--model", "relativistic",
                                            "--method", "k1", "--h", "1e200",
                                            "--x0", "1", "0", "--v0", "0", "1e200")
        assert "Lorentz factor" in err

    def test_svg_output(self, tmp_path):
        out = tmp_path / "orbit.svg"
        assert main(["run", "--method", "vi1", "--ecc", "0.6", "--h", "0.05",
                     "--steps", "50", "--format", "svg", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert 'width="800" height="600"' in text

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
                pos.append(float(np.linalg.norm(rec.xs[-1] - ref.x)))
            for i, h in enumerate(hs):
                rows.append(",".join([method, repr(h), repr(cols["ecc"][i]),
                                      repr(cols["angle"][i]), repr(pos[i])]))
            fits = [(m, np.polyfit(np.log(hs), np.log(np.abs(v)), 1)[0])
                    for m, v in (("ecc", cols["ecc"]), ("angle", cols["angle"]), ("pos", pos))]
            slope_lines.append(f"# slopes {method}: "
                               + " ".join(f"{m}={float(v):.3f}" for m, v in fits))
        assert out.read_bytes() == ("\n".join(rows + slope_lines) + "\n").encode()

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

    @pytest.mark.parametrize("mode", [["--linear"], ["--drift", "sv", "--ecc", "0.1"]])
    @pytest.mark.parametrize("h", ["nan", "0"])
    def test_bad_step_size_is_usage_error(self, mode, h):
        assert main(["modified", *mode, "--h", h]) == 2


class TestConfigAndPlumbing:
    def test_config_file_defaults(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("method=sv\nh=0.05\nsteps=5\n")
        out = tmp_path / "out.csv"
        assert main(["--config", str(cfg), "run", "-o", str(out)]) == 0
        assert out.read_text().split("\n")[0] == KEPLER_HEADER

    def test_missing_config(self):
        assert main(["--config", "/nonexistent/cfg", "run"]) == 2

    def test_no_command(self):
        assert main([]) == 2

    def test_svg_needs_two_points(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([(0.0, 1.0)], str(tmp_path / "x.svg"))

    def test_svg_deterministic(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = [(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]
        emit_svg(series, str(a), title="t")
        emit_svg(series, str(b), title="t")
        assert a.read_bytes() == b.read_bytes()

    def test_svg_log_axis_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([(0.0, 1.0), (1.0, -2.0)], str(tmp_path / "x.svg"), log_y=True)
