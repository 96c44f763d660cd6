"""Workload inputs, passes and output checks.

Every workload draws its inputs from the seed once; a pass then repeats the
same calls into geodyn, so each pass does the same work and gives bitwise
equal outputs. Each call into the program is one operation. A pass returns
its operations' outputs; the checks run on them outside the timed region.

All geodyn functions are reached through module attributes
(``integrators.run``, not a name imported from it), so the wrappers that the
traced run installs see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from geodyn import cli, integrators, kepler, modified, relativistic

H_ORBIT = 0.05
KEPLER_METHODS = ("sym-euler", "sv", "vi1", "vi2")
REL_METHODS = ("k1", "k2")
FIRST_ORDER = ("sym-euler", "vi1")
SECOND_ORDER = ("sv", "vi2")


@dataclass
class Op:
    """One call into the program: its name, wall time and output (or error)."""
    name: str
    seconds: float = 0.0
    output: object = None
    error: str | None = None


@dataclass
class Check:
    op: str
    ok: bool
    detail: str


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)

    def op(self, name: str) -> Op:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(name)


def _timed(name: str, fn, *args, **kwargs) -> Op:
    op = Op(name)
    t0 = time.perf_counter()
    try:
        op.output = fn(*args, **kwargs)
    except Exception as exc:  # a failing call is a failed operation, never a crash
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - t0
    return op


def digest(value) -> str:
    """sha256 over every number and byte of an operation's output, in order."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, (tuple, list)):
            for item in v:
                feed(item)
        elif isinstance(v, (bytes, bytearray)):
            h.update(v)
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --- Input generation (independent of the library) ---

def orbit_state(a: float, e: float, omega: float, mean_anomaly: float,
                clockwise: bool) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity on the bound Kepler orbit (mu = 1) at a mean anomaly.

    Periapsis points along angle ``omega``; a clockwise orbit is the
    counter-clockwise one mirrored across the x1 axis.
    """
    ecc_anom = mean_anomaly
    for _ in range(60):
        step = (ecc_anom - e * math.sin(ecc_anom) - mean_anomaly) / (1.0 - e * math.cos(ecc_anom))
        ecc_anom -= step
        if abs(step) < 1e-15:
            break
    b = a * math.sqrt(1.0 - e * e)
    edot = a**-1.5 / (1.0 - e * math.cos(ecc_anom))
    xp = np.array([a * (math.cos(ecc_anom) - e), b * math.sin(ecc_anom)])
    vp = np.array([-a * math.sin(ecc_anom) * edot, b * math.cos(ecc_anom) * edot])
    c, s = math.cos(omega), math.sin(omega)
    rot = np.array([[c, -s], [s, c]])
    x, v = rot @ xp, rot @ vp
    if clockwise:
        x, v = x * np.array([1.0, -1.0]), v * np.array([1.0, -1.0])
    return x, v


def relativistic_seed(rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Bound proper-velocity seed near the default (-3, 0), (0, 0.45).

    |x| in [3, 3.5], |u| in [0.43, 0.48] and a near-tangential direction keep
    the angular momentum above 1.27; below 1 (with c = 1) the orbit falls
    into the centre.
    """
    r = rng.uniform(3.0, 3.5)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(0.43, 0.48)
    tilt = rng.uniform(-0.15, 0.15) + (math.pi / 2 if rng.random() < 0.5 else -math.pi / 2)
    x = r * np.array([math.cos(theta), math.sin(theta)])
    u = speed * np.array([math.cos(theta + tilt), math.sin(theta + tilt)])
    return x, u


def _arg(x: float) -> str:
    return repr(float(x))


# --- orbits: a few long trajectories through the step kernels ---

@dataclass
class OrbitsInput:
    seed: kepler.PhaseState
    rel_seed: relativistic.ExtPhaseState
    steps: int
    rel_steps: int
    params: dict

    @property
    def steps_per_pass(self) -> int:
        return len(KEPLER_METHODS) * self.steps + len(REL_METHODS) * self.rel_steps


ORBIT_STEPS = 2000
REL_STEPS = 1500


def orbits_input(seed: int, workdir: str) -> OrbitsInput:
    rng = _rng("orbits", seed)
    params = dict(a=rng.uniform(1.5, 2.5), e=rng.uniform(0.3, 0.7),
                  omega=rng.uniform(0.0, 2.0 * math.pi),
                  mean_anomaly=rng.uniform(0.0, 2.0 * math.pi),
                  clockwise=rng.random() < 0.5)
    x, v = orbit_state(**params)
    xr, ur = relativistic_seed(rng)
    rel = relativistic.ExtPhaseState(0.0, xr, math.sqrt(1.0 + float(ur @ ur)), ur)
    return OrbitsInput(kepler.PhaseState(x, v), rel, ORBIT_STEPS, REL_STEPS, params)


def orbits_pass(inp: OrbitsInput, scale: float = 1.0) -> PassResult:
    steps = max(3, int(inp.steps * scale))
    rel_steps = max(3, int(inp.rel_steps * scale))
    res = PassResult()
    for method in KEPLER_METHODS:
        res.ops.append(_timed(method, integrators.run, method, inp.seed, H_ORBIT, steps,
                              diagnostics=True))
    for method in REL_METHODS:
        res.ops.append(_timed(method, relativistic.run_relativistic, method, inp.rel_seed,
                              H_ORBIT, rel_steps))
    return res


# Bounds on the energy error over the drawn orbits, about 3x the largest seen
# over 240 seeds: sym-euler 0.047, vi1 0.097, sv 0.0043, vi2 0.0042,
# k1 0.070, k2 0.0055. The first-order/second-order ratio was at least 10.6.
MAX_DH = {"sym-euler": 0.3, "vi1": 0.3, "sv": 0.02, "vi2": 0.02}
MAX_REL_DH = {"k1": 0.5, "k2": 0.05}
# Secular energy trend: the fitted slope times the run length, as a share of
# the largest energy error. A bounded, oscillating error stayed below 0.26;
# a steady drift reaches about 1.
MAX_DH_TREND = 0.5


def _trend_share(err: np.ndarray) -> float:
    """|least-squares slope| * length / max|err|: ~1 for a drift, small for an oscillation."""
    peak = float(np.max(np.abs(err)))
    if peak == 0.0:
        return 0.0
    slope = float(np.polyfit(np.arange(err.size), err, 1)[0])
    return abs(slope) * (err.size - 1) / peak


def check_orbits(inp: OrbitsInput, res: PassResult) -> list[Check]:
    out: list[Check] = []
    max_err = {}
    for method in KEPLER_METHODS:
        op = res.op(method)
        if op.error is not None:
            out.append(Check(method, False, op.error))
            continue
        rec = op.output
        n_expected = inp.steps + 1
        out.append(Check(method, rec.xs.shape == (n_expected, 2) and rec.H.shape == (n_expected,),
                         f"trajectory shape {rec.xs.shape}"))
        err = rec.H - rec.H[0]
        max_err[method] = float(np.max(np.abs(err)))
        trend = _trend_share(err)
        out.append(Check(method, bool(np.all(np.isfinite(err))) and max_err[method] <= MAX_DH[method],
                         f"max|dH| {max_err[method]:.3e} (bound {MAX_DH[method]:g})"))
        out.append(Check(method, trend <= MAX_DH_TREND,
                         f"dH trend share {trend:.3f} (bound {MAX_DH_TREND})"))
        if method in ("sym-euler", "sv"):
            dm = float(np.max(np.abs(rec.m - rec.m[0])))
            out.append(Check(method, dm < 1e-12, f"angular momentum defect {dm:.2e}"))
    if len(max_err) == len(KEPLER_METHODS):
        first = min(max_err[m] for m in FIRST_ORDER)
        second = max(max_err[m] for m in SECOND_ORDER)
        ok = first >= 5.0 * second
        for m in KEPLER_METHODS:
            out.append(Check(m, ok, f"first-order max|dH| {first:.2e} >= 5 x second-order {second:.2e}"))
    for method in REL_METHODS:
        op = res.op(method)
        if op.error is not None:
            out.append(Check(method, False, op.error))
            continue
        rec = op.output
        dh = float(np.max(np.abs(rec.H - rec.H[0])))
        ok = rec.xs.shape == (inp.rel_steps + 1, 2) and math.isfinite(dh) and dh <= MAX_REL_DH[method]
        out.append(Check(method, ok, f"relativistic max|dH| {dh:.3e} (bound {MAX_REL_DH[method]:g})"))
    return out


# --- cli_mix: the command-line tool, in process, writing to files ---

CONV_LEVELS = 5
# The sweep's cost follows the orbital period, so the semi-major axis is fixed
# (criterion 5's orbit has a = 2.15) and only the shape and phase are drawn.
CONV_A = 2.1
CSV_STEPS = 2000

# Windows on the fitted orders. Criterion 5's windows hold over the drawn
# seeds for sym-euler (ecc 1.98-2.05, angle 1.98-2.02 over seeds 401-600),
# sv angle (1.98-1.99) and vi2 angle (2.02-2.04). The second-order ecc drifts
# superconverge and their fitted orders scatter (sv 3.27-4.66, vi2
# 2.71-5.82), so they get a floor only, still above the first-order 2. vi1's
# leading drift terms vanish (the analysis workload checks that), so its
# fitted ecc/angle orders range from 0.5 to 4.1 and only its position-error
# order is checked.
SLOPE_WINDOWS = {
    ("sym-euler", "ecc"): (2.0, 0.3), ("sym-euler", "angle"): (2.0, 0.3),
    ("sv", "angle"): (2.0, 0.3), ("vi2", "angle"): (2.0, 0.3),
}
SLOPE_MINIMA = {("sv", "ecc"): 2.8, ("vi2", "ecc"): 2.4}
POS_WINDOWS = {"sym-euler": (0.8, 1.8), "vi1": (0.8, 1.4), "sv": (1.8, 2.2), "vi2": (1.8, 2.2)}


def _poly_force_terms(rng: random.Random) -> tuple[list[str], list[str]]:
    """-grad V of a drawn polynomial potential V(x1, x2) of degree 2..4, as expression terms."""
    coeffs = {}
    for total in (2, 3, 4):
        for i in range(total + 1):
            coeffs[(i, total - i)] = round(rng.uniform(-1.0, 1.0), 3)
    f1, f2 = [], []
    for (i, j), c in coeffs.items():
        if i:
            f1.append(f"{_arg(-c * i)} * x1^{i - 1} * x2^{j}")
        if j:
            f2.append(f"{_arg(-c * j)} * x1^{i} * x2^{j - 1}")
    return f1, f2


@dataclass
class CliInput:
    workdir: str
    commands: list[tuple[str, list[str], str | None]]   # (name, argv, output file)
    damping: float
    steps_per_pass: int
    params: dict


def cli_input(seed: int, workdir: str) -> CliInput:
    rng = _rng("cli_mix", seed)
    # off-axis start on an orbit shaped like criterion 5's: periapsis on +x1,
    # clockwise, started 0.08-0.22 of a period past apoapsis (criterion 5
    # starts at 0.15; starts near 0.05 or 0.3 put the fitted orders at the
    # edges of their windows)
    conv = dict(a=CONV_A, e=rng.uniform(0.35, 0.45), omega=0.0,
                mean_anomaly=math.pi + 2.0 * math.pi * rng.uniform(0.08, 0.22), clockwise=True)
    xc, vc = orbit_state(**conv)
    run_orbit = dict(a=rng.uniform(1.5, 2.5), e=rng.uniform(0.3, 0.7),
                     omega=rng.uniform(0.0, 2.0 * math.pi),
                     mean_anomaly=rng.uniform(0.0, 2.0 * math.pi), clockwise=rng.random() < 0.5)
    xk, vk = orbit_state(**run_orbit)
    xr, ur = relativistic_seed(rng)
    f1, f2 = _poly_force_terms(rng)
    damping = round(rng.uniform(0.2, 1.0), 3)
    lam = rng.uniform(0.5, 2.0)
    h_lin = rng.uniform(0.05, 0.15)

    poly_path = os.path.join(workdir, "poly.sys")
    damped_path = os.path.join(workdir, "damped.sys")
    body = ["n = 2", "structure = constant-mass"]
    with open(poly_path, "w") as fh:
        fh.write("# gradient of a polynomial potential: variational\n")
        fh.write("\n".join(body + [f"f1 = {' + '.join(f1)}", f"f2 = {' + '.join(f2)}"]) + "\n")
    with open(damped_path, "w") as fh:
        fh.write("# the same force with linear damping: not variational\n")
        fh.write("\n".join(body + [f"f1 = {' + '.join(f1)} - {damping!r} * v1",
                                   f"f2 = {' + '.join(f2)} - {damping!r} * v2"]) + "\n")

    def path(name):
        return os.path.join(workdir, name)

    commands = [
        ("convergence", ["convergence", "--levels", str(CONV_LEVELS),
                         "--x0", _arg(xc[0]), _arg(xc[1]), "--v0", _arg(vc[0]), _arg(vc[1]),
                         "-o", path("conv.csv")], path("conv.csv")),
        ("run_sv", ["run", "--method", "sv", "--h", _arg(H_ORBIT), "--steps", str(CSV_STEPS),
                    "--x0", _arg(xk[0]), _arg(xk[1]), "--v0", _arg(vk[0]), _arg(vk[1]),
                    "-o", path("sv.csv")], path("sv.csv")),
        ("run_k1", ["run", "--method", "k1", "--model", "relativistic", "--h", _arg(H_ORBIT),
                    "--steps", str(CSV_STEPS), "--x0", _arg(xr[0]), _arg(xr[1]),
                    "--v0", _arg(ur[0]), _arg(ur[1]), "-o", path("k1.csv")], path("k1.csv")),
        ("check_poly", ["check", poly_path], None),
        ("check_damped", ["check", damped_path], None),
        ("check_kepler", ["check", "kepler"], None),
        ("modified_linear", ["modified", "--linear", "--lambda", _arg(lam), "--h", _arg(h_lin)], None),
    ]
    # integrator steps: per (method, h) two per_period_drift runs and one
    # position-error run, as cmd_convergence makes them; then the two CSV runs
    period = kepler.orbit_elements(kepler.PhaseState(xc, vc)).T
    hs = [0.5**i for i in range(1, CONV_LEVELS + 1)]
    conv_steps = sum(2 * (math.ceil(period / h) + 3) + round(period / h) for h in hs)
    steps = len(KEPLER_METHODS) * conv_steps + 2 * CSV_STEPS
    params = dict(convergence_orbit=conv, run_orbit=run_orbit, damping=damping,
                  lam=lam, h_linear=h_lin)
    return CliInput(workdir, commands, damping, steps, params)


EXPECTED_EXIT = {"convergence": 0, "run_sv": 0, "run_k1": 0, "check_poly": 0,
                 "check_damped": 1, "check_kepler": 0, "modified_linear": 0}


def _cli_call(argv: list[str], out_path: str | None):
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
        code = cli.main(argv)
    data = None
    if out_path is not None:
        with open(out_path, "rb") as fh:
            data = fh.read()
    return code, buf_out.getvalue(), buf_err.getvalue(), data


def _shrink(argv: list[str], scale: float) -> list[str]:
    """Smaller sizes for the set-up warm-up; every command still runs."""
    out = list(argv)
    for flag, floor in (("--levels", 2), ("--steps", 3)):
        if flag in out:
            i = out.index(flag) + 1
            out[i] = str(max(floor, int(int(out[i]) * scale)))
    return out


def cli_pass(inp: CliInput, scale: float = 1.0) -> PassResult:
    res = PassResult()
    for name, argv, out_path in inp.commands:
        if scale != 1.0:
            argv = _shrink(argv, scale)
        if out_path is not None and os.path.exists(out_path):
            os.remove(out_path)
        res.ops.append(_timed(name, _cli_call, argv, out_path))
    return res


def cli_bytes_out(res: PassResult) -> int:
    """Bytes written by ``geodyn run`` in one pass."""
    return sum(len(op.output[3]) for op in res.ops
               if op.name.startswith("run_") and op.error is None and op.output[3] is not None)


def _parse_slopes(text: str) -> dict[tuple[str, str], float]:
    slopes = {}
    for line in text.splitlines():
        if line.startswith("# slopes "):
            method, _, rest = line[len("# slopes "):].partition(":")
            for part in rest.split():
                key, _, value = part.partition("=")
                slopes[(method, key)] = float(value)
    return slopes


def check_cli(inp: CliInput, res: PassResult) -> list[Check]:
    out: list[Check] = []
    for op in res.ops:
        if op.error is not None:
            out.append(Check(op.name, False, op.error))
            continue
        code = op.output[0]
        out.append(Check(op.name, code == EXPECTED_EXIT[op.name],
                         f"exit {code}, expected {EXPECTED_EXIT[op.name]}"))
    ok = {op.name: op for op in res.ops if op.error is None}

    if "convergence" in ok:
        text = ok["convergence"].output[3].decode()
        lines = text.splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        n_rows = len(KEPLER_METHODS) * CONV_LEVELS
        out.append(Check("convergence", lines[0] == "method,h,decc,dangle,poserr" and len(rows) == n_rows,
                         f"{len(rows)} table rows, expected {n_rows}"))
        slopes = _parse_slopes(text)
        for key, (center, tol) in SLOPE_WINDOWS.items():
            v = slopes.get(key, math.nan)
            out.append(Check("convergence", abs(v - center) < tol, f"slope {key} = {v} in {center}+-{tol}"))
        for key, low in SLOPE_MINIMA.items():
            v = slopes.get(key, math.nan)
            out.append(Check("convergence", v >= low, f"slope {key} = {v} >= {low}"))
        for method, (lo, hi) in POS_WINDOWS.items():
            v = slopes.get((method, "pos"), math.nan)
            out.append(Check("convergence", lo <= v <= hi, f"pos slope {method} = {v} in [{lo}, {hi}]"))

    for name, header, width in (("run_sv", cli.KEPLER_HEADER, 12),
                                ("run_k1", cli.RELATIVISTIC_HEADER, 9)):
        if name not in ok:
            continue
        lines = ok[name].output[3].decode().split("\n")
        body = lines[1:-1]
        steps = [row.split(",")[0] for row in body]
        good = (lines[0] == header and lines[-1] == "" and len(body) == CSV_STEPS + 1
                and steps == [str(k) for k in range(CSV_STEPS + 1)]
                and all(row.count(",") == width - 1 for row in body))
        out.append(Check(name, good, f"{len(body)} CSV rows, expected {CSV_STEPS + 1}"))

    for name, verdict in (("check_poly", "PASS"), ("check_damped", "FAIL"), ("check_kepler", "PASS")):
        if name in ok:
            lines = ok[name].output[1].splitlines()
            out.append(Check(name, bool(lines) and lines[-1] == verdict,
                             f"verdict {lines[-1] if lines else None!r}, expected {verdict}"))
    if "check_damped" in ok:
        residual = math.nan
        for line in ok["check_damped"].output[1].splitlines():
            if line.startswith("condition (a)"):
                residual = float(line.rsplit("residual=", 1)[1].split()[0])
        expected = 2.0 * inp.damping
        out.append(Check("check_damped", abs(residual - expected) <= 1e-5 * expected,
                         f"condition (a) residual {residual} vs 2 x damping {expected}"))

    if "modified_linear" in ok:
        freqs = []
        for line in ok["modified_linear"].output[1].splitlines():
            if "frequency" in line:
                freqs.append(float(line.rsplit(":", 1)[1]))
        spread = (max(freqs) - min(freqs)) / freqs[1] if len(freqs) == 3 else math.inf
        out.append(Check("modified_linear", spread < 1e-6, f"frequency spread {spread:.2e} < 1e-6"))
    return out


# --- analysis: numerics services with almost no stepping ---

DRIFT_NODES = 32
DRIFT_H = 0.05
SHADOW_STEPS_PER_PERIOD = 40


@dataclass
class AnalysisInput:
    elements: kepler.OrbitElements
    shadow_seed: kepler.PhaseState
    shadow_h: float
    measured_sv_angle: float
    steps_per_pass: int
    params: dict


def analysis_input(seed: int, workdir: str) -> AnalysisInput:
    rng = _rng("analysis", seed)
    drift = dict(a=rng.uniform(1.5, 3.0), e=rng.uniform(0.06, 0.13))
    # shadowing starts at apoapsis, as criterion 8 does. From apoapsis the
    # ratio at 40 steps per period stays in 3.5-4.5 over the drawn orbits;
    # from a random phase it ranges from 2.7 to 5.9.
    shadow = dict(a=rng.uniform(1.5, 3.0), e=rng.uniform(0.1, 0.25),
                  omega=rng.uniform(0.0, 2.0 * math.pi), mean_anomaly=math.pi,
                  clockwise=rng.random() < 0.5)
    a, e = drift["a"], drift["e"]
    rp = a * (1.0 - e)
    vp = math.sqrt((1.0 + e) / rp)
    # the frame predicted_drift uses: periapsis on +x2, counter-clockwise
    matching = kepler.PhaseState(np.array([0.0, rp]), np.array([-vp, 0.0]))
    elements = kepler.orbit_elements(matching)
    measured = modified.per_period_drift("sv", "angle", matching, DRIFT_H)
    xs, vs = orbit_state(**shadow)
    shadow_seed = kepler.PhaseState(xs, vs)
    period = kepler.orbit_elements(shadow_seed).T
    h = period / SHADOW_STEPS_PER_PERIOD
    # shadowing_ratio runs vi1 over one period at h and at h/2
    steps = round(period / h) + round(period / (0.5 * h))
    params = dict(drift_orbit=drift, shadow_orbit=shadow)
    return AnalysisInput(elements, shadow_seed, h, measured, steps, params)


def analysis_pass(inp: AnalysisInput, scale: float = 1.0) -> PassResult:
    res = PassResult()
    nodes = DRIFT_NODES if scale == 1.0 else 8
    for method in ("sv", "vi1"):
        res.ops.append(_timed(f"drift_{method}", modified.predicted_drift, method, inp.elements,
                              DRIFT_H, nodes=nodes))
    if scale == 1.0:
        op = _timed("shadowing", modified.shadowing_ratio, inp.shadow_seed, inp.shadow_h)
    else:
        op = _timed("shadowing", modified.shadowing_error, inp.shadow_seed, inp.shadow_h, substeps=2)
    res.ops.append(op)
    return res


def check_analysis(inp: AnalysisInput, res: PassResult) -> list[Check]:
    out: list[Check] = []
    for op in res.ops:
        if op.error is not None:
            out.append(Check(op.name, False, op.error))
    ok = {op.name: op for op in res.ops if op.error is None}
    measured = inp.measured_sv_angle
    if "drift_sv" in ok:
        decc, dangle = ok["drift_sv"].output
        rel = abs(dangle - measured) / abs(measured)
        out.append(Check("drift_sv", rel < 0.02,
                         f"sv predicted angle drift {dangle:.6e} vs measured {measured:.6e}: {rel:.2e} < 2%"))
        out.append(Check("drift_sv", abs(decc) < 1e-6 * abs(measured),
                         f"sv leading ecc drift {decc:.2e} near zero relative to {measured:.2e}"))
    if "drift_vi1" in ok:
        worst = max(abs(v) for v in ok["drift_vi1"].output)
        out.append(Check("drift_vi1", worst < 1e-6 * abs(measured),
                         f"vi1 leading terms {worst:.2e} near zero relative to {measured:.2e}"))
    if "shadowing" in ok:
        ratio = ok["shadowing"].output
        out.append(Check("shadowing", 3.4 <= ratio <= 4.6, f"shadowing ratio {ratio:.3f} in [3.4, 4.6]"))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: object
    run_pass: object
    check: object


WORKLOADS = {
    "orbits": Workload("orbits", orbits_input, orbits_pass, check_orbits),
    "cli_mix": Workload("cli_mix", cli_input, cli_pass, check_cli),
    "analysis": Workload("analysis", analysis_input, analysis_pass, check_analysis),
}
