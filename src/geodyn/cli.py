"""Command-line front end: trajectory runs, convergence sweeps, checks, demos.

Outputs are deterministic: CSV floats use the shortest round-trip decimal via
``repr``, newlines are ``\\n``, and no timestamps or locale-dependent
formatting appear anywhere. Exit statuses: 0 success, 1 computation/check
failure, 2 usage (a bad path included), parse or expression-evaluation error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from geodyn import helmholtz
from geodyn.errors import (
    CircularOrbitError,
    EvaluationError,
    ExpressionError,
    GeodynError,
    UnknownMethodError,
)
from geodyn.integrators import METHOD_IDS, method, run
from geodyn.kepler import ORIGIN_TOL, PhaseState, check_step_size, kepler_split, orbit_elements
from geodyn.modified import (
    drift_sweep,
    fitted_order,
    linear_dispersion,
    linear_measured_frequency,
    linear_modified_series,
    measured_drift_order,
    predicted_drift,
)
from geodyn.relativistic import ExtPhaseState, mass_shell_gamma, run_relativistic
from geodyn.svgplot import _fmt, svg_lines

KEPLER_HEADER = "step,t,x1,x2,v1,v2,H,m,A1,A2,ecc,angle"
RELATIVISTIC_HEADER = "step,tau,t,x1,x2,gamma,u1,u2,H"

DEFAULT_X0 = (-3.0, 0.0)
DEFAULT_V0 = (0.0, 0.45)


class UsageError(Exception):
    """Invalid invocation; reported on stderr with exit status 2."""


def canonical_seed(ecc: float) -> PhaseState:
    """Periapsis seed (1-e, 0, 0, sqrt((1+e)/(1-e))) for eccentricity e."""
    if not 0.0 <= ecc <= 1.0 - ORIGIN_TOL:   # keeps the periapsis 1 - e off the origin
        raise UsageError(f"eccentricity must be in [0, 1 - ORIGIN_TOL], got {ecc}")
    return PhaseState(np.array([1.0 - ecc, 0.0]),
                      np.array([0.0, math.sqrt((1.0 + ecc) / (1.0 - ecc))]))


def _seed_from_args(args) -> PhaseState:
    if args.ecc is not None:
        if args.x0 is not None or args.v0 is not None:
            raise UsageError("--ecc conflicts with --x0/--v0")
        return canonical_seed(args.ecc)
    if (args.x0 is None) != (args.v0 is None):
        raise UsageError("--x0 and --v0 must be given together")
    if args.x0 is None:
        return PhaseState(np.array(DEFAULT_X0), np.array(DEFAULT_V0))
    seed = PhaseState(np.array(args.x0), np.array(args.v0))     # checks the components are finite
    if math.sqrt(sum(c * c for c in args.x0)) < ORIGIN_TOL:     # the kernels' |x|
        raise UsageError(f"--x0 {args.x0} is within ORIGIN_TOL = {ORIGIN_TOL} of the origin")
    return seed


def _write_lines(path: str | None, lines) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


# --- run ---

def cmd_run(args) -> int:
    check_step_size(args.h)
    method(args.method, args.model)
    split = kepler_split(tuple(args.split))   # validated for every model; k1/k2 ignore it

    if args.model == "kepler":
        rec = run(args.method, _seed_from_args(args), args.h, args.steps, split=split)
        header = KEPLER_HEADER
        cols = [rec.times, rec.xs, rec.vs, rec.H, rec.m, rec.A, rec.ecc, rec.angle]
    else:
        seed = _seed_from_args(args)    # the state rejects an overflowing Lorentz factor
        rec = run_relativistic(args.method, ExtPhaseState(0.0, seed.x, mass_shell_gamma(seed.v), seed.v),
                               args.h, args.steps)
        header = RELATIVISTIC_HEADER
        cols = [rec.taus, rec.ts, rec.xs, rec.gammas, rec.us, rec.H]
    if args.format == "svg":
        series = list(zip(cols[0], rec.H - rec.H[0]))
        _write_lines(args.output or "run.svg", svg_lines(series, f"{args.method} energy error"))
        return 0
    rows = np.column_stack(cols).tolist()
    _write_lines(args.output, [header] + [",".join([str(n)] + list(map(repr, row)))
                                          for n, row in enumerate(rows)])
    return 0


# --- convergence ---

def cmd_convergence(args) -> int:
    if args.levels < 1:
        raise UsageError(f"--levels must be >= 1, got {args.levels}")
    seed = _seed_from_args(args)
    split = kepler_split(tuple(args.split))
    hs = [0.5**i for i in range(1, args.levels + 1)]
    metrics = ["ecc", "angle"] if args.metric == "both" else [args.metric]
    methods = args.methods or list(METHOD_IDS)

    header = ["method", "h"] + [f"d{m}" for m in metrics] + ["poserr"]
    lines = [",".join(header)]
    slope_lines = []
    for method_id in methods:
        cols = drift_sweep(method_id, seed, hs, split)
        for i, h in enumerate(hs):
            lines.append(",".join([method_id, _fmt(h)]
                                  + [_fmt(cols[m][i]) for m in metrics + ["pos"]]))
        if len(hs) < 2:
            print("warning: cannot fit a slope from a single step size", file=sys.stderr)
            slope_lines.append(f"# slopes {method_id}: n/a")
            continue
        slope_lines.append(f"# slopes {method_id}: " + " ".join(
            f"{m}={fitted_order(hs, cols[m]):.3f}" for m in metrics + ["pos"]))
    _write_lines(args.output, lines + slope_lines)
    return 0


# --- check ---

def cmd_check(args) -> int:
    systems = helmholtz.builtin_systems()
    if args.system in systems:
        system = systems[args.system]
    elif os.path.exists(args.system):
        system = helmholtz.load_system_file(args.system)
    else:
        raise UsageError(f"unknown system {args.system!r} (not a builtin or a file)")
    report = helmholtz.check(system)
    print(f"system: {system.name} (structure: {system.structure})")
    for cond in report.conditions:
        verdict = "PASS" if cond.passed else "FAIL"
        print(f"condition ({cond.condition}) {cond.description}: "
              f"residual={cond.residual:.6e} {verdict}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


# --- modified ---

def cmd_modified(args) -> int:
    check_step_size(args.h)
    if args.linear:
        # the dispersion raises past the stability boundary before the series can warn
        omega = linear_dispersion(args.lam, args.h)
        series = linear_modified_series(args.lam, args.h, k_max=20)
        measured = linear_measured_frequency(args.lam, args.h)
        print(f"series frequency    : {math.sqrt(series)!r}")
        print(f"dispersion frequency: {omega!r}")
        print(f"measured frequency  : {measured!r}")
        return 0
    if args.drift is None:
        raise UsageError("modified needs --linear or --drift METHOD")
    method(args.drift)
    seed = _seed_from_args(args)
    split = kepler_split(tuple(args.split))
    elements = orbit_elements(seed)
    decc, dangle = predicted_drift(args.drift, elements, args.h, split)
    predicted = decc if args.metric == "ecc" else dangle
    estimate = measured_drift_order(args.drift, args.metric, seed, split=split)
    print(f"predicted leading {args.metric} drift per period: {predicted!r}")
    print(f"measured order: {estimate.fitted_order:.3f} "
          f"(predicted order {estimate.predicted_order:g})")
    for h, drift in zip(estimate.hs, estimate.drifts):
        print(f"h={_fmt(h)} drift={_fmt(drift)}")
    return 0


# --- parser plumbing ---

def _add_seed_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ecc", type=float, default=None,
                   help="canonical periapsis seed with this eccentricity")
    p.add_argument("--x0", type=float, nargs=2, default=None)
    p.add_argument("--v0", type=float, nargs=2, default=None)
    p.add_argument("--split", type=float, nargs=2, default=(0.5, 0.5),
                   help="coordinate split weights (must sum to 1)")


@functools.cache    # parsing never mutates the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geodyn",
        description="Structure-preserving integrators for the (relativistic) Kepler problem",
    )
    parser.add_argument("--config", default=None,
                        help="key=value file providing default options")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="integrate a trajectory and emit CSV/SVG")
    p_run.add_argument("--method", required=True)
    p_run.add_argument("--model", choices=("kepler", "relativistic"), default="kepler")
    p_run.add_argument("--h", type=float, required=True)
    p_run.add_argument("--steps", type=int, required=True)
    p_run.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_run.add_argument("--output", "-o", default=None)
    _add_seed_options(p_run)

    p_conv = sub.add_parser("convergence", help="per-period drift sweep over step sizes")
    p_conv.add_argument("--methods", nargs="*", choices=METHOD_IDS, default=None)
    p_conv.add_argument("--metric", choices=("ecc", "angle", "both"), default="both")
    p_conv.add_argument("--levels", type=int, default=6,
                        help="number of halvings from h0 = 0.5")
    p_conv.add_argument("--output", "-o", default=None)
    _add_seed_options(p_conv)

    p_check = sub.add_parser("check", help="variational self-adjointness check")
    p_check.add_argument("system", help="builtin system name or expression file")

    p_mod = sub.add_parser("modified", help="modified-equation demos")
    p_mod.add_argument("--linear", action="store_true")
    p_mod.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_mod.add_argument("--h", type=float, default=0.1)
    p_mod.add_argument("--drift", default=None, metavar="METHOD")
    p_mod.add_argument("--metric", choices=("ecc", "angle"), default="ecc")
    _add_seed_options(p_mod)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config path`` or ``--config=path`` into leading options of the subcommand."""
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--config=") else [a])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    if not rest:
        raise UsageError("--config given without a command")
    extra: list[str] = []
    with open(path) as fh:    # an OSError is a usage error in main, like any bad path
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            extra.append(f"--{key.strip()}")
            extra.extend(value.split())
    return [rest[0]] + extra + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        return globals()[f"cmd_{args.command}"](args)    # the cmd_* bound now, not at build
    except (UsageError, UnknownMethodError, CircularOrbitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BrokenPipeError) else 2     # a closed reader is no bad usage
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 2
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GeodynError, MemoryError) as exc:     # numpy's MemoryError names the allocation
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
