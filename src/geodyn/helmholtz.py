"""Numerical self-adjointness checks for second-order systems d/dt(M xdot) = f.

A system is its force and its mass. Each checker evaluates the condition
families appropriate to the system's structure tag (general, velocity-dependent
mass with f = A(t,x) xdot + phi(t,x), or constant mass) over the deterministic
low-discrepancy ``sample_cloud``, using central finite differences of step
DEFAULT_DELTA for partials and on-shell jet shifts of step _TIME_DELTA for
total time derivatives. The velocity-mass checker reads the decomposition off
the force, phi = f(t,x,0) and A e_j = f(t,x,e_j) - phi, and raises ValueError
when f is not affine in xdot on the cloud. The general conditions are read off
the momentum p = M xdot and the force. The on-shell equation dp/dt + (dp/dx)
xdot + (dp/dv) xddot = f is linear in the acceleration, so one solve gives it;
a singular dp/dv raises GeodynError. A condition passes when its worst
residual is below PASS_TOLERANCE. Each stage of a check stacks every sample
and stencil point of the cloud into one batch, so the system's callables run
once per stage, on arrays (see SecondOrderSystem). A passing report certifies
that a Lagrangian exists; the Vainberg construction then reconstructs one by
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from geodyn.errors import ExpressionError, GeodynError, NonConvergenceError
from geodyn.expressions import parse_expression
from geodyn.kepler import grad_potential_arrays

PASS_TOLERANCE = 1e-4
DEFAULT_DELTA = 1e-5
_TIME_DELTA = 1e-4

STRUCTURES = ("general", "velocity-mass", "constant-mass")


@dataclass(frozen=True)
class SecondOrderSystem:
    """System d/dt(M(t,x,v) v) = f(t,x,v); ``mass`` None is the identity.

    The callables work on a batch of S samples: ``t`` has shape (S,) and
    ``x``, ``v`` have shape (S, n). ``force`` returns an array that
    broadcasts to (S, n), ``mass`` one that broadcasts to (S, n, n), so a
    value shared by all samples (a constant matrix, say) may be returned
    once. The structure tag states a premise the checker relies on:
    ``constant-mass`` a constant M, ``velocity-mass`` an M(v) and a force
    f = A(t,x) v + phi(t,x) affine in v.
    """
    name: str
    n: int
    structure: str
    force: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    mass: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    v_box: tuple[float, float] = (-1.0, 1.0)
    exclusion_radius: float = 0.0

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure tag {self.structure!r}")

    def mass_at(self, t, x, v) -> np.ndarray:
        """Mass matrices of a batch, shape (S, n, n); each must be symmetric."""
        shape = (len(x), self.n, self.n)
        if self.mass is None:
            return np.broadcast_to(np.eye(self.n), shape)
        m = np.broadcast_to(np.asarray(self.mass(t, x, v), dtype=float), shape)
        if np.any(np.abs(m - np.swapaxes(m, -1, -2)) >= 1e-12):
            raise GeodynError(f"{self.name}: mass matrix not symmetric at sample")
        return m


@dataclass(frozen=True)
class ConditionResult:
    condition: str
    description: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    system: str
    structure: str
    conditions: tuple[ConditionResult, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def residual(self, condition: str) -> float:
        for c in self.conditions:
            if c.condition == condition:
                return c.residual
        raise KeyError(condition)


# --- Sample cloud ---

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
_MAX_N = (len(_PRIMES) - 1) // 2     # one Halton base for t and each x_i and v_i


def _radical_inverse(index: int, base: int) -> float:
    result, frac = 0.0, 1.0 / base
    while index > 0:
        result += (index % base) * frac
        index //= base
        frac /= base
    return result


def sample_cloud(system: SecondOrderSystem, count: int = 64) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Deterministic Halton cloud of (t, x, v) samples, x in [-2, 2]^n, avoiding the singularity."""
    if system.n > _MAX_N:
        raise ValueError(f"sample cloud supports n <= {_MAX_N}")
    dims = 1 + 2 * system.n
    xl, xh = -2.0, 2.0
    vl, vh = system.v_box
    samples = []
    index = 20   # skip the correlated low-index prefix
    while len(samples) < count:
        index += 1
        if index > 20 + 100 * count:
            raise GeodynError("sampling-domain error: exclusion region rejects the whole box")
        u = [_radical_inverse(index, _PRIMES[d]) for d in range(dims)]
        t = u[0]
        x = [xl + (xh - xl) * u[1 + i] for i in range(system.n)]
        v = np.array([vl + (vh - vl) * u[1 + system.n + i] for i in range(system.n)])
        if math.sqrt(sum(c * c for c in x)) < system.exclusion_radius:
            continue
        samples.append((t, np.array(x), v))
    return samples


def _arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A list of (t, x, v) samples as arrays of shape (S,), (S, n) and (S, n)."""
    return tuple(np.array([s[k] for s in samples], dtype=float) for k in range(3))


# --- Finite-difference machinery ---

def _partials(fn, t, x, v, wrt: str, shape: tuple[int, ...]) -> np.ndarray:
    """Central differences of fn(t, x, v) over a batch, with one call of fn.

    ``wrt`` lists the variables, from "t", "x" and "v"; "x" and "v" stand for
    each of their n components. The +DEFAULT_DELTA and -DEFAULT_DELTA stencil
    points of every direction and sample are stacked along the sample axis,
    sample by sample, and fn's values are broadcast to (points,) + ``shape``.
    Returns shape (S, D) + ``shape``, the D directions in ``wrt`` order.
    """
    count, n = x.shape
    dirs = [(var, j) for var in wrt for j in (range(1) if var == "t" else range(n))]
    ts = np.empty((count, len(dirs), 2))
    xs = np.empty((count, len(dirs), 2, n))
    vs = np.empty((count, len(dirs), 2, n))
    ts[...] = t[:, None, None]
    xs[...] = x[:, None, None, :]
    vs[...] = v[:, None, None, :]
    for d, (var, j) in enumerate(dirs):
        moved = ts[:, d] if var == "t" else (xs if var == "x" else vs)[:, d, :, j]
        moved[:, 0] += DEFAULT_DELTA
        moved[:, 1] -= DEFAULT_DELTA
    points = ts.size
    out = np.broadcast_to(np.asarray(fn(ts.reshape(points), xs.reshape(points, n),
                                        vs.reshape(points, n)), dtype=float),
                          (points,) + shape).reshape((count, len(dirs), 2) + shape)
    return (out[:, :, 0] - out[:, :, 1]) / (2 * DEFAULT_DELTA)


def _contract(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k m[s, ..., k] v[s, k], added in ascending k like the scalar sums."""
    vk = v.reshape(v.shape[:1] + (1,) * (m.ndim - 2) + v.shape[1:])
    return sum(m[..., k] * vk[..., k] for k in range(v.shape[1]))


def _momentum(system: SecondOrderSystem):
    """p(t, x, v) = M v of a batch, shape (S, n)."""
    return lambda t, x, v: _contract(system.mass_at(t, x, v), v)


def _accelerations(system: SecondOrderSystem, t, x, v) -> np.ndarray:
    """On-shell accelerations of a batch: d/dt(M v) = f is linear in a, one solve per sample."""
    f = np.broadcast_to(np.asarray(system.force(t, x, v), dtype=float), x.shape)
    if system.mass is None:
        return f      # p = v: dp/dv is the identity, dp/dt and dp/dx vanish
    n = system.n
    # dp[s, i, d]: dp_i/dt for d = 0, dp_i/dx_j for d = 1 + j, dp_i/dv_j for d = 1 + n + j
    dp = _partials(_momentum(system), t, x, v, "txv", (n,)).swapaxes(1, 2)
    rhs = f - dp[:, :, 0] - _contract(dp[:, :, 1:n + 1], v)
    try:
        return np.linalg.solve(dp[:, :, n + 1:], rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise GeodynError(f"{system.name}: dp/dv = d(M v)/dv is singular, "
                          "so the acceleration is not determined") from None


def acceleration(system: SecondOrderSystem, t, x, v) -> np.ndarray:
    """On-shell acceleration at one sample: (dp/dv) a = f - dp/dt - (dp/dx) v with p = M v."""
    batch = (np.array([t], dtype=float), np.asarray(x, dtype=float)[None],
             np.asarray(v, dtype=float)[None])
    return np.array(_accelerations(system, *batch)[0])


def _total_derivatives(system: SecondOrderSystem, g, t, x, v):
    """On-shell d/dt of each array g returns: central differences along the jet shift.

    g gets the 2S shifted points of the batch, the S forward ones first.
    """
    sigma = _TIME_DELTA
    a = _accelerations(system, t, x, v)
    shifted = (np.concatenate([t + sigma, t - sigma]),
               np.concatenate([x + sigma * v + 0.5 * sigma**2 * a,
                               x - sigma * v + 0.5 * sigma**2 * a]),
               np.concatenate([v + sigma * a, v - sigma * a]))
    count = len(t)
    return [(g2[:count] - g2[count:]) / (2 * sigma) for g2 in g(*shifted)]


# --- Condition checkers ---

def _report(system, names_residuals) -> CheckReport:
    conditions = tuple(
        ConditionResult(cond, desc, res, res < PASS_TOLERANCE)
        for cond, desc, res in names_residuals
    )
    return CheckReport(system.name, system.structure, conditions)


def _worst(residuals: np.ndarray) -> float:
    return float(np.max(np.abs(residuals)))


def check_constant_mass(system: SecondOrderSystem) -> CheckReport:
    """Conditions for constant symmetric mass: force partial symmetries only."""
    if system.structure != "constant-mass":
        raise ValueError("check_constant_mass needs a constant-mass system")
    t, x, v = _arrays(sample_cloud(system))
    n = system.n
    # df[s, i, d]: df_i/dv_j for d = j < n, df_i/dx_j for d = n + j
    df = _partials(system.force, t, x, v, "vx", (n,)).swapaxes(1, 2)
    dfv, dfx = df[:, :, :n], df[:, :, n:]
    (ddt,) = _total_derivatives(
        system,
        lambda tt, xx, vv: [
            _partials(system.force, tt, xx, vv, "v", (n,)).swapaxes(1, 2)],
        t, x, v)
    return _report(system, [
        ("a", "df_i/dv_j + df_j/dv_i = 0", _worst(dfv + dfv.swapaxes(1, 2))),
        ("b", "df_i/dx_j - df_j/dx_i - d/dt df_i/dv_j = 0",
         _worst(dfx - dfx.swapaxes(1, 2) - ddt)),
    ])


def check_velocity_mass(system: SecondOrderSystem) -> CheckReport:
    """Conditions for M = M(v), f = A(t,x) v + phi(t,x), with A and phi read off f."""
    if system.structure != "velocity-mass":
        raise ValueError("check_velocity_mass needs a velocity-mass system")
    t, x, v = _arrays(sample_cloud(system))
    n = system.n
    basis = np.concatenate([np.zeros((1, n)), np.eye(n)])

    def parts(tt, xx, vv):
        # rows phi = f(t, x, 0) and A e_j = f(t, x, e_j) - phi of a batch, shape (S, 1 + n, n)
        f = system.force(np.repeat(tt, n + 1), np.repeat(xx, n + 1, axis=0),
                         np.tile(basis, (len(tt), 1)))
        f = np.broadcast_to(np.asarray(f, dtype=float), (len(tt) * (n + 1), n)).reshape(-1, n + 1, n)
        return np.concatenate([f[:, :1], f[:, 1:] - f[:, :1]], axis=1)

    g, dg = parts(t, x, v), _partials(parts, t, x, v, "tx", (n + 1, n))
    # am[s, i, j] = A_ij; da[s, d, i, j] = dA_ij/dt for d = 0, dA_ij/dx_k for d = 1 + k
    phi, am, da = g[:, 0], g[:, 1:].swapaxes(1, 2), dg[:, :, 1:].swapaxes(2, 3)
    off = _worst(np.asarray(system.force(t, x, v), dtype=float) - _contract(am, v) - phi)
    if off >= PASS_TOLERANCE:
        raise ValueError(f"{system.name}: the force is not affine in v (max|f - A v - phi| = "
                         f"{off:.6e} on the sample cloud), so the velocity-mass check does not apply")
    # sym[s, j, i] = sum_k dM_ik/dv_j v_k
    sym = _contract(_partials(system.mass_at, t, x, v, "v", (n, n)), v)
    # dax[s, i, j, k] = dA_jk/dx_i; the cyclic sum is dA_jk/dx_i + dA_ki/dx_j + dA_ij/dx_k
    da_t, dax = da[:, 0], da[:, 1:]
    cyc = dax + dax.transpose(0, 3, 1, 2) + dax.transpose(0, 2, 3, 1)
    dphi = dg[:, 1:, 0].swapaxes(1, 2)    # dphi[s, i, j] = dphi_i/dx_j
    return _report(system, [
        ("a", "velocity-mass contraction symmetric", _worst(sym - sym.swapaxes(1, 2))),
        ("b", "A skew-symmetric", _worst(am + am.swapaxes(1, 2))),
        ("c", "cyclic closedness of A", _worst(cyc)),
        ("d", "curl(phi) = dA/dt", _worst(dphi - dphi.swapaxes(1, 2) - da_t)),
    ])


def check_general(system: SecondOrderSystem) -> CheckReport:
    """Full condition families for M = M(t, x, v) without structural shortcuts."""
    t, x, v = _arrays(sample_cloud(system))
    n = system.n
    momentum = _momentum(system)
    # dp[s, i, d]: dp_i/dv_j for d = j < n, dp_i/dx_j for d = n + j; df likewise
    dp = _partials(momentum, t, x, v, "vx", (n,)).swapaxes(1, 2)
    dpv, dpx = dp[:, :, :n], dp[:, :, n:]
    df = _partials(system.force, t, x, v, "vx", (n,)).swapaxes(1, 2)
    dfv, dfx = df[:, :, :n], df[:, :, n:]
    # ddt_p[s, j, i] = d/dt dp_i/dx_j, ddt_f[s, i, j] = d/dt df_j/dv_i
    ddt_p, ddt_f = _total_derivatives(
        system,
        lambda tt, xx, vv: [_partials(momentum, tt, xx, vv, "x", (n,)),
                            _partials(system.force, tt, xx, vv, "v", (n,))],
        t, x, v)
    term_c = ddt_p.swapaxes(1, 2) - dfx + dfx.swapaxes(1, 2) - ddt_f
    return _report(system, [
        ("a", "velocity-mass contraction antisymmetry", _worst(dpv - dpv.swapaxes(1, 2))),
        ("b", "mass/force cross symmetry",
         _worst(dpx + dpx.swapaxes(1, 2) - dfv - dfv.swapaxes(1, 2))),
        ("c", "curl consistency with total derivatives", _worst(term_c)),
    ])


def check(system: SecondOrderSystem) -> CheckReport:
    """Dispatch to the checker matching the system's structure tag.

    Each stage of a check evaluates the system's callables once, over every
    sample and stencil point of the cloud together (see SecondOrderSystem).
    """
    if system.structure == "constant-mass":
        return check_constant_mass(system)
    if system.structure == "velocity-mass":
        return check_velocity_mass(system)
    return check_general(system)


# --- Vainberg reconstruction ---

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GAUSS_NODES = 0.5 * (_GAUSS_NODES + 1.0)      # map to [0, 1]
_GAUSS_WEIGHTS = 0.5 * _GAUSS_WEIGHTS


def vainberg_lagrangian(nfield, t: float, x: np.ndarray, v: np.ndarray,
                        a: np.ndarray) -> float:
    """L = integral_0^1 x . N(t, s x, s v, s a) ds by 16-node Gauss-Legendre.

    ``nfield(t, x, v, a)`` is the residual operator of the system N[x] = 0.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    total = 0.0
    for s, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        nf = np.asarray(nfield(t, s * x, s * v, s * a), dtype=float).tolist()
        val = sum(c * f for c, f in zip(x.tolist(), nf, strict=True))
        if not math.isfinite(val):
            raise NonConvergenceError("Vainberg quadrature hit a non-finite integrand")
        total += w * val
    return total


# --- Built-in systems ---

def _kepler_force(t, x, v):
    g1, g2, _, _ = grad_potential_arrays(x[..., 0], x[..., 1])
    return -np.stack((g1, g2), axis=-1)


def _lorentz_gamma(v):
    return 1.0 / np.sqrt(1.0 - sum(c * c for c in np.moveaxis(v, -1, 0)))


def builtin_systems() -> dict[str, SecondOrderSystem]:
    """kepler, damped, magnetic, relativistic test systems."""
    kepler = SecondOrderSystem(
        name="kepler", n=2, structure="constant-mass",
        force=_kepler_force, exclusion_radius=0.5,
    )
    damped = SecondOrderSystem(
        name="damped", n=1, structure="constant-mass",
        force=lambda t, x, v: -x - v,
    )
    magnetic = SecondOrderSystem(
        name="magnetic", n=2, structure="velocity-mass",
        force=lambda t, x, v: np.stack((v[..., 1] - x[..., 0], -v[..., 0] - x[..., 1]), axis=-1),
    )
    relativistic = SecondOrderSystem(
        name="relativistic", n=2, structure="velocity-mass",
        force=_kepler_force,
        mass=lambda t, x, v: _lorentz_gamma(v)[..., None, None] * np.eye(2),
        v_box=(-0.45, 0.45),
        exclusion_radius=0.5,
    )
    return {s.name: s for s in (kepler, damped, magnetic, relativistic)}


# --- Expression-file systems ---

def load_system_file(path: str) -> SecondOrderSystem:
    """Load a user system from a key=value file of arithmetic expressions.

    Recognized keys: ``n`` (at most 4), ``structure``, ``v_box`` (``lo hi``,
    the velocity sample box), ``f1..fN`` and ``m<ij>``; a velocity-mass file
    with no ``f`` entries writes its force f = A(t,x) v + phi(t,x) with
    ``phi1..phiN`` and ``a<ij>`` instead. Any other key raises ExpressionError
    at its line, and so does a ``v_box`` that is not two finite numbers
    lo < hi, an ``a`` or ``phi`` entry that uses a v, and an ``m`` entry that
    breaks the structure tag: a constant-mass one that uses a variable, a
    velocity-mass one that uses t or x. Missing ``m`` entries are those of the
    identity, missing ``a`` entries zero.
    """
    raw: dict[str, tuple[str, int]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ExpressionError("expected key = expression", lineno, 1)
            key, _, rhs = stripped.partition("=")
            key = key.strip()
            if key in raw:
                raise ExpressionError(f"repeated key {key!r}, first set on line {raw[key][1]}",
                                      lineno, 1)
            raw[key] = (rhs.strip(), lineno)
    if "n" not in raw:
        raise ExpressionError("missing dimension entry 'n'")
    text, lineno = raw.pop("n")
    try:
        n = float(text)
    except ValueError:
        n = math.nan
    if not (n >= 1 and n.is_integer()):
        raise ExpressionError(f"dimension n must be a positive integer, got {text!r}", lineno, 1)
    if n > _MAX_N:
        raise ExpressionError(f"dimension n = {text} exceeds {_MAX_N}, the largest the "
                              "sample cloud supports", lineno, 1)
    n = int(n)
    structure, lineno = raw.pop("structure", ("constant-mass", 0))
    if structure not in STRUCTURES:
        raise ExpressionError(f"unknown structure tag {structure!r}", lineno, 1)
    v_box = SecondOrderSystem.v_box
    if "v_box" in raw:
        text, lineno = raw.pop("v_box")
        try:
            v_box = tuple(map(float, text.split()))
        except ValueError:
            v_box = ()
        if len(v_box) != 2 or not -math.inf < v_box[0] < v_box[1] < math.inf:
            raise ExpressionError(f"v_box must be two finite numbers lo < hi, got {text!r}", lineno, 1)
    index = range(1, n + 1)
    # a velocity-mass file with no f entries writes its force f = A v + phi
    velocity_form = structure == "velocity-mass" and not any(f"f{i}" in raw for i in index)
    forces = "phi" if velocity_form else "f"
    known = {f"{forces}{i}" for i in index} | {f"m{i}{j}" for i in index for j in index}
    if velocity_form:
        known |= {f"a{i}{j}" for i in index for j in index}
    # the variables a mass entry may use: none for a constant mass, v for M(v)
    free = {"constant-mass": set(), "velocity-mass": {f"v{i}" for i in index}}.get(structure)
    tx = {"t"} | {f"x{i}" for i in index}       # those of A(t,x) and phi(t,x)
    exprs = {}
    for key, (text, lineno) in raw.items():
        if key not in known:
            raise ExpressionError(f"unknown key {key!r} for n = {n}", lineno, 1)
        exprs[key] = parse_expression(text, lineno)
        if key[0] == "m" and free is not None and (used := exprs[key].variables() - free):
            raise ExpressionError(f"mass entry {key!r} uses {min(used)!r}, which a {structure} "
                                  "system's mass may not depend on", lineno, 1)
        if velocity_form and key[0] != "m" and (used := exprs[key].variables() - tx):
            raise ExpressionError(f"entry {key!r} uses {min(used)!r}, but A and phi of "
                                  "f = A(t,x) v + phi(t,x) may depend on t and x only", lineno, 1)
    if any(f"{forces}{i}" not in exprs for i in index):
        raise ExpressionError(f"missing force entries {forces}1..{forces}{n}")

    def table(prefix, default):
        # entries <prefix><i>[<j>] over a batch, shape (S,) + default.shape; missing ones keep default
        keys = {ij: prefix + "".join(str(i + 1) for i in ij) for ij in np.ndindex(default.shape)}
        if not any(key in exprs for key in keys.values()):
            return None

        def at(t, x, v):
            e = {"t": t} | {f"{p}{i + 1}": z[:, i] for p, z in (("x", x), ("v", v)) for i in range(n)}
            out = np.repeat(default[None], len(x), axis=0)
            for ij, key in keys.items():
                if key in exprs:
                    out[(slice(None),) + ij] = exprs[key](e)
            return out
        return at

    force, amat = table(forces, np.zeros(n)), table("a", np.zeros((n, n)))
    if amat is not None:
        phi = force
        force = lambda t, x, v: _contract(amat(t, x, v), v) + phi(t, x, v)
    return SecondOrderSystem(name=path, n=n, structure=structure, force=force,
                             mass=table("m", np.eye(n)), v_box=v_box)
