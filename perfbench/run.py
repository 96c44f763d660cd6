#!/usr/bin/env python3
"""geodyn benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports geodyn from ./src.
One caller runs passes back to back (a closed loop); the only other threads
are the ones geodyn's own pools start. Inputs come from --seed alone. Every
pass's outputs are checked outside the timed region, and every pass must
reproduce the first pass's outputs bit for bit.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics: untraced passes for the first
half of the time, then passes with span wrappers installed on geodyn's
public functions. A JSON line before it records the environment and inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 5      # fresh processes timed for setup_s; the median is reported
CAL_REF_S = 0.040      # calibrate() at the reference speed: a 2-vCPU Xeon VM, Python 3.11
WARMUP_SCALE = 0.05    # warm-up pass size: every code path runs, at a fraction of the work
MIN_PASSES = 11        # so that at least ten passes lie beyond the tail percentile
MAX_WALL_S = 120.0     # stop adding passes after this long, whatever --seconds says


def _clock() -> float:
    """CLOCK_MONOTONIC is system-wide, so readings from parent and child compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds for a fixed loop of 2-vector numpy steps, the kind of work geodyn does.

    Shared hosts change this machine's speed by up to 1.7x within minutes.
    Every time the benchmark reports is scaled by CAL_REF_S / calibrate(),
    measured on both sides of the timed interval, so it reads in seconds at
    the reference speed and a change in host load cancels out.
    """
    x = np.array([0.3, -1.2])
    v = np.array([0.1, 0.5])
    t0 = time.perf_counter()
    for _ in range(5000):
        r = float(np.linalg.norm(x))
        v = v - 0.001 * (x / r**3)
        x = x + 0.001 * v
    return time.perf_counter() - t0


def _import_program():
    """Import geodyn from this checkout's src/, and nowhere else."""
    if not (SRC / "geodyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no geodyn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import geodyn
    if Path(geodyn.__file__).resolve().parent != (SRC / "geodyn").resolve():
        sys.exit(f"perfbench: imported geodyn from {geodyn.__file__}, not {SRC}")
    import tracing
    import workloads
    return workloads, tracing


def _setup(workloads, name: str, seed: int):
    """Inputs from the seed, then one reduced pass so every code path has run once."""
    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    wl = workloads.WORKLOADS[name]
    inp = wl.make_input(seed, str(workdir))
    wl.run_pass(inp, WARMUP_SCALE)
    return wl, inp, workdir


def _cleanup(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:
        pass     # another run still uses it, or it is gone


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from process start to ready-for-the-first-pass, in fresh processes.

    Each is scaled by the speed calibrated three times before and three times
    after it, while the probe process is not running.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        cals = [calibrate() for _ in range(3)]
        t0 = _clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        ready = float(proc.stdout.split()[-1])
        cals += [calibrate() for _ in range(3)]
        times.append((ready - t0) * CAL_REF_S / statistics.mean(cals))
    return times


class Tally:
    """Operations attempted and failed, and the reference outputs to reproduce."""

    def __init__(self, workloads, wl, inp):
        self.workloads, self.wl, self.inp = workloads, wl, inp
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.failures: list[str] = []

    def record(self, res, label: str) -> None:
        bad = {c.op: c.detail for c in self.wl.check(self.inp, res) if not c.ok}
        digests = {op.name: self.workloads.digest(op.output) for op in res.ops}
        if self.reference is None:
            self.reference = digests
        for op in res.ops:
            if op.name not in bad and digests[op.name] != self.reference[op.name]:
                bad[op.name] = f"output differs from the first pass ({label})"
        self.attempted += len(res.ops)
        self.failed += len(bad)
        for op_name, detail in bad.items():
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {op_name}: {detail}")


def timed_passes(wl, inp, seconds: float, min_passes: int, after_pass) -> list[float]:
    """Pass times, each scaled by the speed factor calibrated on both sides of it.

    ``after_pass(result, factor)`` runs outside the timed region.
    """
    times = []
    start = time.perf_counter()
    cal = calibrate()
    while True:
        t0 = time.perf_counter()
        res = wl.run_pass(inp)
        seconds_raw = time.perf_counter() - t0
        cal_next = calibrate()
        factor = CAL_REF_S / (0.5 * (cal + cal_next))
        cal = cal_next
        times.append(seconds_raw * factor)
        after_pass(res, factor)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(times) >= min_passes) or elapsed >= MAX_WALL_S:
            return times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten passes beyond it: (value, percentile)."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "geodyn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, inp) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "GEODYN_WORKERS": os.environ.get("GEODYN_WORKERS", f"unset (pool size {os.cpu_count()})"),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "inputs": inp.params,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workloads) -> tuple[dict, dict]:
    setup_times = measure_setup(args.workload, args.seed)
    wl, inp, workdir = _setup(workloads, args.workload, args.seed)
    try:
        tally = Tally(workloads, wl, inp)
        factors: list[float] = []

        def after_pass(res, factor):
            factors.append(factor)
            tally.record(res, "pass")

        times = timed_passes(wl, inp, args.seconds, MIN_PASSES, after_pass)
    finally:
        _cleanup(workdir)
    pass_s = statistics.median(times)
    tail_s, pct = tail(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "pass_s": _metric(pass_s, "s"),
        "pass_tail_s": _metric(tail_s, "s"),
        "steps_per_s": _metric(inp.steps_per_pass / pass_s, "1/s"),
        "peak_rss_mib": _metric(rss_mib, "MiB"),
        "ok_frac": _metric((tally.attempted - tally.failed) / tally.attempted, "frac"),
    }
    info = {"passes": len(times), "tail_percentile": pct, "setup_samples_s": setup_times,
            "steps_per_pass": inp.steps_per_pass,
            "wall_pass_s": statistics.median(t / f for t, f in zip(times, factors)),
            "speed_factor": statistics.median(factors)}
    return metrics, {"tally": tally, "info": info, "correct": tally.failed == 0}


def per_layer(args, workloads, tracing) -> tuple[dict, dict]:
    wl, inp, workdir = _setup(workloads, args.workload, args.seed)
    tracer = tracing.Tracer()
    tally = Tally(workloads, wl, inp)
    op_seconds: dict[str, list[float]] = {}
    bytes_out: list[int] = []
    call_counts: list[list[int]] = []
    calls_total = np.zeros(len(tracing.SPAN_NAMES))
    self_total = np.zeros(len(tracing.SPAN_NAMES))

    def untraced(res, factor):
        for op in res.ops:
            op_seconds.setdefault(op.name, []).append(op.seconds * factor)
        if args.workload == "cli_mix":
            bytes_out.append(workloads.cli_bytes_out(res))
        tally.record(res, "untraced pass")

    def traced(res, factor):
        calls, self_s = tracer.fold()
        call_counts.append(calls.tolist())
        calls_total[:] += calls
        self_total[:] += self_s * factor
        tally.record(res, "traced pass")

    try:
        half = 0.5 * args.seconds
        plain = timed_passes(wl, inp, half, 3, untraced)
        tracer.install()
        try:
            spans = timed_passes(wl, inp, half, 2, traced)
        finally:
            tracer.uninstall()
    finally:
        _cleanup(workdir)

    counts_repeat = all(c == call_counts[0] for c in call_counts)
    n = len(spans)
    metrics = {}
    for i, name in enumerate(tracing.SPAN_NAMES):
        metrics[f"{name}.calls"] = _metric(float(calls_total[i]) / n, "count")
        metrics[f"{name}.self_s"] = _metric(float(self_total[i]) / n, "s")
    for method in workloads.KEPLER_METHODS + workloads.REL_METHODS:
        layer = "integrators" if method in workloads.KEPLER_METHODS else "relativistic"
        us = 0.0     # only the orbits workload calls the step drivers directly
        if args.workload == "orbits":
            steps = inp.steps if layer == "integrators" else inp.rel_steps
            us = statistics.median(op_seconds[method]) / steps * 1e6
        metrics[f"{layer}.us_per_step.{method}"] = _metric(us, "us")
    metrics["cli.cmd_run.bytes_out"] = _metric(
        float(statistics.median(bytes_out)) if bytes_out else 0.0, "bytes")
    metrics["trace.overhead"] = _metric(statistics.median(spans) / statistics.median(plain), "ratio")
    info = {"untraced_passes": len(plain), "traced_passes": n, "calls_repeat": counts_repeat}
    return metrics, {"tally": tally, "info": info,
                     "correct": tally.failed == 0 and counts_repeat}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("orbits", "cli_mix", "analysis"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock and exit (used for setup_s)")
    args = parser.parse_args(argv)

    workloads, tracing = _import_program()
    if args.setup_probe:
        _, _, workdir = _setup(workloads, args.workload, args.seed)
        ready = _clock()
        _cleanup(workdir)
        print(repr(ready))
        return 0

    if args.trace:
        metrics, run = per_layer(args, workloads, tracing)
    else:
        metrics, run = end_to_end(args, workloads)
    tally = run["tally"]
    record = {"environment": environment(args, tally.inp), "run": run["info"],
              "failures": tally.failures}
    print(json.dumps(record))
    print(json.dumps({"correct": run["correct"], "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
