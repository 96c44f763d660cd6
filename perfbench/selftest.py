#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks and of its tracing.

    python3 perfbench/selftest.py [--seed N]

1. On one pass of each workload, every check passes on the genuine outputs
   and at least one check of the expected operation fails on each corrupted
   copy: a dropped CSV row, a sign-flipped drift, an inflated energy error,
   and the others listed in CORRUPTIONS.
2. Two traced runs with the same seed report exactly equal ``.calls``
   metrics, and both find their traced outputs bitwise equal to the
   untraced ones.

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import ROOT, TMP, _import_program  # noqa: E402

workloads, _ = _import_program()


def _inflate_energy(bound: float):
    """Scale the energy error so its peak is twice the check's bound."""
    def corrupt(rec):
        err = rec.H - rec.H[0]
        return dataclasses.replace(rec, H=rec.H[0] + err * (2.0 * bound / np.max(np.abs(err))))
    return corrupt


def _drift_energy(rec):
    """Add a steady energy drift as large as the existing error."""
    err = rec.H - rec.H[0]
    return dataclasses.replace(rec, H=rec.H + np.linspace(0.0, 2.0, err.size) * np.max(np.abs(err)))


def _drop_csv_row(out):
    code, stdout, stderr, data = out
    lines = data.split(b"\n")
    return code, stdout, stderr, b"\n".join(lines[:500] + lines[501:])


def _exit_code(code):
    return lambda out: (code,) + tuple(out[1:])


def _replace_stdout(old, new):
    def corrupt(out):
        text = out[1]
        if old not in text:
            raise AssertionError(f"{old!r} not in the output")
        return out[0], text.replace(old, new), out[2], out[3]
    return corrupt


def _bad_slope(out):
    lines = out[3].decode().split("\n")
    lines = [ln.replace(" ecc=", " ecc=2.000 was=") if ln.startswith("# slopes sv:") else ln
             for ln in lines]
    return out[0], out[1], out[2], "\n".join(lines).encode()


def _measured_frequency(out):
    lines = out[1].splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("measured frequency"):
            value = float(line.rsplit(":", 1)[1])
            lines[i] = f"measured frequency  : {value * (1 + 1e-5)!r}\n"
    return out[0], "".join(lines), out[2], out[3]


# (workload, operation, corruption of that operation's output, description)
CORRUPTIONS = [
    ("orbits", "sv", _inflate_energy(workloads.MAX_DH["sv"]), "inflated sv energy error"),
    ("orbits", "vi1", _inflate_energy(workloads.MAX_DH["vi1"]), "inflated vi1 energy error"),
    ("orbits", "k2", _inflate_energy(workloads.MAX_REL_DH["k2"]), "inflated k2 energy error"),
    ("orbits", "sym-euler", _drift_energy, "secular sym-euler energy drift"),
    ("orbits", "sv", lambda r: dataclasses.replace(r, m=r.m + 1e-10 * np.arange(r.m.size)),
     "sv angular momentum drift"),
    ("cli_mix", "run_sv", _drop_csv_row, "dropped CSV row"),
    ("cli_mix", "check_damped", _exit_code(0), "damped check exits 0"),
    ("cli_mix", "check_poly", _replace_stdout("\nPASS\n", "\nFAIL\n"), "variational system fails"),
    ("cli_mix", "convergence", _bad_slope, "sv ecc slope off its window"),
    ("cli_mix", "modified_linear", _measured_frequency, "measured frequency off by 1e-5"),
    ("analysis", "drift_sv", lambda d: (d[0], -d[1]), "sign-flipped sv angle drift"),
    ("analysis", "drift_vi1", lambda d: (d[0], 1e-6), "vi1 leading term not zero"),
    ("analysis", "shadowing", lambda r: 2.0 * r, "shadowing ratio halved"),
]


def check_corruptions(seed: int) -> bool:
    ok = True
    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as workdir:
        for name, wl in workloads.WORKLOADS.items():
            inp = wl.make_input(seed, workdir)
            res = wl.run_pass(inp)
            bad = [f"{c.op}: {c.detail}" for c in wl.check(inp, res) if not c.ok]
            print(f"{'ok ' if not bad else 'FAIL'} {name}: genuine pass passes every check {bad}")
            ok = ok and not bad
            for wname, op_name, corrupt, what in CORRUPTIONS:
                if wname != name:
                    continue
                broken = copy.deepcopy(res)
                op = broken.op(op_name)
                op.output = corrupt(op.output)
                caught = any(c.op == op_name and not c.ok for c in wl.check(inp, broken))
                print(f"{'ok ' if caught else 'FAIL'} {name}: {what} is caught")
                ok = ok and caught
    try:
        TMP.rmdir()
    except OSError:
        pass
    return ok


def check_tracing(seed: int) -> bool:
    ok = True
    for name in workloads.WORKLOADS:
        calls = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            calls.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
            if not result["correct"]:
                print(f"FAIL {name}: traced run not correct: {proc.stdout.splitlines()[-2]}")
        same = calls[0] == calls[1] and any(calls[0].values())
        print(f"{'ok ' if same else 'FAIL'} {name}: two traced runs give equal .calls "
              f"({sum(calls[0].values()):.0f} calls per pass)")
        ok = ok and same
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = check_corruptions(args.seed)
    ok = check_tracing(args.seed) and ok
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
