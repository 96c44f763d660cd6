"""Outside-in span tracing of geodyn's public functions.

Each traced function is replaced by a wrapper in every geodyn module that
binds it, so calls one layer makes into another are recorded too. A span is
(name, start, end, parent); spans live in per-thread buffers and are folded
into per-name call counts and self times after each pass. Self time is a
span's duration minus the time its child spans cover in the same thread, so
spans opened in pool threads are roots and the caller waiting on the pool
keeps that wait as self time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array

import numpy as np

# module -> traced public functions
TRACED = {
    "kepler": ("grad_potential", "potential", "analytic_reference", "solve_kepler_equation",
               "orbit_elements", "conserved", "euler_lagrange_on_orbit", "perturbation_average"),
    "integrators": ("run", "step_sym_euler", "step_sv_one_step", "step_vi1", "step_vi2",
                    "substep_flow", "substep_flow_adjoint"),
    "relativistic": ("run_relativistic", "step_k1", "step_k2", "flow_ht", "flow_hi"),
    "modified": ("per_period_drift", "predicted_drift", "shadowing_error",
                 "linear_measured_frequency"),
    "helmholtz": ("check", "acceleration", "load_system_file"),
    "expressions": ("parse_expression",),
    "cli": ("cmd_run", "cmd_convergence", "cmd_check", "cmd_modified"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class _SpanBuffer:
    """Spans of one thread, in start order; ``parent`` indexes this buffer."""

    def __init__(self):
        self.thread = threading.current_thread()
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def clear(self):
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]


class Tracer:
    """Installs span-recording wrappers and folds spans into per-name totals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_SpanBuffer] = []
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _SpanBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _SpanBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = get_buffer()
            idx = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()

        return traced

    def install(self) -> None:
        """Replace every geodyn binding of each traced function by its wrapper."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "geodyn" or name.startswith("geodyn."))]
        for name_id, span in enumerate(SPAN_NAMES):
            mod_name, fn_name = span.split(".")
            original = getattr(sys.modules[f"geodyn.{mod_name}"], fn_name)
            wrapper = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-name call counts and self seconds of the recorded spans, which are dropped."""
        k = len(SPAN_NAMES)
        calls = np.zeros(k, dtype=np.int64)
        self_s = np.zeros(k)
        with self._lock:
            buffers = list(self._buffers)
            self._buffers = [b for b in buffers if b.thread.is_alive()]
        for buf in buffers:
            if buf.stack:
                raise RuntimeError("fold() called with open spans")
            n = len(buf.start)
            if n == 0:
                continue
            names = np.frombuffer(buf.name, dtype=np.int32)
            parents = np.frombuffer(buf.parent, dtype=np.int64)
            dur = np.frombuffer(buf.end) - np.frombuffer(buf.start)
            child = parents >= 0
            covered = np.bincount(parents[child], weights=dur[child], minlength=n)
            calls += np.bincount(names, minlength=k)
            self_s += np.bincount(names, weights=dur - covered, minlength=k)
            del names, parents, dur
            buf.clear()
        return calls, self_s
