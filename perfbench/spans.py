"""Traced run: spans around each layer's public functions, installed from outside the program.

Every module-global binding of a listed function inside the ``cvqkd``
package is replaced by a wrapper that records one span per call: name,
start, end, parent span, op id and process CPU time (rusage, all threads).
A listed function that no longer exists is reported as absent, not as an
error.

tracemalloc slows pure-Python loops such as the records CSV reader and
writer about sixfold, so it is off for timing. With ``memory`` set, it runs
only inside the spans of ``MEMORY`` functions, whose spans then also carry
the tracemalloc peak above the level at entry.

``rng.run_chunked`` gets no span (its time is the samplers' own time); its
wrapper records each call so that chunks can be counted and ``probe_draws``
can time just the four draw columns over the same chunks afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import resource
import sys
import time
import tracemalloc

import numpy as np

# layer (module of the cvqkd package) -> public functions that get a span
LAYERS = {
    "cli": ("main",),
    "scenario": ("load_scenario",),
    "physics": ("builtin_curve",),
    "protocol": ("run_honest_session", "variances_by_ratio", "estimate_two_point",
                 "estimate_covariance_transmittance"),
    "attack": ("run_attacked_session", "solve_attack_parameters"),
    "analysis": ("fit_noise_polynomial", "detect", "monitor_lo_intensity"),
    "serialize": ("write_records_csv", "read_records_csv", "write_report", "write_plan"),
}
TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
MEMORY = ("serialize.read_records_csv", "protocol.run_honest_session",
          "attack.run_attacked_session", "protocol.variances_by_ratio")
PACKAGE = "cvqkd"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _batch_len(value):
    """Slot count of a record batch, or None for anything else."""
    if hasattr(value, "bob_y") and hasattr(value, "__len__"):
        return len(value)
    return None


def _array_bytes(batch) -> int:
    return sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))


class Tracer:
    """Records spans while installed; ``op`` labels the spans of the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.chunk_calls: list[dict] = []
        self.absent: list[str] = []
        self.op = None
        self.memory = False
        self._stack: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []
        self._rng = None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for qualname in TRACED:
            fn = self._lookup(qualname)
            if fn is None:
                self.absent.append(qualname)
            else:
                self._rebind(fn, self._span_wrapper(qualname, fn))
        chunked = self._lookup("rng.run_chunked")
        if chunked is None:
            self.absent.append("rng.run_chunked")
        else:
            self._rng = sys.modules[f"{PACKAGE}.rng"]
            self._rebind(chunked, self._chunk_recorder(chunked))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @staticmethod
    def _lookup(qualname: str):
        mod_name, fn_name = qualname.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ModuleNotFoundError:
            return None
        fn = getattr(module, fn_name, None)
        return fn if callable(fn) else None

    def _rebind(self, original, wrapper) -> None:
        """Replace every module-global binding of ``original`` in the package."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    # -- spans ----------------------------------------------------------
    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        owner = False
        if tracemalloc.is_tracing():
            # fold the peak so far into the parent before this span resets it
            if parent is not None:
                parent["peak_b"] = max(parent["peak_b"], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        elif self.memory and name in MEMORY:
            tracemalloc.start()
            owner = True
        current = tracemalloc.get_traced_memory()[0] if tracemalloc.is_tracing() else 0
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": None if parent is None else parent["id"],
                "mem0_b": current, "peak_b": current, "owner": owner, "child_s": 0.0,
                "slots": None, "cpu0": _cpu_s(), "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu_s"] = _cpu_s() - span.pop("cpu0")
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        span["peak_mb"] = None
        if tracemalloc.is_tracing():
            peak = max(span["peak_b"], tracemalloc.get_traced_memory()[1])
            span["peak_mb"] = max(0, peak - span["mem0_b"]) / 2**20
            if span["owner"]:
                tracemalloc.stop()
            else:
                if parent is not None:
                    parent["peak_b"] = max(parent["peak_b"], peak)
                tracemalloc.reset_peak()
        for key in ("mem0_b", "peak_b", "owner"):
            del span[key]
        span["self_s"] = span["end"] - span["start"] - span.pop("child_s")
        if parent is not None:
            parent["child_s"] += span["end"] - span["start"]

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._annotate(span, signature, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _annotate(span, signature, args, kwargs, result) -> None:
        """Work counts of one call, taken after its span closed."""
        slots = _batch_len(result)
        if slots is not None:
            span["out_bytes"] = _array_bytes(result)
        else:
            slots = next((n for n in map(_batch_len, list(args) + list(kwargs.values()))
                          if n is not None), None)
        span["slots"] = slots
        if span["name"].split(".")[1].startswith("write_"):
            try:
                span["bytes"] = os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])
            except (KeyError, TypeError, OSError):
                pass

    # -- rng chunks and the draw probe ----------------------------------
    def _chunk_recorder(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            chunk = a.get("chunk_slots") or getattr(self._rng, "CHUNK_SLOTS", None)
            call = {"op": self.op, "chunks": None}
            if chunk and "n_slots" in a and "master_seed" in a:
                call.update(chunks=math.ceil(a["n_slots"] / chunk), n_slots=a["n_slots"],
                            seed=a["master_seed"], stream=a.get("stream", 0), chunk=chunk)
            self.chunk_calls.append(call)
            return fn(*args, **kwargs)

        return wrapper

    def probe_draws(self, op_prefix: str) -> float | None:
        """ns per slot to draw 2 uniform and 2 normal columns over the recorded chunks.

        Covers the ``run_chunked`` calls of ops whose label starts with
        ``op_prefix``. Generators come from the program's own
        ``rng.chunk_generator``; their construction is not timed. Returns None
        when there is nothing to probe or the generator factory no longer
        exists (then the metric is listed absent).
        """
        factory = getattr(self._rng, "chunk_generator", None)
        if factory is None:
            self.absent.append("rng.run_chunked.draw_ns_per_slot")
        calls = [c for c in self.chunk_calls
                 if c["chunks"] is not None and str(c["op"]).startswith(op_prefix)]
        if factory is None or not calls:
            return None
        elapsed, total = 0.0, 0
        for c in calls:
            for j, start in enumerate(range(0, c["n_slots"], c["chunk"])):
                m = min(c["chunk"], c["n_slots"] - start)
                gen = factory(c["seed"], c["stream"], j)
                t0 = time.perf_counter()
                gen.random(m)
                gen.random(m)
                gen.normal(0.0, 1.0, m)
                gen.normal(0.0, 1.0, m)
                elapsed += time.perf_counter() - t0
            total += c["n_slots"]
        return elapsed / total * 1e9
