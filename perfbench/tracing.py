"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each timed public function, in every module
namespace of the package that holds it, with a wrapper that records a span
around the call; ``uninstall`` puts the originals back. Nothing under
``src/`` changes, and untraced runs never see a wrapper.

Spans are aggregated as they close: calls and self time (the span's duration
minus the part its child spans cover) per function. Pool workers are forked
with the wrappers in place; there they only count calls and samples, into
shared memory, so a parallel sweep's per-trial work shows as calls plus the
parent's ``sim.pool_wait`` span, which runs from pool creation to shutdown.
"""
from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
from collections import Counter

LAYERS = {
    "core": ("substream", "generator", "draw_channels"),
    "waveform": ("gen_source_symbol", "tag_input", "tag_gate", "synth_reader_rx"),
    "reader": ("cancel_interference", "fold", "dft", "energy_statistics"),
    "detector": ("compute_scales", "threshold_for", "analytic_ber", "detect"),
    "sim": ("run_trial", "estimate_ber", "sweep"),
    "cli": ("parse_config", "run"),
}
FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
POOL_SPAN = "sim.pool_wait"


class Tracer:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self._samples = 0         # complex samples in frames returned by waveform
        self.pools = 0
        self._stack: list[int] = []   # child time of each open span, innermost last
        self._pid = os.getpid()
        # Per-function call counts from forked workers, then their sample count.
        self._worker_counts = multiprocessing.RawArray(ctypes.c_longlong, len(FUNCTIONS) + 1)
        self._worker_lock = multiprocessing.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _open(self) -> int:
        self._stack.append(0)
        return time.perf_counter_ns()

    def _close(self, name: str, t0: int) -> None:
        dt = time.perf_counter_ns() - t0
        self.self_ns[name] += dt - self._stack.pop()
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += dt

    def _wrap(self, name: str, fn):
        slot = FUNCTIONS.index(name)
        counts_samples = name.startswith("waveform.")
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                result = fn(*args, **kwargs)
                with tracer._worker_lock:
                    tracer._worker_counts[slot] += 1
                    if counts_samples and hasattr(result, "samples"):
                        tracer._worker_counts[-1] += len(result.samples)
                return result
            t0 = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)
            if counts_samples and hasattr(result, "samples"):
                tracer._samples += len(result.samples)
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pools += 1
                self._span_t0 = tracer._open()
                try:
                    super().__init__(*args, **kwargs)
                except BaseException:
                    tracer._close(POOL_SPAN, self._span_t0)
                    raise

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span_t0 is not None:
                        tracer._close(POOL_SPAN, self._span_t0)
                        self._span_t0 = None

        return TracedPool

    # -- patching ------------------------------------------------------------
    def install(self, bs) -> None:
        modules = {layer: getattr(bs, layer) for layer in LAYERS}
        originals = {getattr(modules[layer], fn): f"{layer}.{fn}"
                     for layer, fns in LAYERS.items() for fn in fns}
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        pool = getattr(bs.sim, "ProcessPoolExecutor", None)
        if pool is not None:
            self._patch(bs.sim, "ProcessPoolExecutor", self._pool_class(pool))

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    # -- results -------------------------------------------------------------
    def total_calls(self, name: str) -> int:
        return self.calls[name] + self._worker_counts[FUNCTIONS.index(name)]

    def samples(self) -> int:
        return self._samples + self._worker_counts[-1]

    def accounted_ns(self) -> int:
        return sum(self.self_ns.values())
