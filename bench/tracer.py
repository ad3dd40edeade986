"""Spans and counts around lpdens's public functions, from outside the package.

``Tracer.install()`` replaces each traced function in every ``lpdens.*``
namespace that binds it (the modules import each other's functions by
name) with one wrapper that records a span: name, start, end, parent span
and the exception raised, if any. ``uninstall()`` puts the originals back.
A few wrappers also record work counts at the same boundary. Spans stay in
memory; ``layer_stats`` reduces them when a pass ends.

Spans opened by ``run_design``'s worker threads take the innermost open
span of the installing thread as their parent, since that call spawned
them.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from collections import defaultdict

#: module -> public functions traced, one layer per module
LAYERS = {
    "sample": ("load_csv", "load_sample", "split_at_cutoff", "edf_values"),
    "lpfit": ("fit_local",),
    "variance": ("gamma_hat", "standard_error", "difference_se"),
    "bandwidth": ("preliminary_bandwidth", "estimate_bias_constants",
                  "variance_constant", "mse_bandwidth"),
    "kernels": ("moments", "basis_matrix"),
    "density": ("estimate_grid",),
    "maniptest": ("diff_mse_bandwidth", "rbc_test"),
    "simulation": ("run_design", "true_mse_bandwidth", "sample_dgp"),
}
TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

#: extra per-layer counts: name -> unit
COUNTS = {
    "lpfit.fit_local.window_pts": "count",
    "variance.gamma_hat.window_pts": "count",
    "variance.gamma_hat.distinct_pts": "count",
    "variance.gamma_hat.peak_mb": "MB",
    "variance.gamma_hat.flops_computed": "flop",
    "variance.gamma_hat.bytes_computed": "B",
    "kernels.moments.distinct_keys": "count",
    "kernels.basis_matrix.rows": "count",
    "maniptest.rbc_test.fallbacks": "count",
}


def gamma_hat_work(m: int, d: int) -> tuple[int, int]:
    """Computed (flops, bytes written) of the dense Gamma-hat on an m-point window.

    Counts the algorithm of ``variance.gamma_hat`` at the commit that
    defined this benchmark: A = R*w (m d), three m x m temporaries
    (minimum.outer, outer, their difference), A'M (2 d m^2) and (A'M)A
    (2 d^2 m). Bytes are the float64 arrays those steps write.
    """
    flops = m * d + 3 * m * m + 2 * d * m * m + 2 * d * d * m
    bytes_ = 8 * (m * d + m + 3 * m * m + d * m + d * d)
    return flops, bytes_


class Tracer:
    def __init__(self):
        self.spans = []  # [label, start, end, parent index, error]
        self.counts = defaultdict(float)
        self.moment_keys = set()
        self._local = threading.local()
        self._home = None  # span stack of the installing thread
        self._patched = []  # (module, attribute, original)
        self._spans_lock = threading.Lock()

    # -- spans ---------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label, fn, on_return):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._home:
                parent = tracer._home[-1]
            else:
                parent = None
            span = [label, 0.0, 0.0, parent, None]
            with tracer._spans_lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @staticmethod
    def _gamma_hat(fn, counts):
        # peak of new allocations inside one call. Only measured while no
        # other thread runs: starting or stopping tracemalloc while another
        # thread allocates can crash CPython before 3.13, so the calls in
        # run_design's worker threads go unmeasured.
        def measured(sample, fit):
            if threading.active_count() > 1:
                return fn(sample, fit)
            tracemalloc.start()
            try:
                return fn(sample, fit)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                key = "variance.gamma_hat.peak_mb"
                counts[key] = max(counts[key], peak)

        return measured

    # -- counts at the boundary ----------------------------------------------

    def _on_fit_local(self, args, kwargs, fit):
        self.counts["lpfit.fit_local.window_pts"] += fit.m_eff

    def _on_gamma_hat(self, args, kwargs, result):
        fit = args[1]
        m, d = len(fit.xw), fit.R.shape[1]
        distinct = int((fit.xw[1:] != fit.xw[:-1]).sum()) + 1 if m else 0
        flops, bytes_ = gamma_hat_work(m, d)
        self.counts["variance.gamma_hat.window_pts"] += m
        self.counts["variance.gamma_hat.distinct_pts"] += distinct
        self.counts["variance.gamma_hat.flops_computed"] += flops
        self.counts["variance.gamma_hat.bytes_computed"] += bytes_

    def _on_basis_matrix(self, args, kwargs, rows):
        self.counts["kernels.basis_matrix.rows"] += rows.shape[0]

    def _on_moments(self, args, kwargs, result):
        family, region, p = args[:3]
        rest = args[3:] + tuple(sorted(kwargs.items()))
        self.moment_keys.add((family, region.a, region.b, p, rest))

    def _on_rbc_test(self, args, kwargs, result):
        if any(w.startswith("bandwidth-fallback-preliminary") for w in result.warnings):
            self.counts["maniptest.rbc_test.fallbacks"] += 1

    # -- install / uninstall -----------------------------------------------

    def install(self):
        hooks = {
            "lpfit.fit_local": self._on_fit_local,
            "variance.gamma_hat": self._on_gamma_hat,
            "kernels.basis_matrix": self._on_basis_matrix,
            "kernels.moments": self._on_moments,
            "maniptest.rbc_test": self._on_rbc_test,
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "lpdens" or name.startswith("lpdens."))]
        for label in TRACED:
            mod_name, fn_name = label.split(".")
            original = getattr(sys.modules[f"lpdens.{mod_name}"], fn_name)
            inner = self._gamma_hat(original, self.counts) if label == "variance.gamma_hat" else original
            wrapper = self._wrap(label, inner, hooks.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        self._home = self._stack()

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        self._home = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -----------------------------------------------------------

    def layer_stats(self):
        """Per traced function: calls, self seconds and errors.

        Self time is a span's duration minus the part of it that its child
        spans cover (children in worker threads can overlap each other).
        Also returns the union of top-level span intervals, in seconds.
        """
        children = defaultdict(list)
        tops = []
        for span in self.spans:
            if span[3] is None:
                tops.append((span[1], span[2]))
            else:
                children[span[3]].append((span[1], span[2]))
        stats = {label: [0, 0.0, 0] for label in TRACED}
        for idx, (label, start, end, _parent, error) in enumerate(self.spans):
            clipped = [(max(a, start), min(b, end)) for a, b in children.get(idx, ())]
            s = stats[label]
            s[0] += 1
            s[1] += (end - start) - _union(clipped)
            s[2] += error is not None
        return stats, _union(tops)


def _union(intervals) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
