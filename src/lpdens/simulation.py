"""Monte Carlo harness: simulation designs, true-MSE bandwidths, summaries.

Replications run in forked worker processes, one contiguous range of reps
each. They draw from counter-based RNG streams keyed by (seed, rep), so the
same seed yields bit-identical tables for any number of workers and any
reduction schedule that preserves rep order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .bandwidth import closed_form_h, mse_bandwidth, mse_case
from .errors import LpDensError, NoFixedPoint
from .kernels import KERNEL_FAMILIES, BasisKind, classify_region, factorial, moments, selector
from .lpfit import derivative_estimate, fit_local
from .sample import load_sample
from .variance import standard_error

_Z_5PCT = float(ndtri(0.975))

SUMMARY_COLUMNS = ("x", "n", "p", "kernel", "bw_rule", "bias", "sd", "rmse", "se_mean", "size")
#: columns of ``lpdens simulate --format csv``
CSV_COLUMNS = SUMMARY_COLUMNS + ("fail_rate", "valid")


class DGP:
    """Data-generating process with closed-form CDF machinery.

    Subclasses set ``name`` and ``support`` and define ``icdf(u)``, ``cdf(x)``
    and ``cdf_deriv(x, k)`` = F^(k)(x), k >= 1. Their instances hold no
    state, so a DGP class defined at module level pickles by reference and
    ``run_design``'s workers draw from exactly the design's DGP.
    """

    name: str
    support: tuple

    def pdf(self, x):
        return self.cdf_deriv(x, 1)


class _TruncatedNormal(DGP):
    name = "truncated_normal"
    support = (-0.8, np.inf)
    z = 1.0 - ndtr(-0.8)
    phi_lo = ndtr(-0.8)

    def icdf(self, u):
        return ndtri(self.phi_lo + u * self.z)

    def cdf(self, x):
        return np.clip((ndtr(x) - self.phi_lo) / self.z, 0.0, 1.0)

    def cdf_deriv(self, x, k):
        # F^(k) = phi^(k-1)/z, phi^(m)(x) = (-1)^m He_m(x) phi(x)
        m = k - 1
        He_m = np.polynomial.hermite_e.hermeval(x, [0.0] * m + [1.0])
        return (-1.0) ** m * He_m * (np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)) / self.z


class _Exponential(DGP):
    name = "exponential"
    support = (0.0, np.inf)

    def icdf(self, u):
        return -np.log1p(-u)

    def cdf(self, x):
        return 1.0 - np.exp(-x)

    def cdf_deriv(self, x, k):
        return (-1.0) ** (k - 1) * np.exp(-x)


class _Uniform01(DGP):
    name = "uniform01"
    support = (0.0, 1.0)

    def icdf(self, u):
        return u

    def cdf(self, x):
        return x

    def cdf_deriv(self, x, k):
        return 1.0 if k == 1 else 0.0


def get_dgp(name: str) -> DGP:
    for cls in (_TruncatedNormal, _Exponential, _Uniform01):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown dgp {name!r}")


@dataclass(frozen=True)
class SimDesign:
    dgp: DGP
    eval_points: tuple
    n: int
    reps: int
    p: int = 2
    v: int = 1
    kernel: str = "triangular"
    bandwidth_rule: str | float = "mse_true"  # "mse_true" | "mse_estimated" | multiple of h_MSE
    seed: int = 0

    def __post_init__(self):
        # every design, from Python, ``from_dict`` or ``dataclasses.replace``, is checked here
        def number(x, kind=numbers.Real):
            return isinstance(x, kind) and not isinstance(x, bool)  # JSON true is an int

        def finite(x):  # also false for an int beyond the float range
            return number(x) and abs(x) <= sys.float_info.max

        size = np.iinfo(np.intp).max  # no array holds more draws, reps or coefficients
        for name, least, most in (("n", 10, size), ("reps", 1, size), ("p", 0, size),
                                  ("v", 0, self.p), ("seed", 0, 2**64 - 1)):
            value = getattr(self, name)
            if not (number(value, numbers.Integral) and least <= value <= most):
                raise ValueError(f"{name} must be an integer in [{least}, {most}], got {value!r}")
        pts = self.eval_points
        if not (isinstance(pts, (tuple, list)) and pts and all(map(finite, pts))):
            raise ValueError(f"eval_points must be a non-empty list of finite numbers, got {pts!r}")
        object.__setattr__(self, "eval_points", tuple(map(float, pts)))
        lo, hi = self.dgp.support
        if not all(lo <= x <= hi for x in self.eval_points):
            raise ValueError(f"eval_points must lie in the support [{lo}, {hi}], got {self.eval_points}")
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        rule = self.bandwidth_rule
        if rule not in ("mse_true", "mse_estimated"):
            if not (finite(rule) and rule > 0):
                raise ValueError(f"bandwidth_rule must be 'mse_true', 'mse_estimated' "
                                 f"or a finite multiple > 0, got {rule!r}")
            object.__setattr__(self, "bandwidth_rule", float(rule))

    @classmethod
    def from_dict(cls, spec) -> "SimDesign":
        """The design a JSON object describes; ``dgp`` names a built-in DGP, ``{"multiple": m}`` is m."""
        if not isinstance(spec, dict):
            raise ValueError(f"a design must be a JSON object, got {type(spec).__name__}")
        unknown = sorted(set(spec) - {f.name for f in fields(cls)})
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in spec]
        if unknown or missing:
            raise ValueError(f"unknown design keys {unknown}, missing design keys {missing}")
        spec = {**spec, "dgp": get_dgp(spec["dgp"])}
        rule = spec.get("bandwidth_rule")
        if isinstance(rule, dict) and rule.keys() == {"multiple"}:
            spec["bandwidth_rule"] = rule["multiple"]
        return cls(**spec)


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream for one replication; independent across reps."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def sample_dgp(dgp: DGP, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws."""
    return np.asarray(dgp.icdf(rng.random(n)), dtype=float)


def true_mse_bandwidth(dgp: DGP, x: float, n: int, p: int = 2, v: int = 1, kernel: str = "triangular") -> float:
    """Population MSE-optimal bandwidth from analytic derivatives.

    Region classification depends on the bandwidth itself near a boundary,
    so the closed form h -> g(h) is iterated to a fixed point: 100 plain
    steps, then up to 100 damped steps h -> sqrt(h g(h)), which settle where
    the plain ones oscillate, then up to 100 geometric bisection steps between
    the largest h with g(h) > h and the smallest with g(h) < h seen so far,
    which settle where the damped ones 2-cycle, else ``NoFixedPoint``. The
    closed form V / (n h^{2v-1}) needs 1 <= v <= p; other orders raise
    ``ValueError``.
    """
    if not 1 <= v <= p:
        raise ValueError(f"true MSE bandwidth needs 1 <= v <= p, got v={v}, p={p}")
    lo, hi = dgp.support
    f = dgp.pdf(x)
    e = selector(p, BasisKind.STANDARD, v)
    h = n ** (-1.0 / (2 * p + 1))
    below, above = 0.0, math.inf
    for step in range(300):
        region = classify_region(x, h, lo, hi)
        mom = moments(kernel, region, p)
        z = np.linalg.solve(mom.S, e)
        V = factorial(v) ** 2 * f * float(z @ mom.Gamma @ z)
        order, _ = mse_case(region, p, v)
        if order == 1:
            B = factorial(v) * dgp.cdf_deriv(x, p + 1) / factorial(p + 1) * float(z @ mom.c)
        else:
            B = factorial(v) * (
                dgp.cdf_deriv(x, p + 2) / factorial(p + 2)
                + dgp.cdf_deriv(x, p + 1) / factorial(p + 1) * dgp.cdf_deriv(x, 2) / f
            ) * float(z @ mom.c_tilde)
        h_new = closed_form_h(V, B, n, p, v, order)
        if abs(h_new - h) <= 1e-12 * h:
            return float(h_new)
        if h_new > h:
            below = max(below, h)
        else:
            above = min(above, h)
        if step < 200:
            h = h_new if step < 100 else math.sqrt(h * h_new)
        elif above == math.inf or below == 0.0:
            h = 2 * h if above == math.inf else h / 2
        else:
            h = math.sqrt(below * above)
    raise NoFixedPoint(f"true MSE bandwidth at x={x}, n={n}, p={p}, v={v} did not settle")


def _run_one_rep(design: SimDesign, hs: tuple, rep: int) -> list:
    """(f_hat, se) at each evaluation point; ``hs`` holds fixed bandwidths, None to estimate."""
    rng = rep_rng(design.seed, rep)
    values = sample_dgp(design.dgp, design.n, rng)
    sample = load_sample(values, support=design.dgp.support)
    out = []
    for x, h in zip(design.eval_points, hs):
        try:
            if h is None:
                h = mse_bandwidth(sample, x, design.p, design.v, design.kernel).h
            fit = fit_local(sample, x, h, design.p, design.kernel)
            out.append((derivative_estimate(fit, design.v), standard_error(sample, fit, design.v)))
        except LpDensError:
            out.append((np.nan, np.nan))
    return out


def run_design(design: SimDesign, threads: int = 1) -> list[dict]:
    """Run all replications and summarize per evaluation point.

    Returns one row per evaluation point with columns
    (x, n, p, kernel, bw_rule, bias, sd, rmse, se_mean, size); a row with
    more than 1% failed replications is flagged invalid, and one where all
    failed has None for bias through size.

    ``threads`` worker processes (at most ``reps`` and the CPU count) each
    run one contiguous range of reps; the fixed bandwidths travel with each
    range. Workers are forked with the warm ``moments`` memo, which only the
    v = 0 ``mse_estimated`` bandwidth pilots read. The pool raises
    ``ValueError`` when ``threads`` is below 1, and ``BrokenProcessPool``
    when a worker dies. Every worker is joined before this returns or raises.
    """
    # imported here so that `import lpdens`, and so every CLI start, skips multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    hs = (None,) * len(design.eval_points)
    if design.bandwidth_rule != "mse_estimated":
        mult = 1.0 if design.bandwidth_rule == "mse_true" else design.bandwidth_rule
        hs = tuple(mult * true_mse_bandwidth(
            design.dgp, x, design.n, design.p, design.v, design.kernel
        ) for x in design.eval_points)

    # fork, not spawn: a spawned worker re-imports lpdens and starts cold
    workers = min(threads, design.reps, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        per_rep = pool.map(partial(_run_one_rep, design, hs), range(design.reps),
                           chunksize=math.ceil(design.reps / workers))
        results = np.array(list(per_rep))  # (reps, points, 2)

    rows = []
    for x, (f_hat, se) in zip(design.eval_points, results.transpose(1, 2, 0)):
        ok = np.isfinite(f_hat) & np.isfinite(se)
        fail_rate = float(1.0 - ok.mean())
        f_ok, se_ok = f_hat[ok], se[ok]
        # undefined when every replication failed: JSON null, an empty CSV cell
        stats = dict.fromkeys(("bias", "sd", "rmse", "se_mean", "size"))
        if ok.any():
            f_true = design.dgp.cdf(x) if design.v == 0 else design.dgp.cdf_deriv(x, design.v)
            mean_f = float(np.mean(f_ok))
            bias = mean_f - float(f_true)
            sd = float(np.std(f_ok))  # ddof=0 so rmse^2 == bias^2 + sd^2 exactly
            # centered t per the harness convention: measures pure normal
            # approximation error, not bias
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.abs(f_ok - mean_f) / se_ok
            stats = {"bias": bias, "sd": sd, "rmse": float(np.sqrt(bias**2 + sd**2)),
                     "se_mean": float(np.mean(se_ok)), "size": float(np.mean(t >= _Z_5PCT))}
        rows.append({
            "x": x,
            "n": design.n,
            "p": design.p,
            "kernel": design.kernel,
            "bw_rule": str(design.bandwidth_rule),
            **stats,
            "fail_rate": fail_rate,
            "valid": bool(fail_rate <= 0.01),
        })
    return rows


def load_design(path: str) -> SimDesign:
    with open(path) as fh:
        return SimDesign.from_dict(json.load(fh))
