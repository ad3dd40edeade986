"""Monte Carlo harness: simulation designs, true-MSE bandwidths, summaries.

Replications run in forked worker processes, one contiguous range of reps
each. They draw from counter-based RNG streams keyed by (seed, rep), so the
same seed yields bit-identical tables for any number of workers and any
reduction schedule that preserves rep order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr, ndtri

from .bandwidth import closed_form_h, mse_bandwidth, mse_case
from .errors import LpDensError
from .kernels import KERNEL_FAMILIES, BasisKind, classify_region, factorial, moments, selector
from .lpfit import derivative_estimate, fit_local
from .sample import load_sample
from .variance import standard_error

_Z_5PCT = 1.959964  # Phi^{-1}(0.975) to six decimals

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


def _hermite_prob(x: float, m: int) -> float:
    # probabilists' Hermite polynomials: He_{m+1} = x He_m - m He_{m-1}
    a, b = 1.0, x
    if m == 0:
        return a
    for k in range(1, m):
        a, b = b, x * b - k * a
    return b


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
        return (-1.0) ** m * _hermite_prob(x, m) * (np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)) / self.z


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
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n < 10:
            raise ValueError("n must be >= 10")
        if not self.eval_points:
            raise ValueError("eval_points must be non-empty")
        if self.kernel not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if not 0 <= self.v <= self.p:
            raise ValueError(f"need 0 <= v <= p, got v={self.v}, p={self.p}")
        rule = self.bandwidth_rule
        if rule not in ("mse_true", "mse_estimated") and not (
            isinstance(rule, (int, float)) and math.isfinite(rule) and rule > 0
        ):
            raise ValueError(f"bandwidth_rule must be 'mse_true', 'mse_estimated' "
                             f"or a finite multiple > 0, got {rule!r}")

    @classmethod
    def from_dict(cls, spec: dict) -> "SimDesign":
        rule = spec.get("bandwidth_rule", "mse_true")
        if isinstance(rule, dict):
            rule = float(rule["multiple"])
        return cls(
            dgp=get_dgp(spec["dgp"]),
            eval_points=tuple(float(x) for x in spec["eval_points"]),
            n=int(spec["n"]),
            reps=int(spec["reps"]),
            p=int(spec.get("p", 2)),
            v=int(spec.get("v", 1)),
            kernel=spec.get("kernel", "triangular"),
            bandwidth_rule=rule,
            seed=int(spec.get("seed", 0)),
        )


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Counter-based stream for one replication; independent across reps."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def sample_dgp(dgp: DGP, n: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws."""
    return np.asarray(dgp.icdf(rng.random(n)), dtype=float)


def true_mse_bandwidth(dgp: DGP, x: float, n: int, p: int = 2, v: int = 1, kernel: str = "triangular") -> float:
    """Population MSE-optimal bandwidth from analytic derivatives.

    Region classification depends on the bandwidth itself near a boundary,
    so the closed form is iterated to a fixed point. The closed form
    V / (n h^{2v-1}) needs 1 <= v <= p; other orders raise ``ValueError``.
    """
    if not 1 <= v <= p:
        raise ValueError(f"true MSE bandwidth needs 1 <= v <= p, got v={v}, p={p}")
    lo, hi = dgp.support
    f = dgp.pdf(x)
    e = selector(p, BasisKind.STANDARD, v)
    h = n ** (-1.0 / (2 * p + 1))
    for _ in range(100):
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
        h = h_new
    return float(h)


def _run_one_rep(design: SimDesign, rep: int, h_fixed: dict):
    rng = rep_rng(design.seed, rep)
    values = sample_dgp(design.dgp, design.n, rng)
    sample = load_sample(values, support=design.dgp.support)
    out = {}
    for x in design.eval_points:
        try:
            if design.bandwidth_rule == "mse_estimated":
                h = mse_bandwidth(sample, x, design.p, design.v, design.kernel).h
            else:
                h = h_fixed[x]
            fit = fit_local(sample, x, h, design.p, design.kernel)
            f_hat = derivative_estimate(fit, design.v)
            se = standard_error(sample, fit, design.v).se
            out[x] = (f_hat, se)
        except LpDensError:
            out[x] = (np.nan, np.nan)
    return out


def _run_reps(design: SimDesign, h_fixed: dict, lo: int, hi: int) -> list:
    return [_run_one_rep(design, rep, h_fixed) for rep in range(lo, hi)]


def run_design(design: SimDesign, threads: int = 1) -> list[dict]:
    """Run all replications and summarize per evaluation point.

    Returns one row per evaluation point with columns
    (x, n, p, kernel, bw_rule, bias, sd, rmse, se_mean, size); a row with
    more than 1% failed replications is flagged invalid, and one where all
    failed has None for bias through size.

    ``threads`` worker processes (at most ``reps`` and the CPU count) each
    run one contiguous range of reps. They are forked, so they inherit the
    true bandwidths and the warm ``moments`` cache; the pool raises ``ValueError`` when
    ``threads`` is below 1, and ``BrokenProcessPool`` when a worker dies.
    Every worker is joined before this returns or raises.
    """
    # imported here so that `import lpdens`, and so every CLI start, skips multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    h_fixed = {}
    if design.bandwidth_rule != "mse_estimated":
        mult = 1.0 if design.bandwidth_rule == "mse_true" else float(design.bandwidth_rule)
        for x in design.eval_points:
            h_fixed[x] = mult * true_mse_bandwidth(
                design.dgp, x, design.n, design.p, design.v, design.kernel
            )

    # fork, not spawn: a spawned worker re-imports lpdens and starts cold
    workers = min(threads, design.reps, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        bounds = [design.reps * k // workers for k in range(workers + 1)]
        chunks = pool.map(partial(_run_reps, design, h_fixed), bounds[:-1], bounds[1:])
        results = [res for chunk in chunks for res in chunk]

    rows = []
    for x in design.eval_points:
        f_hat = np.array([res[x][0] for res in results])
        se = np.array([res[x][1] for res in results])
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
