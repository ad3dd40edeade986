"""The three benchmark workloads: inputs from a seed, the public calls, checks.

Each workload generates its inputs from the benchmark seed, writes them to
files, loads them through lpdens (``load_csv`` or ``SimDesign.from_dict``),
and then exposes one *pass*: a fixed list of units, each one public call.
A pass models one CLI process, so the runner clears lpdens's function
caches before every pass.

Data draws are stratified: draw i is the inverse CDF of a uniform inside
the probability stratum [i/n, (i+1)/n). Each draw is still distributed as
the DGP, but the EDF stays within 1/n of the true CDF, so the data-driven
bandwidths (which set window sizes and hence the cost) do not swing with
the seed. On a 2-vCPU host, with plain iid draws the density grid took
2.9-5.3 s per pass across six seeds; stratified, 3.9-4.4 s.
"""

from __future__ import annotations

import json
import math
import os
from statistics import NormalDist

import numpy as np


def stratified_uniforms(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform per stratum [i/n, (i+1)/n), returned in shuffled order."""
    u = (np.arange(n) + rng.random(n)) / n
    return u[rng.permutation(n)]


def write_column(path, values) -> None:
    # repr round-trips a float exactly, so load_csv reads back the same data
    with open(path, "w") as fh:
        fh.write("x\n")
        fh.writelines(f"{float(v)!r}\n" for v in values)


def _f(v):
    return None if v is None else float(v)


def compare_records(got, want, path="") -> list[str]:
    """Differences: floats beyond 1e-9 relative, anything else exactly."""
    if isinstance(got, dict) and isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: fields {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(got) for d in compare_records(got[k], want[k], f"{path}.{k}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare_records(g, w, f"{path}[{i}]")]
    if isinstance(got, float) and isinstance(want, float):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(got, want, rel_tol=1e-9)
    else:
        same = got == want and isinstance(got, bool) == isinstance(want, bool)
    return [] if same else [f"{path}: {got!r} != {want!r}"]


class Workload:
    """One workload. The runner uses it in this order:

    ``generate(seed, workdir)`` writes the inputs and returns their paths;
    ``load(lp)`` reads them through lpdens (the timed set-up); ``prepare(lp)``
    builds ``units``, one public call each; ``call(lp, unit)`` makes the
    call; ``outcome(unit, result)`` gives (record, attempted units, failed
    units) of a returned call and ``error_record(unit, tag)`` the record of
    a raised one; ``sanity(records)`` checks one pass against the DGP and
    returns (problems, misses). Problems fail the run. Misses are single
    estimates far from the truth; they are reported, and fail the run only
    when there are more than a few, because lpdens gives the odd one at
    baseline (see NOTE.md).
    """

    def __init__(self, files):
        self.files = [str(f) for f in files]

    def attempted(self, unit) -> int:
        """Units of work in one call."""
        return 1


class DensityGrid(Workload):
    """``estimate_grid(sample, [x])`` per point of the CLI's quantile grid.

    Exponential(1), n=5000, support (0, inf); 100-point grid from
    ``default_grid``, so it holds the lower boundary and the sample maximum.
    """

    name = "density_grid"
    n = 5000
    grid_points = 100

    @classmethod
    def generate(cls, seed: int, workdir) -> list:
        rng = np.random.default_rng([seed, 1])
        x = -np.log1p(-stratified_uniforms(rng, cls.n))
        path = workdir / "exponential.csv"
        write_column(path, x)
        return [path]

    def load(self, lp):
        self.sample = lp.load_csv(self.files[0], support=(0.0, math.inf))

    def prepare(self, lp):
        self.units = [float(x) for x in lp.default_grid(self.sample, self.grid_points)]

    def call(self, lp, x):
        return lp.estimate_grid(self.sample, [x], p=2, v=1, kernel="triangular")

    @staticmethod
    def outcome(x, result):
        e = result[0]
        rec = {
            "x": e.x, "h": _f(e.h_used), "f_hat": _f(e.f_hat), "se": _f(e.se),
            "ci_low": _f(e.ci_low), "ci_high": _f(e.ci_high),
            "m_eff": e.m_eff, "region": e.region, "error": e.error,
        }
        return rec, 1, int(e.error is not None)

    @staticmethod
    def error_record(x, tag):
        return {"x": x, "h": None, "f_hat": None, "se": None, "ci_low": None,
                "ci_high": None, "m_eff": None, "region": None, "error": tag}

    def sanity(self, records):
        bad, misses, covered, ok = [], [], 0, 0
        for r in records:
            if r["error"] is not None:
                continue
            ok += 1
            vals = [r[k] for k in ("h", "f_hat", "se", "ci_low", "ci_high")]
            if not all(math.isfinite(v) for v in vals):
                bad.append(f"x={r['x']}: non-finite output")
                continue
            if not (r["se"] > 0 and r["ci_low"] <= r["ci_high"] and r["m_eff"] >= 1):
                bad.append(f"x={r['x']}: se/interval/m_eff out of range")
            truth = math.exp(-r["x"])
            if abs(r["f_hat"] - truth) > 0.02 + 5.0 * r["se"]:
                misses.append(f"x={r['x']}: f_hat {r['f_hat']:.4f} (h={r['h']:.3f}) "
                              f"far from truth {truth:.4f}")
            covered += r["ci_low"] <= truth <= r["ci_high"]
        if ok < 0.9 * len(records):
            bad.append(f"only {ok}/{len(records)} grid points succeeded")
        elif len(misses) > 0.1 * ok or covered < 0.85 * ok:
            bad.append(f"{len(misses)}/{ok} estimates far from the truth, "
                       f"{covered}/{ok} intervals cover it")
        return bad, misses


class CutoffTest(Workload):
    """``rbc_test`` in three models at 8 cutoffs, on raw and heaped N(0,1) data.

    The raw sample is a stratified draw, n=1e4. The heaped copy rounds the
    same draws to a 0.05 grid with their within-stratum jitter removed, so
    it does not depend on the seed: on heaped data the bandwidth selector
    flips between success, fallback and failure when one mass point gains
    or loses an observation, and over 16 seeds the heaped half of a pass
    took anywhere from 0.2 s to 6.5 s on a 2-vCPU host. Cutoffs are the N(0,1) quantiles at
    linspace(0.15, 0.85, 8), moved onto a mass point (even index) or midway
    between two (odd index).
    """

    name = "cutoff_test"
    n = 10_000
    step = 0.05
    models = ("unrestricted", "restricted", "separate")

    @classmethod
    def generate(cls, seed: int, workdir) -> list:
        rng = np.random.default_rng([seed, 2])
        nd = NormalDist()
        u = stratified_uniforms(rng, cls.n)
        mid = (np.floor(u * cls.n) + 0.5) / cls.n
        paths = [workdir / "normal_raw.csv", workdir / "normal_heaped.csv"]
        write_column(paths[0], [nd.inv_cdf(float(p)) for p in u])
        write_column(paths[1], [round(nd.inv_cdf(float(p)) / cls.step) * cls.step for p in mid])
        return paths

    def load(self, lp):
        self.samples = {"raw": lp.load_csv(self.files[0]),
                        "heaped": lp.load_csv(self.files[1])}

    def prepare(self, lp):
        cutoffs = []
        for i, q in enumerate(np.linspace(0.15, 0.85, 8)):
            c = NormalDist().inv_cdf(float(q)) / self.step
            cutoffs.append(round(c) * self.step if i % 2 == 0 else (math.floor(c) + 0.5) * self.step)
        self.units = [(kind, c, m) for kind in ("raw", "heaped") for c in cutoffs for m in self.models]

    def call(self, lp, unit):
        kind, cutoff, model = unit
        return lp.rbc_test(self.samples[kind], cutoff, p=2, kernel="triangular", model=model)

    @staticmethod
    def outcome(unit, result):
        rec = {k: v for k, v in result.record().items() if k not in ("cutoff", "model")}
        for k in ("h_minus", "h_plus", "f_minus", "f_plus", "se_diff", "T", "p_value"):
            rec[k] = float(rec[k])
        rec["error"] = None
        return rec, 1, 0

    @staticmethod
    def error_record(unit, tag):
        return {"error": tag}

    def sanity(self, records):
        bad, misses, rejections, raw_ok = [], [], 0, 0
        for unit, r in zip(self.units, records):
            if r["error"] is not None:
                continue
            kind, c, model = unit
            vals = [r[k] for k in ("h_minus", "h_plus", "f_minus", "f_plus", "se_diff", "T", "p_value")]
            if not all(math.isfinite(v) for v in vals):
                bad.append(f"{unit}: non-finite output")
                continue
            if not 0.0 <= r["p_value"] <= 1.0 or r["se_diff"] < 0:
                bad.append(f"{unit}: p-value or se out of range")
            if kind != "raw":
                continue
            raw_ok += 1
            rejections += r["p_value"] < 0.01
            phi, cdf = NormalDist().pdf(c), NormalDist().cdf(c)
            # separate-sample fits estimate the conditional densities
            want = (phi / cdf, phi / (1.0 - cdf)) if model == "separate" else (phi, phi)
            for got, truth in zip((r["f_minus"], r["f_plus"]), want):
                if abs(got - truth) > 0.1 * truth:
                    misses.append(f"{unit}: density {got:.4f} far from truth {truth:.4f}")
        # continuous N(0,1) data has no jump: the test must not reject often
        if raw_ok < len(self.units) // 2:
            bad.append(f"only {raw_ok} raw-data tests succeeded")
        elif len(misses) > 0.1 * raw_ok or rejections > 0.2 * raw_ok:
            bad.append(f"{len(misses)} densities far from the truth, "
                       f"{rejections}/{raw_ok} raw-data tests reject at 1% with no jump")
        return bad, misses


class McStudy(Workload):
    """``run_design(design, threads=nproc)`` over three n=500 designs."""

    name = "mc_study"
    specs = (
        {"dgp": "exponential", "eval_points": [0.1, 1.0], "n": 500, "reps": 400,
         "bandwidth_rule": "mse_true"},
        {"dgp": "truncated_normal", "eval_points": [-0.7, 0.0], "n": 500, "reps": 400,
         "bandwidth_rule": {"multiple": 0.5}},
        {"dgp": "exponential", "eval_points": [0.5], "n": 500, "reps": 100,
         "bandwidth_rule": "mse_estimated"},
    )

    @classmethod
    def generate(cls, seed: int, workdir) -> list:
        path = workdir / "designs.json"
        with open(path, "w") as fh:
            json.dump([{**s, "seed": seed} for s in cls.specs], fh)
        return [path]

    def load(self, lp):
        with open(self.files[0]) as fh:
            self.designs = [lp.SimDesign.from_dict(s) for s in json.load(fh)]

    def prepare(self, lp):
        self.threads = len(os.sched_getaffinity(0))
        self.units = list(range(len(self.designs)))

    def call(self, lp, i):
        return lp.run_design(self.designs[i], threads=self.threads)

    def outcome(self, i, rows):
        reps = self.designs[i].reps
        out = [{k: row[k] for k in ("x", "bias", "sd", "rmse", "se_mean", "size", "fail_rate", "valid")}
               for row in rows]
        failed = sum(round(row["fail_rate"] * reps) for row in rows)
        return {"rows": out, "error": None}, reps * len(rows), failed

    def error_record(self, i, tag):
        return {"rows": None, "error": tag}

    def attempted(self, i):
        return self.designs[i].reps * len(self.designs[i].eval_points)

    @staticmethod
    def _pdf(dgp, x):
        if dgp == "exponential":
            return math.exp(-x)
        nd = NormalDist()  # truncated_normal: N(0,1) restricted to (-0.8, inf)
        return nd.pdf(x) / (1.0 - nd.cdf(-0.8))

    def sanity(self, records):
        bad, misses, rows = [], [], 0
        for spec, r in zip(self.specs, records):
            if r["error"] is not None:
                bad.append(f"{spec['dgp']}: run_design failed ({r['error']})")
                continue
            for row in r["rows"]:
                rows += 1
                tag = f"{spec['dgp']} x={row['x']}"
                vals = [row[k] for k in ("bias", "sd", "rmse", "se_mean", "size", "fail_rate")]
                if not all(math.isfinite(v) for v in vals):
                    bad.append(f"{tag}: non-finite summary")
                    continue
                if not (row["sd"] > 0 and 0.0 <= row["size"] <= 1.0 and row["fail_rate"] <= 0.05):
                    bad.append(f"{tag}: sd/size/fail_rate out of range")
                if not math.isclose(row["rmse"] ** 2, row["bias"] ** 2 + row["sd"] ** 2, rel_tol=1e-9):
                    bad.append(f"{tag}: rmse^2 != bias^2 + sd^2")
                truth = self._pdf(spec["dgp"], row["x"])
                if abs(row["bias"]) > 0.15 * truth or not 0.55 <= row["se_mean"] / row["sd"] <= 1.45:
                    misses.append(f"{tag}: bias {row['bias']:.4f} vs density {truth:.4f}, "
                                  f"mean se {row['se_mean']:.4f} vs sd {row['sd']:.4f}")
        if len(misses) > 1:
            bad.append(f"{len(misses)}/{rows} Monte Carlo rows disagree with the DGP")
        return bad, misses


WORKLOADS = {w.name: w for w in (DensityGrid, CutoffTest, McStudy)}
