"""Dump the outputs of a fixed set of public lpdens calls, for a before/after diff.

    python3 tools/dump_outputs.py SRC OUT.json

``SRC`` is the ``src`` directory of the checkout to import lpdens from. Every
call is deterministic, so two checkouts that compute the same results write
byte-identical files: ``cmp old.json new.json`` checks that a refactor
changed no bit, and ``tools/compare_dumps.py old.json new.json`` names the
labels that differ. Each entry holds the ``repr`` of a call's result, with arrays
as lists of exact float reprs, or the typed error it raised and its message.
The estimator calls run on three samples: raw N(0,1) draws, the same draws
rounded to 0.1 (ties), and Exponential(1) draws on the support (0, inf). The
built-in DGPs (quantiles, CDF and its derivatives, draws, true bandwidths)
and the kernel moment matrices are written directly as well.
"""

import dataclasses
import json
import sys

import numpy as np

#: LocalFit fields written: the fit's results, not the helper arrays a refactor may add or drop
FIT_FIELDS = ("x", "h", "p", "basis", "kernel", "beta", "beta_scaled", "S_hat", "region",
              "n", "m_eff", "m_eff_minus", "m_eff_plus", "xw", "u", "w", "R")


def canon(obj):
    """Plain-Python form of a result, exact in every float."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = FIT_FIELDS if type(obj).__name__ == "LocalFit" else [
            f.name for f in dataclasses.fields(obj)]
        return {name: canon(getattr(obj, name)) for name in names}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {repr(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    return obj


def main(src, out_path):
    sys.path.insert(0, src)
    import lpdens as lp
    from lpdens import kernels, simulation
    from lpdens.errors import LpDensError

    rng = np.random.default_rng(2024)
    raw = rng.normal(size=400)
    samples = {
        "raw": lp.load_sample(raw),
        "rounded": lp.load_sample(np.round(raw, 1)),
        "exp": lp.load_sample(rng.exponential(size=400), support=(0.0, np.inf)),
    }
    points = {"raw": (-1.5, -0.3, 0.0, 0.4, 1.2), "rounded": (-1.5, -0.3, 0.0, 0.4, 1.2),
              "exp": (0.0, 0.05, 0.3, 1.0, 2.5)}
    cutoffs = {"raw": (-0.5, 0.0, 0.3, 0.8), "rounded": (-0.5, 0.0, 0.35, 0.8),
               "exp": (0.2, 0.5, 1.0, 1.5)}
    entries = []

    def call(label, fn, *args, **kwargs):
        """Record fn's result, or its typed raise; return the result or None."""
        try:
            result = fn(*args, **kwargs)
        except (LpDensError, ValueError) as exc:
            entries.append([label, f"raise {type(exc).__name__}: {exc}"])
            return None
        entries.append([label, repr(canon(result))])
        return result

    for name, s in samples.items():
        for x in points[name]:
            for p in range(4):
                for v in range(p + 1):
                    call(f"mse_bandwidth {name} x={x} p={p} v={v}", lp.mse_bandwidth, s, x, p, v)
        grid = lp.default_grid(s, 9)
        for p in (1, 2, 3):
            call(f"estimate_grid {name} p={p}", lp.estimate_grid, s, grid, p)
            call(f"estimate_grid {name} p={p} h=0.5", lp.estimate_grid, s, grid, p, h=0.5)
        for c in cutoffs[name]:
            for model in ("unrestricted", "restricted", "separate"):
                call(f"rbc_test {name} c={c} {model}", lp.rbc_test, s, c, model=model)
                call(f"cutoff_test {name} c={c} {model}", lp.cutoff_test, s, c, model=model)
        for basis in lp.BasisKind:
            for x, h in ((points[name][1], 0.35), (points[name][2], 0.9), (points[name][3], 0.08)):
                for p in (1, 2):
                    label = f"{name} {basis.value} x={x} h={h} p={p}"
                    fit = call(f"fit_local {label}", lp.fit_local, s, x, h, p, basis=basis)
                    if fit is None:
                        continue
                    call(f"gamma_hat {label}", lp.gamma_hat, s, fit)
                    call(f"jackknife_gamma {label}", lp.jackknife_gamma, s, fit)
                    if basis is lp.BasisKind.STANDARD:
                        call(f"standard_error {label}", lp.standard_error, s, fit, 1)
                        call(f"jackknife_se {label}", lp.jackknife_se, s, fit, 1)
                    else:
                        call(f"difference_se {label}", lp.difference_se, s, fit)
                        call(f"standard_error {label}", lp.standard_error, s, fit, 1, "right")
                        call(f"jackknife_se {label}", lp.jackknife_se, s, fit, 1, "left")

    designs = {"truncated_normal": (-0.7, 0.0), "exponential": (0.1, 1.0), "uniform01": (0.0, 0.5)}
    for dgp, xs in designs.items():
        for rule in ("mse_true", "mse_estimated", {"multiple": 0.5}):
            design = lp.SimDesign.from_dict({"dgp": dgp, "eval_points": xs, "n": 200, "reps": 8,
                                             "bandwidth_rule": rule, "seed": 5})
            call(f"run_design {dgp} {rule}", lp.run_design, design, threads=1)
    # the benchmark's exponential design: with 400 reps the summary means and
    # sds run through numpy's pairwise summation, which 8 reps never reach
    design = lp.SimDesign.from_dict({"dgp": "exponential", "eval_points": (0.1, 1.0), "n": 500,
                                     "reps": 400, "seed": 0})
    call("run_design exponential mse_true reps=400 threads=2", lp.run_design, design, threads=2)

    u = np.array([0.01, 0.25, 0.5, 0.9, 0.999])
    dgp_points = {"truncated_normal": (-0.8, -0.3, 0.0, 0.7, 1.9),
                  "exponential": (0.0, 0.1, 0.5, 1.0, 3.0), "uniform01": (0.0, 0.2, 0.5, 0.9, 1.0)}
    for name, xs in dgp_points.items():
        dgp = lp.get_dgp(name)
        call(f"dgp {name} support", lambda: dgp.support)
        call(f"dgp {name} icdf", dgp.icdf, u)
        call(f"dgp {name} cdf", dgp.cdf, np.array(xs))
        for k in range(1, 5):
            call(f"dgp {name} cdf_deriv k={k}", dgp.cdf_deriv, np.array(xs), k)
        call(f"sample_dgp {name}", simulation.sample_dgp, dgp, 50, simulation.rep_rng(3, 1))
        for x in (designs[name][0], xs[3]):
            for p in (2, 3):
                call(f"true_mse_bandwidth {name} x={x} p={p}", lp.true_mse_bandwidth, dgp, x, 500, p)
    # fixed points that the plain and damped steps miss and the bracket settles,
    # bar truncated normal x = 0.45, an interior fixed point with p - v even
    for name, x, p, v in (("truncated_normal", 0.45, 1, 1), ("truncated_normal", 0.55, 1, 1),
                          ("exponential", 1.1, 3, 2)):
        call(f"true_mse_bandwidth {name} x={x} n=400 p={p} v={v}", lp.true_mse_bandwidth,
             lp.get_dgp(name), x, 400, p, v)
    # interior fixed points with p - v even: the second-order bias constant
    for name, x in (("exponential", 2.0), ("truncated_normal", 0.5)):
        for p in (1, 2):
            call(f"true_mse_bandwidth {name} x={x} n=500 p={p} v={p}", lp.true_mse_bandwidth,
                 lp.get_dgp(name), x, 500, p, p)
    call("default_grid rounded 25", lp.default_grid, samples["rounded"], 25)
    # typed failures: a negative v = 0 density pilot, an evaluation point outside the
    # support, a negative seed, a non-integer n, an order above p with a fixed bandwidth
    s = lp.load_sample(np.random.default_rng(0).normal(size=500))
    call("mse_bandwidth normal500 x=q0.01 p=3 v=0", lp.mse_bandwidth,
         s, float(np.quantile(s.values, 0.01)), 3, 0)
    call("SimDesign exponential x=-0.05", lp.SimDesign.from_dict,
         {"dgp": "exponential", "eval_points": (-0.05,), "n": 500, "reps": 40})
    call("SimDesign exponential seed=-1", lp.SimDesign.from_dict,
         {"dgp": "exponential", "eval_points": (1.0,), "n": 500, "reps": 40, "seed": -1})
    call("SimDesign exponential n=500.5", lp.SimDesign.from_dict,
         {"dgp": "exponential", "eval_points": (1.0,), "n": 500.5, "reps": 40})
    call("estimate_grid raw p=2 v=3 h=0.3", lp.estimate_grid,
         samples["raw"], (0.0,), 2, 3, h=0.3)
    # a jump bandwidth whose side pilots hold 1,708 and 1,639 points, past the dense Gamma-hat
    s = lp.load_sample(np.random.default_rng(2024).normal(size=50_000))
    call("diff_mse_bandwidth normal50000 c=0.0 p=2", lp.diff_mse_bandwidth, s, 0.0, 2)

    regions = {"interior": (0.5, 0.2), "lower": (0.05, 0.2), "lower-edge": (0.0, 0.2), "upper": (0.9, 0.2)}
    for family in kernels.KERNEL_FAMILIES:
        for kind, (x, h) in regions.items():
            region = kernels.classify_region(x, h, 0.0, 1.0)
            for p in range(4):
                call(f"moments {family} {kind} p={p}", kernels.moments, family, region, p)
    # pow's slow negative-base path, and runs of tied u that hold both -0.0 and 0.0
    windows = {"negative": samples["raw"].values[:40] / 3.0,
               "heaped": np.sort(np.append(np.round(raw[:80], 1), [-0.0, 0.0])) / 2.0}
    for name, u in windows.items():
        for basis in lp.BasisKind:
            for p in range(6):
                call(f"basis_matrix {name} {basis.value} p={p}", kernels.basis_matrix, u, p, basis)

    with open(out_path, "w") as fh:
        json.dump(entries, fh, indent=0)
        fh.write("\n")
    raises = sum(result.startswith("raise ") for _, result in entries)
    print(f"{len(entries)} calls, {raises} typed raises -> {out_path}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: dump_outputs.py SRC OUT.json")
    main(sys.argv[1], sys.argv[2])
