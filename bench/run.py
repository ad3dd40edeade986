"""lpdens benchmark: one workload, driven by one single-threaded closed-loop caller.

    python3 bench/run.py --workload density_grid --seed 0 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it imports lpdens from the
checkout's ``src/`` and exits with code 2 when that is missing. Inputs come
from ``--seed``. The caller issues each public call only after the previous
one returned, in whole passes over the workload's units, until ``--seconds``
have elapsed. lpdens's function caches are cleared before every pass, as
a fresh CLI process would find them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (U T T U ...) and reports the per-layer metrics
of the traced passes, the tracing overhead and the share of the traced
run time that the top-level spans cover. Both modes check the outputs.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and sample counts. See NOTE.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

#: the seed whose outputs are recorded in reference.json
DEFAULT_SEED = 0
#: fresh interpreters timed for setup_s; the median is reported
SETUP_PROBES = 3
WORKLOADS = ("density_grid", "cutoff_test", "mc_study")


@dataclass
class Call:
    seconds: float
    returned: bool  # returned without an error, so its latency counts
    record: dict
    attempted: int
    failed: int
    untyped: str | None = None  # an exception outside the error contract


@dataclass
class Pass:
    traced: bool
    seconds: float
    calls: list
    tracer: object = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def clear_caches():
    """Empty every functools cache in lpdens, as at a fresh process start."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "lpdens" or name.startswith("lpdens.")):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(wl, lp, tracer_cls):
    clear_caches()
    tr = tracer_cls() if tracer_cls else None
    calls = []
    start = time.perf_counter()
    with tr or nullcontext():
        for unit in wl.units:
            t0 = time.perf_counter()
            try:
                result = wl.call(lp, unit)
            except (lp.LpDensError, ValueError) as exc:
                # the error tags the CLI reports for these (cli.py catches both)
                dt = time.perf_counter() - t0
                n = wl.attempted(unit)
                calls.append(Call(dt, False, wl.error_record(unit, type(exc).__name__), n, n))
                continue
            except Exception as exc:  # noqa: BLE001 - reported as a wrong output
                dt = time.perf_counter() - t0
                n = wl.attempted(unit)
                tag = type(exc).__name__
                calls.append(Call(dt, False, wl.error_record(unit, tag), n, n, f"{unit}: {exc!r}"))
                continue
            dt = time.perf_counter() - t0
            record, attempted, failed = wl.outcome(unit, result)
            calls.append(Call(dt, failed < attempted, record, attempted, failed))
    return Pass(tr is not None, time.perf_counter() - start, calls, tr)


def probe_setup(wl_name, files):
    """import lpdens + load the inputs, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), str(SRC), wl_name, *files],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(wl, passes, seed):
    """(problems, misses): problems fail the run; misses are single estimates
    far from the truth, reported but tolerated in small numbers."""
    import workloads

    problems = []
    first = [c.record for c in passes[0].calls]
    want = None
    if seed == DEFAULT_SEED:
        want = json.loads(REFERENCE.read_text())[wl.name]
        if len(want) != len(first):
            return [f"reference holds {len(want)} units, the pass has {len(first)}"], []
    for k, p in enumerate(passes):
        for i, (unit, call) in enumerate(zip(wl.units, p.calls)):
            if call.untyped:
                problems.append(f"untyped error: {call.untyped}")
            diffs = workloads.compare_records(call.record, first[i]) if k else []
            if want is not None:
                diffs += workloads.compare_records(call.record, want[i])
            problems += [f"pass {k} unit {unit}: {d}" for d in diffs]
    bad, misses = wl.sanity(first)
    return problems + bad, misses


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    if threads is None:
        threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return name, threads if threads is not None else "unknown"


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args):
    import numpy
    import scipy

    blas, blas_threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups):
    calls = [c for p in passes for c in p.calls]
    run_s = sum(p.seconds for p in passes)
    attempted = sum(c.attempted for c in calls)
    ok = attempted - sum(c.failed for c in calls)
    lat_ms = [c.seconds * 1e3 for c in calls if c.returned]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "setup_s": metric(statistics.median(s["import_s"] + s["load_s"] for s in setups), "s"),
        "units_per_s": metric(ok / run_s, "1/s"),
        "call_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "call_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(ok / attempted, "ratio"),
    }, {"calls": len(calls), "calls_returned": len(lat_ms), "run_s": run_s,
        "pass_s": [round(p.seconds, 4) for p in passes]}


def per_layer(passes, setup_tracer, setups):
    import tracer

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    k = len(traced)
    out = {}
    setup_stats, _ = setup_tracer.layer_stats()
    per_pass = [p.tracer.layer_stats() for p in traced]
    for label in tracer.TRACED:
        # set-up calls (load_csv) are counted once, pass calls per pass
        calls, self_s, errors = setup_stats[label]
        calls += sum(s[label][0] for s, _ in per_pass) / k
        self_s += sum(s[label][1] for s, _ in per_pass) / k
        errors += sum(s[label][2] for s, _ in per_pass) / k
        out[f"{label}.calls"] = metric(calls, "count")
        out[f"{label}.self_s"] = metric(self_s, "s")
        out[f"{label}.errors"] = metric(errors, "count")
    for name, unit in tracer.COUNTS.items():
        values = [p.tracer.counts.get(name, 0.0) for p in traced]
        if name == "kernels.moments.distinct_keys":
            values = [len(p.tracer.moment_keys) for p in traced]
        value = max(values) if name.endswith("peak_mb") else sum(values) / k
        out[name] = metric(value, unit)
    out["setup.import_s"] = metric(statistics.median(s["import_s"] for s in setups), "s")
    t_med = statistics.median(p.seconds for p in traced)
    u_med = statistics.median(p.seconds for p in plain)
    out["trace.overhead_frac"] = metric(t_med / u_med - 1.0, "ratio")
    covered = sum(top for _, top in per_pass)
    out["trace.top_level_share"] = metric(covered / sum(p.seconds for p in traced), "ratio")
    return out


def run(args, lp, workdir):
    import tracer
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(cls.generate(args.seed, workdir))
    setup_tracer = tracer.Tracer()
    with setup_tracer if args.trace else nullcontext():
        wl.load(lp)
    wl.prepare(lp)
    setups = [probe_setup(args.workload, wl.files) for _ in range(SETUP_PROBES)]

    schedule = (None, tracer.Tracer, tracer.Tracer, None) if args.trace else (None,)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, lp, schedule[len(passes) % len(schedule)]))
        # stop at the pass boundary nearest to --seconds
        elapsed = time.perf_counter() - start + passes[-1].seconds / 2
        if elapsed >= args.seconds and len(passes) >= len(schedule) // 2 + 1:
            break

    problems, misses = check(wl, passes, args.seed)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for msg in misses:
        print(f"far from the truth: {msg}", file=sys.stderr)
    calls = [c for p in passes for c in p.calls]
    tags = {}
    for c in calls:
        if c.record.get("error"):
            tags[c.record["error"]] = tags.get(c.record["error"], 0) + 1
    e2e, samples = end_to_end(passes, setups)
    metrics = per_layer(passes, setup_tracer, setups) if args.trace else e2e
    print(json.dumps({"env": environment(args), "samples": samples,
                      "failed_calls_by_tag": tags, "truth_misses": len(misses)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.failed for c in calls),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lpdens" / "__init__.py").is_file():
        print(f"error: no lpdens sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lpdens

    if Path(lpdens.__file__).resolve().parent != (SRC / "lpdens").resolve():
        print(f"error: imported lpdens from {lpdens.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, lpdens, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
