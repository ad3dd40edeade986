"""Command-line interface: density grids, manipulation tests, simulations.

Exit codes: 0 success, 1 fatal or usage error (a machine-parsable reason
line ends stderr), 2 partial per-point failures on a density grid. No
subcommand mutates its input; outputs go to stdout or a fresh file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace

from . import density as density_mod
from . import simulation
from .errors import LpDensError
from .kernels import KERNEL_FAMILIES
from .maniptest import MODELS, rbc_test
from .sample import load_csv


class OutputNotWritable(OSError):
    """The ``--output`` file could not be written."""


class UsageError(ValueError):
    """The command line does not parse (exit 1: argparse's own 2 would read as partial results)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.format_usage()}{self.prog}: {message}\n")
        raise UsageError(message)


def _reason_tag(exc: Exception) -> str:
    if isinstance(exc, FileNotFoundError):
        return "input-not-found"
    # CamelCase class name to kebab-case tag, e.g. EmptySide -> empty-side
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def render(records, fields, fmt: str) -> str:
    """Records as indented JSON, or as CSV with ``fields`` as the columns.

    JSON takes any JSON value (``lpdens test`` emits one record); NaN or inf
    raises ValueError. CSV writes a header row, ``"\n"`` endings, None as "".
    """
    if fmt == "json":
        return json.dumps(records, indent=2, allow_nan=False)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputNotWritable(f"cannot write {output_path}") from exc


def cmd_density(args) -> int:
    sample = load_csv(args.input)
    if args.grid_points is not None:
        grid = args.grid_points
    else:
        grid = density_mod.default_grid(sample, 25 if args.grid is None else args.grid)
    estimates = density_mod.estimate_grid(
        sample, grid, p=args.p, v=args.v, kernel=args.kernel, h=args.bandwidth, alpha=args.alpha,
    )
    _emit(render([e.record() for e in estimates], density_mod.FIELDS, args.format), args.output)
    failed = [e for e in estimates if e.error is not None]
    for e in failed:
        print(f"warning: x={e.x} {e.error}", file=sys.stderr)
    return 2 if failed else 0


def cmd_test(args) -> int:
    sample = load_csv(args.input)
    result = rbc_test(sample, args.cutoff, p=args.p, kernel=args.kernel, model=args.model)
    _emit(render(result.record(), None, "json"), args.output)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    design = simulation.load_design(args.design)
    if args.seed is not None:
        design = replace(design, seed=args.seed)
    rows = simulation.run_design(design, threads=args.threads)
    _emit(render(rows, simulation.CSV_COLUMNS, args.format), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpdens",
        description="Boundary-adaptive local polynomial density estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def output(sp, formats=True):
        sp.add_argument("--output", default=None, help="output file (default: stdout)")
        if formats:
            sp.add_argument("--format", choices=("json", "csv"), default="json",
                            help="output format (default: json)")

    def common(sp, formats):
        sp.add_argument("--input", required=True, help="single-column CSV of observations")
        output(sp, formats)
        sp.add_argument("--p", type=int, default=2, help="polynomial order (default: 2)")
        sp.add_argument("--kernel", choices=KERNEL_FAMILIES,
                        default="triangular", help="kernel family (default: triangular)")

    sp = sub.add_parser("density", help="estimate the density over a grid")
    common(sp, formats=True)
    sp.add_argument("--v", type=int, default=1, help="derivative order (default: 1)")
    # None, not 25, by default: argparse lets a flag equal to its default pass the exclusion
    grid = sp.add_mutually_exclusive_group()
    grid.add_argument("--grid", type=int, default=None,
                      help="at most this many quantile grid points (default: 25)")
    grid.add_argument("--grid-points", type=lambda s: [float(t) for t in s.split(",")],
                      default=None, help="explicit comma-separated evaluation points")
    sp.add_argument("--bandwidth", type=lambda s: None if s == "auto" else float(s), default="auto",
                    help="'auto' for pointwise MSE-optimal, or a fixed value (default: auto)")
    sp.add_argument("--alpha", type=float, default=0.05,
                    help="CI significance level (default: 0.05)")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("test", help="density-discontinuity test at a cutoff")
    common(sp, formats=False)
    sp.add_argument("--cutoff", type=float, required=True, help="known cutoff location")
    sp.add_argument("--model", choices=MODELS,
                    default="unrestricted", help="cutoff model (default: unrestricted)")
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("simulate", help="run a Monte Carlo design file")
    sp.add_argument("--design", required=True, help="JSON design file")
    output(sp)
    sp.add_argument("--seed", type=int, default=None, help="override the design seed")
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes (default: 1); output is worker-count invariant")
    sp.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (LpDensError, OSError, ValueError, MemoryError, BrokenExecutor) as exc:
        print(f"error: {_reason_tag(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
