"""Command line front end.

Five subcommands cover the workflow: ``solve`` one instance, ``sweep``
the whole memory-load curve, ``compare-baselines`` against the split
heuristics, ``bounds`` for the converse side, and ``verify`` to rehearse
a scheme bit by bit.  Output is CSV or JSON, always with '.' decimals
and '\\n' line endings so files diff cleanly across machines.

Exit codes are part of the contract: 0 success, 2 invalid input, 3
solver breakdown, 4 failed verification.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys

# perfbench/tracing.py wraps cli.baseline_load, so it stays importable here
from .baselines import baseline_load, baseline_loads  # noqa: F401
from .bounds import cutset_budget, cutset_fixed, cutset_k3
from .closed_form import corner_points, theorem1_load, threshold_allocation
from .lp_core import SolverError, solve_lp
from .model import Budget, FixedMemories, InstanceError, _json_integer, load_instance, read_json
from .scheme_lp import (
    SchemeSolution,
    build_intra_restricted,
    build_o1,
    build_o2,
    extract_scheme,
    mask_label,
    scheme_problems,
)
from .simulator import library_layout, verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# most points a sweep or a comparison takes: each one is a solve
MAX_POINTS = 10_000

# users from which a scheme program's cold solve is long: about a minute
# at K=8, against 3-4 s at K=7
LONG_SOLVE_USERS = 8


def _build(inst, mode: str):
    if mode == "intra":
        return build_intra_restricted(inst)
    if inst.is_budget:
        return build_o1(inst)
    return build_o2(inst)


def _solve_chain(subs, mode: str = "joint") -> list[SchemeSolution]:
    """Solve one program at each instance's memory, given in ascending
    order; the schemes come back in that order.

    The instances differ only in their budget or cache sizes, and a start
    is taken on every program built over the same index and constraint
    type, so each point is built and solved from the optimal basis of the
    point above it, which leaves only a few dual pivots per point.  The chain
    walks down from the most memory, where the cold solve is cheapest.
    Once the first build has passed the size check, a program of
    LONG_SOLVE_USERS users or more warns that its solves will be long.
    """
    schemes = [None] * len(subs)
    start = None
    for i in reversed(range(len(subs))):
        lp, index = _build(subs[i], mode)
        if start is None and subs[i].K >= LONG_SOLVE_USERS:
            print(f"warning: {subs[i].K} users; program size grows as 3^K, "
                  "expect long solves", file=sys.stderr)
        solution = solve_lp(lp, start=start)
        if not solution.is_optimal:
            raise SolverError(f"solve ended with status {solution.status.value}")
        start = solution.basis
        schemes[i] = extract_scheme(solution, index)
    return schemes


def _points(args) -> int:
    """--points, raised to the two end points and refused above MAX_POINTS."""
    if args.points > MAX_POINTS:
        raise InstanceError([f"--points {args.points} is above the limit of {MAX_POINTS}"])
    return max(2, args.points)


def _solve_scheme(inst, mode: str) -> SchemeSolution:
    (scheme,) = _solve_chain([inst], mode)
    return scheme


def _open_out(path):
    """A text file to write ``path``, or stdout when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_json(data, path) -> None:
    """Write ``data`` as indented JSON and a newline, to ``path`` or stdout."""
    with _open_out(path) as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _emit(rows: list[dict], header: list[str], args) -> None:
    """Write rows as CSV (header always) or JSON, to --out or stdout."""
    if args.format == "json":
        _write_json(rows, args.out)
        return
    with _open_out(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(row[c]) if isinstance(row[c], float) else row[c] for c in header]
            )


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    scheme = _solve_scheme(inst, args.mode)
    print(f"load = {scheme.load():.6f}")
    if args.out:
        _write_json(scheme.to_json_dict(), args.out)
    return EXIT_OK


def _budget_grid(rates, points: int) -> list[float]:
    """``points`` even budgets from 0 to the sum of rates, and every corner,
    ascending.  Corners keep the curve exact where it has kinks.  A budget
    less than 1e-12 times the sum of rates below a larger one is dropped,
    so the grid ends at the sum of rates exactly and no point is solved
    twice."""
    total = rates.sum_rates
    grid = {total * i / (points - 1) for i in range(points - 1)}
    grid.update(m for m, _ in corner_points(rates))
    grid.add(total)
    kept = []
    for m in sorted(grid, reverse=True):
        if not kept or m < kept[-1] - 1e-12 * total:
            kept.append(m)
    return kept[::-1]


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    if not inst.is_budget:
        raise InstanceError(["sweep needs a budget instance (total memory free)"])
    rates = inst.rates
    subs = [dataclasses.replace(inst, constraint=Budget(m_tot=m))
            for m in _budget_grid(rates, _points(args))]
    schemes = _solve_chain(subs)
    cutsets = [None] * len(subs)
    start = None
    for i in reversed(range(len(subs))):
        report = cutset_budget(subs[i], start=start)
        start = report.basis
        cutsets[i] = report.value

    def one(i: int) -> dict:
        m_tot = subs[i].constraint.m_tot
        row = {
            "m_tot": m_tot,
            "lp_load": schemes[i].load(),
            "theorem1_load": theorem1_load(m_tot, rates),
            "cutset": cutsets[i],
        }
        for k, mk in enumerate(threshold_allocation(m_tot, rates), 1):
            row[f"m_{k}"] = mk
        return row

    rows = [one(i) for i in range(len(subs))]
    header = ["m_tot", "lp_load", "theorem1_load", "cutset"]
    header += [f"m_{k}" for k in range(1, inst.K + 1)]
    _emit(rows, header, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    inst = load_instance(args.instance)
    rates = inst.rates
    K = inst.K
    g = args.ratio
    try:
        shape = [g ** (K - k) for k in range(1, K + 1)]
    except OverflowError:
        shape = [math.inf]
    # NaN fails every one of these tests
    if not (g > 0 and all(0.0 < w < math.inf for w in shape)):
        raise InstanceError(
            [f"--ratio {g} must be positive with every power g^(K-k) finite and nonzero"]
        )
    s_max = min(rates.r[k - 1] / shape[k - 1] for k in range(1, K + 1))
    points = _points(args)
    subs = []
    for i in range(points):
        s = s_max * i / (points - 1)
        m = tuple(s * shape[k - 1] for k in range(1, K + 1))
        subs.append(dataclasses.replace(inst, constraint=FixedMemories(m=m)))
    # an empty cache is served by unicast alone and a full one needs
    # nothing (the reduction rule of the baselines module), so where every
    # cache is one or the other the load is the empty users' rates, unsolved
    partial = [any(0.0 < mk < rk for mk, rk in zip(sub.constraint.m, rates.r))
               for sub in subs]
    schemes = iter(_solve_chain([sub for sub, p in zip(subs, partial) if p]))
    joint = [next(schemes).load() if p
             else sum((rk for mk, rk in zip(sub.constraint.m, rates.r) if mk <= 0.0), 0.0)
             for sub, p in zip(subs, partial)]
    baselines = baseline_loads(subs)

    def one(i: int) -> dict:
        sub = subs[i]
        return {
            "m_tot": sum(sub.constraint.m),
            "joint_o2": joint[i],
            "pca": baselines["pca"][i],
            "oca": baselines["oca"][i],
            "cutset_fixed": cutset_fixed(sub).value,
        }

    rows = [one(i) for i in range(points)]
    _emit(rows, ["m_tot", "joint_o2", "pca", "oca", "cutset_fixed"], args)
    return EXIT_OK


def cmd_bounds(args) -> int:
    # the bound programs grow like K^2, so no size warning
    inst = load_instance(args.instance)
    if inst.is_budget:
        report = cutset_budget(inst)
        row = {"cutset": report.value}
        if inst.K == 3:
            row["cutset_k3"] = cutset_k3(inst)
        for k, mk in enumerate(report.binding_set, 1):
            row[f"m_{k}"] = mk
    else:
        report = cutset_fixed(inst)
        row = {"cutset": report.value, "binding_users": mask_label(report.binding_set)}
    _emit([row], list(row), args)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    # refuse the library options before a scheme is read or solved
    library_layout(inst, args.file_size, args.seed)
    if args.scheme:
        data = read_json(args.scheme, "scheme file")
        # a scheme for another user count is refused before its index is built
        K = _json_integer(data, "K", None, []) if isinstance(data, dict) else None
        if K is not None and K != inst.K:
            raise InstanceError([f"scheme is for {K} users, instance for {inst.K}"])
        scheme = SchemeSolution.from_json_dict(data)
        problems = scheme_problems(scheme, inst)
        if problems:
            print("FAIL: scheme is inconsistent with the instance")
            for p in problems[:10]:
                print(f"  {p}")
            return EXIT_VERIFY
    else:
        scheme = _solve_scheme(inst, args.mode)

    report = verify(inst, scheme, args.file_size, args.seed)
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"{verdict}: measured load {report.measured_load:.6f}, "
        f"predicted {report.predicted_load:.6f}, "
        f"discrepancy {report.max_discrepancy:.2e} "
        f"(bound {report.discrepancy_bound:.2e})"
    )
    if not report.ok:
        for k, status in enumerate(report.user_status, 1):
            if status != "ok":
                print(f"  user {k}: {status}")
    if args.out:
        _write_json(report.to_json_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # parsing does not change the parser, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcache",
        description="Cache allocation and coded delivery for users with "
        "unequal quality targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("instance", help="instance JSON file")
    solve.add_argument("--mode", choices=("joint", "intra"), default="joint")
    solve.add_argument("--out", help="write the scheme as JSON here")
    solve.set_defaults(fn=cmd_solve)

    sweep = sub.add_parser("sweep", help="trace the memory-load trade-off")
    sweep.add_argument("instance")
    sweep.add_argument("--points", type=int, default=50)
    sweep.add_argument("--out")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(fn=cmd_sweep)

    compare = sub.add_parser(
        "compare-baselines", help="joint optimum vs split heuristics"
    )
    compare.add_argument("instance")
    compare.add_argument("--points", type=int, default=20)
    compare.add_argument("--ratio", type=float, default=0.8,
                         help="cache size ratio m_k / m_{k+1}")
    compare.add_argument("--out")
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.set_defaults(fn=cmd_compare)

    bounds = sub.add_parser("bounds", help="cut-set lower bounds")
    bounds.add_argument("instance")
    bounds.add_argument("--out")
    bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    bounds.set_defaults(fn=cmd_bounds)

    ver = sub.add_parser("verify", help="bit-level rehearsal of a scheme")
    ver.add_argument("instance")
    ver.add_argument("--mode", choices=("joint", "intra"), default="joint")
    ver.add_argument("--scheme", help="verify this scheme JSON instead of re-solving")
    ver.add_argument("--file-size", type=int, default=10_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", help="write the report as JSON here")
    ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InstanceError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
