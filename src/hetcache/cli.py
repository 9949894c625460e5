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
import csv
import dataclasses
import json
import math
import sys

# perfbench/tracing.py wraps cli.baseline_load, so it stays importable here
from .baselines import baseline_load, baseline_loads  # noqa: F401
from .bounds import cutset_budget, cutset_fixed, cutset_k3
from .closed_form import corner_points, theorem1_load, threshold_allocation
from .lp_core import SolverError, solve_lp
from .model import Budget, FixedMemories, InstanceError, load_instance
from .scheme_lp import (
    SchemeSolution,
    build_intra_restricted,
    build_o1,
    build_o2,
    extract_scheme,
    mask_label,
    scheme_problems,
    with_memory,
)
from .simulator import library_layout, verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# most points a sweep or a comparison takes: each one is a solve
MAX_POINTS = 10_000


def _load(path: str):
    """Load an instance for a subcommand that builds the scheme program."""
    inst = load_instance(path)
    if inst.K > 6:
        print(
            f"warning: {inst.K} users; program size grows as 3^K, expect long solves",
            file=sys.stderr,
        )
    return inst


def _build(inst, mode: str):
    if mode == "intra":
        return build_intra_restricted(inst)
    if inst.is_budget:
        return build_o1(inst)
    return build_o2(inst)


def _solve_chain(subs, mode: str = "joint") -> list[SchemeSolution]:
    """Solve one program at each instance's memory, in order.

    The instances differ only in their budget or cache sizes, so the
    program is built once and each solve starts from the previous optimal
    basis, which leaves only a few dual pivots per point.
    """
    lp, index = _build(subs[0], mode)
    schemes = []
    start = None
    for sub in subs:
        solution = solve_lp(with_memory(lp, sub), start=start)
        if not solution.is_optimal:
            raise SolverError(f"solve ended with status {solution.status.value}")
        start = solution.basis
        schemes.append(extract_scheme(solution, index))
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
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _emit(rows: list[dict], header: list[str], args) -> None:
    """Write rows as CSV (header always) or JSON, to --out or stdout."""
    fh, close = _open_out(getattr(args, "out", None))
    try:
        if args.format == "json":
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(
                    [
                        repr(row[c]) if isinstance(row[c], float) else row[c]
                        for c in header
                    ]
                )
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    scheme = _solve_scheme(inst, args.mode)
    print(f"load = {scheme.load():.6f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(scheme.to_json_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    inst = _load(args.instance)
    if not inst.is_budget:
        raise InstanceError(["sweep needs a budget instance (total memory free)"])
    rates = inst.rates
    total = rates.sum_rates
    points = _points(args)
    grid = {total * i / (points - 1) for i in range(points)}
    # corners keep the curve exact where it has kinks
    grid.update(m for m, _ in corner_points(rates))
    subs = [dataclasses.replace(inst, constraint=Budget(m_tot=m)) for m in sorted(grid)]
    schemes = _solve_chain(subs)
    # the bound program, too, moves only its budget from point to point
    cutsets = []
    start = None
    for sub in subs:
        report = cutset_budget(sub, start=start)
        start = report.basis
        cutsets.append(report.value)

    def one(i: int) -> dict:
        m_tot = subs[i].constraint.m_tot
        alloc = threshold_allocation(m_tot, rates)
        row = {
            "m_tot": m_tot,
            "lp_load": schemes[i].load(),
            "theorem1_load": theorem1_load(m_tot, rates),
            "cutset": cutsets[i],
        }
        for k in range(1, inst.K + 1):
            row[f"m_{k}"] = alloc.per_user[k - 1]
        return row

    rows = [one(i) for i in range(len(subs))]
    header = ["m_tot", "lp_load", "theorem1_load", "cutset"]
    header += [f"m_{k}" for k in range(1, inst.K + 1)]
    _emit(rows, header, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    inst = _load(args.instance)
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
    schemes = _solve_chain(subs)
    baselines = baseline_loads(inst, [sub.constraint.m for sub in subs])

    def one(i: int) -> dict:
        sub = subs[i]
        return {
            "m_tot": sum(sub.constraint.m),
            "joint_o2": schemes[i].load(),
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
    inst = _load(args.instance)
    # refuse the library options before a scheme is read or solved
    library_layout(inst, args.file_size, args.seed)
    if args.scheme:
        with open(args.scheme, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceError([f"scheme file is not valid JSON: {exc}"]) from exc
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
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring


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
