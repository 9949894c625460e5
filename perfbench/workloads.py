"""The four benchmark workloads: seeded inputs, CLI commands, output checks.

Each workload turns a seed into instance files under a work directory and
a fixed list of ``hetcache`` command lines (the *job*).  Every command
carries a check that compares its output with a reference the CLI did not
produce, so a fast but wrong answer counts as a failed command.

Rates are drawn from (0.05, 1.0], sorted ascending, with N = K files.
Within one job the user counts are fixed; only the drawn values depend on
the seed, so jobs of different seeds do comparable work.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from hetcache.closed_form import theorem1_load
from hetcache.model import make_rate_profile

# |lp_load - theorem1_load| allowed on sweep rows (release check 2)
LP_CLOSED_FORM_TOL = 1e-6
# slack for "lower bound <= achievable" comparisons (release checks 5 and 7)
ORDER_TOL = 1e-8
# the fixed cut-set bound against the sort-based reference; sums of at
# most 16 terms below 1.0 in a different order
FIXED_BOUND_TOL = 1e-9

Check = Callable[[int, str], list]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its (exit code, stdout) must pass."""

    argv: tuple
    check: Check


@dataclass(frozen=True)
class Sizes:
    """How much work one job holds; ``FULL`` is what the benchmark measures."""

    sweep_users: tuple
    sweep_points: int
    compare_users: tuple
    compare_points: int
    bounds_budget_users: tuple
    bounds_fixed_users: tuple
    verify_users: tuple
    verify_sizes: tuple  # (file size, library seeds) pairs


FULL = Sizes(
    sweep_users=(5,) * 6,
    sweep_points=2,
    compare_users=(4,) * 12 + (5,) * 6,
    compare_points=3,
    bounds_budget_users=(7, 8, 9) * 4,
    bounds_fixed_users=tuple(range(10, 17)) * 2,
    verify_users=(4,) * 12 + (5,) * 4,
    verify_sizes=((10_000, (0, 1, 2)), (1_000_000, (0,))),
)

TINY = Sizes(
    sweep_users=(3,),
    sweep_points=3,
    compare_users=(3,),
    compare_points=2,
    bounds_budget_users=(4,),
    bounds_fixed_users=(6,),
    verify_users=(3,),
    verify_sizes=((1_000, (0,)), (10_000, (0,))),
)


def draw_rates(rng: random.Random, K: int) -> list:
    return sorted(1.0 - 0.95 * rng.random() for _ in range(K))


def stratified(rng: random.Random, users: tuple) -> dict:
    """Per user count K, one fraction in [0, 1) for each instance with K users.

    The fractions of one K come from equal strata in shuffled order, so every
    job spreads budgets (or cache ratios) over the whole range, whatever the
    seed; drawing them independently lets one seed's job be much easier.
    """
    out = {}
    for K in sorted(set(users)):
        n = users.count(K)
        out[K] = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(out[K])
    return out


def _write(workdir: str, name: str, data: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _csv_rows(stdout: str) -> list:
    return list(csv.DictReader(io.StringIO(stdout)))


def _checked(check: Check) -> Check:
    """Common preamble: exit code 0 and parseable output, else a problem."""

    def wrapped(rc: int, stdout: str) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return check(rc, stdout)
        except (KeyError, ValueError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    return wrapped


# ---------------------------------------------------------------------------
# checks


def check_sweep(rates: list) -> Check:
    profile = make_rate_profile(rates)

    def check(_rc, stdout):
        rows = _csv_rows(stdout)
        problems = [] if rows else ["no rows"]
        for row in rows:
            m_tot = float(row["m_tot"])
            lp = float(row["lp_load"])
            ref = theorem1_load(m_tot, profile)
            if abs(lp - ref) > LP_CLOSED_FORM_TOL:
                problems.append(f"m_tot={m_tot}: lp_load {lp} vs closed form {ref}")
            if float(row["cutset"]) > lp + ORDER_TOL:
                problems.append(f"m_tot={m_tot}: cutset {row['cutset']} above lp_load {lp}")
        return problems

    return _checked(check)


@_checked
def check_compare(_rc: int, stdout: str) -> list:
    rows = _csv_rows(stdout)
    problems = [] if rows else ["no rows"]
    for row in rows:
        joint = float(row["joint_o2"])
        split = min(float(row["pca"]), float(row["oca"]))
        cut = float(row["cutset_fixed"])
        if not (cut <= joint + ORDER_TOL and joint <= split + ORDER_TOL):
            problems.append(
                f"m_tot={row['m_tot']}: cutset {cut} <= joint {joint} "
                f"<= min(pca, oca) {split} fails"
            )
    return problems


def check_budget_bound(rates: list, m_tot: float) -> Check:
    achievable = theorem1_load(m_tot, make_rate_profile(rates))

    def check(_rc, stdout):
        (row,) = _csv_rows(stdout)
        cut = float(row["cutset"])
        if cut > achievable + ORDER_TOL:
            return [f"budget bound {cut} above theorem1_load {achievable}"]
        return []

    return _checked(check)


def fixed_bound_reference(rates: list, memories: list, N: int) -> float:
    """Best cut for fixed caches without subset enumeration.

    For a subset size s every user contributes r_k - (N / floor(N/s)) m_k,
    so the best cut of that size takes the s largest contributions.
    """
    best = -float("inf")
    for s in range(1, len(rates) + 1):
        coef = N / (N // s)
        terms = sorted((r - coef * m for r, m in zip(rates, memories)), reverse=True)
        best = max(best, sum(terms[:s]))
    return max(best, 0.0)


def check_fixed_bound(rates: list, memories: list) -> Check:
    expected = fixed_bound_reference(rates, memories, len(rates))

    def check(_rc, stdout):
        (row,) = _csv_rows(stdout)
        cut = float(row["cutset"])
        if abs(cut - expected) > FIXED_BOUND_TOL:
            return [f"fixed bound {cut} vs sort-based reference {expected}"]
        return []

    return _checked(check)


def check_verify(rc: int, stdout: str) -> list:
    if rc != 0 or not stdout.startswith("PASS"):
        return [f"exit code {rc}, output {stdout.strip()[:120]!r}"]
    return []


# ---------------------------------------------------------------------------
# jobs


def sweep_budget(seed: int, workdir: str, sizes: Sizes, run_cli) -> list:
    rng = random.Random(seed)
    commands = []
    for i, K in enumerate(sizes.sweep_users):
        rates = draw_rates(rng, K)
        path = _write(workdir, f"sweep{i}.json",
                      {"K": K, "N": K, "rates": rates, "budget": sum(rates) / 2})
        argv = ("sweep", path, "--points", str(sizes.sweep_points))
        commands.append(Command(argv, check_sweep(rates)))
    return commands


def compare_fixed(seed: int, workdir: str, sizes: Sizes, run_cli) -> list:
    rng = random.Random(seed)
    users = sizes.compare_users
    fractions = stratified(rng, users)
    commands = []
    for i, K in enumerate(users):
        rates = draw_rates(rng, K)
        ratio = 0.6 + 0.35 * fractions[K].pop()
        # compare-baselines derives the caches from --ratio; these are placeholders
        path = _write(workdir, f"compare{i}.json",
                      {"K": K, "N": K, "rates": rates, "memories": [0.0] * K})
        argv = ("compare-baselines", path, "--points", str(sizes.compare_points),
                "--ratio", repr(ratio))
        commands.append(Command(argv, check_compare))
    return commands


def bounds_cutset(seed: int, workdir: str, sizes: Sizes, run_cli) -> list:
    rng = random.Random(seed)
    commands = []
    budget_users = sizes.bounds_budget_users
    fractions = stratified(rng, budget_users)
    for i, K in enumerate(budget_users):
        rates = draw_rates(rng, K)
        m_tot = sum(rates) * fractions[K].pop()
        path = _write(workdir, f"budget{i}.json",
                      {"K": K, "N": K, "rates": rates, "budget": m_tot})
        commands.append(Command(("bounds", path), check_budget_bound(rates, m_tot)))
    for i, K in enumerate(sizes.bounds_fixed_users):
        rates = draw_rates(rng, K)
        memories = [r * rng.random() for r in rates]
        path = _write(workdir, f"fixed{i}.json",
                      {"K": K, "N": K, "rates": rates, "memories": memories})
        commands.append(Command(("bounds", path), check_fixed_bound(rates, memories)))
    rng.shuffle(commands)
    return commands


def verify_bits(seed: int, workdir: str, sizes: Sizes, run_cli) -> list:
    """Schemes are solved here, during set-up, so no LP runs in the job."""
    rng = random.Random(seed)
    fractions = stratified(rng, sizes.verify_users)
    commands = []
    for i, K in enumerate(sizes.verify_users):
        rates = draw_rates(rng, K)
        budget = sum(rates) * fractions[K].pop()
        path = _write(workdir, f"verify{i}.json",
                      {"K": K, "N": K, "rates": rates, "budget": budget})
        scheme = os.path.join(workdir, f"scheme{i}.json")
        rc, out = run_cli(("solve", path, "--out", scheme))
        if rc != 0:
            raise RuntimeError(f"set-up solve of {path} failed: exit {rc}: {out!r}")
        for file_size, library_seeds in sizes.verify_sizes:
            for lib_seed in library_seeds:
                argv = ("verify", path, "--scheme", scheme,
                        "--file-size", str(file_size), "--seed", str(lib_seed))
                commands.append(Command(argv, check_verify))
    return commands


# Wall time of one FULL job on a 2-vCPU x86 box (Python 3.11, numpy 2.4,
# OpenBLAS on one thread).  A run holds round(--seconds / JOB_SECONDS) jobs, so
# every run of a workload does the same work and each percentile rests on the
# same number of commands; a count that followed the machine's speed would
# move the tail percentile from one group of commands to another.
JOB_SECONDS = {
    "sweep_budget": 20.0,
    "compare_fixed": 8.5,
    "bounds_cutset": 6.0,
    "verify_bits": 0.65,
}

WORKLOADS = {
    "sweep_budget": sweep_budget,
    "compare_fixed": compare_fixed,
    "bounds_cutset": bounds_cutset,
    "verify_bits": verify_bits,
}
