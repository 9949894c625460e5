"""Problem instances for caching with per-user quality targets.

A server holds N files drawn uniformly from a q-ary alphabet and serves K
users over a shared broadcast link.  User k tolerates reconstruction
distortion D_k, which under the usual per-symbol Hamming criterion requires
a description rate of

    rho(D) = log2(q) - H(D) - D * log2(q - 1)      bits per source symbol,

the q-ary rate-distortion function.  Users are indexed so that their rate
requirements r_1 <= r_2 <= ... <= r_K are non-decreasing (equivalently,
distortions non-increasing).  Successive refinement splits each file into
layers: layer l has width f_l = r_l - r_{l-1} and is useful exactly to
users l, l+1, ..., K.

This module holds the instance model shared by every other module: rate
profiles, memory constraints (a total budget to be split, or one fixed
cache size per user), and the JSON interchange format.  Instances are
validated once, when they are constructed, and each memory range is
defined once, by :func:`check_budget` and :func:`check_memories`.
All rates and memories are normalized per source symbol; logs are base 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence


# the most files an instance may name: the largest count a float holds
# exactly, and the cut-set bounds compute with N in floats
MAX_FILES = 2**53


class InstanceError(ValueError):
    """Raised when an instance fails validation.

    Carries the full list of problems, not just the first one, so a CLI can
    report everything wrong with an input file in one pass.
    """

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def binary_entropy(p: float) -> float:
    """H(p) in bits.  H(0) = H(1) = 0 by continuity."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def rho(distortion: float, q: int = 2) -> float:
    """Rate needed to describe a uniform q-ary source within Hamming
    distortion ``distortion``, in bits per symbol.

    Defined on [0, 1 - 1/q]; outside that range the distortion is either
    unachievable or free and we refuse rather than extrapolate.
    """
    if q < 2:
        raise ValueError(f"alphabet size q={q} must be at least 2")
    d_max = 1.0 - 1.0 / q
    if distortion < 0.0 or distortion > d_max:
        raise ValueError(f"distortion {distortion} outside [0, {d_max}] for q={q}")
    return math.log2(q) - binary_entropy(distortion) - distortion * math.log2(q - 1)


@dataclass(frozen=True)
class RateProfile:
    """Non-decreasing per-user rates r and the layer widths f they induce.

    f_l = r_l - r_{l-1} (with r_0 = 0), so layer l is the increment of
    description quality that user l is the first to need.
    """

    r: tuple[float, ...]
    f: tuple[float, ...]

    @property
    def K(self) -> int:
        return len(self.r)

    @property
    def sum_rates(self) -> float:
        return sum(self.r)


def make_rate_profile(rates: Iterable[float]) -> RateProfile:
    """Build a :class:`RateProfile` from per-user rates, sorted ascending by
    user index already.  Rejects negative or decreasing entries."""
    r = tuple(float(x) for x in rates)
    if not r:
        raise InstanceError(["rate vector is empty"])
    problems = []
    if r[0] < 0.0:
        problems.append(f"rates must be non-negative (r[1]={r[0]})")
    for i in range(1, len(r)):
        if r[i] < r[i - 1]:
            problems.append(
                f"rates must be non-decreasing (r[{i + 1}]={r[i]} < r[{i}]={r[i - 1]})"
            )
    if problems:
        raise InstanceError(problems)
    f = (r[0],) + tuple(r[i] - r[i - 1] for i in range(1, len(r)))
    return RateProfile(r=r, f=f)


def rates_from_distortions(distortions: Iterable[float], q: int = 2) -> RateProfile:
    """Convert a non-increasing distortion vector to its rate profile."""
    d = tuple(float(x) for x in distortions)
    for i in range(1, len(d)):
        if d[i] > d[i - 1]:
            raise InstanceError(
                [f"distortions must be non-increasing (D[{i + 1}]={d[i]} > D[{i}]={d[i - 1]})"]
            )
    return make_rate_profile(rho(x, q) for x in d)


@dataclass(frozen=True)
class Budget:
    """Total normalized cache memory to be divided among the users."""

    m_tot: float


@dataclass(frozen=True)
class FixedMemories:
    """One normalized cache size per user, m_k in [0, r_k]."""

    m: tuple[float, ...]


MemoryConstraint = Budget | FixedMemories


@dataclass(frozen=True)
class ProblemInstance:
    """A complete caching problem: population, library, rates, memory.

    Construction raises :class:`InstanceError` listing every problem
    :func:`validate_instance` finds, so an instance that exists is valid
    and no function checks it again; its budget or cache sizes lie in the
    ranges of :func:`check_budget` and :func:`check_memories`, and a budget
    is stored as :func:`check_budget` clamps it.  The regime N >= K with
    worst-case distinct demands is assumed throughout.
    """

    K: int
    N: int
    rates: RateProfile
    constraint: MemoryConstraint
    q: int = 2

    def __post_init__(self):
        problems = validate_instance(self)
        if problems:
            raise InstanceError(problems)
        if self.is_budget:
            object.__setattr__(self, "constraint",
                               Budget(check_budget(self.constraint.m_tot, self.rates)))

    @property
    def is_budget(self) -> bool:
        return isinstance(self.constraint, Budget)


def validate_instance(inst: ProblemInstance) -> list[str]:
    """Every problem with the fields of ``inst``, empty if none: the list
    that constructing a :class:`ProblemInstance` raises.

    Messages name the offending field and the bound it violates so they can
    be surfaced verbatim by the CLI.
    """
    problems: list[str] = []
    # NaN passes every range check, since it compares false: test it first
    finite = all(math.isfinite(x) for x in inst.rates.r)
    if not finite:
        problems.append(f"rates {list(inst.rates.r)} must be finite")
    if inst.K < 1:
        problems.append(f"K={inst.K} must be at least 1")
    if inst.N < inst.K:
        problems.append(f"N >= K violated (N={inst.N} < K={inst.K})")
    if inst.N > MAX_FILES:
        problems.append(f"N={inst.N} above 2^53, the largest file count a float holds")
    if inst.q < 2:
        problems.append(f"alphabet size q={inst.q} must be at least 2")
    if inst.rates.K != inst.K:
        problems.append(
            f"rate vector has {inst.rates.K} entries, expected K={inst.K}"
        )
    if inst.q >= 2 and any(x > math.log2(inst.q) + 1e-12 for x in inst.rates.r):
        problems.append(
            f"rates exceed log2(q)={math.log2(inst.q)}, unreachable for q={inst.q}"
        )
    # the memory ranges are read off the rates: test them only on finite ones
    if finite:
        try:
            if isinstance(inst.constraint, Budget):
                check_budget(inst.constraint.m_tot, inst.rates)
            else:
                check_memories(inst.constraint.m, inst.rates)
        except InstanceError as exc:
            problems += exc.problems
    return problems


def check_budget(m_tot: float, rates: RateProfile) -> float:
    """``m_tot`` clamped to [0, sum of rates], refused unless it lies in
    that range widened by 1e-9 for rounding.  Every route reads the
    clamped budget, so on the band the LP, the closed form and the bounds
    agree with their values at the ends."""
    total = rates.sum_rates
    if not -1e-9 <= m_tot <= total + 1e-9:  # NaN fails this test
        raise InstanceError([f"budget {m_tot} outside [0, {total}]"])
    return min(max(m_tot, 0.0), total)


def check_memories(m, rates: RateProfile) -> tuple[float, ...]:
    """``m`` as floats, refused unless it has one cache size m_k in [0, r_k]
    per user; the band is widened to [-1e-12, r_k + 1e-9] for rounding."""
    m = tuple(float(v) for v in m)
    if len(m) != rates.K:
        raise InstanceError([f"memory vector has {len(m)} entries for {rates.K} users"])
    problems = [
        f"memory m[{k}]={mk} outside [0, {rk}]"
        for k, (mk, rk) in enumerate(zip(m, rates.r), start=1)
        if not -1e-12 <= mk <= rk + 1e-9  # NaN fails this test
    ]
    if problems:
        raise InstanceError(problems)
    return m


# ---------------------------------------------------------------------------
# JSON interchange.
#
# {"K": 3, "N": 3, "q": 2, "rates": [0.5, 0.7, 1.0], "budget": 1.0}
# {"K": 3, "N": 3, "distortions": [0.3, 0.2, 0.0], "memories": [0.1, 0.2, 0.6]}
#
# Exactly one of rates/distortions and exactly one of budget/memories.


def _json_integer(data: dict, key: str, default: int | None, problems: list[str]):
    value = data.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"field '{key}' must be an integer, got {value!r}")
        return None
    return value


def _json_number(value, what: str, problems: list[str]) -> float | None:
    """``value`` as a float; NaN and infinities are left to ProblemInstance."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    problems.append(f"{what} must be a number, got {value!r}")
    return None


def _json_numbers(data: dict, key: str, problems: list[str]):
    value = data[key]
    if not isinstance(value, list):
        problems.append(f"field '{key}' must be a list of numbers, got {value!r}")
        return None
    before = len(problems)
    xs = [_json_number(x, f"{key}[{i}]", problems) for i, x in enumerate(value, 1)]
    return None if len(problems) > before else xs


def instance_from_dict(data: dict) -> ProblemInstance:
    problems: list[str] = []
    if not isinstance(data, dict):
        raise InstanceError(["instance document must be a JSON object"])
    for key in ("K", "N"):
        if key not in data:
            problems.append(f"missing required field '{key}'")
    unknown = set(data) - {"K", "N", "q", "rates", "distortions", "budget", "memories"}
    if unknown:
        problems.append(f"unknown fields: {sorted(unknown)}")
    has_rates = "rates" in data
    has_dist = "distortions" in data
    if has_rates == has_dist:
        problems.append("exactly one of 'rates' or 'distortions' is required")
    has_budget = "budget" in data
    has_mem = "memories" in data
    if has_budget == has_mem:
        problems.append("exactly one of 'budget' or 'memories' is required")
    if problems:
        raise InstanceError(problems)

    # JSON admits strings and booleans wherever a number is expected;
    # refuse them here instead of letting int() or float() raise.
    K = _json_integer(data, "K", None, problems)
    N = _json_integer(data, "N", None, problems)
    q = _json_integer(data, "q", 2, problems)
    profile = _json_numbers(data, "rates" if has_rates else "distortions", problems)
    if has_budget:
        memory = _json_number(data["budget"], "field 'budget'", problems)
    else:
        memory = _json_numbers(data, "memories", problems)
    if problems:
        raise InstanceError(problems)

    try:
        if has_rates:
            rates = make_rate_profile(profile)
        else:
            rates = rates_from_distortions(profile, q)
    except ValueError as exc:  # InstanceError, or rho refusing a distortion or q
        raise InstanceError(getattr(exc, "problems", [str(exc)])) from exc
    if has_budget:
        constraint: MemoryConstraint = Budget(m_tot=memory)
    else:
        constraint = FixedMemories(m=tuple(memory))
    return ProblemInstance(K=K, N=N, rates=rates, constraint=constraint, q=q)


def read_json(path: str, what: str):
    """The JSON document in file ``path``, which ``what`` names in a refusal.

    Text that is not UTF-8 or not JSON, and nesting too deep to parse, are
    bad input like any other: InstanceError, not a traceback.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: JSON and UTF-8 errors
            raise InstanceError([f"{what} is not valid JSON: {exc}"]) from exc


def load_instance(path: str) -> ProblemInstance:
    return instance_from_dict(read_json(path, "instance file"))
