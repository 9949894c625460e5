"""Linear programs describing layered placement and coded delivery.

A caching scheme for layered files is pinned down by four families of
decision variables, all indexed by user subsets:

* ``a[l][S]``: how much of layer l every file stores exclusively in the
  caches of the users in S (the empty set holds the uncached part, so
  each layer is literally partitioned).
* ``u[l][T][S]``: how much of the class-S subfile of layer l rides inside
  the coded signal addressed to T.  The pair (T, S) determines which user
  the piece serves: the single member of T outside S.
* ``v[T]``: size of the coded signal addressed to T.  Every addressee
  must extract the same number of bits from it, which is what the signal
  structure equalities express.
* ``unicast[k][l]`` and ``mem[k][l]``: plain per-user remainders and the
  per-user, per-layer cache shares.

The builders below emit the constraint rows tying these together:
placement partitions each layer and charges caches, structure rows make
signal sizes consistent for every addressee, completion rows guarantee
each user can finish every layer it needs, and redundancy rows stop a
signal from carrying more of a subfile class than was placed.  Programs
come in two flavors: a total-budget version where the optimizer also
chooses the cache split, and a fixed-memory version where per-user
totals are pinned.  A third, restricted variant forbids signals from
mixing layers; it exists to measure how much the mixing buys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .lp_core import LinearProgram, LpSolution, SolverError, SparseRow
from .model import (
    Budget,
    FixedMemories,
    InstanceError,
    MemoryAllocation,
    ProblemInstance,
    ensure_valid,
)

# column counts grow like 3^K; past ten users the dense solver is hopeless
MAX_USERS = 10


def _span_mask(l: int, K: int) -> int:
    """Bitmask of users l..K (bit k-1 stands for user k)."""
    return ((1 << K) - 1) & ~((1 << (l - 1)) - 1)


def _submasks(mask: int):
    """Every submask of ``mask`` in ascending numeric order, empty first."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


@dataclass(frozen=True, order=True)
class UserSet:
    """Subset of users 1..K as a bitmask; hashable, prints as ``{1,3}``."""

    mask: int

    @classmethod
    def of(cls, users) -> "UserSet":
        m = 0
        for u in users:
            m |= 1 << (u - 1)
        return cls(m)

    def users(self) -> tuple[int, ...]:
        return tuple(
            k + 1 for k in range(self.mask.bit_length()) if self.mask >> k & 1
        )

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, user: int) -> bool:
        return bool(self.mask >> (user - 1) & 1)

    def issubset(self, other: "UserSet") -> bool:
        return self.mask & other.mask == self.mask

    def min_user(self) -> int:
        if self.mask == 0:
            raise ValueError("empty user set has no minimum")
        return (self.mask & -self.mask).bit_length()

    def __str__(self) -> str:
        return "{" + ",".join(str(u) for u in self.users()) + "}"


def served_user(T: UserSet, S: UserSet) -> int:
    """The one member of T outside S, i.e. whom the (T, S) piece serves."""
    diff = T.mask & ~S.mask
    if diff == 0 or diff & (diff - 1):
        raise ValueError(f"{T} minus {S} is not a single user")
    return diff.bit_length()


def _piece_sources(l: int, T: UserSet, j: int, K: int):
    """Subset classes that can hold user j's piece of signal T in layer l.

    The class must cover everyone else in T (they cancel the piece out of
    the XOR from their caches) and must not contain j itself.
    """
    jbit = 1 << (j - 1)
    required = T.mask & ~jbit
    free = _span_mask(l, K) & ~jbit & ~required
    for sub in _submasks(free):
        yield UserSet(required | sub)


@dataclass(frozen=True)
class VariableIndex:
    """Dense column numbering for one program's variables.

    ``layers`` lists which layers the program carries (all of them for
    the joint programs, a single one for per-layer subproblems).  With
    ``per_layer_signals`` set, signal sizes are indexed by (layer, T)
    and each signal may carry pieces of its own layer only; otherwise a
    single v[T] spans layers 1..min(T).  ``layer_mem`` is empty when the
    cache split is data rather than a decision.
    """

    K: int
    layers: tuple[int, ...]
    per_layer_signals: bool
    alloc: dict
    assign: dict
    multicast: dict
    unicast: dict
    layer_mem: dict
    names: tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def with_layer_memories(self) -> bool:
        return bool(self.layer_mem)


def make_variable_index(
    K: int,
    *,
    layers: tuple[int, ...] | None = None,
    per_layer_signals: bool = False,
    with_layer_memories: bool = True,
) -> VariableIndex:
    if not 1 <= K <= MAX_USERS:
        raise InstanceError([f"user count {K} outside supported range 1..{MAX_USERS}"])
    layers = tuple(range(1, K + 1)) if layers is None else tuple(layers)
    if not per_layer_signals and layers != tuple(range(1, K + 1)):
        raise InstanceError(["layer-spanning signals need every layer present"])

    names: list[str] = []
    alloc: dict = {}
    assign: dict = {}
    multicast: dict = {}
    unicast: dict = {}
    layer_mem: dict = {}

    for l in layers:
        for sub in _submasks(_span_mask(l, K)):
            S = UserSet(sub)
            alloc[(l, S)] = len(names)
            names.append(f"a[{l}][{S}]")

    for l in layers:
        for tmask in _submasks(_span_mask(l, K)):
            T = UserSet(tmask)
            if T.size < 2:
                continue
            for j in T.users():
                for S in _piece_sources(l, T, j, K):
                    assign[(l, T, S)] = len(names)
                    names.append(f"u[{l}][{T}][{S}]")

    if per_layer_signals:
        for l in layers:
            for tmask in _submasks(_span_mask(l, K)):
                T = UserSet(tmask)
                if T.size >= 2:
                    multicast[(l, T)] = len(names)
                    names.append(f"v[{l}][{T}]")
    else:
        for tmask in _submasks(_span_mask(1, K)):
            T = UserSet(tmask)
            if T.size >= 2:
                multicast[T] = len(names)
                names.append(f"v[{T}]")

    for k in range(1, K + 1):
        for l in layers:
            if l <= k:
                unicast[(k, l)] = len(names)
                names.append(f"unicast[{k}][{l}]")

    if with_layer_memories:
        for k in range(1, K + 1):
            for l in layers:
                if l <= k:
                    layer_mem[(k, l)] = len(names)
                    names.append(f"mem[{k}][{l}]")

    return VariableIndex(
        K=K,
        layers=layers,
        per_layer_signals=per_layer_signals,
        alloc=alloc,
        assign=assign,
        multicast=multicast,
        unicast=unicast,
        layer_mem=layer_mem,
        names=tuple(names),
    )


# ---------------------------------------------------------------------------
# constraint rows


def build_placement_constraints(
    l: int,
    inst: ProblemInstance,
    index: VariableIndex,
    fixed_layer_memories: MemoryAllocation | None = None,
):
    """Partition equality for layer l plus one cache row per user.

    Returns (equalities, upper_bounds).  With memory variables in the
    program a cache row reads  sum a - mem <= 0;  with a fixed split the
    right-hand side is the supplied share.
    """
    K = inst.K
    f_l = inst.rates.f[l - 1]
    span = _span_mask(l, K)

    eq_row: SparseRow = {
        index.alloc[(l, UserSet(s))]: 1.0 for s in _submasks(span)
    }
    eqs = [(eq_row, f_l)]

    ubs = []
    for k in range(l, K + 1):
        row: SparseRow = {
            index.alloc[(l, UserSet(s))]: 1.0
            for s in _submasks(span)
            if s >> (k - 1) & 1
        }
        if fixed_layer_memories is None:
            row[index.layer_mem[(k, l)]] = -1.0
            ubs.append((row, 0.0))
        else:
            ubs.append((row, float(fixed_layer_memories.per_layer[k - 1][l - 1])))
    return eqs, ubs


def build_structural_constraints(inst: ProblemInstance, index: VariableIndex):
    """Signal-size equalities: every addressee takes the same bit count.

    For each signal and each addressee j, the signal size equals the total
    of the pieces assigned to j across the layers the signal may carry.
    """
    K = inst.K
    rows = []
    if index.per_layer_signals:
        for (l, T), vcol in index.multicast.items():
            for j in T.users():
                row: SparseRow = {vcol: 1.0}
                for S in _piece_sources(l, T, j, K):
                    row[index.assign[(l, T, S)]] = -1.0
                rows.append((row, 0.0))
    else:
        for T, vcol in index.multicast.items():
            for j in T.users():
                row = {vcol: 1.0}
                for l in index.layers:
                    if l > T.min_user():
                        continue
                    for S in _piece_sources(l, T, j, K):
                        row[index.assign[(l, T, S)]] = -1.0
                rows.append((row, 0.0))
    return rows


def build_completion_constraints(inst: ProblemInstance, index: VariableIndex):
    """Each user finishes each of its layers: cached + decoded + unicast.

    Emitted as upper-bound rows with the signs flipped.
    """
    K = inst.K
    ubs = []
    for l in index.layers:
        f_l = inst.rates.f[l - 1]
        span = _span_mask(l, K)
        for k in range(l, K + 1):
            row: SparseRow = {index.unicast[(k, l)]: -1.0}
            for s in _submasks(span):
                if s >> (k - 1) & 1:
                    row[index.alloc[(l, UserSet(s))]] = -1.0
            for tmask in _submasks(span):
                T = UserSet(tmask)
                if T.size < 2 or k not in T:
                    continue
                for S in _piece_sources(l, T, k, K):
                    row[index.assign[(l, T, S)]] = -1.0
            ubs.append((row, -f_l))
    return ubs


def build_redundancy_constraints(inst: ProblemInstance, index: VariableIndex):
    """Caps keeping every subfile class honest.

    The pieces serving one user j out of a class S, summed over all the
    signals that could carry them, cannot exceed the class size.  For a
    class with a single cacher there is no shared row, so the per-piece
    cap u <= a is emitted directly; for larger classes the shared row
    already implies every per-piece cap, which are therefore dropped.
    """
    K = inst.K
    ubs = []
    for l in index.layers:
        span = _span_mask(l, K)
        for smask in _submasks(span):
            S = UserSet(smask)
            if S.size < 2 or S.size > K - l:
                continue
            acol = index.alloc[(l, S)]
            for j in UserSet(span & ~smask).users():
                jbit = 1 << (j - 1)
                row: SparseRow = {}
                for p in _submasks(smask):
                    if p == 0:
                        continue
                    row[index.assign[(l, UserSet(p | jbit), S)]] = 1.0
                row[acol] = -1.0
                ubs.append((row, 0.0))
    for (l, T, S), col in index.assign.items():
        if S.size == 1:
            ubs.append(({col: 1.0, index.alloc[(l, S)]: -1.0}, 0.0))
    return ubs


# ---------------------------------------------------------------------------
# whole programs


def _natural_caps(inst: ProblemInstance, index: VariableIndex):
    """Finite variable boxes; every optimum respects these already."""
    r = inst.rates
    lo = [0.0] * index.n_vars
    hi = [0.0] * index.n_vars
    for (l, _S), col in index.alloc.items():
        hi[col] = r.f[l - 1]
    for (l, _T, _S), col in index.assign.items():
        hi[col] = r.f[l - 1]
    for key, col in index.multicast.items():
        if index.per_layer_signals:
            hi[col] = r.f[key[0] - 1]
        else:
            hi[col] = r.cumulative(key.min_user())
    for (_k, l), col in index.unicast.items():
        hi[col] = r.f[l - 1]
    for (_k, l), col in index.layer_mem.items():
        hi[col] = r.f[l - 1]
    return lo, hi


def _assemble(
    inst: ProblemInstance,
    index: VariableIndex,
    extra_eqs,
    fixed_layer_memories: MemoryAllocation | None = None,
) -> LinearProgram:
    eqs = []
    ubs = []
    for l in index.layers:
        e, u = build_placement_constraints(l, inst, index, fixed_layer_memories)
        eqs.extend(e)
        ubs.extend(u)
    eqs.extend(build_structural_constraints(inst, index))
    ubs.extend(build_completion_constraints(inst, index))
    ubs.extend(build_redundancy_constraints(inst, index))
    eqs.extend(extra_eqs)

    c = [0.0] * index.n_vars
    for col in index.multicast.values():
        c[col] = 1.0
    for col in index.unicast.values():
        c[col] = 1.0
    lo, hi = _natural_caps(inst, index)
    return LinearProgram(c=c, eq_rows=eqs, ub_rows=ubs, lo=lo, hi=hi, names=index.names)


def _check_scale(inst: ProblemInstance) -> None:
    ensure_valid(inst)
    if inst.K > MAX_USERS:
        raise InstanceError(
            [f"user count {inst.K} above the supported maximum {MAX_USERS}"]
        )


def build_o1(inst: ProblemInstance):
    """Budgeted program: the optimizer also chooses every cache share."""
    _check_scale(inst)
    if not inst.is_budget:
        raise InstanceError(["total-budget program needs a budget-type instance"])
    index = make_variable_index(inst.K)
    budget_row: SparseRow = {col: 1.0 for col in index.layer_mem.values()}
    lp = _assemble(inst, index, [(budget_row, float(inst.constraint.m_tot))])
    return lp, index


def build_o2(inst: ProblemInstance):
    """Fixed-memory program: per-user totals pinned, split still free."""
    _check_scale(inst)
    if inst.is_budget:
        raise InstanceError(["fixed-memory program needs per-user cache sizes"])
    index = make_variable_index(inst.K)
    eqs = []
    for k in range(1, inst.K + 1):
        row: SparseRow = {index.layer_mem[(k, l)]: 1.0 for l in range(1, k + 1)}
        eqs.append((row, float(inst.constraint.m[k - 1])))
    lp = _assemble(inst, index, eqs)
    return lp, index


def build_intra_restricted(inst: ProblemInstance):
    """Like the joint programs but signals may not mix layers.

    Accepts either constraint type.  The layer split is still optimized,
    so the objective gap to the joint program isolates exactly what
    cross-layer signals buy.
    """
    _check_scale(inst)
    index = make_variable_index(inst.K, per_layer_signals=True)
    eqs = []
    if inst.is_budget:
        row: SparseRow = {col: 1.0 for col in index.layer_mem.values()}
        eqs.append((row, float(inst.constraint.m_tot)))
    else:
        for k in range(1, inst.K + 1):
            row = {index.layer_mem[(k, l)]: 1.0 for l in range(1, k + 1)}
            eqs.append((row, float(inst.constraint.m[k - 1])))
    lp = _assemble(inst, index, eqs)
    return lp, index


def with_memory(lp: LinearProgram, inst: ProblemInstance) -> LinearProgram:
    """``lp`` moved to the budget or cache sizes of ``inst``.

    ``lp`` must come from :func:`build_o1`, :func:`build_o2` or
    :func:`build_intra_restricted` for an instance with the same users,
    rates and constraint type as ``inst``.  Those builders emit the memory
    rows last among the equalities (one budget row, or one row per user),
    so only those right-hand sides change; every other row, the costs and
    the bounds are shared with ``lp``, which is what lets an optimal basis
    of ``lp`` warm-start the new program.
    """
    ensure_valid(inst)
    if inst.is_budget:
        rhs = [float(inst.constraint.m_tot)]
    else:
        rhs = [float(m) for m in inst.constraint.m]
    keep = len(lp.eq_rows) - len(rhs)
    moved = [(coefs, v) for (coefs, _old), v in zip(lp.eq_rows[keep:], rhs)]
    return replace(lp, eq_rows=lp.eq_rows[:keep] + moved)


def build_intra_layer(inst: ProblemInstance, split: MemoryAllocation):
    """One independent single-layer program per layer, caches given.

    Layer l sees only users l..K, its own placement variables, and its
    own signals; adding the objectives gives the load of a scheme that
    treats layers separately under the supplied split.
    """
    _check_scale(inst)
    problems = split.check(inst.rates)
    if problems:
        raise InstanceError(problems)
    programs = []
    for l in range(1, inst.K + 1):
        index = make_variable_index(
            inst.K, layers=(l,), per_layer_signals=True, with_layer_memories=False
        )
        lp = _assemble(inst, index, [], fixed_layer_memories=split)
        programs.append((lp, index))
    return programs


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class SchemeSolution:
    """A solved scheme, unpacked into its variable families.

    ``multicast_sizes`` is always keyed by the addressed set alone; when
    the program kept per-layer signals they are summed per set, which
    stays consistent because the load only sees the total.  Zero-valued
    entries may be absent; readers should treat missing keys as zero.
    """

    K: int
    allocation: dict
    assignments: dict
    multicast_sizes: dict
    unicast_sizes: dict
    layer_memories: dict
    objective: float
    variable_count: int

    def load(self) -> float:
        return sum(self.multicast_sizes.values()) + sum(self.unicast_sizes.values())

    def to_json_dict(self) -> dict:
        out: dict = {
            "K": self.K,
            "objective": self.objective,
            "variable_count": self.variable_count,
        }
        for (l, S), val in sorted(
            self.allocation.items(), key=lambda kv: (kv[0][0], kv[0][1].mask)
        ):
            if val != 0.0:
                out[f"a[{l}][{S}]"] = val
        for (l, T, S), val in sorted(
            self.assignments.items(),
            key=lambda kv: (kv[0][0], kv[0][1].mask, kv[0][2].mask),
        ):
            if val != 0.0:
                out[f"u[{l}][{T}][{S}]"] = val
        for T, val in sorted(self.multicast_sizes.items(), key=lambda kv: kv[0].mask):
            if val != 0.0:
                out[f"v[{T}]"] = val
        for (k, l), val in sorted(self.unicast_sizes.items()):
            if val != 0.0:
                out[f"unicast[{k}][{l}]"] = val
        for (k, l), val in sorted(self.layer_memories.items()):
            if val != 0.0:
                out[f"mem[{k}][{l}]"] = val
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SchemeSolution":
        problems = []
        try:
            K = int(data["K"])
            objective = float(data["objective"])
            variable_count = int(data["variable_count"])
        except (KeyError, TypeError, ValueError):
            raise InstanceError(
                ["scheme file needs numeric K, objective and variable_count"]
            ) from None
        allocation: dict = {}
        assignments: dict = {}
        multicast: dict = {}
        unicast: dict = {}
        layer_mem: dict = {}
        for key, val in data.items():
            if key in ("K", "objective", "variable_count"):
                continue
            m = _KEY_RE.match(key)
            if m is None or not isinstance(val, (int, float)):
                problems.append(f"unrecognized scheme entry {key!r}")
                continue
            family, parts = m.group(1), _bracket_parts(key)
            try:
                if family == "a":
                    allocation[(int(parts[0]), _parse_set(parts[1]))] = float(val)
                elif family == "u":
                    assignments[
                        (int(parts[0]), _parse_set(parts[1]), _parse_set(parts[2]))
                    ] = float(val)
                elif family == "v":
                    multicast[_parse_set(parts[0])] = float(val)
                elif family == "unicast":
                    unicast[(int(parts[0]), int(parts[1]))] = float(val)
                else:
                    layer_mem[(int(parts[0]), int(parts[1]))] = float(val)
            except (IndexError, ValueError):
                problems.append(f"malformed scheme entry {key!r}")
        if problems:
            raise InstanceError(problems)
        return cls(
            K=K,
            allocation=allocation,
            assignments=assignments,
            multicast_sizes=multicast,
            unicast_sizes=unicast,
            layer_memories=layer_mem,
            objective=objective,
            variable_count=variable_count,
        )


_KEY_RE = re.compile(r"^(a|u|v|unicast|mem)(\[[^\[\]]*\])+$")


def _bracket_parts(key: str) -> list[str]:
    return re.findall(r"\[([^\[\]]*)\]", key)


def _parse_set(text: str) -> UserSet:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(text)
    body = body[1:-1].strip()
    if not body:
        return UserSet(0)
    return UserSet.of(int(p) for p in body.split(","))


def extract_scheme(
    solution: LpSolution,
    index: VariableIndex,
    layer_memories: MemoryAllocation | None = None,
) -> SchemeSolution:
    """Unpack an optimal solution vector into a SchemeSolution.

    Values caught slightly below zero by solver tolerance are clamped;
    anything materially negative means the solve went wrong and raises.
    For programs whose cache split was data rather than a variable, the
    split can be passed in so the solution still records it.
    """
    if not solution.is_optimal:
        raise SolverError(
            f"cannot extract a scheme from a solution with status {solution.status.value}"
        )

    def take(col: int) -> float:
        val = float(solution.x[col])
        if val < -1e-6:
            raise SolverError(f"variable {index.names[col]} = {val:.3e} in an optimum")
        return val if val > 0.0 else 0.0

    allocation = {key: take(col) for key, col in index.alloc.items()}
    assignments = {key: take(col) for key, col in index.assign.items()}
    multicast: dict = {}
    if index.per_layer_signals:
        for (l, T), col in index.multicast.items():
            multicast[T] = multicast.get(T, 0.0) + take(col)
    else:
        for T, col in index.multicast.items():
            multicast[T] = take(col)
    unicast = {key: take(col) for key, col in index.unicast.items()}
    if index.with_layer_memories:
        mems = {key: take(col) for key, col in index.layer_mem.items()}
    elif layer_memories is not None:
        mems = {
            (k, l): float(layer_memories.per_layer[k - 1][l - 1])
            for l in index.layers
            for k in range(l, index.K + 1)
        }
    else:
        mems = {}

    scheme = SchemeSolution(
        K=index.K,
        allocation=allocation,
        assignments=assignments,
        multicast_sizes=multicast,
        unicast_sizes=unicast,
        layer_memories=mems,
        objective=float(solution.objective),
        variable_count=index.n_vars,
    )
    if abs(scheme.objective - scheme.load()) > 1e-8:
        raise SolverError(
            f"objective {scheme.objective} disagrees with summed load {scheme.load()}"
        )
    return scheme


def scheme_problems(
    scheme: SchemeSolution, inst: ProblemInstance, tol: float = 1e-7
) -> list[str]:
    """Re-check every constraint family on an extracted scheme.

    Missing keys count as zero, so this works on schemes round-tripped
    through JSON with zero entries dropped.  Returns human-readable
    problem strings, empty when the scheme is consistent.
    """
    K = inst.K
    r = inst.rates
    a = scheme.allocation
    u = scheme.assignments
    problems = []

    for fam in (a, u, scheme.multicast_sizes, scheme.unicast_sizes):
        for key, val in fam.items():
            if val < -tol:
                problems.append(f"negative variable at {key}")

    for l in range(1, K + 1):
        span = _span_mask(l, K)
        total = sum(a.get((l, UserSet(s)), 0.0) for s in _submasks(span))
        if abs(total - r.f[l - 1]) > tol:
            problems.append(f"layer {l} placement sums to {total}, not {r.f[l - 1]}")
        for k in range(l, K + 1):
            cached = sum(
                a.get((l, UserSet(s)), 0.0)
                for s in _submasks(span)
                if s >> (k - 1) & 1
            )
            mem = scheme.layer_memories.get((k, l), 0.0)
            if cached > mem + tol:
                problems.append(f"user {k} overfills its layer {l} share")

    signal_sets = set(scheme.multicast_sizes)
    signal_sets.update(T for (_l, T, _S) in u)
    for T in sorted(signal_sets, key=lambda T: T.mask):
        v = scheme.multicast_sizes.get(T, 0.0)
        for j in T.users():
            got = sum(
                u.get((l, T, S), 0.0)
                for l in range(1, T.min_user() + 1)
                for S in _piece_sources(l, T, j, K)
            )
            if abs(got - v) > tol:
                problems.append(
                    f"signal {T} carries {got} for user {j} but is sized {v}"
                )

    for l in range(1, K + 1):
        span = _span_mask(l, K)
        for k in range(l, K + 1):
            have = scheme.unicast_sizes.get((k, l), 0.0)
            have += sum(
                a.get((l, UserSet(s)), 0.0)
                for s in _submasks(span)
                if s >> (k - 1) & 1
            )
            for tmask in _submasks(span):
                T = UserSet(tmask)
                if T.size < 2 or k not in T:
                    continue
                have += sum(
                    u.get((l, T, S), 0.0) for S in _piece_sources(l, T, k, K)
                )
            if have < r.f[l - 1] - tol:
                problems.append(f"user {k} cannot complete layer {l}: {have}")

    for l in range(1, K + 1):
        span = _span_mask(l, K)
        for smask in _submasks(span):
            if smask == 0:
                continue
            S = UserSet(smask)
            cap = a.get((l, S), 0.0)
            for j in UserSet(span & ~smask).users():
                jbit = 1 << (j - 1)
                used = sum(
                    u.get((l, UserSet(p | jbit), S), 0.0)
                    for p in _submasks(smask)
                    if p
                )
                if used > cap + tol:
                    problems.append(
                        f"class ({l}, {S}) oversubscribed for user {j}: {used} > {cap}"
                    )

    if scheme.layer_memories:
        totals = [
            sum(scheme.layer_memories.get((k, l), 0.0) for l in range(1, k + 1))
            for k in range(1, K + 1)
        ]
        if isinstance(inst.constraint, FixedMemories):
            for k, (got, want) in enumerate(zip(totals, inst.constraint.m), start=1):
                if abs(got - want) > tol:
                    problems.append(f"user {k} memory total {got} differs from {want}")
        elif isinstance(inst.constraint, Budget):
            if abs(sum(totals) - inst.constraint.m_tot) > tol:
                problems.append(
                    f"memory budget {sum(totals)} differs from {inst.constraint.m_tot}"
                )
    return problems
