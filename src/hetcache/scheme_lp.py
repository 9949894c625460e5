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

:func:`constraint_rows` is the one generator of the rows tying these
together: placement partitions each layer and charges caches, structure
rows make signal sizes consistent for every addressee, completion rows
guarantee each user can finish every layer it needs, and redundancy rows
stop a signal from carrying more of a subfile class than was placed.  The
last three families are filled in a single pass over the piece variables:
each ``u[l][T][S]`` lands in its served user's structure row, completion
row, and either the shared redundancy row of its class or, for a class
with one cacher, its own cap.  Programs come in two flavors: a
total-budget version where the optimizer also chooses the cache split,
and a fixed-memory version where per-user totals are pinned.  A third,
restricted variant forbids signals from mixing layers; it exists to
measure how much the mixing buys.

A solved scheme is nothing but the joint program's variable index and a
value for each of its columns (:class:`SchemeSolution`).  Its JSON form
maps the variable names to the nonzero values, and checking a scheme
means rebuilding the program it claims to solve and auditing the point
against it (:func:`scheme_problems`), so there is no second copy of the
constraint families to drift out of step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lp_core import LinearProgram, LpSolution, SolverError, SparseRow
from .model import (
    InstanceError,
    MemoryAllocation,
    ProblemInstance,
    _json_integer,
    _json_number,
    ensure_valid,
)

# column counts grow like 3^K; past eight users the solver refuses the
# program (lp_core.MAX_BASIS_MIB), and this cap bounds the index build
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


def members(mask: int) -> tuple[int, ...]:
    """The users in ``mask``, ascending (bit k-1 stands for user k)."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def mask_label(mask: int) -> str:
    """``mask`` as variable names spell it: ``{1,3}``, and ``{}`` when empty."""
    return "{" + ",".join(map(str, members(mask))) + "}"


def _piece_sources(l: int, tmask: int, j: int, K: int):
    """Subset classes that can hold user j's piece of signal T in layer l.

    The class must cover everyone else in T (they cancel the piece out of
    the XOR from their caches) and must not contain j itself.
    """
    jbit = 1 << (j - 1)
    required = tmask & ~jbit
    free = _span_mask(l, K) & ~jbit & ~required
    for sub in _submasks(free):
        yield required | sub


@dataclass(frozen=True)
class VariableIndex:
    """Dense column numbering for one program's variables.

    User sets in the keys are int bitmasks: ``alloc[(l, S)]``,
    ``assign[(l, T, S)]`` and ``multicast[T]``.  ``layers`` lists which
    layers the program carries (all of them for the joint programs, a
    single one for per-layer subproblems).  With ``per_layer_signals``
    set, signal sizes are keyed by (layer, T) and each signal may carry
    pieces of its own layer only; otherwise a single v[T] spans layers
    1..min(T).  ``layer_mem`` is empty when the cache split is data
    rather than a decision.
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

    # every user set is spelled once here, not once per variable name
    label = [mask_label(mask) for mask in range(1 << K)]
    names: list[str] = []
    alloc: dict = {}
    assign: dict = {}
    multicast: dict = {}
    unicast: dict = {}
    layer_mem: dict = {}

    for l in layers:
        for smask in _submasks(_span_mask(l, K)):
            alloc[(l, smask)] = len(names)
            names.append(f"a[{l}][{label[smask]}]")

    for l in layers:
        for tmask in _submasks(_span_mask(l, K)):
            if tmask.bit_count() < 2:
                continue
            for j in members(tmask):
                for smask in _piece_sources(l, tmask, j, K):
                    assign[(l, tmask, smask)] = len(names)
                    names.append(f"u[{l}][{label[tmask]}][{label[smask]}]")

    if per_layer_signals:
        for l in layers:
            for tmask in _submasks(_span_mask(l, K)):
                if tmask.bit_count() >= 2:
                    multicast[(l, tmask)] = len(names)
                    names.append(f"v[{l}][{label[tmask]}]")
    else:
        for tmask in _submasks(_span_mask(1, K)):
            if tmask.bit_count() >= 2:
                multicast[tmask] = len(names)
                names.append(f"v[{label[tmask]}]")

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


def constraint_rows(
    inst: ProblemInstance,
    index: VariableIndex,
    fixed_layer_memories: MemoryAllocation | None = None,
):
    """Every row of the program except the memory equalities.

    Returns (equalities, upper_bounds).  Equalities: one placement
    partition per layer, then one structure row per (signal, addressee j)
    saying the signal size equals the pieces assigned to j across the
    layers the signal may carry.  Upper bounds: one cache row per (layer,
    user), reading  sum a - mem <= 0  with memory variables in the program
    and  sum a <= share  with a fixed split; then one completion row per
    (layer, user), cached + decoded + unicast >= f_l with the signs
    flipped; then the redundancy caps.  The pieces serving j out of a class
    S, summed over all signals that could carry them, cannot exceed the
    class size: a class with two or more cachers gets one shared row per j,
    and a class with a single cacher gets the per-piece cap u <= a instead,
    since the shared row would already imply every per-piece cap.
    """
    K = inst.K
    f = inst.rates.f
    alloc = index.alloc
    eqs = []
    ubs = []
    completion = {}
    shared = {}
    for l in index.layers:
        subs = list(_submasks(_span_mask(l, K)))
        eqs.append(({alloc[(l, s)]: 1.0 for s in subs}, f[l - 1]))
        for k in range(l, K + 1):
            cached = [alloc[(l, s)] for s in subs if s >> (k - 1) & 1]
            row: SparseRow = dict.fromkeys(cached, 1.0)
            if fixed_layer_memories is None:
                row[index.layer_mem[(k, l)]] = -1.0
                ubs.append((row, 0.0))
            else:
                ubs.append((row, float(fixed_layer_memories.per_layer[k - 1][l - 1])))
            completion[(l, k)] = {
                index.unicast[(k, l)]: -1.0,
                **dict.fromkeys(cached, -1.0),
            }
        for smask in subs:
            if 2 <= smask.bit_count() <= K - l:
                for j in members(subs[-1] & ~smask):
                    shared[(l, smask, j)] = {}

    structure = {}
    for key, vcol in index.multicast.items():
        tmask = key[1] if index.per_layer_signals else key
        for j in members(tmask):
            structure[(key, j)] = {vcol: 1.0}

    caps = []
    for (l, tmask, smask), col in index.assign.items():
        j = (tmask & ~smask).bit_length()
        signal = (l, tmask) if index.per_layer_signals else tmask
        structure[(signal, j)][col] = -1.0
        completion[(l, j)][col] = -1.0
        if smask & (smask - 1):
            shared[(l, smask, j)][col] = 1.0
        else:
            caps.append(({col: 1.0, alloc[(l, smask)]: -1.0}, 0.0))
    for (l, smask, _j), row in shared.items():
        row[alloc[(l, smask)]] = -1.0

    eqs.extend((row, 0.0) for row in structure.values())
    ubs.extend((row, -f[l - 1]) for (l, _k), row in completion.items())
    ubs.extend((row, 0.0) for row in shared.values())
    ubs.extend(caps)
    return eqs, ubs


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
            hi[col] = r.cumulative((key & -key).bit_length())
    for (_k, l), col in index.unicast.items():
        hi[col] = r.f[l - 1]
    for (_k, l), col in index.layer_mem.items():
        hi[col] = r.f[l - 1]
    return lo, hi


def _memory_rows(inst: ProblemInstance, index: VariableIndex):
    """The budget row, or one cache-size row per user."""
    if inst.is_budget:
        row: SparseRow = {col: 1.0 for col in index.layer_mem.values()}
        return [(row, float(inst.constraint.m_tot))]
    return [
        (
            {index.layer_mem[(k, l)]: 1.0 for l in range(1, k + 1)},
            float(inst.constraint.m[k - 1]),
        )
        for k in range(1, inst.K + 1)
    ]


def _assemble(
    inst: ProblemInstance,
    index: VariableIndex,
    fixed_layer_memories: MemoryAllocation | None = None,
) -> LinearProgram:
    """The program over ``index``: the memory rows come last, and only
    when the cache split is a decision rather than ``fixed_layer_memories``."""
    eqs, ubs = constraint_rows(inst, index, fixed_layer_memories)
    if fixed_layer_memories is None:
        eqs.extend(_memory_rows(inst, index))

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
    return _assemble(inst, index), index


def build_o2(inst: ProblemInstance):
    """Fixed-memory program: per-user totals pinned, split still free."""
    _check_scale(inst)
    if inst.is_budget:
        raise InstanceError(["fixed-memory program needs per-user cache sizes"])
    index = make_variable_index(inst.K)
    return _assemble(inst, index), index


def build_intra_restricted(inst: ProblemInstance):
    """Like the joint programs but signals may not mix layers.

    Accepts either constraint type.  The layer split is still optimized,
    so the objective gap to the joint program isolates exactly what
    cross-layer signals buy.
    """
    _check_scale(inst)
    index = make_variable_index(inst.K, per_layer_signals=True)
    return _assemble(inst, index), index


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
        lp = _assemble(inst, index, fixed_layer_memories=split)
        programs.append((lp, index))
    return programs


def with_split(lp: LinearProgram, index: VariableIndex, split: MemoryAllocation) -> LinearProgram:
    """A program of :func:`build_intra_layer` moved to the cache split ``split``.

    ``lp`` and ``index`` are one pair that :func:`build_intra_layer` returned,
    for an instance with the same users and rates, and ``split`` is a split
    it accepts.  The program of layer l opens its upper bounds with the
    cache rows of users l..K, so only those right-hand sides change; every
    other row, the costs and the bounds are shared with ``lp``, which is
    what lets an optimal basis of ``lp`` warm-start the new program.
    """
    (l,) = index.layers
    shares = [float(split.per_layer[k - 1][l - 1]) for k in range(l, index.K + 1)]
    moved = [(coefs, v) for (coefs, _old), v in zip(lp.ub_rows, shares)]
    return replace(lp, ub_rows=moved + lp.ub_rows[len(shares):])


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True, eq=False)
class SchemeSolution:
    """A solved scheme: one value per column of the joint K-user program.

    ``index`` is always the joint index of :func:`make_variable_index`,
    whatever program produced the scheme; a per-layer signal v[l][T] is
    folded into v[T], which stays consistent because the load only sees
    the total.  ``variable_count`` is the column count of the producing
    program, which is what bounds the rounding in the simulator.
    """

    index: VariableIndex
    x: np.ndarray
    objective: float
    variable_count: int

    @property
    def K(self) -> int:
        return self.index.K

    def load(self) -> float:
        x = self.x
        signals = sum(x[col] for col in self.index.multicast.values())
        return float(signals + sum(x[col] for col in self.index.unicast.values()))

    def to_json_dict(self) -> dict:
        """Header fields plus every nonzero variable under its program name."""
        index = self.index
        # scheme files list pieces by (layer, T, S), not in column order
        assign = sorted(index.assign.items())
        cols = [
            *index.alloc.values(),
            *(col for _key, col in assign),
            *index.multicast.values(),
            *index.unicast.values(),
            *index.layer_mem.values(),
        ]
        out: dict = {
            "K": index.K,
            "objective": self.objective,
            "variable_count": self.variable_count,
        }
        x = self.x.tolist()
        for col in cols:
            if x[col] != 0.0:
                out[index.names[col]] = x[col]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SchemeSolution":
        """Read a scheme file; absent variables are zero.

        Every other key must name a variable of the joint program for the
        file's K, and every value must be a finite number.  ``variable_count``
        sets the simulator's rounding bound, so it must be the column count
        of the joint or of the intra-restricted program for that K.
        """
        if not isinstance(data, dict):
            raise InstanceError(["scheme file must hold a JSON object"])
        problems: list[str] = []
        K = _json_integer(data, "K", None, problems)
        variable_count = _json_integer(data, "variable_count", None, problems)
        numbers = {
            key: _json_number(val, f"scheme entry {key!r}", problems)
            for key, val in data.items()
            if key not in ("K", "variable_count")
        }
        problems += [
            f"scheme entry {key!r} = {val} must be finite"
            for key, val in numbers.items()
            if val is not None and not math.isfinite(val)
        ]
        if "objective" not in numbers:
            problems.append("scheme file has no objective")
        if problems:
            raise InstanceError(problems)
        objective = numbers.pop("objective")
        index = make_variable_index(K)
        # the two programs differ only in their signals: 2^K - K - 1 joint
        # ones against 2^j - j - 1 for each layer seen by j users
        restricted = index.n_vars - ((1 << K) - K - 1) + sum(
            (1 << j) - j - 1 for j in range(1, K + 1)
        )
        if variable_count not in (index.n_vars, restricted):
            raise InstanceError(
                [f"variable_count {variable_count} is neither {index.n_vars} (joint) "
                 f"nor {restricted} (intra-restricted) for {K} users"]
            )
        columns = {name: col for col, name in enumerate(index.names)}
        unknown = [key for key in numbers if key not in columns]
        if unknown:
            raise InstanceError(
                [f"{key!r} is not a variable of the {K}-user program" for key in unknown]
            )
        x = np.zeros(index.n_vars)
        for key, val in numbers.items():
            x[columns[key]] = val
        return cls(index=index, x=x, objective=objective, variable_count=variable_count)


def extract_scheme(solution: LpSolution, index: VariableIndex) -> SchemeSolution:
    """Unpack an optimal solution vector into a SchemeSolution.

    Values caught slightly below zero by solver tolerance are clamped;
    anything materially negative means the solve went wrong and raises.
    Solutions of programs over another index are carried over to the
    joint index by variable key, summing per-layer signals in index order.
    """
    if not solution.is_optimal:
        raise SolverError(
            f"cannot extract a scheme from a solution with status {solution.status.value}"
        )
    x = np.asarray(solution.x, dtype=float)
    negative = np.flatnonzero(x < -1e-6)
    if negative.size:
        col = int(negative[0])
        raise SolverError(f"variable {index.names[col]} = {x[col]:.3e} in an optimum")
    x = np.where(x > 0.0, x, 0.0)

    joint = index
    if index.per_layer_signals:
        joint = make_variable_index(index.K)
        folded = np.zeros(joint.n_vars)
        for family in ("alloc", "assign", "unicast", "layer_mem"):
            target = getattr(joint, family)
            for key, col in getattr(index, family).items():
                folded[target[key]] = x[col]
        for (_l, T), col in index.multicast.items():
            folded[joint.multicast[T]] += x[col]
        x = folded

    scheme = SchemeSolution(
        index=joint,
        x=x,
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
    """Every row and variable box of ``inst``'s joint program that ``scheme`` breaks.

    The program is rebuilt over the scheme's own index and the point is
    audited by :meth:`LinearProgram.check_point`, which widens each row's
    tolerance by 1 + |rhs|; dividing ``tol`` by the widest such factor
    keeps every test within the absolute ``tol``.  Returns human-readable
    problem strings, empty when the scheme is consistent.
    """
    if scheme.K != inst.K:
        raise InstanceError([f"scheme is for {scheme.K} users, instance for {inst.K}"])
    _check_scale(inst)
    lp = _assemble(inst, scheme.index)
    widest = max(abs(rhs) for _row, rhs in lp.eq_rows + lp.ub_rows)
    return lp.check_point(scheme.x, tol / (1.0 + widest))
