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

One generator, built once per variable index, gives the rows tying these
together (:meth:`_Rows.rows` gives an instance's right-hand sides):
placement partitions each layer and charges caches, structure
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
measure how much the mixing buys.  The separation baselines solve one
layer at a time, with the cache split given as data
(:func:`build_layer_program`).

A solved scheme is nothing but the joint program's variable index and a
value for each of its columns (:class:`SchemeSolution`).  Its JSON form
maps the variable names to the nonzero values, and checking a scheme
means auditing the point against the program it claims to solve
(:func:`scheme_problems`), so there is no second copy of the constraint
families to drift out of step.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .lp_core import LinearProgram, LpSolution, SolverError, SparseRow, check_basis_size
from .model import InstanceError, ProblemInstance, _json_integer, _json_number

# column counts grow like 3^K; past eight users the builders refuse the
# program from its row count (lp_core.MAX_BASIS_MIB) before building it,
# and this cap bounds the index build
MAX_USERS = 10

# distinct variable indexes kept for reuse, least recently used dropped
# first.  A K-user command uses the joint index and, in compare-baselines,
# one single-layer index per user count up to K: so comparisons at K=4 and
# K=5 in turn use seven between them and rebuild none.  The cache is
# bounded because a K=10 index holds 274 435 columns, about 60 MB
INDEX_CACHE_SIZE = 8


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
    layers the program carries (all of them, or layer 1 alone in the
    program of :func:`build_layer_program`).  With ``per_layer_signals``
    set, signal sizes are keyed by (layer, T) and each signal may carry
    pieces of its own layer only; otherwise a single v[T] spans layers
    1..min(T).  ``layer_mem`` is empty when the cache split is data
    rather than a decision.  ``columns`` maps each name back to its column.

    Indexes are shared between every caller that asks for the same one
    (:func:`make_variable_index`), so the mappings are read-only views,
    and so are the rows of the program over the index, built on first use.
    """

    K: int
    layers: tuple[int, ...]
    per_layer_signals: bool
    alloc: Mapping
    assign: Mapping
    multicast: Mapping
    unicast: Mapping
    layer_mem: Mapping
    names: tuple[str, ...]
    columns: Mapping

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @functools.cached_property
    def _rows(self) -> _Rows:
        """The rows of the program over this index, built on first use."""
        return _Rows(self)


def _check_user_count(K: int) -> None:
    if not 1 <= K <= MAX_USERS:
        raise InstanceError([f"user count {K} outside supported range 1..{MAX_USERS}"])


def program_columns(K: int) -> tuple[int, int]:
    """Column counts of the joint and of the intra-restricted K-user program.

    Counted in closed form, without building either index.  A layer seen
    by n users has 2^n placement classes and, for each addressee set T of
    t >= 2 of those users and each j in T, one piece per class that holds
    T - j and not j: t * 2^(n-t) of them.  Summed over t >= 1 that is
    n * 3^(n-1), less n * 2^(n-1) for t = 1.  Both programs add K(K+1)/2
    unicasts and as many layer memories; they differ only in their
    signals, 2^K - K - 1 spanning ones against 2^n - n - 1 per layer.
    """
    _check_user_count(K)
    shared = K * (K + 1)
    for n in range(1, K + 1):
        shared += (1 << n) + n * 3 ** (n - 1) - n * (1 << (n - 1))
    joint = shared + (1 << K) - K - 1
    restricted = shared + sum((1 << n) - n - 1 for n in range(1, K + 1))
    return joint, restricted


def make_variable_index(K: int, *, per_layer_signals: bool = False) -> VariableIndex:
    """The column numbering of the joint K-user program, or with
    ``per_layer_signals`` of the intra-restricted one, shared by every caller.

    An index is built once per distinct argument set and kept in a
    least-recently-used cache of INDEX_CACHE_SIZE entries.  A user count
    outside 1..MAX_USERS is refused before anything is built or cached.
    """
    _check_user_count(K)
    return _build_index(K, per_layer_signals, False)


@functools.lru_cache(maxsize=INDEX_CACHE_SIZE)
def _build_index(K: int, per_layer_signals: bool, one_layer: bool) -> VariableIndex:
    """The index of :func:`make_variable_index` or, with ``one_layer``, of
    :func:`build_layer_program`: layer 1 alone, wanted by all K users, with
    per-layer signals and no memory columns."""
    layers = (1,) if one_layer else tuple(range(1, K + 1))
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

    if not one_layer:
        for k in range(1, K + 1):
            for l in layers:
                if l <= k:
                    layer_mem[(k, l)] = len(names)
                    names.append(f"mem[{k}][{l}]")

    return VariableIndex(
        K=K,
        layers=layers,
        per_layer_signals=per_layer_signals,
        alloc=MappingProxyType(alloc),
        assign=MappingProxyType(assign),
        multicast=MappingProxyType(multicast),
        unicast=MappingProxyType(unicast),
        layer_mem=MappingProxyType(layer_mem),
        names=tuple(names),
        columns=MappingProxyType(dict(zip(names, range(len(names))))),
    )


# ---------------------------------------------------------------------------
# constraint rows


class _Rows:
    """The programs over one index, kept at zero right-hand sides.

    The coefficient dicts, the costs and the map from each column to its
    box depend only on the index, so they are built once per index; the
    right-hand sides and the boxes are set per instance.  ``pairs`` lists
    the (layer, user) of each cache row and, in the same order, of each
    completion row.  ``kept`` holds one program per constraint type, its
    memory rows last: a budget (True), cache sizes (False) or, over an
    index without memory columns, a split given as data (None).  Every
    build is its :meth:`LinearProgram.at`, so all builds of one index and
    type share one set of coefficient arrays, and a start is taken on
    each of them.
    """

    def __init__(self, index: VariableIndex):
        K = index.K
        alloc = index.alloc
        self.index = index
        self.pairs = []
        placement = []
        cache = []
        completion = {}
        shared = {}
        for l in index.layers:
            subs = list(_submasks(_span_mask(l, K)))
            placement.append({alloc[(l, s)]: 1.0 for s in subs})
            for k in range(l, K + 1):
                cached = [alloc[(l, s)] for s in subs if s >> (k - 1) & 1]
                row: SparseRow = dict.fromkeys(cached, 1.0)
                if index.layer_mem:
                    row[index.layer_mem[(k, l)]] = -1.0
                cache.append(row)
                self.pairs.append((l, k))
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
                caps.append({col: 1.0, alloc[(l, smask)]: -1.0})
        for (l, smask, _j), row in shared.items():
            row[alloc[(l, smask)]] = -1.0

        eq = placement + list(structure.values())
        ub = cache + list(completion.values()) + list(shared.values()) + caps
        self.n_eq, self.n_ub = len(eq), len(ub)
        c = np.zeros(index.n_vars)
        c[list(index.multicast.values())] = 1.0
        c[list(index.unicast.values())] = 1.0
        mem = index.layer_mem
        memory_rows = {
            True: [{col: 1.0 for col in mem.values()}],
            False: [{mem[(k, l)]: 1.0 for l in range(1, k + 1)} for k in range(1, K + 1)],
        } if mem else {None: []}
        self.kept = {kind: LinearProgram(c, [(row, 0.0) for row in eq + rows],
                                         [(row, 0.0) for row in ub], names=index.names)
                     for kind, rows in memory_rows.items()}
        # every box is [0, f_l] or, for a signal spanning layers 1..t, [0, r_t]:
        # column j's upper bound is entry box[j] of (f_1..f_K, r_1..r_K)
        box = np.zeros(index.n_vars, dtype=np.intp)
        for family in (alloc, index.assign):
            for key, col in family.items():
                box[col] = key[0] - 1
        for family in (index.unicast, index.layer_mem):
            for (_k, l), col in family.items():
                box[col] = l - 1
        for key, col in index.multicast.items():
            if index.per_layer_signals:
                box[col] = key[0] - 1
            else:
                box[col] = K + (key & -key).bit_length() - 1
        self.box = box

    def rows(self, f, shares=None):
        """(equalities, upper bounds): the right-hand sides of every row but
        the memory equalities, at layer widths ``f`` = (f_1, f_2, ...) and,
        when the index has no memory variables and so the split is data,
        at the cache ``shares`` of the (layer, user) pairs of ``pairs``.

        Equalities: a placement partition per layer, then a structure row
        per (signal, addressee j): the signal size equals the pieces
        assigned to j across the layers the signal may carry.  Upper
        bounds: a cache row per (layer, user),  sum a - mem <= 0  or, with
        the split given,  sum a <= share; a completion row per (layer,
        user), cached + decoded + unicast >= f_l with the signs flipped;
        then the redundancy caps.  The pieces serving j out of a class S,
        over every signal that could carry them, cannot exceed the class:
        a class of two or more cachers gets one shared row per j, and a
        class of one cacher the per-piece caps u <= a instead, which the
        shared row would imply.
        """
        eq_rhs = [f[l - 1] for l in self.index.layers]
        eq_rhs += [0.0] * (self.n_eq - len(eq_rhs))
        ub_rhs = [0.0] * len(self.pairs) if shares is None else list(shares)
        ub_rhs += [-f[l - 1] for l, _k in self.pairs]
        ub_rhs += [0.0] * (self.n_ub - len(ub_rhs))
        return eq_rhs, ub_rhs

    def program(self, inst: ProblemInstance) -> LinearProgram:
        """The program of ``inst``, its memory rows last."""
        r = inst.rates
        eq_rhs, ub_rhs = self.rows(r.f)
        if inst.is_budget:
            eq_rhs.append(float(inst.constraint.m_tot))
        else:
            eq_rhs.extend(map(float, inst.constraint.m))
        kept = self.kept[inst.is_budget]
        return kept.at(eq_rhs, ub_rhs, kept.lo, np.array([*r.f, *r.r])[self.box])


# ---------------------------------------------------------------------------
# whole programs


def program_rows(K: int) -> tuple[int, int]:
    """Row counts of the joint and of the intra-restricted K-user program,
    before their memory rows: a budget adds one, cache sizes one per user.

    Counted in closed form, without building either program.  A layer
    seen by n users has one placement row; n cache and n completion rows;
    a shared redundancy row for each class of 2..n-1 cachers and each user
    outside it, n * 2^(n-1) - n^2 in all; and a cap for each of the
    n(n - 1) pieces of single-cacher classes.  The joint program adds one
    structure row per signal T of t >= 2 users and addressee, K * 2^(K-1) - K
    of them; the intra-restricted one n * 2^(n-1) - n per layer.
    """
    _check_user_count(K)
    common = sum(1 + n + n * (1 << (n - 1)) for n in range(1, K + 1))
    joint = common + K * (1 << (K - 1)) - K
    restricted = common + sum(n * (1 << (n - 1)) - n for n in range(1, K + 1))
    return joint, restricted


def _refuse_oversized(inst: ProblemInstance, restricted: bool = False) -> None:
    """Raise SolverError, before any index is built, for a scheme program of
    ``inst`` too large for the solver (lp_core.MAX_BASIS_MIB)."""
    rows = program_rows(inst.K)[restricted]
    check_basis_size(rows + (1 if inst.is_budget else inst.K))


def build_o1(inst: ProblemInstance):
    """Budgeted program: the optimizer also chooses every cache share."""
    if not inst.is_budget:
        raise InstanceError(["total-budget program needs a budget-type instance"])
    _refuse_oversized(inst)
    index = make_variable_index(inst.K)
    return index._rows.program(inst), index


def build_o2(inst: ProblemInstance):
    """Fixed-memory program: per-user totals pinned, split still free."""
    if inst.is_budget:
        raise InstanceError(["fixed-memory program needs per-user cache sizes"])
    _refuse_oversized(inst)
    index = make_variable_index(inst.K)
    return index._rows.program(inst), index


def build_intra_restricted(inst: ProblemInstance):
    """Like the joint programs but signals may not mix layers.

    Accepts either constraint type.  The layer split is still optimized,
    so the objective gap to the joint program isolates exactly what
    cross-layer signals buy.
    """
    _refuse_oversized(inst, restricted=True)
    index = make_variable_index(inst.K, per_layer_signals=True)
    return index._rows.program(inst), index


def build_layer_program(f_l: float, shares):
    """The single-layer program of ``len(shares)`` users who all want one
    layer of width ``f_l``, user k's cache share of it ``shares[k - 1]``.

    Its own placement classes and its own signals, over the index of that
    user count: every call with as many users shares one index, one set of
    coefficient arrays, and so a warm start.  Layer l of a K-user program,
    its split given, is this program of users l..K renumbered from 1.
    Every box is [0, f_l].
    """
    _check_user_count(len(shares))
    rows = _build_index(len(shares), True, True)._rows
    kept = rows.kept[None]
    eq_rhs, ub_rhs = rows.rows((float(f_l),), map(float, shares))
    return kept.at(eq_rhs, ub_rhs, kept.lo, np.full(kept.n_vars, float(f_l))), rows.index


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
        # counted before the index is built, so a wrong count costs nothing
        joint, restricted = program_columns(K)
        if variable_count not in (joint, restricted):
            raise InstanceError(
                [f"variable_count {variable_count} is neither {joint} (joint) "
                 f"nor {restricted} (intra-restricted) for {K} users"]
            )
        index = make_variable_index(K)
        unknown = [key for key in numbers if key not in index.columns]
        if unknown:
            raise InstanceError(
                [f"{key!r} is not a variable of the {K}-user program" for key in unknown]
            )
        x = np.zeros(index.n_vars)
        for key, val in numbers.items():
            x[index.columns[key]] = val
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
    # clamping raises the load by the signals and unicasts it lifts to zero
    cost = [*index.multicast.values(), *index.unicast.values()]
    lifted = -float(np.minimum(x[cost], 0.0).sum())
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
    if abs(scheme.objective + lifted - scheme.load()) > 1e-8:
        raise SolverError(
            f"objective {scheme.objective} disagrees with summed load {scheme.load()}"
        )
    return scheme


def scheme_problems(
    scheme: SchemeSolution, inst: ProblemInstance, tol: float = 1e-7
) -> list[str]:
    """Every row and variable box of ``inst``'s joint program that ``scheme`` breaks.

    The program of ``inst`` over the scheme's own index audits the point by
    :meth:`LinearProgram.check_point`, which widens each row's tolerance
    by 1 + |rhs|; dividing ``tol`` by the widest such factor keeps every
    test within the absolute ``tol``.  Returns human-readable problem
    strings, empty when the scheme is consistent.
    """
    if scheme.K != inst.K:
        raise InstanceError([f"scheme is for {scheme.K} users, instance for {inst.K}"])
    lp = scheme.index._rows.program(inst)
    widest = max(abs(rhs) for _row, rhs in lp.eq_rows + lp.ub_rows)
    return lp.check_point(scheme.x, tol / (1.0 + widest))
