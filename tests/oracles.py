"""Slow or independent reference implementations used only to check the package.

Everything here trades efficiency for obviousness: answers are obtained by
exhaustive enumeration or by a second evaluation route, so they cannot
share a bug with the code under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from hetcache.bounds import BoundReport
from hetcache.closed_form import t_decomposition
from hetcache.lp_core import LinearProgram, SolverError, _row_head, solve_lp
from hetcache.model import InstanceError, ProblemInstance
from hetcache.scheme_lp import build_layer_program, mask_label, members
from hetcache.simulator import (
    Piece,
    Signal,
    SimulationError,
    TransmissionLog,
    VerificationReport,
    make_library,
    place,
    quantize,
)

FEAS = 1e-7


def brute_force_lp(c, eq_rows, ub_rows, lo, hi):
    """Minimize c.x over the polytope by enumerating candidate vertices.

    Every vertex of a nonempty polytope with finite boxes is the solution
    of some n linearly independent active constraints, so trying all size-n
    subsets of {equalities, inequalities, bound faces} and keeping the best
    feasible solution is exact.  Returns (status, x, objective) with status
    'optimal' or 'infeasible'.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    for coefs, b in eq_rows:
        a = np.zeros(n)
        for j, v in coefs.items():
            a[j] += v
        rows.append(a)
        rhs.append(b)
    n_eq = len(rows)
    for coefs, b in ub_rows:
        a = np.zeros(n)
        for j, v in coefs.items():
            a[j] += v
        rows.append(a)
        rhs.append(b)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e.copy())
        rhs.append(lo[j])
        rows.append(e)
        rhs.append(hi[j])
    rows = np.array(rows)
    rhs = np.array(rhs)

    def feasible(x):
        if np.any(x < lo - FEAS) or np.any(x > hi + FEAS):
            return False
        vals = rows[: n_eq + len(ub_rows)] @ x
        for i in range(n_eq):
            if abs(vals[i] - rhs[i]) > FEAS * (1.0 + abs(rhs[i])):
                return False
        for i in range(n_eq, n_eq + len(ub_rows)):
            if vals[i] > rhs[i] + FEAS * (1.0 + abs(rhs[i])):
                return False
        return True

    best_x, best_obj = None, np.inf
    for active in itertools.combinations(range(len(rows)), n):
        M = rows[list(active)]
        v = rhs[list(active)]
        try:
            x = np.linalg.solve(M, v)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if feasible(x):
            obj = float(c @ x)
            if obj < best_obj - 1e-12:
                best_x, best_obj = x, obj
    if best_x is None:
        return "infeasible", None, np.nan
    return "optimal", best_x, best_obj


def random_box_lp(rng):
    """A small random LP with finite boxes; roughly a third are infeasible."""
    n = int(rng.integers(1, 6))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(0, 5))
    lo = rng.integers(-3, 1, n).astype(float)
    hi = lo + rng.integers(0, 5, n).astype(float)
    c = rng.integers(-5, 6, n).astype(float)
    x0 = rng.uniform(lo, hi)

    def random_row():
        a = rng.integers(-4, 5, n).astype(float)
        a[rng.random(n) < 0.3] = 0.0
        return {j: float(v) for j, v in enumerate(a) if v != 0.0}

    eq_rows = []
    for _ in range(m_eq):
        coefs = random_row()
        b = sum(v * x0[j] for j, v in coefs.items())
        eq_rows.append((coefs, float(b)))
    ub_rows = []
    for _ in range(m_ub):
        coefs = random_row()
        base = sum(v * x0[j] for j, v in coefs.items())
        slack = float(rng.integers(-2, 4))  # negative slack can cut off x0
        ub_rows.append((coefs, float(base) + slack))
    return c, eq_rows, ub_rows, lo, hi


def validate_loop(lp: LinearProgram) -> list[str]:
    """``LinearProgram.validate`` as a loop over every row and column."""
    problems = []
    n = lp.n_vars
    if lp.lo.shape != (n,) or lp.hi.shape != (n,):
        problems.append("bound arrays do not match variable count")
        return problems
    if not (np.all(np.isfinite(lp.lo)) and np.all(np.isfinite(lp.hi))):
        problems.append("variable bounds must be finite")
    bad = np.nonzero(lp.lo > lp.hi + 1e-15)[0]
    for j in bad[:5]:
        problems.append(f"empty bound box for {lp.name_of(int(j))}")
    for kind, rows in (("eq", lp.eq_rows), ("ub", lp.ub_rows)):
        for i, (coefs, rhs) in enumerate(rows):
            if not np.isfinite(rhs):
                problems.append(f"{kind} row {i} has non-finite rhs")
            for j in coefs:
                if not 0 <= j < n:
                    problems.append(f"{kind} row {i} references column {j}")
    return problems


def check_point_loop(lp: LinearProgram, x, tol: float) -> list[str]:
    """``LinearProgram.check_point`` as a loop: each row summed by ``sum``."""
    # each test is written so that NaN, which compares false, fails it
    problems = []
    for j in range(lp.n_vars):
        if not lp.lo[j] - tol <= x[j] <= lp.hi[j] + tol:
            problems.append(
                f"{lp.name_of(j)}={x[j]} outside [{lp.lo[j]}, {lp.hi[j]}]"
            )
    for i, (coefs, rhs) in enumerate(lp.eq_rows):
        lhs = sum(v * x[j] for j, v in coefs.items())
        if not abs(lhs - rhs) <= tol * (1.0 + abs(rhs)):
            problems.append(f"eq row {i}: {lhs} != {rhs} in {_row_head(lp, coefs)}")
    for i, (coefs, rhs) in enumerate(lp.ub_rows):
        lhs = sum(v * x[j] for j, v in coefs.items())
        if not lhs <= rhs + tol * (1.0 + abs(rhs)):
            problems.append(f"ub row {i}: {lhs} > {rhs} in {_row_head(lp, coefs)}")
    return problems


def intra_layer_programs(inst: ProblemInstance, split) -> list:
    """The K per-layer programs of ``split`` with no user taken out: layer
    l over every one of users l..K, whatever their shares."""
    return [build_layer_program(fl, shares) for fl, shares in zip(inst.rates.f, split)]


def intra_layer_load(inst: ProblemInstance, split) -> float:
    """The summed optima of :func:`intra_layer_programs`, each solved cold."""
    total = 0.0
    for lp, _index in intra_layer_programs(inst, split):
        sol = solve_lp(lp)
        if not sol.is_optimal:
            raise SolverError(f"per-layer solve ended {sol.status.value}")
        total += sol.objective
    return total


def envelope_load(corners, m_tot):
    """Piecewise-linear interpolation through memory/load corner points."""
    xs = [m for m, _ in corners]
    ys = [v for _, v in corners]
    if m_tot <= xs[0]:
        return ys[0]
    for i in range(1, len(xs)):
        if m_tot <= xs[i] + 1e-12:
            t = (m_tot - xs[i - 1]) / (xs[i] - xs[i - 1])
            return (1.0 - t) * ys[i - 1] + t * ys[i]
    return ys[-1]


def served_user(tmask: int, smask: int) -> int:
    """The one member of T outside S, i.e. whom the (T, S) piece serves."""
    diff = tmask & ~smask
    if diff == 0 or diff & (diff - 1):
        raise ValueError(f"{mask_label(tmask)} minus {mask_label(smask)} is not a single user")
    return diff.bit_length()


def threshold_form(t, rates, tol=1e-12):
    """(x, y, alpha): the greedy levels ``t`` read in threshold form.

    Layers before y sit at level x, layer y holds the partial level
    x - 1 + alpha, later layers sit at x - 1 until the region where their
    caps K - l + 1 bind.  That reading is faithful whenever consecutive
    fill levels have separated slope ranges, i.e. (x + 1)(x + 2) >= x (K + 1)
    for all x, which holds up to K = 5; for larger populations the optimal
    filling order interleaves levels and only ``t`` itself should be trusted.
    """
    K = rates.K
    effective = [l for l in range(1, K + 1) if rates.f[l - 1] > 0.0]
    frac = [l for l in effective if abs(t[l - 1] - round(t[l - 1])) > tol]
    if not effective or all(t[l - 1] <= tol for l in effective):
        return 1, 1, 0.0
    if frac:
        y = frac[0]
        return int(math.floor(t[y - 1])) + 1, y, t[y - 1] - math.floor(t[y - 1])
    x = int(round(t[effective[0] - 1]))
    at_level = [l for l in effective if round(t[l - 1]) == x and l <= K - x + 1]
    return x, at_level[-1] if at_level else effective[0], 1.0


def _chi(users: int, t: float) -> float:
    """Load of a ``users``-user uniform subsystem with unit file size and
    total memory ``t``, written as the max of the supporting lines.

    Line j passes through the integer points (j - 1, g(j - 1)) and
    (j, g(j)), so the max over j equals the interpolated envelope.  Kept
    as an explicit max so it is a genuinely different evaluation path.
    """
    return max(
        (2 * users - j + 1) / (j + 1) - (users + 1) * t / (j * (j + 1))
        for j in range(1, users + 1)
    )


def lemma1_load(K: int, m_tot: float) -> float:
    """Optimal load for K users with identical unit rates at total budget
    ``m_tot`` in [0, K]."""
    if K < 1:
        raise InstanceError([f"K={K} must be at least 1"])
    if m_tot < -1e-9 or m_tot > K + 1e-9:
        raise InstanceError([f"budget {m_tot} outside [0, {K}]"])
    return _chi(K, min(max(m_tot, 0.0), float(K)))


def simplified_budget_solve(m_tot, rates):
    """Budget optimum computed through the per-layer converse expression.

    Same greedy split, but each layer's contribution is evaluated as
    chi(K - l + 1, t_l) * f_l instead of by interpolating g, as an
    independent cross-check of ``theorem1_load``.  Returns (t, load).
    """
    t = t_decomposition(m_tot, rates)
    K = rates.K
    load = sum(
        _chi(K - l + 1, t[l - 1]) * rates.f[l - 1]
        for l in range(1, K + 1)
        if rates.f[l - 1] > 0.0
    )
    return t, load


def library_per_bit(inst: ProblemInstance, F: int, seed: int) -> tuple:
    """The N files, one uint8 per bit, as the whole seeded stream gives them.

    One ``random_raw`` call draws every 64-bit output of every file,
    file-major and layer-minor, with no output skipped; ``np.unpackbits``
    cuts the little-endian bytes into bits, and a layer of n bits keeps
    the first n bits of its ceil(n / 64) outputs: the library
    ``make_library`` must reproduce bit for bit.
    """
    lengths = tuple(int(round(f * F)) for f in inst.rates.f)
    words = [(n + 63) // 64 for n in lengths]
    raw = np.random.default_rng(seed).bit_generator.random_raw(inst.N * sum(words))
    bits = np.unpackbits(raw.astype("<u8").view(np.uint8)).reshape(inst.N, 64 * sum(words))
    starts = 64 * np.cumsum([0] + words)
    return tuple(
        tuple(row[start : start + n] for start, n in zip(starts.tolist(), lengths))
        for row in bits
    )


def packed(bits) -> int:
    """Byte-per-bit ``bits`` as the simulator packs a payload or a range: an
    int whose highest of ``len(bits)`` bits is the first."""
    return int("".join("01"[b] for b in bits.tolist()) or "0", 2)


def unpacked(value: int, n: int) -> np.ndarray:
    """The ``n`` bits a packed int holds, one uint8 per bit, first bit first."""
    text = format(value, f"0{n}b") if n else ""
    if len(text) != n:
        raise ValueError(f"{value} has more than {n} bits")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def _read_cached(cache, files, k, file_id, l, start, stop):
    if not cache.holds(k, l, start, stop):
        raise SimulationError(f"user {k} asked for uncached bits {start}:{stop} of layer {l}")
    return files[file_id - 1][l - 1][start:stop]


def deliver_per_bit(cache, q, demand, files) -> TransmissionLog:
    """The log ``simulator.deliver`` sends, built from byte-per-bit ``files``
    (as :func:`library_per_bit` gives them) by concatenation, then packed."""
    signals = []
    for tmask in sorted(q.signal_pieces):
        per_user = q.signal_pieces[tmask]
        constituents = []
        for j in members(tmask):
            refs, parts = [], []
            for l, smask, chunk_start, size in per_user.get(j, ()):
                start = q.offsets[(l, smask)] + chunk_start
                refs.append(Piece(j, demand[j - 1], l, smask, start, start + size))
                parts.append(files[demand[j - 1] - 1][l - 1][start : start + size])
            bits = np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
            constituents.append((refs, bits))
        length = max(len(bits) for _, bits in constituents)
        if length == 0:
            continue
        payload = np.zeros(length, dtype=np.uint8)
        pieces = []
        for refs, bits in constituents:
            payload[: len(bits)] ^= bits
            pieces.extend(refs)
        signals.append(Signal(addressees=tmask, pieces=tuple(pieces), payload=packed(payload),
                              length=length))
    return TransmissionLog(signals=tuple(signals))


def decode_per_bit(k, cache, log, demand, files) -> list:
    """User k's problems as a materializing decode finds them.

    Layers 1..k are rebuilt in byte-per-bit arrays that start at the
    sentinel 255: cached ranges are copied in, then each signal's payload
    with the other pieces cancelled, each from the file its user demands,
    later writes winning.  A piece of user k that names another file is a
    problem and writes nothing.  Sentinels left are missing bits; with no
    other problem, a rebuilt layer unequal to the file is a content
    mismatch.  Payloads are unpacked to one byte per bit first.
    """
    own_file = demand[k - 1]
    kbit = 1 << (k - 1)
    out = {l: np.full(len(files[0][l - 1]), 255, dtype=np.uint8) for l in range(1, k + 1)}
    problems = []
    for l, _smask, start, stop in cache.ranges[k - 1]:
        if l <= k:
            out[l][start:stop] = _read_cached(cache, files, k, own_file, l, start, stop)
    for sig in log.signals:
        if not sig.addressees & kbit:
            continue
        acc = unpacked(sig.payload, sig.length)
        own = []
        offset = {}
        for p in sig.pieces:
            n = p.stop - p.start
            pos = offset.get(p.user, 0)
            offset[p.user] = pos + n
            if p.user == k and p.file != own_file:
                problems.append(f"signal to {mask_label(sig.addressees)} carries a piece of "
                                f"file {p.file}, not {own_file}")
            elif p.user == k:
                own.append((p, pos))
            elif not p.subfile_mask & kbit:
                problems.append(
                    f"signal to {mask_label(sig.addressees)} carries a piece of "
                    f"chunk {mask_label(p.subfile_mask)} user {k} cannot cancel"
                )
            else:
                acc[pos : pos + n] ^= _read_cached(
                    cache, files, k, demand[p.user - 1], p.layer, p.start, p.stop)
        for p, pos in own:
            if p.layer <= k:
                out[p.layer][p.start : p.stop] = acc[pos : pos + p.stop - p.start]
    for l in range(1, k + 1):
        gaps = int(np.count_nonzero(out[l] == 255))
        if gaps:
            problems.append(f"layer {l} is missing {gaps} bits")
    if problems:
        return problems
    return [f"layer {l} content mismatch" for l in range(1, k + 1)
            if not np.array_equal(out[l], files[own_file - 1][l - 1])]


def verify_per_bit(inst: ProblemInstance, scheme, F: int, seed: int = 0) -> VerificationReport:
    """``simulator.verify`` on byte-per-bit files: the library of
    :func:`library_per_bit`, :func:`deliver_per_bit` and
    :func:`decode_per_bit`; quantization and the cached ranges are the
    package's."""
    files = library_per_bit(inst, F, seed)
    q = quantize(scheme, F, tuple(len(layer) for layer in files[0]))
    cache = place(make_library(inst, F, seed), q)
    demand = tuple(range(1, inst.K + 1))
    log = deliver_per_bit(cache, q, demand, files)
    status = tuple("; ".join(decode_per_bit(k, cache, log, demand, files)) or "ok"
                   for k in range(1, inst.K + 1))
    measured = log.total_bits / F
    predicted = scheme.load()
    bound = scheme.variable_count / F
    return VerificationReport(
        ok=all(s == "ok" for s in status) and abs(measured - predicted) <= bound + 1e-12,
        user_status=status,
        measured_load=measured,
        predicted_load=predicted,
        max_discrepancy=abs(measured - predicted),
        discrepancy_bound=bound,
        file_size=int(F),
        seed=int(seed),
    )


def audit_delivery(cache, log, demand) -> list:
    """Check that no user is handed a bit twice.

    Every bit of a demanded file must reach its user through exactly one
    channel: the cache or one signal piece of that file.  Returns a
    description of each collision found.
    """
    problems = []
    for k in range(1, cache.library.K + 1):
        kbit = 1 << (k - 1)
        intervals: dict = {}

        def claim(l, start, stop, channel, k=k, intervals=intervals):
            if start >= stop:
                return
            for other_start, other_stop, other_channel in intervals.setdefault(l, []):
                if start < other_stop and other_start < stop:
                    problems.append(
                        f"user {k} layer {l}: {channel} [{start},{stop}) overlaps "
                        f"{other_channel} [{other_start},{other_stop})"
                    )
            intervals[l].append((start, stop, channel))

        for l, _smask, start, stop in cache.ranges[k - 1]:
            claim(l, start, stop, "cache")
        for sig in log.signals:
            if sig.addressees & kbit:
                for p in sig.pieces:
                    if p.user == k and p.file == demand[k - 1]:
                        claim(p.layer, p.start, p.stop, f"signal {mask_label(sig.addressees)}")
    return problems


def cutset_fixed_enum(inst: ProblemInstance) -> BoundReport:
    """Best cut over all nonempty user subsets, at the cache sizes of ``inst``.

    Ties, up to 1e-15 times the sum of rates, go to the smallest bitmask
    so the witness is deterministic.  Visits all 2^K - 1 subsets.
    """
    r, m = inst.rates.r, inst.constraint.m
    best_mask = 0
    best = -float("inf")
    for mask in range(1, 1 << inst.K):
        rate_sum = mem_sum = 0.0
        for k in range(inst.K):
            if mask >> k & 1:
                rate_sum += r[k]
                mem_sum += m[k]
        val = rate_sum - inst.N * mem_sum / (inst.N // mask.bit_count())
        if val > best + 1e-15 * inst.rates.sum_rates:
            best = val
            best_mask = mask
    return BoundReport(value=max(best, 0.0), raw_value=best, binding_set=best_mask)


def cutset_budget_enum(inst: ProblemInstance) -> BoundReport:
    """Budget version: minimize the best cut over admissible splits of the
    budget of ``inst``.

    Epigraph formulation: one variable per user plus the bound value z,
    one row per nonempty subset pushing z above that cut, the budget row,
    and per-user boxes [0, r_k].  The program has 2^K rows.
    """
    m_tot = inst.constraint.m_tot
    total = inst.rates.sum_rates

    K, N = inst.K, inst.N
    r = inst.rates.r
    zcol = K
    c = [0.0] * K + [1.0]
    lo = [0.0] * K + [-N * total - 1.0]
    hi = list(r) + [total + 1.0]
    names = tuple(f"m[{k}]" for k in range(1, K + 1)) + ("z",)

    ubs = []
    for mask in range(1, 1 << K):
        size = mask.bit_count()
        coef = N / (N // size)
        row = {zcol: -1.0}
        rhs = 0.0
        for k in range(K):
            if mask >> k & 1:
                row[k] = -coef
                rhs -= r[k]
        ubs.append((row, rhs))  # sum_U r - coef*sum_U m - z <= 0, negated

    eq = [({k: 1.0 for k in range(K)}, m_tot)]
    lp = LinearProgram(c=c, eq_rows=eq, ub_rows=ubs, lo=lo, hi=hi, names=names)
    sol = solve_lp(lp)
    if not sol.is_optimal:
        raise SolverError(f"cut-set program ended {sol.status.value}")
    raw = float(sol.objective)
    memories = tuple(float(sol.x[k]) for k in range(K))
    return BoundReport(value=max(raw, 0.0), raw_value=raw, binding_set=memories)
