"""Bit-level rehearsal of a solved scheme on actual random files.

The optimizer hands back fractions of layers; this module turns them
into integer bit counts, fills caches, XORs real signals together, and
has every user decode its demanded layers from nothing but its own
cache and the transmitted log.  Everything is deterministic given
(instance, scheme, file size, seed), so a run doubles as a regression
fixture.  Library bits are drawn a 32-bit word at a time, yet they are
the stream one bounded uint8 draw per bit gives from the same seed
(:func:`_random_bits` says why), so a library does not depend on how
its bits were drawn.

Rounding policy: allocation fractions round to the nearest bit with the
uncached chunk absorbing the slack, signal pieces are capped greedily
so no subfile chunk is over-used for one receiver, and whatever a user
still lacks afterwards goes out as plain unicast.  Rounding therefore
never breaks decodability; it only nudges the measured load, and each
scheme variable accounts for at most one bit of nudge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .model import InstanceError, ProblemInstance
from .scheme_lp import SchemeSolution, _span_mask, _submasks, mask_label, members


# one byte per bit of every file; the largest library make_library builds
MAX_LIBRARY_MIB = 512


class SimulationError(RuntimeError):
    """A fault in the harness itself, as opposed to a reported decode failure."""


# ---------------------------------------------------------------------------
# files


@dataclass(frozen=True)
class FileLibrary:
    """N files, each a tuple of per-layer bit arrays of identical lengths."""

    F: int
    seed: int
    layer_lengths: tuple[int, ...]
    files: tuple[tuple[np.ndarray, ...], ...]

    @property
    def N(self) -> int:
        return len(self.files)

    @property
    def K(self) -> int:
        return len(self.layer_lengths)

    def layer(self, file_id: int, l: int) -> np.ndarray:
        return self.files[file_id - 1][l - 1]


def library_layout(inst: ProblemInstance, F: int, seed: int = 0) -> tuple[int, ...]:
    """The bit length of each layer of a file at file size ``F``.

    Raises InstanceError for a file size, seed or library size that
    :func:`make_library` cannot take, a library above MAX_LIBRARY_MIB
    included, so a caller can refuse them before any other work.
    """
    if F < 1:
        raise InstanceError([f"file size {F} must be a positive integer"])
    if seed < 0:
        raise InstanceError([f"seed {seed} must be nonnegative"])
    try:
        lengths = tuple(int(round(f * F)) for f in inst.rates.f)
    except OverflowError:  # f * F beyond the float range
        lengths = (math.inf,)
    need = inst.N * sum(lengths)
    if need > MAX_LIBRARY_MIB << 20:
        # need is inf or an exact int, perhaps beyond the float range: divide
        # in integers, rounding half to even as "%.0f" would
        mib, rest = divmod(need, 1 << 20) if need < math.inf else (need, 0)
        mib += 2 * rest > 1 << 20 or (2 * rest == 1 << 20 and mib % 2 == 1)
        raise InstanceError(
            [f"{inst.N} files at file size {F} need {mib} MiB, above the "
             f"{MAX_LIBRARY_MIB} MiB limit"]
        )
    return lengths


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform bits, the very stream ``rng.integers(0, 2, size=n, dtype=np.uint8)`` gives.

    numpy draws a bounded uint8 by Lemire's method on successive bytes
    of buffered 32-bit words, low byte first: the bit is (byte * 2) >> 8,
    the byte's top bit, and with a range of 2 the rejection threshold is
    (255 - 1) % 2 = 0, so no byte is ever rejected.  Each call starts
    with an empty byte buffer and so consumes ceil(n / 4) words, which
    is exactly what drawing those words whole consumes.  Reading them as
    little-endian bytes keeps the order independent of the host.
    """
    words = rng.integers(0, 2**32, size=(n + 3) // 4, dtype=np.uint32)
    bits = words.astype("<u4", copy=False).view(np.uint8)
    bits >>= 7
    return bits[:n]


def make_library(inst: ProblemInstance, F: int, seed: int = 0) -> FileLibrary:
    """Draw all N files from one seeded stream, file-major, layer-minor.

    A layer of n bits is one :func:`_random_bits` call: ceil(n / 4)
    32-bit words, the top bit of each byte, the same bits as
    ``rng.integers(0, 2, size=n, dtype=np.uint8)``.  A library
    :func:`library_layout` refuses is refused before anything is
    allocated.
    """
    lengths = library_layout(inst, F, seed)
    rng = np.random.default_rng(seed)
    files = tuple(tuple(_random_bits(rng, n) for n in lengths) for _ in range(inst.N))
    return FileLibrary(F=int(F), seed=int(seed), layer_lengths=lengths, files=files)


# ---------------------------------------------------------------------------
# quantization


@dataclass(frozen=True)
class QuantizedScheme:
    """Integer-bit rendering of a scheme at file size F.

    Each layer string is laid out as consecutive chunks, one per cacher
    class in ascending bitmask order with the uncached class first, so
    every bit position has a well-defined owner set.  ``signal_pieces``
    maps an addressee mask to, per served user, the chunk-relative
    ranges that ride in that signal; ``missing`` holds the absolute
    ranges each user still needs by unicast.
    """

    K: int
    F: int
    layer_lengths: tuple[int, ...]
    alloc: dict
    offsets: dict
    signal_pieces: dict
    missing: dict
    cache_targets: tuple[float, ...]


def quantize(scheme: SchemeSolution, F: int, layer_lengths: tuple[int, ...]) -> QuantizedScheme:
    """Map fractional sizes to bit counts; see the module docstring.

    ``layer_lengths`` are the library's, so the chunks of each layer
    partition exactly the bits the files hold.
    """
    if F < 1:
        raise InstanceError([f"file size {F} must be a positive integer"])
    F = int(F)
    K = scheme.K
    index = scheme.index
    x = scheme.x.tolist()

    alloc: dict = {}
    offsets: dict = {}
    for l in range(1, K + 1):
        span = _span_mask(l, K)
        L = layer_lengths[l - 1]
        sizes = {}
        consumed = 0
        for smask in _submasks(span):
            if smask == 0:
                continue
            want = int(round(x[index.alloc[(l, smask)]] * F))
            take = min(want, L - consumed)
            sizes[smask] = take
            consumed += take
        sizes[0] = L - consumed
        pos = 0
        for smask in _submasks(span):
            alloc[(l, smask)] = sizes[smask]
            offsets[(l, smask)] = pos
            pos += sizes[smask]

    # pieces: walk every no-overlap row (layer, chunk, served user) and
    # give each signal its rounded share of the chunk, first come first
    # served in ascending signal order
    signal_pieces: dict = {}
    used: dict = {}
    for l in range(1, K + 1):
        span = _span_mask(l, K)
        for smask in _submasks(span):
            if smask == 0:
                continue
            for j in members(span & ~smask):
                budget = alloc[(l, smask)]
                start = 0
                for pmask in _submasks(smask):
                    if pmask == 0:
                        continue
                    tmask = pmask | (1 << (j - 1))
                    u_val = x[index.assign[(l, tmask, smask)]]
                    take = min(int(round(u_val * F)), budget - start)
                    if take > 0:
                        per_user = signal_pieces.setdefault(tmask, {})
                        per_user.setdefault(j, []).append((l, smask, start, take))
                        start += take
                used[(l, smask, j)] = start

    for per_user in signal_pieces.values():
        for j in per_user:
            per_user[j] = tuple(per_user[j])

    # whatever is not cached and not in any signal goes out as unicast
    missing: dict = {}
    for k in range(1, K + 1):
        kbit = 1 << (k - 1)
        for l in range(1, k + 1):
            ranges = []
            for smask in _submasks(_span_mask(l, K)):
                if smask & kbit:
                    continue
                have = alloc[(l, smask)]
                got = used.get((l, smask, k), 0)
                if got < have:
                    off = offsets[(l, smask)]
                    ranges.append((off + got, off + have))
            missing[(k, l)] = tuple(ranges)

    targets = []
    for k in range(1, K + 1):
        bit = 1 << (k - 1)
        total = sum(x[col] * F for (_l, smask), col in index.alloc.items() if smask & bit)
        targets.append(total)

    return QuantizedScheme(
        K=K,
        F=F,
        layer_lengths=tuple(layer_lengths),
        alloc=alloc,
        offsets=offsets,
        signal_pieces=signal_pieces,
        missing=missing,
        cache_targets=tuple(targets),
    )


# ---------------------------------------------------------------------------
# placement


@dataclass(frozen=True)
class CacheContents:
    """Cached ranges per user, plus the library the ranges refer to.

    Placement is file-symmetric: a user holds the same ranges of every
    file.  Reads go through a containment check so that decoding can
    only ever consume side information the user genuinely stores.
    """

    library: FileLibrary
    ranges: tuple

    def holds(self, k: int, l: int, start: int, stop: int) -> bool:
        if start >= stop:
            return True
        for rl, _smask, rstart, rstop in self.ranges[k - 1]:
            if rl == l and rstart <= start and stop <= rstop:
                return True
        return False

    def read(self, k: int, file_id: int, l: int, start: int, stop: int) -> np.ndarray:
        if not self.holds(k, l, start, stop):
            raise SimulationError(
                f"user {k} asked for uncached bits {start}:{stop} of layer {l}"
            )
        return self.library.layer(file_id, l)[start:stop]

    def bits_per_file(self, k: int) -> int:
        return sum(stop - start for _, _, start, stop in self.ranges[k - 1])


def place(library: FileLibrary, q: QuantizedScheme) -> CacheContents:
    """Fill caches according to the canonical chunk layout."""
    if library.K != q.K or library.layer_lengths != q.layer_lengths:
        raise SimulationError("library and quantized scheme disagree on layout")
    all_ranges = []
    slack = q.K * (1 << q.K)
    for k in range(1, q.K + 1):
        kbit = 1 << (k - 1)
        user_ranges = []
        for l in range(1, k + 1):
            for smask in _submasks(_span_mask(l, q.K)):
                if not smask & kbit:
                    continue
                n = q.alloc[(l, smask)]
                if n > 0:
                    off = q.offsets[(l, smask)]
                    user_ranges.append((l, smask, off, off + n))
        total = sum(stop - start for _, _, start, stop in user_ranges)
        if total > int(round(q.cache_targets[k - 1])) + slack:
            raise SimulationError(
                f"user {k} cache holds {total} bits, above its quantized bound"
            )
        all_ranges.append(tuple(user_ranges))
    return CacheContents(library=library, ranges=tuple(all_ranges))


# ---------------------------------------------------------------------------
# delivery


@dataclass(frozen=True)
class Piece:
    """One constituent range of a coded signal, absolute within its layer."""

    user: int
    file: int
    layer: int
    subfile_mask: int
    start: int
    stop: int


@dataclass(frozen=True)
class Signal:
    addressees: int
    pieces: tuple
    payload: np.ndarray


@dataclass(frozen=True)
class Unicast:
    user: int
    ranges: tuple
    payload: np.ndarray


@dataclass(frozen=True)
class TransmissionLog:
    signals: tuple
    unicasts: tuple

    @property
    def total_bits(self) -> int:
        total = sum(len(s.payload) for s in self.signals)
        return total + sum(len(u.payload) for u in self.unicasts)


def _check_demand(demand, K: int, N: int) -> tuple:
    demand = tuple(int(d) for d in demand)
    problems = []
    if len(demand) != K:
        problems.append(f"demand names {len(demand)} files for {K} users")
    if any(d < 1 or d > N for d in demand):
        problems.append(f"demand {demand} outside file range 1..{N}")
    if len(set(demand)) != len(demand):
        problems.append("repeated demands are out of scope; files must be distinct")
    if problems:
        raise InstanceError(problems)
    return demand


def deliver(placement: CacheContents, q: QuantizedScheme, demand) -> TransmissionLog:
    """Form every coded signal and unicast bundle for the given demand."""
    library = placement.library
    demand = _check_demand(demand, q.K, library.N)

    signals = []
    for tmask in sorted(q.signal_pieces):
        per_user = q.signal_pieces[tmask]
        constituents = []
        for j in members(tmask):
            refs = []
            parts = []
            for l, smask, chunk_start, size in per_user.get(j, ()):
                start = q.offsets[(l, smask)] + chunk_start
                refs.append(Piece(j, demand[j - 1], l, smask, start, start + size))
                parts.append(library.layer(demand[j - 1], l)[start : start + size])
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
        signals.append(Signal(addressees=tmask, pieces=tuple(pieces), payload=payload))

    unicasts = []
    for k in range(1, q.K + 1):
        refs = []
        parts = []
        for l in range(1, k + 1):
            for start, stop in q.missing.get((k, l), ()):
                refs.append((demand[k - 1], l, start, stop))
                parts.append(library.layer(demand[k - 1], l)[start:stop])
        if refs:
            payload = np.concatenate(parts)
            unicasts.append(Unicast(user=k, ranges=tuple(refs), payload=payload))

    return TransmissionLog(signals=tuple(signals), unicasts=tuple(unicasts))


# ---------------------------------------------------------------------------
# decoding


def decode(k: int, cache: CacheContents, log: TransmissionLog, demand):
    """Rebuild layers 1..k of user k's file from cache and log alone.

    Returns (layers, problems): a dict mapping layer to the recovered
    bit array, and a list of everything that went wrong.  Unrecovered
    positions keep the sentinel value 255 and are reported as missing.
    """
    library = cache.library
    demand = _check_demand(demand, cache.library.K, library.N)
    own_file = demand[k - 1]
    kbit = 1 << (k - 1)
    out = {
        l: np.full(library.layer_lengths[l - 1], 255, dtype=np.uint8)
        for l in range(1, k + 1)
    }
    problems: list[str] = []

    for l, _smask, start, stop in cache.ranges[k - 1]:
        if l <= k:
            out[l][start:stop] = cache.read(k, own_file, l, start, stop)

    for sig in log.signals:
        if not sig.addressees & kbit:
            continue
        # each user's constituent occupies the payload head, piece after
        # piece, so positions are per contributing user
        acc = sig.payload.copy()
        own = []
        offset = {}
        for p in sig.pieces:
            n = p.stop - p.start
            pos = offset.get(p.user, 0)
            offset[p.user] = pos + n
            if p.user == k:
                own.append((p, pos))
                continue
            if not p.subfile_mask & kbit:
                problems.append(
                    f"signal to {mask_label(sig.addressees)} carries a piece of "
                    f"chunk {mask_label(p.subfile_mask)} user {k} cannot cancel"
                )
                continue
            bits = cache.read(k, demand[p.user - 1], p.layer, p.start, p.stop)
            acc[pos : pos + n] ^= bits
        for p, pos in own:
            n = p.stop - p.start
            if p.layer <= k:
                out[p.layer][p.start : p.stop] = acc[pos : pos + n]

    for uni in log.unicasts:
        if uni.user != k:
            continue
        pos = 0
        for file_id, l, start, stop in uni.ranges:
            n = stop - start
            if file_id != own_file:
                problems.append(f"unicast range names file {file_id}, not {own_file}")
            elif l <= k:
                out[l][start:stop] = uni.payload[pos : pos + n]
            pos += n

    for l in range(1, k + 1):
        gaps = int(np.count_nonzero(out[l] == 255))
        if gaps:
            problems.append(f"layer {l} is missing {gaps} bits")
    return out, problems


# ---------------------------------------------------------------------------
# end-to-end verification


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one quantize-place-deliver-decode run."""

    ok: bool
    user_status: tuple[str, ...]
    measured_load: float
    predicted_load: float
    max_discrepancy: float
    discrepancy_bound: float
    file_size: int
    seed: int

    def to_json_dict(self) -> dict:
        # json writes the user_status tuple as a list
        return asdict(self)


def verify(
    inst: ProblemInstance, scheme: SchemeSolution, F: int, seed: int = 0
) -> VerificationReport:
    """Run the whole pipeline under the worst-case demand d = (1, ..., K).

    Success means every user reconstructs its layers bit for bit and the
    measured load stays within one bit per scheme variable of the
    prediction.
    """
    if scheme.K != inst.K:
        raise InstanceError(
            [f"scheme is for {scheme.K} users, instance for {inst.K}"]
        )
    library = make_library(inst, F, seed)
    q = quantize(scheme, F, layer_lengths=library.layer_lengths)
    placement = place(library, q)
    demand = tuple(range(1, inst.K + 1))
    log = deliver(placement, q, demand)

    status = []
    for k in range(1, inst.K + 1):
        layers, problems = decode(k, placement, log, demand)
        if not problems:
            for l in range(1, k + 1):
                if not np.array_equal(layers[l], library.layer(demand[k - 1], l)):
                    problems.append(f"layer {l} content mismatch")
        status.append("ok" if not problems else "; ".join(problems))

    measured = log.total_bits / F
    predicted = scheme.load()
    discrepancy = abs(measured - predicted)
    bound = scheme.variable_count / F
    ok = all(s == "ok" for s in status) and discrepancy <= bound + 1e-12
    return VerificationReport(
        ok=ok,
        user_status=tuple(status),
        measured_load=measured,
        predicted_load=predicted,
        max_discrepancy=discrepancy,
        discrepancy_bound=bound,
        file_size=int(F),
        seed=int(seed),
    )
