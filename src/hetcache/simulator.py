"""Bit-level rehearsal of a solved scheme on actual random files.

The optimizer hands back fractions of layers; this module turns them
into integer bit counts, fills caches, XORs real signals together, and
has every user decode its demanded layers from nothing but its own
cache and the transmitted log.  Everything is deterministic given
(instance, scheme, file size, seed), so a run doubles as a regression
fixture.  Library layers are packed, eight bits to a byte, yet hold the
stream one bounded uint8 draw per bit gives from the same seed
(:func:`_random_layers` says why).  Payloads hold one byte per bit.

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


# the most memory a verify may take: the packed library, and one byte per
# bit of the payloads and of the buffers delivery and decoding hold
MAX_LIBRARY_MIB = 512

# 32-bit words drawn at once; even, so that a layer's segments of this
# many words pack into whole bytes
DRAW_WORDS = 1 << 14

# what a layer costs beside its bits: its array and, at the peak of the
# draw, the bookkeeping (about 330 bytes with numpy 2.4)
LAYER_BYTES = 512


class SimulationError(RuntimeError):
    """A fault in the harness itself, as opposed to a reported decode failure."""


# ---------------------------------------------------------------------------
# files


@dataclass(frozen=True)
class FileLibrary:
    """N files, each a tuple of packed per-layer bit arrays.

    Layer l of every file holds ``layer_lengths[l-1]`` bits, eight to a
    byte with the first bit in the top bit of the first byte (the
    ``np.packbits`` order) and the padding bits of the last byte zero.
    Bits are read only through :meth:`bits`.
    """

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

    def bits(self, file_id: int, l: int, start: int, stop: int) -> np.ndarray:
        """Bits ``[start, stop)`` of layer l of file ``file_id``, one uint8
        per bit; a range past the layer's end stops at its end."""
        stop = min(stop, self.layer_lengths[l - 1])
        first = start >> 3
        packed = self.files[file_id - 1][l - 1][first : (stop + 7) >> 3]
        return np.unpackbits(packed)[start - 8 * first : stop - 8 * first]


def library_layout(inst: ProblemInstance, F: int, seed: int = 0) -> tuple[int, ...]:
    """The bit length of each layer of a file at file size ``F``.

    Raises InstanceError for a file size, seed or library size that
    :func:`make_library` cannot take, so a caller can refuse them before
    any other work.  A verify above MAX_LIBRARY_MIB is refused: it holds
    the packed library, LAYER_BYTES more per layer so that many empty
    files are refused too, and one byte per bit of the payloads, at most
    the layers each user demands (the sum over l of K - l + 1 times the
    length of layer l), and of the buffers delivery and decoding hold
    beside them, at most two more files.
    """
    if F < 1:
        raise InstanceError([f"file size {F} must be a positive integer"])
    if seed < 0:
        raise InstanceError([f"seed {seed} must be nonnegative"])
    try:
        lengths = tuple(int(round(f * F)) for f in inst.rates.f)
    except OverflowError:  # f * F beyond the float range
        lengths, need = (), math.inf
    else:
        need = inst.N * sum(LAYER_BYTES + (n + 7) // 8 for n in lengths)
        need += sum((inst.K - l + 3) * n for l, n in enumerate(lengths, 1))
    if need > MAX_LIBRARY_MIB << 20:
        # need is inf or an exact int, perhaps beyond the float range: divide
        # in integers, rounding half to even as "%.0f" would
        mib, rest = divmod(need, 1 << 20) if need < math.inf else (need, 0)
        mib += 2 * rest > 1 << 20 or (2 * rest == 1 << 20 and mib % 2 == 1)
        raise InstanceError(
            [f"verifying {inst.N} files at file size {F} needs {mib} MiB, above the "
             f"{MAX_LIBRARY_MIB} MiB limit"]
        )
    return lengths


def _random_layers(rng: np.random.Generator, lengths) -> list[np.ndarray]:
    """Packed uniform bits of each length in turn: the very stream that
    ``rng.integers(0, 2, size=n, dtype=np.uint8)`` gives for each n.

    numpy draws a bounded uint8 by Lemire's method on successive bytes
    of buffered 32-bit words, low byte first: the bit is (byte * 2) >> 8,
    the byte's top bit, and with a range of 2 the rejection threshold is
    (255 - 1) % 2 = 0, so no byte is ever rejected.  Each call starts
    with an empty byte buffer and so consumes ceil(n / 4) words.  The
    words are the low, then the high half of each 64-bit output, the
    high half kept between calls, so the layers, cut into segments of at
    most DRAW_WORDS words, can share draws of at most DRAW_WORDS words
    taken from the raw outputs, an unused high half carried over.
    """
    # (layer, words, bits) of each segment
    segments = [(i, min(DRAW_WORDS, (n - at + 3) // 4), min(4 * DRAW_WORDS, n - at))
                for i, n in enumerate(lengths) for at in range(0, max(n, 1), 4 * DRAW_WORDS)]
    parts: list[list] = [[] for _ in lengths]
    carried = np.zeros(0, dtype=np.uint8)
    first = 0
    while first < len(segments):
        last, total = first, 0
        while last < len(segments) and total + segments[last][1] <= DRAW_WORDS:
            total += segments[last][1]
            last += 1
        # little-endian bytes, so the order does not depend on the host
        raw = rng.bit_generator.random_raw((4 * total - len(carried) + 7) // 8)
        tops = raw.astype("<u8", copy=False).view(np.uint8)
        tops >>= 7
        tops = np.concatenate([carried, tops]) if len(carried) else tops
        carried = tops[4 * total :].copy()
        at = 0
        for i, words, n in segments[first:last]:
            parts[i].append(np.packbits(tops[at : at + n]))
            at += 4 * words
        first = last
    return [p[0] if len(p) == 1 else np.concatenate(p) for p in parts]


def make_library(inst: ProblemInstance, F: int, seed: int = 0) -> FileLibrary:
    """Draw all N files from one seeded stream, file-major, layer-minor.

    Layer l of a file holds the bits ``rng.integers(0, 2, size=n,
    dtype=np.uint8)`` would give it, drawn and packed by
    :func:`_random_layers`.  A library :func:`library_layout` refuses is
    refused before anything is allocated.
    """
    lengths = library_layout(inst, F, seed)
    layers = _random_layers(np.random.default_rng(seed), lengths * inst.N)
    K = len(lengths)
    files = tuple(tuple(layers[i : i + K]) for i in range(0, len(layers), K))
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
        subs = list(_submasks(_span_mask(l, K)))
        sizes = {}
        left = layer_lengths[l - 1]
        for smask in subs[1:]:
            sizes[smask] = min(int(round(x[index.alloc[(l, smask)]] * F)), left)
            left -= sizes[smask]
        sizes[0] = left
        pos = 0
        for smask in subs:
            alloc[(l, smask)] = sizes[smask]
            offsets[(l, smask)] = pos
            pos += sizes[smask]

    # pieces: walk every no-overlap row (layer, chunk, served user) and
    # give each signal its rounded share of the chunk, first come first
    # served in ascending signal order; a piece that rounds to no bit takes none
    want = np.rint(scheme.x * F).tolist()
    signal_pieces: dict = {}
    used: dict = {}
    for l, smask, j, tmask, bits in sorted(
            (l, smask, (tmask & ~smask).bit_length(), tmask, int(want[col]))
            for (l, tmask, smask), col in index.assign.items() if want[col] > 0):
        start = used.get((l, smask, j), 0)
        take = min(bits, alloc[(l, smask)] - start)
        if take > 0:
            signal_pieces.setdefault(tmask, {}).setdefault(j, []).append((l, smask, start, take))
            used[(l, smask, j)] = start + take

    signal_pieces = {t: {j: tuple(v) for j, v in per_user.items()}
                     for t, per_user in signal_pieces.items()}

    # whatever is not cached and not in any signal goes out as unicast
    missing = {
        (k, l): tuple((offsets[(l, s)] + used.get((l, s, k), 0), offsets[(l, s)] + alloc[(l, s)])
                      for s in _submasks(_span_mask(l, K))
                      if not s >> (k - 1) & 1 and used.get((l, s, k), 0) < alloc[(l, s)])
        for k in range(1, K + 1) for l in range(1, k + 1)
    }

    targets = tuple(
        sum(x[col] * F for (_l, smask), col in index.alloc.items() if smask >> (k - 1) & 1)
        for k in range(1, K + 1)
    )
    return QuantizedScheme(K=K, F=F, layer_lengths=tuple(layer_lengths), alloc=alloc,
                           offsets=offsets, signal_pieces=signal_pieces, missing=missing,
                           cache_targets=targets)


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
        return start >= stop or any(rl == l and rstart <= start and stop <= rstop
                                    for rl, _smask, rstart, rstop in self.ranges[k - 1])

    def read(self, k: int, file_id: int, l: int, start: int, stop: int) -> np.ndarray:
        if not self.holds(k, l, start, stop):
            raise SimulationError(f"user {k} asked for uncached bits {start}:{stop} of layer {l}")
        return self.library.bits(file_id, l, start, stop)

    def bits_per_file(self, k: int) -> int:
        return sum(stop - start for _, _, start, stop in self.ranges[k - 1])


def place(library: FileLibrary, q: QuantizedScheme) -> CacheContents:
    """Fill caches according to the canonical chunk layout."""
    if library.K != q.K or library.layer_lengths != q.layer_lengths:
        raise SimulationError("library and quantized scheme disagree on layout")
    all_ranges = []
    slack = q.K * (1 << q.K)
    for k in range(1, q.K + 1):
        user_ranges = []
        for l in range(1, k + 1):
            for smask in _submasks(_span_mask(l, q.K)):
                n = q.alloc[(l, smask)]
                if smask >> (k - 1) & 1 and n > 0:
                    off = q.offsets[(l, smask)]
                    user_ranges.append((l, smask, off, off + n))
        total = sum(stop - start for _, _, start, stop in user_ranges)
        if total > int(round(q.cache_targets[k - 1])) + slack:
            raise SimulationError(f"user {k} cache holds {total} bits, above its quantized bound")
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
        return sum(len(message.payload) for message in self.signals + self.unicasts)


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
        # each user's constituent occupies the payload head, piece after
        # piece; quantize adds a signal only with a piece of positive size
        length = max(sum(piece[-1] for piece in pieces) for pieces in per_user.values())
        payload = np.zeros(length, dtype=np.uint8)
        pieces = []
        for j in members(tmask):
            pos = 0
            for l, smask, chunk_start, size in per_user.get(j, ()):
                start = q.offsets[(l, smask)] + chunk_start
                pieces.append(Piece(j, demand[j - 1], l, smask, start, start + size))
                payload[pos : pos + size] ^= library.bits(demand[j - 1], l, start, start + size)
                pos += size
        signals.append(Signal(addressees=tmask, pieces=tuple(pieces), payload=payload))

    unicasts = []
    for k in range(1, q.K + 1):
        own = demand[k - 1]
        refs = tuple((own, l, start, stop)
                     for l in range(1, k + 1) for start, stop in q.missing.get((k, l), ()))
        if refs:
            payload = np.concatenate([library.bits(own, l, a, b) for _f, l, a, b in refs])
            unicasts.append(Unicast(user=k, ranges=refs, payload=payload))

    return TransmissionLog(signals=tuple(signals), unicasts=tuple(unicasts))


# ---------------------------------------------------------------------------
# decoding


def _uncovered(length: int, ranges: list) -> int:
    """How many bits of ``[0, length)`` none of the (start, stop) ranges covers."""
    covered = reach = 0
    for start, stop in sorted(ranges):
        start, stop = max(start, reach), min(stop, length)
        if stop > start:
            covered += stop - start
            reach = stop
    return length - covered


def decode(k: int, cache: CacheContents, log: TransmissionLog, demand) -> list[str]:
    """The problems of user k rebuilding layers 1..k of its file from its
    cache and the log alone; none when every bit arrives.

    Each range the user recovers, a signal payload with the other pieces
    cancelled from its cache or a unicast slice, is compared with the
    library, and the layers are checked covered by interval arithmetic
    over the cached, signal and unicast ranges.  Pieces it cannot cancel,
    unicast ranges of another file and uncovered bits are problems; when
    there are none, so is each layer that a range got wrong.
    """
    library = cache.library
    demand = _check_demand(demand, library.K, library.N)
    own_file = demand[k - 1]
    kbit = 1 << (k - 1)
    covered: dict = {l: [] for l in range(1, k + 1)}
    wrong: set = set()
    problems: list[str] = []

    for l, _smask, start, stop in cache.ranges[k - 1]:
        if l <= k:
            covered[l].append((start, stop))

    for sig in log.signals:
        if not sig.addressees & kbit:
            continue
        # each user's constituent occupies the payload head, piece after
        # piece; the head user k reads, with the other pieces and its own
        # bits XORed out, is zero where it decodes right
        residue = sig.payload[: sum(p.stop - p.start for p in sig.pieces if p.user == k)].copy()
        checked = []
        offset: dict = {}
        for p in sig.pieces:
            n = p.stop - p.start
            pos = offset.get(p.user, 0)
            offset[p.user] = pos + n
            if p.user == k:
                if p.layer <= k:
                    covered[p.layer].append((p.start, p.stop))
                    residue[pos : pos + n] ^= library.bits(own_file, p.layer, p.start, p.stop)
                    checked.append((p.layer, pos, n))
            elif p.subfile_mask & kbit:
                bits = cache.read(k, demand[p.user - 1], p.layer, p.start, p.stop)
                n = max(0, min(n, len(residue) - pos))
                residue[pos : pos + n] ^= bits[:n]
            else:
                problems.append(
                    f"signal to {mask_label(sig.addressees)} carries a piece of "
                    f"chunk {mask_label(p.subfile_mask)} user {k} cannot cancel"
                )
        if residue.any():
            wrong.update(l for l, pos, n in checked if residue[pos : pos + n].any())

    for uni in log.unicasts:
        if uni.user != k:
            continue
        residue = uni.payload.copy()
        checked = []
        pos = 0
        for file_id, l, start, stop in uni.ranges:
            n = stop - start
            if file_id != own_file:
                problems.append(f"unicast range names file {file_id}, not {own_file}")
            elif l <= k:
                covered[l].append((start, stop))
                residue[pos : pos + n] ^= library.bits(own_file, l, start, stop)
                checked.append((l, pos, n))
            pos += n
        if residue.any():
            wrong.update(l for l, pos, n in checked if residue[pos : pos + n].any())

    for l in range(1, k + 1):
        gaps = _uncovered(library.layer_lengths[l - 1], covered[l])
        if gaps:
            problems.append(f"layer {l} is missing {gaps} bits")
    return problems or [f"layer {l} content mismatch" for l in sorted(wrong)]


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
        raise InstanceError([f"scheme is for {scheme.K} users, instance for {inst.K}"])
    library = make_library(inst, F, seed)
    q = quantize(scheme, F, layer_lengths=library.layer_lengths)
    placement = place(library, q)
    demand = tuple(range(1, inst.K + 1))
    log = deliver(placement, q, demand)
    status = ["; ".join(decode(k, placement, log, demand)) or "ok"
              for k in range(1, inst.K + 1)]
    measured = log.total_bits / F
    predicted = scheme.load()
    discrepancy = abs(measured - predicted)
    bound = scheme.variable_count / F
    ok = all(s == "ok" for s in status) and discrepancy <= bound + 1e-12
    return VerificationReport(ok, tuple(status), measured, predicted, discrepancy, bound,
                              int(F), int(seed))
