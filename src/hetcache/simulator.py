"""Bit-level rehearsal of a solved scheme on actual random files.

The optimizer hands back fractions of layers; this module turns them
into integer bit counts, fills caches, XORs real signals together, and
has every user decode its demanded layers from nothing but its own
cache and the transmitted log.  Everything is deterministic given
(instance, scheme, file size, seed), so a run doubles as a regression
fixture.  The library is one seeded stream of 64-bit outputs, and a
layer is the bytes of its whole outputs, eight bits to a byte; only the
layers the demand reads are drawn.  Payloads and range reads are packed
too: a Python int whose highest bit is the first, beside its bit
length, so delivery and decoding XOR whole words.

Rounding policy: allocation fractions round to the nearest bit with the
uncached chunk absorbing the slack, signal pieces are capped greedily
so no subfile chunk is over-used for one receiver, and whatever a user
still lacks afterwards goes out as a unicast: a signal whose only
addressee is that user.  Rounding therefore never breaks decodability;
it only nudges the measured load, and each scheme variable accounts for
at most one bit of nudge.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .model import InstanceError, ProblemInstance
from .scheme_lp import SchemeSolution, _span_mask, _submasks, mask_label, members


# the most memory a verify may take: the packed library, and the payloads
# and the buffers delivery and decoding hold, packed too
MAX_LIBRARY_MIB = 512

# what a layer's view, or a drawn file's buffer, costs beside its bits
# (the buffer is two arrays, its outputs and their bytes; an array is
# about 115 bytes with numpy 2.4)
LAYER_BYTES = 512


class SimulationError(RuntimeError):
    """A fault in the harness itself, as opposed to a reported decode failure."""


# ---------------------------------------------------------------------------
# files


@dataclass(frozen=True)
class FileLibrary:
    """N files, each a tuple of the packed bit arrays of its drawn layers.

    Layer l of every file holds ``layer_lengths[l-1]`` bits, eight to a
    byte with the first bit in the top bit of the first byte (the
    ``np.packbits`` order) and the padding bits of the last byte zero:
    the leading bytes of its 64-bit outputs in little-endian order (see
    :func:`make_library`).  A file holds only its layers 1..k when user
    k demands it, and no layer when nobody does: ``files[j-1]`` has one
    array per drawn layer.  Bits are read only through :meth:`bits`.
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

    def bits(self, file_id: int, l: int, start: int, stop: int) -> int:
        """Bits ``[start, stop)`` of layer l of file ``file_id``, packed into
        an int whose highest of ``stop - start`` bits is bit ``start``; a
        range past the layer's end stops at its end.  Raises
        SimulationError for a layer that was not drawn."""
        layers = self.files[file_id - 1]
        if l > len(layers):
            raise SimulationError(f"layer {l} of file {file_id} was not drawn")
        stop = min(stop, self.layer_lengths[l - 1])
        if start >= stop:
            return 0
        first, last = start >> 3, (stop + 7) >> 3
        value = int.from_bytes(layers[l - 1][first:last], "big")
        if start & 7:
            value &= (1 << (8 * last - start)) - 1
        return value >> (8 * last - stop)


def library_layout(inst: ProblemInstance, F: int, seed: int = 0) -> tuple[int, ...]:
    """The bit length of each layer of a file at file size ``F``.

    Raises InstanceError for a file size, seed or library size that
    :func:`make_library` cannot take, so a caller can refuse them before
    any other work.  A verify above MAX_LIBRARY_MIB is refused: it holds
    the layers :func:`make_library` draws, each padded to whole 64-bit
    outputs, at most layers 1..k of one file per user k (K - l + 1
    copies of layer l), LAYER_BYTES more per drawn layer and per drawn
    file's buffer, and one pointer per file, so that many files are
    refused too; and the payloads, packed: at most the layers each user
    demands, as many bits again, and the buffers delivery and decoding
    hold beside them.  Those are the ints that a range read or a compare
    makes on its way, at most four of one layer's length (measured: 0.94
    of the cap at the largest admitted F, with equal rates), so four more
    files are counted.
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
        need = 8 * inst.N + inst.K * LAYER_BYTES
        need += sum((inst.K - l + 1) * (LAYER_BYTES + 8 * ((n + 63) // 64))
                    for l, n in enumerate(lengths, 1))
        need += (sum((inst.K - l + 5) * n for l, n in enumerate(lengths, 1)) + 7) // 8
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


def make_library(inst: ProblemInstance, F: int, seed: int = 0, demand=None) -> FileLibrary:
    """Draw the layers ``demand`` reads: layers 1..k of the file user k
    demands, under the worst-case demand d = (1, ..., K) by default.

    The N files lie in one seeded stream of 64-bit outputs, file-major
    and layer-minor, as if every layer were drawn: a layer of n bits
    takes ceil(n / 64) whole outputs, and its bytes are theirs in
    little-endian order, so a file's bits do not depend on which other
    files are drawn.  Each demanded file, in ascending order, skips the
    outputs before it with ``bit_generator.advance``, a jump rather than
    a draw, and takes those of its layers 1..k in one ``random_raw``
    call; each layer is a view of that buffer.  A library
    :func:`library_layout` refuses is refused before anything is
    allocated.
    """
    lengths = library_layout(inst, F, seed)
    K = len(lengths)
    demand = _check_demand(range(1, K + 1) if demand is None else demand, K, inst.N)
    # where each layer starts in its file, in outputs, and the file's length
    starts = list(itertools.accumulate(((n + 63) // 64 for n in lengths), initial=0))
    # numpy.random loads here, not when the package is imported
    bit_generator = np.random.default_rng(seed).bit_generator
    files = [()] * inst.N
    taken = 0  # 64-bit outputs taken from the stream
    for j, k in sorted((d - 1, k) for k, d in enumerate(demand, 1)):  # (file index, layers)
        bit_generator.advance(j * starts[-1] - taken)
        taken = j * starts[-1] + starts[k]
        # little-endian bytes, so the order does not depend on the host
        buffer = bit_generator.random_raw(starts[k]).astype("<u8", copy=False).view(np.uint8)
        layers = [buffer[8 * starts[l] : 8 * starts[l] + (n + 7) // 8]
                  for l, n in enumerate(lengths[:k])]
        for layer, n in zip(layers, lengths):
            if n % 8:  # zero the padding bits of the last byte
                layer[-1] &= 0xFF << (8 - n % 8) & 0xFF
        files[j] = tuple(layers)
    return FileLibrary(F=int(F), seed=int(seed), layer_lengths=lengths, files=tuple(files))


# ---------------------------------------------------------------------------
# quantization


@dataclass(frozen=True)
class QuantizedScheme:
    """Integer-bit rendering of a scheme at file size F.

    Each layer string is laid out as consecutive chunks, one per cacher
    class in ascending bitmask order with the uncached class first, so
    every bit position has a well-defined owner set.  ``signal_pieces``
    maps an addressee mask to, per served user, the ``(layer, chunk mask,
    chunk-relative start, size)`` pieces that ride in that signal.  What
    user k still lacks after the coded signals rides under the mask of k
    alone: the rest of each chunk k does not cache, layers 1..k, chunks
    in ascending mask.
    """

    K: int
    F: int
    layer_lengths: tuple[int, ...]
    alloc: dict
    offsets: dict
    signal_pieces: dict
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

    # whatever is not cached and not in any signal goes to its user alone
    for k in range(1, K + 1):
        for (l, smask), n in alloc.items():  # layer, then chunk in ascending mask
            start = used.get((l, smask, k), 0)
            if l <= k and not smask >> (k - 1) & 1 and start < n:
                signal_pieces.setdefault(1 << (k - 1), {}).setdefault(k, []).append(
                    (l, smask, start, n - start))

    signal_pieces = {t: {j: tuple(v) for j, v in per_user.items()}
                     for t, per_user in signal_pieces.items()}

    targets = tuple(
        sum(x[col] * F for (_l, smask), col in index.alloc.items() if smask >> (k - 1) & 1)
        for k in range(1, K + 1)
    )
    return QuantizedScheme(K=K, F=F, layer_lengths=tuple(layer_lengths), alloc=alloc,
                           offsets=offsets, signal_pieces=signal_pieces, cache_targets=targets)


# ---------------------------------------------------------------------------
# placement


@dataclass(frozen=True)
class CacheContents:
    """Cached ranges per user, plus the library the ranges refer to.

    Placement is file-symmetric: a user holds the same ranges of every
    file.  Decoding strips a piece from a signal only after
    :meth:`require` finds it cached, so it can only ever consume side
    information the user genuinely stores.
    """

    library: FileLibrary
    ranges: tuple

    def holds(self, k: int, l: int, start: int, stop: int) -> bool:
        for rstart, rstop in self._by_layer[k - 1].get(l, ()):
            if rstart <= start and stop <= rstop:
                return True
        return start >= stop

    @functools.cached_property
    def _by_layer(self) -> list[dict]:
        """For each user, the (start, stop) ranges it caches of each layer."""
        index: list[dict] = [{} for _ in self.ranges]
        for user, ranges in zip(index, self.ranges):
            for l, _smask, start, stop in ranges:
                user.setdefault(l, []).append((start, stop))
        return index

    def require(self, k: int, l: int, start: int, stop: int) -> None:
        if not self.holds(k, l, start, stop):
            raise SimulationError(f"user {k} asked for uncached bits {start}:{stop} of layer {l}")


def place(library: FileLibrary, q: QuantizedScheme) -> CacheContents:
    """Fill caches according to the canonical chunk layout."""
    if library.K != q.K or library.layer_lengths != q.layer_lengths:
        raise SimulationError("library and quantized scheme disagree on layout")
    all_ranges = []
    slack = q.K * (1 << q.K)
    # the chunks that hold bits, by layer, then mask ascending as quantize lays them out
    chunks = [(l, smask, q.offsets[(l, smask)], n) for (l, smask), n in q.alloc.items() if n > 0]
    for k in range(1, q.K + 1):
        user_ranges = [(l, smask, off, off + n) for l, smask, off, n in chunks
                       if l <= k and smask >> (k - 1) & 1]
        total = sum(stop - start for _, _, start, stop in user_ranges)
        if total > int(round(q.cache_targets[k - 1])) + slack:
            raise SimulationError(f"user {k} cache holds {total} bits, above its quantized bound")
        all_ranges.append(tuple(user_ranges))
    return CacheContents(library=library, ranges=tuple(all_ranges))


# ---------------------------------------------------------------------------
# delivery


class Piece(NamedTuple):
    """One constituent range of a coded signal, absolute within its layer."""

    user: int
    file: int
    layer: int
    subfile_mask: int
    start: int
    stop: int


@dataclass(frozen=True)
class Signal:
    """A message of ``length`` bits to the users in ``addressees``, packed
    into ``payload`` with the first bit highest: each served user's
    pieces, one after the other at the head of the payload, XORed
    together.  A unicast is a signal with one addressee."""

    addressees: int
    pieces: tuple
    payload: int
    length: int


@dataclass(frozen=True)
class TransmissionLog:
    signals: tuple

    @property
    def total_bits(self) -> int:
        return sum(signal.length for signal in self.signals)


def _check_demand(demand, K: int, N: int) -> tuple:
    demand = tuple(demand)
    problems = [f"demand entry {i} is {d!r}, not an integer file number"
                for i, d in enumerate(demand, 1)
                if isinstance(d, bool) or not isinstance(d, (int, np.integer))]
    if problems:
        raise InstanceError(problems)
    demand = tuple(int(d) for d in demand)
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
    """Form every signal for the given demand, unicasts included, in
    ascending addressee mask."""
    library = placement.library
    demand = _check_demand(demand, q.K, library.N)

    signals = []
    for tmask in sorted(q.signal_pieces):
        per_user = q.signal_pieces[tmask]
        # quantize adds a signal only with a piece of positive size
        length = max(sum(piece[-1] for piece in pieces) for pieces in per_user.values())
        payload = 0
        pieces = []
        for j in sorted(per_user):
            file_id = demand[j - 1]
            head = size = 0
            for l, smask, chunk_start, n in per_user[j]:
                start = q.offsets[(l, smask)] + chunk_start
                pieces.append(Piece(j, file_id, l, smask, start, start + n))
                head = (head << n) | library.bits(file_id, l, start, start + n)
                size += n
            payload ^= head << (length - size)
        signals.append(Signal(tmask, tuple(pieces), payload, length))
    return TransmissionLog(signals=tuple(signals))


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


def decode(cache: CacheContents, log: TransmissionLog, demand) -> list[list[str]]:
    """The problems of each user k rebuilding layers 1..k of its file from
    its cache and the log alone; none for a user every bit reaches.

    One pass over the log reads each signal piece that some addressee
    strips once, from the file its user demands, and XORs it out of the
    payload: what is left is zero wherever the signal decodes right.
    Each addressee must cache the pieces of others it strips, and reads
    its own layers from the residue at its pieces' places; an own piece
    that names another file covers none of its bits.  The layers are
    checked covered by interval arithmetic over the cached and signal
    ranges.  Pieces a user cannot cancel, own pieces of another file and
    uncovered bits are problems; when a user has none, so is each layer
    that a piece got wrong.
    """
    library = cache.library
    K = library.K
    demand = _check_demand(demand, K, library.N)
    problems: list[list[str]] = [[] for _ in range(K)]
    wrong: list[set] = [set() for _ in range(K)]
    covered = [{l: [] for l in range(1, k + 1)} for k in range(1, K + 1)]
    for k in range(1, K + 1):
        for l, _smask, start, stop in cache.ranges[k - 1]:
            if l <= k:
                covered[k - 1][l].append((start, stop))

    for sig in log.signals:
        addressees, length = sig.addressees, sig.length
        # each user's pieces fill the payload head, one after the other
        residue, windows, offset = sig.payload, [], {}
        for user, file_id, layer, smask, start, stop in sig.pieces:
            n = stop - start
            pos = offset.get(user, 0)
            offset[user] = pos + n
            ubit = 1 << (user - 1)
            mine = addressees & ubit
            if mine and file_id != demand[user - 1]:
                problems[user - 1].append(
                    f"signal to {mask_label(addressees)} carries a piece of "
                    f"file {file_id}, not {demand[user - 1]}"
                )
                mine = 0
            stuck = addressees & ~smask & ~ubit
            for k in members(stuck) if stuck else ():
                problems[k - 1].append(
                    f"signal to {mask_label(addressees)} carries a piece of "
                    f"chunk {mask_label(smask)} user {k} cannot cancel"
                )
            # the other addressees that strip the piece, lowest user first
            strippers = rest = addressees & smask & ~ubit
            while rest:
                cache.require((rest & -rest).bit_length(), layer, start, stop)
                rest &= rest - 1
            own = mine and layer <= user
            if own:
                covered[user - 1][layer].append((start, stop))
                windows.append((user, layer, length - pos - n, n))
            if own or strippers:
                residue ^= (library.bits(demand[user - 1], layer, start, stop)
                            << (length - pos - n))
        if residue:
            for k, l, shift, n in windows:
                if (residue >> shift) & ((1 << n) - 1):
                    wrong[k - 1].add(l)

    for k in range(1, K + 1):
        for l in range(1, k + 1):
            gaps = _uncovered(library.layer_lengths[l - 1], covered[k - 1][l])
            if gaps:
                problems[k - 1].append(f"layer {l} is missing {gaps} bits")
    return [found or [f"layer {l} content mismatch" for l in sorted(bad)]
            for found, bad in zip(problems, wrong)]


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
    status = ["; ".join(problems) or "ok" for problems in decode(placement, log, demand)]
    measured = log.total_bits / F
    predicted = scheme.load()
    discrepancy = abs(measured - predicted)
    bound = scheme.variable_count / F
    ok = all(s == "ok" for s in status) and discrepancy <= bound + 1e-12
    return VerificationReport(ok, tuple(status), measured, predicted, discrepancy, bound,
                              int(F), int(seed))
