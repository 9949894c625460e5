"""End-to-end bit-level checks: place, transmit, decode, measure."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from hetcache import simulator
from hetcache.lp_core import solve_lp
from hetcache.model import InstanceError
from hetcache.scheme_lp import (
    SchemeSolution,
    build_intra_restricted,
    build_o2,
    extract_scheme,
)
from hetcache.simulator import (
    Signal,
    SimulationError,
    TransmissionLog,
    decode,
    deliver,
    make_library,
    place,
    quantize,
    verify,
)

from conftest import users_mask
from oracles import (
    audit_delivery,
    decode_per_bit,
    deliver_per_bit,
    library_per_bit,
    packed,
    unpacked,
    verify_per_bit,
)
from test_scheme_lp import fixed_instance


EX1_RATES = [0.2, 0.3, 0.8]
EX1_MEMORY = [0.1, 0.2, 0.6]

# a known optimal vertex for the instance above, kept by hand so tests
# do not depend on which optimum the solver happens to return
EX1_SCHEME = SchemeSolution.from_json_dict(
    {
        "K": 3,
        "objective": 0.2,
        "variable_count": 47,
        "a[1][{3}]": 0.1,
        "a[1][{1,2}]": 0.1,
        "a[2][{2}]": 0.1,
        "a[3][{3}]": 0.5,
        "u[1][{1,3}][{3}]": 0.1,
        "u[1][{1,3}][{1,2}]": 0.1,
        "u[1][{2,3}][{3}]": 0.1,
        "u[2][{2,3}][{2}]": 0.1,
        "v[{1,3}]": 0.1,
        "v[{2,3}]": 0.1,
        "mem[1][1]": 0.1,
        "mem[2][1]": 0.1,
        "mem[2][2]": 0.1,
        "mem[3][1]": 0.1,
        "mem[3][3]": 0.5,
    }
)


def ex1_instance():
    return fixed_instance(EX1_RATES, EX1_MEMORY)


def solved_scheme(inst):
    lp, index = build_o2(inst)
    return extract_scheme(solve_lp(lp), index)


def random_fixed(rng, K):
    r = np.sort(rng.uniform(0.05, 1.5, size=K))
    m = [float(rng.uniform(0.0, rk)) for rk in r]
    return fixed_instance(list(r), m, q=8)


def layer_bits(lib, file_id, l):
    """Every bit of one layer, one byte per bit."""
    n = lib.layer_lengths[l - 1]
    return unpacked(lib.bits(file_id, l, 0, n), n)


class TestLibrary:
    def test_layer_lengths_round_to_bits(self):
        lib = make_library(ex1_instance(), 10, seed=1)
        assert lib.layer_lengths == (2, 1, 5)
        assert lib.N == 3
        for j in range(1, 4):
            for l in range(1, j + 1):  # user j demands file j
                assert len(layer_bits(lib, j, l)) == lib.layer_lengths[l - 1]
                assert set(np.unique(layer_bits(lib, j, l))) <= {0, 1}

    def test_reproducible_for_same_seed(self):
        a = make_library(ex1_instance(), 1000, seed=42)
        b = make_library(ex1_instance(), 1000, seed=42)
        c = make_library(ex1_instance(), 1000, seed=43)
        assert all(
            np.array_equal(layer_bits(a, j, l), layer_bits(b, j, l))
            for j in range(1, 4)
            for l in range(1, j + 1)
        )
        assert any(
            not np.array_equal(layer_bits(a, j, l), layer_bits(c, j, l))
            for j in range(1, 4)
            for l in range(1, j + 1)
        )

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InstanceError, match="file size"):
            make_library(ex1_instance(), 0)

    # (rates, N, F, layer lengths): a length that is not a multiple of 64
    # leaves bits of its last output unused, an odd output count puts the
    # next layer at an odd output, and an empty layer draws nothing
    LAYOUTS = [
        ([0.0, 0.001, 0.003, 0.006, 0.010, 0.015, 0.022], 9, 1000, (0, 1, 2, 3, 4, 5, 7)),
        ([0.123457, 0.823458, 0.999999], 4, 10**6, (123457, 700001, 176541)),
        ([3e-6, 0.12346, 0.123461, 0.123466, 0.823467, 0.823467, 0.823474], 7, 10**6,
         (3, 123457, 1, 5, 700001, 0, 7)),
    ]

    @staticmethod
    def assert_drawn(lib, demand, want):
        """``lib`` holds layers 1..k of file d_k as ``want`` has them, and no
        other layer."""
        depth = {d: k for k, d in enumerate(demand, 1)}
        assert len(lib.files) == len(want)
        for j, (got_file, want_file) in enumerate(zip(lib.files, want), 1):
            # user k's file has layers 1..k, a file nobody demands none
            assert len(got_file) == depth.get(j, 0)
            for got, ref in zip(got_file, want_file):
                # packed eight bits to a byte, the padding bits zero
                assert got.dtype == np.uint8 and len(got) == (len(ref) + 7) // 8
                bits = np.unpackbits(got)
                assert np.array_equal(bits[: len(ref)], ref)
                assert not bits[len(ref):].any()

    @pytest.mark.parametrize("seed", range(4))
    def test_library_is_the_per_bit_draw(self, seed):
        # the worst-case demand draws a prefix of each of the first K files,
        # the others skip whole files and layers between drawn ones
        for rates, N, F, lengths in self.LAYOUTS:
            K = len(rates)
            inst = fixed_instance(rates, [0.0] * K, N=N)
            want = library_per_bit(inst, F, seed)
            assert len(want) == N
            for demand in (None, tuple(range(N, N - K, -1)), tuple(range(2, 2 * K + 1, 2))):
                if demand and max(demand) > N:
                    continue
                lib = make_library(inst, F, seed, demand)
                assert lib.layer_lengths == lengths
                self.assert_drawn(lib, demand or range(1, K + 1), want)

    def test_any_demand_draws_the_stream(self):
        # random layouts and demands at F = 1, 7 and 10^4; at 10^4 the layers
        # have no bits, 64w bits (whole outputs), 8w + 3 bits or any count
        rng = np.random.default_rng(5)
        gaps, kinds = set(), set()
        for trial in range(90):
            K = int(rng.integers(1, 7))
            N = K + int(rng.integers(0, 4))
            F = (1, 7, 10_000)[trial % 3]
            if F == 10_000:
                lengths = [int(rng.choice([0, 64 * w, 8 * w + 3, rng.integers(1, 200)]))
                           for w in rng.integers(1, 4, size=K)]
                rates = [n / F for n in np.cumsum(lengths).tolist()]
            else:
                rates = np.sort(rng.uniform(0.0, 1.0, size=K)).tolist()
            inst = fixed_instance(rates, [0.0] * K, N=N)
            seed = int(rng.integers(0, 100))
            demand = tuple(int(d) for d in rng.permutation(N)[:K] + 1)
            lib = make_library(inst, F, seed, demand)
            if F == 10_000:
                assert lib.layer_lengths == tuple(lengths)
            self.assert_drawn(lib, demand, library_per_bit(inst, F, seed))
            # the outputs skipped before each drawn file, and the layers drawn
            starts = np.cumsum([0] + [(n + 63) // 64 for n in lib.layer_lengths]).tolist()
            end = 0
            for j, k in sorted((d - 1, k) for k, d in enumerate(demand, 1)):
                gaps.add((j * starts[-1] - end) % 2 if j * starts[-1] > end else None)
                end = j * starts[-1] + starts[k]
                kinds.update("empty" if n == 0 else "whole" if n % 64 == 0 else n % 8
                             for n in lib.layer_lengths[:k])
        assert {0, 1} <= gaps
        assert {"empty", "whole", 3} <= kinds

    def test_a_layer_is_the_same_under_every_demand(self):
        # a file's bits do not depend on which other files are drawn
        inst = fixed_instance([0.064, 0.131, 0.261], [0.0] * 3, N=5)
        seen: dict = {}
        for demand in itertools.permutations(range(1, 6), 3):
            lib = make_library(inst, 1000, seed=8, demand=demand)
            for j, layers in enumerate(lib.files, 1):
                for l, layer in enumerate(layers, 1):
                    seen.setdefault((j, l), set()).add(layer.tobytes())
        assert lib.layer_lengths == (64, 67, 130)
        assert sorted(seen) == [(j, l) for j in range(1, 6) for l in range(1, 4)]
        assert all(len(variants) == 1 for variants in seen.values())

    def test_undrawn_layers_cannot_be_read(self):
        rates, N, F, _lengths = self.LAYOUTS[0]
        inst = fixed_instance(rates, [0.0] * len(rates), N=N)
        lib = make_library(inst, F, seed=0)
        for j, l in ((1, 2), (3, 4), (6, 7), (8, 1), (9, 1)):
            with pytest.raises(SimulationError, match=f"layer {l} of file {j} was not drawn"):
                lib.bits(j, l, 0, 1)
        # user 2 demands file 8, user 1 file 9
        lib = make_library(inst, F, seed=0, demand=(9, 8, 7, 6, 5, 4, 3))
        assert lib.bits(8, 2, 0, 1) == library_per_bit(inst, F, 0)[7][1][0]
        with pytest.raises(SimulationError, match="layer 2 of file 9 was not drawn"):
            lib.bits(9, 2, 0, 1)

    def test_verify_draws_only_the_demanded_layers(self, monkeypatch):
        # K=4: layers 1..k of file k, 1 + 2 + 3 + 4 = 10 of the 6 * 4 layers
        drawn = []

        def spy(*args, **kwargs):
            lib = make_library(*args, **kwargs)
            drawn.append([len(layers) for layers in lib.files])
            return lib

        monkeypatch.setattr(simulator, "make_library", spy)
        inst = fixed_instance([0.1, 0.3, 0.4, 0.9], [0.05, 0.1, 0.1, 0.2], N=6)
        assert verify(inst, solved_scheme(inst), 10_000, seed=2).ok
        assert drawn == [[1, 2, 3, 4, 0, 0]]

    def test_range_reads_match_the_per_bit_draw(self):
        rates, N, F, _lengths = self.LAYOUTS[0]
        inst = fixed_instance(rates, [0.0] * len(rates), N=N)
        lib = make_library(inst, F, seed=3)
        want = library_per_bit(inst, F, seed=3)
        rng = np.random.default_rng(0)
        for _ in range(300):
            # user j demands file j, and reads its layers 1..j
            j = int(rng.integers(1, len(rates) + 1))
            l = int(rng.integers(1, j + 1))
            n = lib.layer_lengths[l - 1]
            start, stop = sorted(int(b) for b in rng.integers(0, n + 1, size=2))
            got = lib.bits(j, l, start, stop)
            assert isinstance(got, int)
            assert np.array_equal(unpacked(got, stop - start), want[j - 1][l - 1][start:stop])
        # a range past the end of a layer stops there
        assert lib.bits(7, 7, 3, 100) == packed(want[6][6][3:])


class TestLibraryCap:
    @staticmethod
    def largest_admitted(inst):
        lo, hi = 1, 10**9
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                simulator.library_layout(inst, mid)
                lo = mid
            except InstanceError:
                hi = mid
        return lo

    def test_cap_bounds_what_verify_allocates(self, monkeypatch):
        # at the largest file size a 4 MiB cap admits, a verify's traced
        # peak stays under 4 MiB; all-unicast schemes send the most
        monkeypatch.setattr(simulator, "MAX_LIBRARY_MIB", 4)
        rng = np.random.default_rng(6)
        cases = [(ex1_instance(), EX1_SCHEME)]
        # the cap counts the drawn layers, not all N files
        for K, N in ((3, 3), (5, 5), (3, 300)):
            r = list(np.sort(rng.uniform(0.05, 1.0, size=K)))
            cases.append((fixed_instance(r, [0.0] * K, N=N), None))
        # one layer as long as a file makes the longest reads
        cases.append((fixed_instance([0.9] * 3, [0.0] * 3), None))
        for inst, scheme in cases:
            scheme = scheme or solved_scheme(inst)
            F = self.largest_admitted(inst)
            assert F > 10**5
            tracemalloc.start()
            try:
                assert verify(inst, scheme, F, seed=1).ok
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20, (inst.K, F, peak)

    def test_many_empty_files_are_refused(self):
        # every layer counts its array, so empty layers cannot add up unseen
        inst = fixed_instance([0.01, 0.02, 0.03], [0.0, 0.0, 0.0], N=10**12)
        with pytest.raises(InstanceError, match="above the 512 MiB limit"):
            make_library(inst, 1)


class TestQuantize:
    def test_allocation_bits_round_to_nearest(self):
        q = quantize(EX1_SCHEME, 10, (2, 1, 5))
        assert q.alloc[(1, users_mask(3))] == 1
        assert q.alloc[(3, users_mask(3))] == 5
        assert q.layer_lengths == (2, 1, 5)

    def test_chunks_partition_each_layer(self):
        q = quantize(EX1_SCHEME, 10_000, (2000, 1000, 5000))
        for l in range(1, 4):
            total = sum(n for (ll, _), n in q.alloc.items() if ll == l)
            assert total == q.layer_lengths[l - 1]

    def test_canonical_offsets_ascend_with_mask(self):
        q = quantize(EX1_SCHEME, 10, (2, 1, 5))
        layer1 = sorted(
            (smask, q.offsets[(l, smask)], q.alloc[(l, smask)])
            for (l, smask) in q.alloc
            if l == 1
        )
        pos = 0
        for _smask, off, size in layer1:
            assert off == pos
            pos += size

    def test_explicit_lengths_override_derived(self):
        q = quantize(EX1_SCHEME, 10, layer_lengths=(2, 1, 5))
        assert q.layer_lengths == (2, 1, 5)
        with pytest.raises(SimulationError, match="layout"):
            place(make_library(ex1_instance(), 20, seed=0), q)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InstanceError, match="file size"):
            quantize(EX1_SCHEME, 0, (2, 1, 5))


class TestPlace:
    def test_user3_cache_layout(self):
        lib = make_library(ex1_instance(), 10, seed=5)
        q = quantize(EX1_SCHEME, 10, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        # one layer-1 bit in the {3} chunk, the whole 5-bit layer 3
        assert sum(stop - start for _, _, start, stop in cache.ranges[2]) == 6
        layers = sorted((l, stop - start) for l, _, start, stop in cache.ranges[2])
        assert layers == [(1, 1), (3, 5)]

    def test_zero_scheme_leaves_caches_empty(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 100, seed=0)
        cache = place(lib, quantize(scheme, 100, layer_lengths=lib.layer_lengths))
        assert all(sum(stop - start for _, _, start, stop in cache.ranges[k - 1]) == 0
                   for k in range(1, 4))

    def test_full_cache_holds_needed_layers(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        cache = place(lib, quantize(scheme, 1000, layer_lengths=lib.layer_lengths))
        for k in range(1, 4):
            needed = sum(lib.layer_lengths[: k])
            assert sum(stop - start for _, _, start, stop in cache.ranges[k - 1]) == needed

    def test_overflow_is_a_fault(self):
        lib = make_library(ex1_instance(), 10_000, seed=0)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        squeezed = dataclasses.replace(q, cache_targets=(0.0, 0.0, 0.0))
        with pytest.raises(SimulationError, match="above its quantized bound"):
            place(lib, squeezed)

    def test_read_refuses_uncached_ranges(self):
        lib = make_library(ex1_instance(), 10_000, seed=0)
        cache = place(lib, quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths))
        with pytest.raises(SimulationError, match="uncached"):
            cache.require(1, 3, 0, 10)


class TestDeliver:
    def test_example_delivery_shape(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        assert [s.addressees for s in log.signals] == [
            users_mask(1, 3),
            users_mask(2, 3),
        ]
        assert all(s.length == 1000 for s in log.signals)
        assert log.total_bits == 2000

    def test_first_signal_payload_is_the_xor(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        sig = log.signals[0]
        by_user = {p.user: p for p in sig.pieces}
        want = layer_bits(lib, 1, 1)[by_user[1].start : by_user[1].stop] ^ layer_bits(lib, 3, 1)[
            by_user[3].start : by_user[3].stop
        ]
        assert np.array_equal(unpacked(sig.payload, sig.length), want)

    def test_rejects_bad_demands(self):
        lib = make_library(ex1_instance(), 100, seed=0)
        q = quantize(EX1_SCHEME, 100, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        with pytest.raises(InstanceError, match="distinct"):
            deliver(cache, q, (1, 1, 2))
        with pytest.raises(InstanceError, match="file range"):
            deliver(cache, q, (0, 1, 2))
        with pytest.raises(InstanceError, match="names"):
            deliver(cache, q, (1, 2))
        # an entry is refused, not truncated, unless it is an integer
        for bad in (1.9, True, np.True_, "1", float("nan"), np.float64(1.0)):
            with pytest.raises(InstanceError, match="demand entry 2 is .*not an integer"):
                deliver(cache, q, (3, bad, 2))
        # numpy integers are integers
        assert deliver(cache, q, (np.int64(1), np.uint8(2), 3)) == deliver(cache, q, (1, 2, 3))

    def test_zero_memory_goes_all_unicast(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 10_000, seed=0)
        q = quantize(scheme, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        # one signal to each user alone, carrying every bit of its layers
        assert [s.addressees for s in log.signals] == [users_mask(k) for k in (1, 2, 3)]
        for k, sig in enumerate(log.signals, 1):
            assert {p.user for p in sig.pieces} == {k}
            assert sig.length == sum(lib.layer_lengths[:k])
        assert log.total_bits == round(sum(EX1_RATES) * 10_000)

    def test_full_memory_sends_nothing(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        q = quantize(scheme, 1000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        assert log.signals == ()

    def test_bit_identical_across_runs(self):
        inst = random_fixed(np.random.default_rng(3), 4)
        scheme = solved_scheme(inst)
        demand = (2, 4, 1, 3)
        lib = make_library(inst, 10_000, seed=9, demand=demand)
        q = quantize(scheme, 10_000, layer_lengths=lib.layer_lengths)
        first = deliver(place(lib, q), q, demand)
        second = deliver(place(lib, q), q, demand)
        assert first == second


class TestDecode:
    def decoded(self, k, F=10_000, seed=4, demand=(1, 2, 3)):
        lib = make_library(ex1_instance(), F, seed=seed)
        q = quantize(EX1_SCHEME, F, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, demand)
        return lib, cache, log, decode(cache, log, demand)[k - 1]

    def test_every_user_recovers_its_layers(self):
        for k in range(1, 4):
            assert self.decoded(k)[3] == []

    def test_full_cache_ignores_log(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        cache = place(lib, quantize(scheme, 1000, layer_lengths=lib.layer_lengths))
        empty = TransmissionLog(signals=())
        assert decode(cache, empty, (1, 2, 3)) == [[], [], []]

    def test_corrupted_signal_payload_is_detected(self):
        lib, cache, log, _ = self.decoded(1)
        sig = log.signals[0]
        payload = sig.payload ^ 1 << sig.length - 1  # the first bit
        bad_log = TransmissionLog(
            signals=(dataclasses.replace(sig, payload=payload),) + log.signals[1:])
        assert decode(cache, bad_log, (1, 2, 3))[0] == ["layer 1 content mismatch"]

    def test_corrupted_unicast_is_detected(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        q = quantize(scheme, 1000, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, (1, 2, 3))
        uni = log.signals[0]
        assert uni.addressees == users_mask(1)
        payload = uni.payload ^ 1 << uni.length - 4  # the fourth bit
        bad = TransmissionLog(
            signals=(dataclasses.replace(uni, payload=payload),) + log.signals[1:])
        assert decode(cache, bad, (1, 2, 3))[0] == ["layer 1 content mismatch"]

    def test_uncancelable_piece_is_reported(self):
        lib, cache, log, _ = self.decoded(1)
        sig = log.signals[0]
        twisted = tuple(
            p._replace(subfile_mask=users_mask(2))
            if p.user != 1
            else p
            for p in sig.pieces
        )
        bad = TransmissionLog(
            signals=(dataclasses.replace(sig, pieces=twisted),) + log.signals[1:])
        problems = decode(cache, bad, (1, 2, 3))[0]
        assert any("cannot cancel" in p for p in problems)

    def test_missing_bits_are_reported(self):
        lib, cache, log, _ = self.decoded(3)
        # drop the second signal; user 3 loses its layer-2 piece
        bad = TransmissionLog(signals=log.signals[:1])
        assert decode(cache, bad, (1, 2, 3))[2] == ["layer 2 is missing 1000 bits"]

    def test_piece_of_another_file_is_missing(self):
        lib, cache, log, _ = self.decoded(1)
        sig = log.signals[0]
        assert sig.addressees == users_mask(1, 3)
        # user 1's piece names file 2; the payload still holds file 1's bits
        renamed = tuple(p._replace(file=2) if p.user == 1 else p for p in sig.pieces)
        bad = TransmissionLog(
            signals=(dataclasses.replace(sig, pieces=renamed),) + log.signals[1:])
        assert decode(cache, bad, (1, 2, 3)) == [
            ["signal to {1,3} carries a piece of file 2, not 1", "layer 1 is missing 1000 bits"],
            [],
            [],
        ]


def piece_positions(sig):
    """(piece, payload position) of each piece of a signal."""
    offset = {}
    for p in sig.pieces:
        pos = offset.get(p.user, 0)
        offset[p.user] = pos + p.stop - p.start
        yield p, pos


class TestAgainstByteOracle:
    """The packed pipeline against the byte-per-bit one of tests/oracles.py:
    equal logs and reports, and the same problems on tampered runs."""

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_logs_and_reports_equal_the_oracle(self, K):
        rng = np.random.default_rng(60 + K)
        for inst in (random_fixed(rng, K), random_fixed(rng, K)):
            scheme = solved_scheme(inst)
            demand = tuple(range(1, K + 1))
            for F in (1, 7, 999, 10_003):
                for seed in (0, 3, 11):
                    lib = make_library(inst, F, seed)
                    q = quantize(scheme, F, lib.layer_lengths)
                    cache = place(lib, q)
                    files = library_per_bit(inst, F, seed)
                    assert deliver(cache, q, demand) == deliver_per_bit(cache, q, demand, files)
                    assert verify(inst, scheme, F, seed) == verify_per_bit(inst, scheme, F, seed)

    F = 10_003
    SEED = 1

    @pytest.fixture(scope="class")
    def run(self):
        # little cache, so that signals and unicasts both carry bits
        rng = np.random.default_rng(25)
        r = np.sort(rng.uniform(0.05, 1.0, size=4))
        inst = fixed_instance(list(r), list(0.3 * r), q=8)
        lib = make_library(inst, self.F, self.SEED)
        q = quantize(solved_scheme(inst), self.F, lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, (1, 2, 3, 4))
        return cache, log, library_per_bit(inst, self.F, self.SEED)

    @staticmethod
    def problems(cache, log, files, k):
        """User k's problems, after checking every user's against the oracle;
        where the oracle refuses to read an uncached range, so must decode."""
        demand = (1, 2, 3, 4)
        try:
            want = [decode_per_bit(user, cache, log, demand, files) for user in demand]
        except SimulationError as exc:
            with pytest.raises(SimulationError, match=str(exc)):
                decode(cache, log, demand)
            raise
        assert decode(cache, log, demand) == want
        return want[k - 1]

    def test_flipped_signal_bit(self, run):
        cache, log, files = run
        i, p, pos = next((i, p, pos) for i, sig in enumerate(log.signals)
                         for p, pos in piece_positions(sig)
                         if p.start % 8 and p.stop - p.start > 2)
        sig = log.signals[i]
        payload = sig.payload ^ 1 << sig.length - pos - 2  # bit pos + 1
        signals = list(log.signals)
        signals[i] = dataclasses.replace(signals[i], payload=payload)
        bad = dataclasses.replace(log, signals=tuple(signals))
        assert self.problems(cache, bad, files, p.user) == [
            f"layer {p.layer} content mismatch"]

    @staticmethod
    def unaligned_unicast(log):
        """(message index, piece index, payload position) of the first piece
        of a single-addressee signal that starts off a byte boundary."""
        for i, sig in enumerate(log.signals):
            if sig.addressees.bit_count() == 1:
                for j, (p, pos) in enumerate(piece_positions(sig)):
                    if p.start % 8 and p.stop - p.start > 2:
                        return i, j, pos
        raise AssertionError("no unicast piece starts off a byte boundary")

    def test_flipped_unicast_bit(self, run):
        cache, log, files = run
        i, j, pos = self.unaligned_unicast(log)
        uni = log.signals[i]
        p = uni.pieces[j]
        bad = with_signal(log, i, payload=uni.payload ^ 1 << uni.length - pos - 2)  # bit pos + 1
        assert self.problems(cache, bad, files, p.user) == [f"layer {p.layer} content mismatch"]

    def test_dropped_unicast_range(self, run):
        cache, log, files = run
        i, j, pos = self.unaligned_unicast(log)
        uni = log.signals[i]
        p = uni.pieces[j]
        n = p.stop - p.start
        bad = with_signal(log, i, pieces=uni.pieces[:j] + uni.pieces[j + 1:],
                          payload=cut_bits(uni.payload, uni.length, pos, n), length=uni.length - n)
        assert self.problems(cache, bad, files, p.user) == [f"layer {p.layer} is missing {n} bits"]

    def test_removed_cached_range(self, run):
        cache, log, files = run
        failed = 0
        for k in range(1, 5):
            for r in cache.ranges[k - 1]:
                if not r[2] % 8 or r[0] > k:
                    continue
                ranges = list(cache.ranges)
                ranges[k - 1] = tuple(other for other in ranges[k - 1] if other != r)
                bad = dataclasses.replace(cache, ranges=tuple(ranges))
                try:
                    problems = self.problems(bad, log, files, k)
                except SimulationError as exc:
                    # the range cancels a piece: both decodes refuse to read it
                    with pytest.raises(SimulationError, match=str(exc)):
                        decode_per_bit(k, bad, log, (1, 2, 3, 4), files)
                    continue
                assert problems == [f"layer {r[0]} is missing {r[3] - r[2]} bits"]
                failed += 1
        assert failed


def with_signal(log, i, **changes):
    """``log`` with signal i changed."""
    signals = list(log.signals)
    signals[i] = dataclasses.replace(signals[i], **changes)
    return TransmissionLog(signals=tuple(signals))


def cut_bits(value, length, pos, n):
    """A packed ``value`` of ``length`` bits without its bits [pos, pos + n)."""
    tail = length - pos - n
    return (value >> (tail + n) << tail) | (value & ((1 << tail) - 1))


class TestCorruptionParity:
    """One corruption at a time of the log both pipelines send: the packed
    verify and verify_per_bit must give the same report."""

    @staticmethod
    def corrupted(log, N, rng):
        """One log per kind of corruption the log admits, at a random place,
        in any signal and again in a single-addressee one: a flipped bit, a
        dropped piece (cut out of the payload if the signal has one
        addressee) and a piece renamed to another file."""
        def pick(n):
            return int(rng.integers(n))

        out = []
        unicasts = [i for i, sig in enumerate(log.signals) if sig.addressees.bit_count() == 1]
        for pool in (range(len(log.signals)), unicasts):
            if not pool:
                continue
            i = pool[pick(len(pool))]
            sig = log.signals[i]
            out.append(with_signal(log, i, payload=sig.payload ^ 1 << pick(sig.length)))
            i = pool[pick(len(pool))]
            sig = log.signals[i]
            m = pick(len(sig.pieces))
            dropped = {"pieces": sig.pieces[:m] + sig.pieces[m + 1:]}
            if sig.addressees.bit_count() == 1:
                pos = sum(p.stop - p.start for p in sig.pieces[:m])
                n = sig.pieces[m].stop - sig.pieces[m].start
                dropped.update(payload=cut_bits(sig.payload, sig.length, pos, n),
                               length=sig.length - n)
            out.append(with_signal(log, i, **dropped))
            i = pool[pick(len(pool))]
            sig = log.signals[i]
            m = pick(len(sig.pieces))
            renamed = sig.pieces[m]._replace(file=sig.pieces[m].file % N + 1)
            out.append(with_signal(log, i, pieces=sig.pieces[:m] + (renamed,) + sig.pieces[m + 1:]))
        return out

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_reports_equal_the_per_bit_verify(self, K, monkeypatch):
        import oracles

        rng = np.random.default_rng(80 + K)
        failed = 0
        for _ in range(2):
            # little cache, so that signals and unicasts both carry bits
            r = np.sort(rng.uniform(0.05, 1.0, size=K))
            inst = fixed_instance(list(r), list(rng.uniform(0.1, 0.6) * r), q=8)
            scheme = solved_scheme(inst)
            demand = tuple(range(1, K + 1))
            for F in (1, 7, 10_000):
                lib = make_library(inst, F, seed=F)
                q = quantize(scheme, F, lib.layer_lengths)
                log = deliver(place(lib, q), q, demand)
                for bad in self.corrupted(log, inst.N, rng):
                    monkeypatch.setattr(simulator, "deliver", lambda *_args, bad=bad: bad)
                    monkeypatch.setattr(oracles, "deliver_per_bit", lambda *_args, bad=bad: bad)
                    report = verify(inst, scheme, F, seed=F)
                    assert report == verify_per_bit(inst, scheme, F, seed=F)
                    failed += not report.ok
                monkeypatch.undo()
        assert failed


class TestAudit:
    def test_clean_on_optimal_schemes(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_fixed(rng, int(rng.integers(2, 5)))
            scheme = solved_scheme(inst)
            lib = make_library(inst, 10_000, seed=1)
            q = quantize(scheme, 10_000, layer_lengths=lib.layer_lengths)
            cache = place(lib, q)
            demand = tuple(range(1, inst.K + 1))
            log = deliver(cache, q, demand)
            assert audit_delivery(cache, log, demand) == []

    def test_duplicate_range_is_flagged(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, (1, 2, 3))
        # hand user 1 a signal to it alone of bits it already gets from the
        # signal to {1,3}
        piece = next(p for p in log.signals[0].pieces if p.user == 1)
        dupe = Signal(
            addressees=users_mask(1),
            pieces=(piece,),
            payload=lib.bits(1, piece.layer, piece.start, piece.stop),
            length=piece.stop - piece.start,
        )
        noisy = TransmissionLog(signals=log.signals + (dupe,))
        problems = audit_delivery(cache, noisy, (1, 2, 3))
        assert any("overlaps" in p for p in problems)
        # a piece of another file reaches no bit of user 1's own
        other = dataclasses.replace(dupe, pieces=(piece._replace(file=2),))
        assert audit_delivery(cache, TransmissionLog(log.signals + (other,)), (1, 2, 3)) == []


class TestVerify:
    def test_example_report(self):
        report = verify(ex1_instance(), EX1_SCHEME, 10_000, seed=1)
        assert report.ok
        assert report.user_status == ("ok", "ok", "ok")
        assert report.measured_load == pytest.approx(0.2, abs=1e-12)
        assert report.predicted_load == pytest.approx(0.2, abs=1e-9)
        assert report.max_discrepancy <= report.discrepancy_bound

    def test_report_serializes(self):
        report = verify(ex1_instance(), EX1_SCHEME, 100, seed=0)
        data = report.to_json_dict()
        assert data["ok"] is True
        assert data["file_size"] == 100
        assert len(data["user_status"]) == 3

    def test_randomized_suite(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            inst = random_fixed(rng, int(rng.integers(2, 5)))
            scheme = solved_scheme(inst)
            for seed in (0, 1):
                report = verify(inst, scheme, 10_000, seed=seed)
                assert report.ok, report.user_status
                assert report.max_discrepancy <= report.discrepancy_bound

    def test_intra_restricted_scheme_verifies(self):
        inst = ex1_instance()
        lp, index = build_intra_restricted(inst)
        scheme = extract_scheme(solve_lp(lp), index)
        report = verify(inst, scheme, 10_000, seed=0)
        assert report.ok
        assert report.measured_load == pytest.approx(13 / 60, abs=2e-3)

    def test_single_bit_layers_fall_back_to_unicast(self):
        inst = fixed_instance([1.0, 2.0, 3.0], [0.4, 0.7, 1.3], q=16)
        scheme = solved_scheme(inst)
        report = verify(inst, scheme, 1, seed=0)
        assert report.ok, report.user_status
        assert report.max_discrepancy <= report.discrepancy_bound

    def test_zero_memory_load_is_exact(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        report = verify(inst, scheme, 10_000, seed=7)
        assert report.ok
        assert report.measured_load == pytest.approx(sum(EX1_RATES), abs=1e-12)

    def test_mismatched_scheme_rejected(self):
        inst = random_fixed(np.random.default_rng(1), 2)
        with pytest.raises(InstanceError, match="users"):
            verify(inst, EX1_SCHEME, 100)

    def test_deterministic_reports(self):
        inst = random_fixed(np.random.default_rng(5), 3)
        scheme = solved_scheme(inst)
        assert verify(inst, scheme, 5000, seed=11) == verify(
            inst, scheme, 5000, seed=11
        )

    def test_inflated_signal_sizes_break_the_budget(self):
        # claiming a bigger load than the log shows must fail the check
        data = EX1_SCHEME.to_json_dict()
        data["v[{1,3}]"] = 0.3
        data["objective"] = 0.4
        tampered = SchemeSolution.from_json_dict(data)
        report = verify(ex1_instance(), tampered, 10_000, seed=1)
        assert not report.ok
        assert report.max_discrepancy > report.discrepancy_bound
