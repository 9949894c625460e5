"""End-to-end bit-level checks: place, transmit, decode, measure."""

import dataclasses

import numpy as np
import pytest

from hetcache.lp_core import solve_lp
from hetcache.model import InstanceError
from hetcache.scheme_lp import (
    SchemeSolution,
    build_intra_restricted,
    build_o2,
    extract_scheme,
)
from hetcache.simulator import (
    SimulationError,
    TransmissionLog,
    Unicast,
    decode,
    deliver,
    make_library,
    place,
    quantize,
    verify,
)

from conftest import users_mask
from oracles import audit_delivery, library_per_bit
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


def logs_equal(a, b):
    if len(a.signals) != len(b.signals) or len(a.unicasts) != len(b.unicasts):
        return False
    for s, t in zip(a.signals, b.signals):
        if s.addressees != t.addressees or s.pieces != t.pieces:
            return False
        if not np.array_equal(s.payload, t.payload):
            return False
    for s, t in zip(a.unicasts, b.unicasts):
        if s.user != t.user or s.ranges != t.ranges:
            return False
        if not np.array_equal(s.payload, t.payload):
            return False
    return True


class TestLibrary:
    def test_layer_lengths_round_to_bits(self):
        lib = make_library(ex1_instance(), 10, seed=1)
        assert lib.layer_lengths == (2, 1, 5)
        assert lib.N == 3
        for j in range(1, 4):
            for l in range(1, 4):
                assert len(lib.layer(j, l)) == lib.layer_lengths[l - 1]
                assert set(np.unique(lib.layer(j, l))) <= {0, 1}

    def test_reproducible_for_same_seed(self):
        a = make_library(ex1_instance(), 1000, seed=42)
        b = make_library(ex1_instance(), 1000, seed=42)
        c = make_library(ex1_instance(), 1000, seed=43)
        assert all(
            np.array_equal(a.layer(j, l), b.layer(j, l))
            for j in range(1, 4)
            for l in range(1, 4)
        )
        assert any(
            not np.array_equal(a.layer(j, l), c.layer(j, l))
            for j in range(1, 4)
            for l in range(1, 4)
        )

    def test_rejects_nonpositive_size(self):
        with pytest.raises(InstanceError, match="file size"):
            make_library(ex1_instance(), 0)

    # (rates, N, F, layer lengths): a length that is not a multiple of four
    # leaves bytes of its last 32-bit word unused, an odd word count leaves
    # half of a 64-bit PCG64 output for the next layer, and an empty layer
    # draws nothing
    LAYOUTS = [
        ([0.0, 0.001, 0.003, 0.006, 0.010, 0.015, 0.022], 9, 1000, (0, 1, 2, 3, 4, 5, 7)),
        ([0.123457, 0.823458, 0.999999], 4, 10**6, (123457, 700001, 176541)),
        ([3e-6, 0.12346, 0.123461, 0.123466, 0.823467, 0.823467, 0.823474], 7, 10**6,
         (3, 123457, 1, 5, 700001, 0, 7)),
    ]

    @pytest.mark.parametrize("seed", range(4))
    def test_library_is_the_per_bit_draw(self, seed):
        for rates, N, F, lengths in self.LAYOUTS:
            inst = fixed_instance(rates, [0.0] * len(rates), N=N)
            lib = make_library(inst, F, seed)
            assert lib.layer_lengths == lengths
            want = library_per_bit(inst, F, seed)
            assert len(lib.files) == len(want) == N
            for got_file, want_file in zip(lib.files, want, strict=True):
                for got, ref in zip(got_file, want_file, strict=True):
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, ref)
                    assert not np.any(got > 1)


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
        assert cache.bits_per_file(3) == 6
        layers = sorted((l, stop - start) for l, _, start, stop in cache.ranges[2])
        assert layers == [(1, 1), (3, 5)]

    def test_zero_scheme_leaves_caches_empty(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 100, seed=0)
        cache = place(lib, quantize(scheme, 100, layer_lengths=lib.layer_lengths))
        assert all(cache.bits_per_file(k) == 0 for k in range(1, 4))

    def test_full_cache_holds_needed_layers(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        cache = place(lib, quantize(scheme, 1000, layer_lengths=lib.layer_lengths))
        for k in range(1, 4):
            needed = sum(lib.layer_lengths[: k])
            assert cache.bits_per_file(k) == needed

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
            cache.read(1, 1, 3, 0, 10)


class TestDeliver:
    def test_example_delivery_shape(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        assert [s.addressees for s in log.signals] == [
            users_mask(1, 3),
            users_mask(2, 3),
        ]
        assert all(len(s.payload) == 1000 for s in log.signals)
        assert log.unicasts == ()
        assert log.total_bits == 2000

    def test_first_signal_payload_is_the_xor(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        sig = log.signals[0]
        by_user = {p.user: p for p in sig.pieces}
        want = lib.layer(1, 1)[by_user[1].start : by_user[1].stop] ^ lib.layer(3, 1)[
            by_user[3].start : by_user[3].stop
        ]
        assert np.array_equal(sig.payload, want)

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

    def test_zero_memory_goes_all_unicast(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 10_000, seed=0)
        q = quantize(scheme, 10_000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        assert log.signals == ()
        assert [u.user for u in log.unicasts] == [1, 2, 3]
        assert log.total_bits == round(sum(EX1_RATES) * 10_000)

    def test_full_memory_sends_nothing(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        q = quantize(scheme, 1000, layer_lengths=lib.layer_lengths)
        log = deliver(place(lib, q), q, (1, 2, 3))
        assert log.signals == () and log.unicasts == ()

    def test_bit_identical_across_runs(self):
        inst = random_fixed(np.random.default_rng(3), 4)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 10_000, seed=9)
        q = quantize(scheme, 10_000, layer_lengths=lib.layer_lengths)
        demand = (2, 4, 1, 3)
        first = deliver(place(lib, q), q, demand)
        second = deliver(place(lib, q), q, demand)
        assert logs_equal(first, second)


class TestDecode:
    def decoded(self, k, F=10_000, seed=4, demand=(1, 2, 3)):
        lib = make_library(ex1_instance(), F, seed=seed)
        q = quantize(EX1_SCHEME, F, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, demand)
        return lib, cache, log, decode(k, cache, log, demand)

    def test_every_user_recovers_its_layers(self):
        for k in range(1, 4):
            lib, _, _, (layers, problems) = self.decoded(k)
            assert problems == []
            for l in range(1, k + 1):
                assert np.array_equal(layers[l], lib.layer(k, l))

    def test_full_cache_ignores_log(self):
        inst = fixed_instance(EX1_RATES, EX1_RATES)
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        cache = place(lib, quantize(scheme, 1000, layer_lengths=lib.layer_lengths))
        empty = TransmissionLog(signals=(), unicasts=())
        layers, problems = decode(3, cache, empty, (1, 2, 3))
        assert problems == []
        assert all(np.array_equal(layers[l], lib.layer(3, l)) for l in (1, 2, 3))

    def test_corrupted_signal_payload_is_detected(self):
        lib, cache, log, _ = self.decoded(1)
        payload = log.signals[0].payload.copy()
        payload[0] ^= 1
        bad_log = TransmissionLog(
            signals=(dataclasses.replace(log.signals[0], payload=payload),)
            + log.signals[1:],
            unicasts=log.unicasts,
        )
        layers, problems = decode(1, cache, bad_log, (1, 2, 3))
        assert problems == []  # damage is silent until contents are compared
        assert not np.array_equal(layers[1], lib.layer(1, 1))

    def test_corrupted_unicast_is_detected(self):
        inst = fixed_instance(EX1_RATES, [0.0, 0.0, 0.0])
        scheme = solved_scheme(inst)
        lib = make_library(inst, 1000, seed=0)
        q = quantize(scheme, 1000, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, (1, 2, 3))
        payload = log.unicasts[0].payload.copy()
        payload[3] ^= 1
        bad = TransmissionLog(
            signals=(),
            unicasts=(dataclasses.replace(log.unicasts[0], payload=payload),)
            + log.unicasts[1:],
        )
        layers, problems = decode(1, cache, bad, (1, 2, 3))
        assert problems == []
        assert not np.array_equal(layers[1], lib.layer(1, 1))

    def test_uncancelable_piece_is_reported(self):
        lib, cache, log, _ = self.decoded(1)
        sig = log.signals[0]
        twisted = tuple(
            dataclasses.replace(p, subfile_mask=users_mask(2))
            if p.user != 1
            else p
            for p in sig.pieces
        )
        bad = TransmissionLog(
            signals=(dataclasses.replace(sig, pieces=twisted),) + log.signals[1:],
            unicasts=log.unicasts,
        )
        _, problems = decode(1, cache, bad, (1, 2, 3))
        assert any("cannot cancel" in p for p in problems)

    def test_missing_bits_are_reported(self):
        lib, cache, log, _ = self.decoded(3)
        # drop the second signal; user 3 loses its layer-2 piece
        bad = TransmissionLog(signals=log.signals[:1], unicasts=log.unicasts)
        _, problems = decode(3, cache, bad, (1, 2, 3))
        assert any("missing" in p for p in problems)


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
            assert audit_delivery(cache, log) == []

    def test_duplicate_range_is_flagged(self):
        lib = make_library(ex1_instance(), 10_000, seed=2)
        q = quantize(EX1_SCHEME, 10_000, layer_lengths=lib.layer_lengths)
        cache = place(lib, q)
        log = deliver(cache, q, (1, 2, 3))
        # hand user 1 a unicast of bits it already gets from the signal
        piece = next(p for p in log.signals[0].pieces if p.user == 1)
        dupe = Unicast(
            user=1,
            ranges=((1, piece.layer, piece.start, piece.stop),),
            payload=lib.layer(1, piece.layer)[piece.start : piece.stop].copy(),
        )
        noisy = TransmissionLog(signals=log.signals, unicasts=(dupe,))
        problems = audit_delivery(cache, noisy)
        assert any("overlaps" in p for p in problems)


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
