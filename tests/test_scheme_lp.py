import dataclasses
import json

import numpy as np
import pytest

from hetcache import lp_core, scheme_lp
from hetcache.closed_form import theorem1_load, threshold_allocation
from hetcache.lp_core import LpSolution, LpStatus, SolverError, solve_lp
from hetcache.model import (
    Budget,
    FixedMemories,
    InstanceError,
    ProblemInstance,
    make_rate_profile,
)
from hetcache.baselines import build_intra_layer
from hetcache.scheme_lp import (
    INDEX_CACHE_SIZE,
    SchemeSolution,
    build_intra_restricted,
    build_layer_program,
    build_o1,
    build_o2,
    extract_scheme,
    make_variable_index,
    mask_label,
    members,
    program_columns,
    scheme_problems,
)

from conftest import budget_instance, users_mask
from oracles import served_user


def fixed_instance(rates, m, N=None, q=2):
    profile = make_rate_profile(rates)
    return ProblemInstance(
        K=profile.K,
        N=N if N is not None else profile.K,
        rates=profile,
        constraint=FixedMemories(tuple(float(v) for v in m)),
        q=q,
    )


def solve_objective(built):
    lp, _index = built
    sol = solve_lp(lp)
    assert sol.is_optimal
    return sol.objective


def random_fixed_instance(rng, K):
    r = np.sort(rng.uniform(0.05, 1.5, K))
    m = rng.uniform(0.0, r)
    return fixed_instance(r, m, q=8)


class TestMasks:
    def test_roundtrip(self):
        s = users_mask(3, 1)
        assert s == 0b101
        assert members(s) == (1, 3)
        assert mask_label(s) == "{1,3}"
        assert users_mask(*members(0b1011010)) == 0b1011010

    def test_empty(self):
        assert members(0) == ()
        assert mask_label(0) == "{}"

    def test_served_user(self):
        assert served_user(users_mask(1, 3), users_mask(1, 2)) == 3
        with pytest.raises(ValueError, match=r"\{1,2,3\} minus \{3\}"):
            served_user(users_mask(1, 2, 3), users_mask(3))  # two users left over
        with pytest.raises(ValueError):
            served_user(users_mask(1), users_mask(1))


class TestVariableIndex:
    def test_three_user_counts(self):
        idx = make_variable_index(3)
        # subsets of {1..3}, {2,3}, {3} with the empty set each time
        assert len(idx.alloc) == 8 + 4 + 2
        assert len(idx.assign) == 17
        assert len(idx.multicast) == 4
        assert len(idx.unicast) == 6
        assert len(idx.layer_mem) == 6
        assert idx.n_vars == 47

    def test_columns_bijective(self):
        idx = make_variable_index(4)
        cols = (
            list(idx.alloc.values())
            + list(idx.assign.values())
            + list(idx.multicast.values())
            + list(idx.unicast.values())
            + list(idx.layer_mem.values())
        )
        assert sorted(cols) == list(range(idx.n_vars))
        assert len(set(idx.names)) == idx.n_vars

    def test_per_layer_signal_keys(self):
        idx = make_variable_index(3, per_layer_signals=True)
        keys = set(idx.multicast)
        assert (1, users_mask(1, 2, 3)) in keys
        assert (2, users_mask(2, 3)) in keys
        assert len(keys) == 5  # four sets in layer 1, one in layer 2

    def test_single_layer_index(self):
        # layer 2 of three users: users 2 and 3, renumbered 1 and 2
        _lp, idx = build_layer_program(0.2, [0.1, 0.1])
        assert set(idx.layers) == {1}
        assert all(l == 1 for (l, _S) in idx.alloc)
        assert len(idx.alloc) == 4
        assert not idx.layer_mem
        assert set(idx.unicast) == {(1, 1), (2, 1)}

    def test_rejects_oversized(self):
        with pytest.raises(InstanceError):
            make_variable_index(11)

    def test_repeated_calls_share_one_index(self):
        assert make_variable_index(4) is make_variable_index(4)
        assert make_variable_index(4, per_layer_signals=True) is make_variable_index(
            4, per_layer_signals=True
        )
        assert make_variable_index(4) is not make_variable_index(4, per_layer_signals=True)

    def test_shared_index_is_read_only(self):
        idx = make_variable_index(3)
        for family in ("alloc", "assign", "multicast", "unicast", "layer_mem", "columns"):
            mapping = getattr(idx, family)
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = 0
            with pytest.raises(TypeError):
                del mapping[key]
        assert make_variable_index(3).n_vars == 47

    def test_oversized_is_refused_every_call_and_never_cached(self):
        before = scheme_lp._build_index.cache_info()
        for K in (11, 11, 0):
            with pytest.raises(InstanceError, match="outside supported range"):
                make_variable_index(K)
        after = scheme_lp._build_index.cache_info()
        assert (after.hits, after.misses, after.currsize) == (
            before.hits, before.misses, before.currsize
        )

    def test_columns_name_every_column(self):
        idx = make_variable_index(4, per_layer_signals=True)
        assert [idx.columns[name] for name in idx.names] == list(range(idx.n_vars))

    @pytest.mark.parametrize("K", range(1, 11))
    def test_closed_form_column_counts(self, K):
        assert program_columns(K) == (
            make_variable_index(K).n_vars,
            make_variable_index(K, per_layer_signals=True).n_vars,
        )

    @pytest.mark.parametrize("K", range(1, 8))
    def test_closed_form_row_counts(self, K):
        r = make_rate_profile([0.1 * k for k in range(1, K + 1)])
        budget = ProblemInstance(K, K, r, Budget(0.5 * r.sum_rates))
        fixed = ProblemInstance(K, K, r, FixedMemories(tuple(0.5 * x for x in r.r)))
        joint, restricted = scheme_lp.program_rows(K)
        assert build_o1(budget)[0].n_rows == joint + 1
        assert build_o2(fixed)[0].n_rows == joint + K
        assert build_intra_restricted(budget)[0].n_rows == restricted + 1
        assert build_intra_restricted(fixed)[0].n_rows == restricted + K

    def test_cache_stays_at_its_bound(self):
        # largest first, so the indexes the count test just built are reused
        for K in range(10, 2, -1):
            make_variable_index(K)
            assert scheme_lp._build_index.cache_info().currsize <= INDEX_CACHE_SIZE
        assert scheme_lp._build_index.cache_info().currsize == INDEX_CACHE_SIZE


def row_names(row, names):
    return {names[col]: coef for col, coef in row.items()}


class TestConstraintRows:
    """Spot checks of the generator against the hand-derived three-user system."""

    @pytest.fixture
    def setup(self, example_one):
        # the rows of the kept fixed-memory program, moved by at() to the
        # instance's right-hand sides, its three memory rows left out
        idx = make_variable_index(3)
        rows = idx._rows
        eq_rhs, ub_rhs = rows.rows(example_one.rates.f)
        kept = rows.kept[False]
        lp = kept.at(eq_rhs + [0.0] * 3, ub_rhs, kept.lo, kept.hi)

        def named(rows):
            return [(row_names(r, idx.names), rhs) for r, rhs in rows]

        return named(lp.eq_rows[:-3]), named(lp.ub_rows)

    def test_family_sizes(self, setup):
        eqs, ubs = setup
        # three layer partitions, then one structure row per (signal, addressee)
        assert len(eqs) == 3 + 9
        assert all(not any(n.startswith("v[") for n in r) for r, _ in eqs[:3])
        assert all(any(n.startswith("v[") for n in r) for r, _ in eqs[3:])
        # cache and completion rows, one per (layer, user) pair each
        cache = [r for r, _ in ubs if any(n.startswith("mem[") for n in r)]
        completion = [r for r, _ in ubs if any(n.startswith("unicast[") for n in r)]
        assert len(cache) == 6 and len(completion) == 6
        # 3 shared redundancy rows and 8 single-cacher caps for 17 pieces
        assert len(ubs) == 6 + 6 + 3 + 8

    def test_placement_rows(self, setup):
        eqs, ubs = setup
        (row, rhs), = [(r, rhs) for r, rhs in eqs if "a[2][{}]" in r]
        assert rhs == pytest.approx(0.1)  # f_2 = r_2 - r_1
        assert row == {
            "a[2][{}]": 1.0,
            "a[2][{2}]": 1.0,
            "a[2][{3}]": 1.0,
            "a[2][{2,3}]": 1.0,
        }
        layer2_cache = [
            (r, rhs) for r, rhs in ubs if "mem[2][2]" in r or "mem[3][2]" in r
        ]
        assert len(layer2_cache) == 2
        assert (
            {"a[2][{2}]": 1.0, "a[2][{2,3}]": 1.0, "mem[2][2]": -1.0},
            0.0,
        ) in layer2_cache

    def test_structural_row_full_set(self, setup):
        eqs, _ = setup
        # the all-users signal can only carry layer 1 and each addressee
        # has exactly one feasible source class
        full = [r for r, rhs in eqs if rhs == 0.0 and "v[{1,2,3}]" in r]
        assert len(full) == 3
        assert {
            "v[{1,2,3}]": 1.0,
            "u[1][{1,2,3}][{2,3}]": -1.0,
        } in full
        assert {
            "v[{1,2,3}]": 1.0,
            "u[1][{1,2,3}][{1,2}]": -1.0,
        } in full

    def test_structural_row_mixed_layers(self, setup):
        eqs, _ = setup
        named = [r for r, _ in eqs]
        # signal to {2,3}, addressee 3 may be served from layer 1 or 2
        assert {
            "v[{2,3}]": 1.0,
            "u[1][{2,3}][{2}]": -1.0,
            "u[1][{2,3}][{1,2}]": -1.0,
            "u[2][{2,3}][{2}]": -1.0,
        } in named

    def test_completion_row(self, setup):
        _, ubs = setup
        named = {
            tuple(sorted(r)): (r, rhs)
            for r, rhs in ubs
            if any(n.startswith("unicast[") for n in r)
        }
        # final layer, final user: only its own cache and a unicast help
        key = ("a[3][{3}]", "unicast[3][3]")
        assert key in named
        row, rhs = named[key]
        assert rhs == pytest.approx(-0.5)
        assert all(coef == -1.0 for coef in row.values())

    def test_redundancy_rows(self, setup):
        _, ubs = setup
        named = [r for r, rhs in ubs if 1.0 in r.values() and rhs == 0.0 and not any(
            n.startswith("mem[") for n in r
        )]
        assert {
            "u[1][{1,3}][{1,2}]": 1.0,
            "u[1][{2,3}][{1,2}]": 1.0,
            "u[1][{1,2,3}][{1,2}]": 1.0,
            "a[1][{1,2}]": -1.0,
        } in named
        # single-cacher classes keep their per-piece caps
        assert {"u[2][{2,3}][{2}]": 1.0, "a[2][{2}]": -1.0} in named
        # shared rows exist only in layer 1 for three users
        shared = [r for r in named if len(r) > 2]
        assert len(shared) == 3

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["joint", "restricted", "layer"])
    def test_every_piece_lands_in_three_rows(self, K, kind):
        # one structure row, one completion row, one redundancy row or cap
        inst = fixed_instance([0.2 * k for k in range(1, K + 1)], [0.0] * K)
        if kind == "joint":
            programs = [build_o2(inst)]
        elif kind == "restricted":
            programs = [build_intra_restricted(inst)]
        else:
            programs = [build_layer_program(0.2, [0.1] * n) for n in range(1, K + 1)]
        for lp, idx in programs:
            for col in idx.assign.values():
                eq = [c[col] for c, _ in lp.eq_rows if col in c]
                ub = sorted(c[col] for c, _ in lp.ub_rows if col in c)
                assert eq == [-1.0]
                assert ub == [-1.0, 1.0]


class TestFixedMemoryProgram:
    def test_worked_example(self, example_one):
        assert solve_objective(build_o2(example_one)) == pytest.approx(0.2, abs=1e-8)

    def test_zero_memory(self):
        inst = fixed_instance([0.2, 0.3, 0.8], [0, 0, 0])
        assert solve_objective(build_o2(inst)) == pytest.approx(1.3, abs=1e-9)

    def test_full_memory(self):
        inst = fixed_instance([0.2, 0.3, 0.8], [0.2, 0.3, 0.8])
        assert solve_objective(build_o2(inst)) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_budget_instance(self, figure_profile):
        inst = budget_instance([0.5, 0.7, 1.0], 1.0)
        with pytest.raises(InstanceError):
            build_o2(inst)

    def test_known_optimum_is_feasible(self, example_one):
        # the published placement and the two coded signals, entered as a
        # full solution vector, satisfy every row of the program
        lp, idx = build_o2(example_one)
        x = np.zeros(idx.n_vars)

        def put(name, val):
            x[idx.names.index(name)] = val

        put("a[1][{3}]", 0.1)
        put("a[1][{1,2}]", 0.1)
        put("a[2][{2}]", 0.1)
        put("a[3][{3}]", 0.5)
        put("a[1][{}]", 0.0)
        put("a[2][{}]", 0.0)
        put("a[3][{}]", 0.0)
        put("u[1][{1,3}][{3}]", 0.1)
        put("u[1][{1,3}][{1,2}]", 0.1)
        put("u[1][{2,3}][{3}]", 0.1)
        put("u[2][{2,3}][{2}]", 0.1)
        put("v[{1,3}]", 0.1)
        put("v[{2,3}]", 0.1)
        put("mem[1][1]", 0.1)
        put("mem[2][1]", 0.1)
        put("mem[2][2]", 0.1)
        put("mem[3][1]", 0.1)
        put("mem[3][3]", 0.5)
        assert lp.check_point(x) == []
        assert float(np.dot(lp.c, x)) == pytest.approx(0.2, abs=1e-12)


class TestBudgetProgram:
    def test_corner_values(self, figure_profile):
        for m_tot, want in [(0.0, 2.2), (1.5, 0.35 - 0.5 / 6), (2.2, 0.0)]:
            inst = budget_instance([0.5, 0.7, 1.0], m_tot)
            assert solve_objective(build_o1(inst)) == pytest.approx(want, abs=1e-8)

    def test_rejects_fixed_instance(self, example_one):
        with pytest.raises(InstanceError):
            build_o1(example_one)

    def test_matches_closed_form_on_grid(self, figure_profile):
        for m_tot in np.linspace(0.0, 2.2, 12):
            inst = budget_instance([0.5, 0.7, 1.0], float(m_tot))
            got = solve_objective(build_o1(inst))
            assert got == pytest.approx(
                theorem1_load(float(m_tot), figure_profile), abs=1e-6
            )

    def test_matches_closed_form_random_four_users(self):
        rng = np.random.default_rng(21)
        r = np.sort(rng.uniform(0.1, 1.8, 4))
        prof = make_rate_profile(r)
        for m_tot in np.linspace(0.0, prof.sum_rates, 8):
            inst = budget_instance(r, float(m_tot), q=8)
            got = solve_objective(build_o1(inst))
            assert got == pytest.approx(theorem1_load(float(m_tot), prof), abs=1e-6)

    def test_monotone_and_convex(self):
        rng = np.random.default_rng(5)
        r = np.sort(rng.uniform(0.2, 1.0, 3))
        grid = np.linspace(0.0, float(r.sum()), 9)
        loads = []
        for m_tot in grid:
            loads.append(solve_objective(build_o1(budget_instance(r, float(m_tot)))))
        for a, b in zip(loads, loads[1:]):
            assert b <= a + 1e-8
        for i in range(1, len(loads) - 1):
            assert loads[i] <= (loads[i - 1] + loads[i + 1]) / 2 + 1e-7

    def test_threshold_allocation_attains_budget_optimum(self, figure_profile):
        # pinning each user's total to the closed-form split must not
        # cost anything relative to the free budget optimum
        rng = np.random.default_rng(11)
        cases = [(figure_profile, m) for m in (0.3, 0.9, 1.25, 1.9)]
        r4 = np.sort(rng.uniform(0.1, 1.2, 4))
        prof4 = make_rate_profile(r4)
        cases += [(prof4, 0.35 * prof4.sum_rates), (prof4, 0.8 * prof4.sum_rates)]
        for prof, m_tot in cases:
            o1 = solve_objective(build_o1(budget_instance(list(prof.r), m_tot, q=8)))
            m = threshold_allocation(m_tot, prof)
            o2 = solve_objective(build_o2(fixed_instance(list(prof.r), m, q=8)))
            assert o2 == pytest.approx(o1, abs=1e-7)


class TestIntraRestriction:
    def test_worked_example_gap(self, example_one):
        # forbidding cross-layer signals costs exactly 1/60 here
        got = solve_objective(build_intra_restricted(example_one))
        assert got == pytest.approx(13.0 / 60.0, abs=1e-9)

    def test_never_beats_joint(self):
        rng = np.random.default_rng(33)
        for _ in range(6):
            K = int(rng.integers(2, 5))
            inst = random_fixed_instance(rng, K)
            joint = solve_objective(build_o2(inst))
            intra = solve_objective(build_intra_restricted(inst))
            assert intra >= joint - 1e-8

    def test_budget_variant_matches_joint(self, figure_profile):
        # with the split free the optimum never needs cross-layer signals
        for m_tot in (0.4, 1.1, 1.8):
            inst = budget_instance([0.5, 0.7, 1.0], m_tot)
            assert solve_objective(build_intra_restricted(inst)) == pytest.approx(
                theorem1_load(m_tot, figure_profile), abs=1e-7
            )

    def test_per_layer_solves_reproduce_restricted_optimum(self, example_one):
        # fix the split an intra-restricted solve chose, then re-solve each
        # layer independently; the objectives must add up to the same load
        lp, idx = build_intra_restricted(example_one)
        sol = solve_lp(lp)
        scheme = extract_scheme(sol, idx)
        mem = scheme.index.layer_mem
        split = [[scheme.x[mem[(k, l)]] for k in range(l, 4)] for l in range(1, 4)]
        # a user with an empty share of a layer is out of its program and
        # costs that layer by unicast
        f = example_one.rates.f
        empty = sum(fl for fl, shares in zip(f, split) for share in shares if share <= 0.0)
        total = empty + sum(
            solve_objective(prog) for prog in build_intra_layer(example_one, split)
        )
        assert total == pytest.approx(sol.objective, abs=1e-8)

    def test_single_layer_profile_restriction_vacuous(self):
        inst = fixed_instance([0.6, 0.6, 0.6], [0.2, 0.3, 0.45])
        joint = solve_objective(build_o2(inst))
        intra = solve_objective(build_intra_restricted(inst))
        assert intra == pytest.approx(joint, abs=1e-9)


class TestExtraction:
    def test_example_scheme_values(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        assert scheme.objective == pytest.approx(0.2, abs=1e-8)
        assert scheme.variable_count == 47
        assert scheme.load() == pytest.approx(scheme.objective, abs=1e-9)
        # placement totals per layer are forced regardless of which
        # optimal vertex the solver lands on
        for l, width in zip((1, 2, 3), example_one.rates.f):
            got = sum(scheme.x[c] for (ll, _S), c in scheme.index.alloc.items() if ll == l)
            assert got == pytest.approx(width, abs=1e-9)

    def test_per_layer_signals_fold_into_joint_index(self, example_one):
        lp, idx = build_intra_restricted(example_one)
        sol = solve_lp(lp)
        scheme = extract_scheme(sol, idx)
        joint = make_variable_index(3)
        assert scheme.index.names == joint.names
        assert scheme.variable_count == idx.n_vars != joint.n_vars
        for T, col in joint.multicast.items():
            want = sum(sol.x[c] for (_l, TT), c in idx.multicast.items() if TT == T)
            assert scheme.x[col] == pytest.approx(want, abs=1e-12)
        for key, col in idx.assign.items():
            assert scheme.x[joint.assign[key]] == pytest.approx(max(sol.x[col], 0.0))
        assert scheme.load() == pytest.approx(13.0 / 60.0, abs=1e-9)

    def test_clamps_solver_dust(self):
        idx = make_variable_index(2)
        x = np.zeros(idx.n_vars)
        first_alloc = next(iter(idx.alloc.values()))
        x[first_alloc] = -1e-8
        sol = LpSolution(status=LpStatus.OPTIMAL, x=x, objective=0.0)
        scheme = extract_scheme(sol, idx)
        assert np.all(scheme.x >= 0.0)

    def test_clamped_signals_raise_the_load_by_as_much(self):
        # at a budget near the solver's feasibility tolerance, signals end a
        # few 1e-9 below zero: clamping them is no disagreement of the load
        # with the objective, but a load off the objective still is
        idx = make_variable_index(3)
        x = np.zeros(idx.n_vars)
        x[list(idx.multicast.values())] = -5e-9
        scheme = extract_scheme(LpSolution(LpStatus.OPTIMAL, x, float(x.sum())), idx)
        assert scheme.load() == 0.0
        with pytest.raises(SolverError):
            extract_scheme(LpSolution(LpStatus.OPTIMAL, x, float(x.sum()) - 1e-6), idx)

    def test_budget_at_the_feasibility_tolerance(self):
        inst = budget_instance([0.25, 0.25, 0.5, 1.0, 1.0], 1e-8)
        lp, idx = build_o1(inst)
        sol = solve_lp(lp)
        assert sol.x.min() < -1e-9
        assert scheme_problems(extract_scheme(sol, idx), inst) == []

    def test_rejects_material_negative(self):
        idx = make_variable_index(2)
        x = np.zeros(idx.n_vars)
        x[next(iter(idx.alloc.values()))] = -1e-3
        sol = LpSolution(status=LpStatus.OPTIMAL, x=x, objective=0.0)
        with pytest.raises(SolverError):
            extract_scheme(sol, idx)

    def test_rejects_non_optimal(self):
        idx = make_variable_index(2)
        sol = LpSolution(
            status=LpStatus.INFEASIBLE, x=np.zeros(idx.n_vars), objective=0.0
        )
        with pytest.raises(SolverError):
            extract_scheme(sol, idx)


class TestSerialization:
    def test_roundtrip(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        data = json.loads(json.dumps(scheme.to_json_dict()))
        back = SchemeSolution.from_json_dict(data)
        assert back.K == 3
        assert back.objective == scheme.objective
        assert back.variable_count == scheme.variable_count
        assert back.index.names == scheme.index.names
        # float reprs survive JSON, so the vector comes back bit for bit
        assert np.array_equal(back.x, scheme.x)
        assert back.load() == scheme.load()

    def test_zero_entries_dropped(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        data = scheme.to_json_dict()
        payload = {k: v for k, v in data.items() if "[" in k}
        assert all(v != 0.0 for v in payload.values())
        assert len(payload) < scheme.variable_count

    def test_keys_are_names_in_file_order(self):
        idx = make_variable_index(4)
        scheme = SchemeSolution(
            index=idx, x=np.ones(idx.n_vars), objective=0.0, variable_count=idx.n_vars
        )
        keys = [k for k in scheme.to_json_dict() if "[" in k]
        assert sorted(keys) == sorted(idx.names)
        # pieces are listed by (layer, T, S), not in column order
        pieces = [k for k in keys if k.startswith("u[")]
        assert pieces == [
            f"u[{l}][{mask_label(T)}][{mask_label(S)}]" for l, T, S in sorted(idx.assign)
        ]
        assert pieces != [n for n in idx.names if n.startswith("u[")]

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
    def test_variable_count_is_a_program_size(self, K):
        # the rounding bound scales with it: only the joint and the
        # intra-restricted column counts are accepted
        sizes = {make_variable_index(K).n_vars,
                 make_variable_index(K, per_layer_signals=True).n_vars}
        for count in sorted(sizes | {0, min(sizes) - 1, max(sizes) + 1, 10**8}):
            data = {"K": K, "objective": 0.0, "variable_count": count}
            if count in sizes:
                assert SchemeSolution.from_json_dict(data).variable_count == count
            else:
                with pytest.raises(InstanceError, match="variable_count"):
                    SchemeSolution.from_json_dict(data)

    def test_wrong_count_refused_before_the_index_is_built(self, monkeypatch):
        def no_index(*_args, **_kwargs):
            raise AssertionError("the index was built before the count was checked")

        monkeypatch.setattr(scheme_lp, "make_variable_index", no_index)
        data = {"K": 10, "objective": 0.0, "variable_count": 1}
        with pytest.raises(InstanceError, match="variable_count 1 is neither 274435"):
            SchemeSolution.from_json_dict(data)

    def test_rejects_unknown_keys(self):
        with pytest.raises(InstanceError):
            SchemeSolution.from_json_dict(
                {"K": 3, "objective": 0.0, "variable_count": 5, "w[1]": 1.0}
            )

    def test_rejects_missing_header(self):
        with pytest.raises(InstanceError):
            SchemeSolution.from_json_dict({"objective": 0.0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("a[9][{1}]", 0.1),  # no layer 9 for three users
            ("a[1][{70}]", 0.1),  # no user 70
            ("a[1][{1, 2}]", 0.1),  # names are spelled exactly
            ("v[1][{1,2}]", 0.1),  # per-layer signals fold into v[T]
            ("a[1][{1}]", float("nan")),
            ("a[1][{1}]", float("inf")),
            ("a[1][{1}]", True),
            ("a[1][{1}]", "0.1"),
            ("a[1][{1}]", None),
            ("K", "3"),
            ("K", True),
            ("objective", float("nan")),
        ],
    )
    def test_rejects_hostile_entries(self, key, value):
        data = {"K": 3, "objective": 0.0, "variable_count": 47, key: value}
        with pytest.raises(InstanceError):
            SchemeSolution.from_json_dict(data)

    def test_empty_set_key_parses(self):
        data = {
            "K": 2,
            "objective": 0.0,
            "variable_count": 15,
            "a[1][{}]": 0.25,
        }
        back = SchemeSolution.from_json_dict(data)
        assert back.x[back.index.alloc[(1, 0)]] == 0.25
        assert np.count_nonzero(back.x) == 1


class TestSchemeAudit:
    def test_optimal_schemes_are_clean(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            inst = random_fixed_instance(rng, int(rng.integers(2, 5)))
            lp, idx = build_o2(inst)
            scheme = extract_scheme(solve_lp(lp), idx)
            assert scheme_problems(scheme, inst, tol=1e-9) == []

    def test_signal_size_equalities_hold_exactly(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        x = scheme.x
        for T, vcol in scheme.index.multicast.items():
            for j in members(T):
                got = sum(
                    x[col]
                    for (l, TT, S), col in scheme.index.assign.items()
                    if TT == T and j == served_user(TT, S)
                )
                assert got == pytest.approx(x[vcol], abs=1e-9)

    def test_detects_oversized_signal(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        bumped = next(iter(idx.multicast.values()))
        x = scheme.x.copy()
        x[bumped] += 0.05
        broken = dataclasses.replace(scheme, x=x, objective=scheme.objective + 0.05)
        problems = scheme_problems(broken, example_one)
        # exactly the signal's structure rows, one per addressee, are broken
        rows = {f"eq row {i}" for i, (c, _) in enumerate(lp.eq_rows) if bumped in c}
        assert len(rows) == 2
        assert {p.split(":")[0] for p in problems} == rows
        # each row is also named by its terms, the bumped signal first
        assert all(f"+1*{idx.names[bumped]}" in p for p in problems)

    def test_detects_missing_placement(self, example_one):
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        x = scheme.x.copy()
        x[max(idx.alloc.values(), key=lambda col: x[col])] = 0.0
        broken = dataclasses.replace(scheme, x=x)
        assert scheme_problems(broken, example_one) != []

    def test_enforces_variable_boxes(self, example_one):
        # an oversized unicast breaks no row, only its box u <= f_l
        lp, idx = build_o2(example_one)
        scheme = extract_scheme(solve_lp(lp), idx)
        x = scheme.x.copy()
        x[idx.unicast[(1, 1)]] = 0.3
        problems = scheme_problems(dataclasses.replace(scheme, x=x), example_one)
        assert len(problems) == 1 and problems[0].startswith("unicast[1][1]=0.3")

    def test_no_looser_than_absolute_tolerance(self, figure_profile):
        # a 1.2e-7 gap in the layer-3 partition (rhs 0.3) must be reported
        # even though 1e-7 * (1 + |rhs|) would let it pass
        inst = budget_instance([0.5, 0.7, 1.0], 1.0)
        lp, idx = build_o1(inst)
        scheme = extract_scheme(solve_lp(lp), idx)
        assert scheme_problems(scheme, inst) == []
        x = scheme.x.copy()
        x[idx.alloc[(3, 0)]] += 1.2e-7
        problems = scheme_problems(dataclasses.replace(scheme, x=x), inst)
        assert len(problems) == 1 and problems[0].startswith("eq row 2:")

    def test_rejects_other_user_count(self, example_one):
        scheme = SchemeSolution.from_json_dict(
            {"K": 2, "objective": 0.0, "variable_count": 15}
        )
        with pytest.raises(InstanceError, match="users"):
            scheme_problems(scheme, example_one)

    def test_check_derives_its_row_arrays_once_per_kind(self, monkeypatch):
        # each check builds the program of its instance over the scheme's
        # index, and finds what the program built for that instance finds
        derived = []
        real = lp_core._row_arrays
        monkeypatch.setattr(lp_core, "_row_arrays", lambda dicts: derived.append(1) or real(dicts))
        checks = 0
        rng = np.random.default_rng(12)
        insts = [random_fixed_instance(rng, 4) for _ in range(3)]
        insts += [budget_instance(sorted(rng.uniform(0.05, 1.0, 4)), b) for b in (0.3, 0.9)]
        for inst in insts:
            lp, idx = (build_o1 if inst.is_budget else build_o2)(inst)
            scheme = extract_scheme(solve_lp(lp), idx)
            x = scheme.x.copy()
            x[next(iter(idx.multicast.values()))] += 0.05
            broken = dataclasses.replace(scheme, x=x)
            for other in insts:
                fresh = (build_o1 if other.is_budget else build_o2)(other)[0]
                widest = max(abs(rhs) for _row, rhs in fresh.eq_rows + fresh.ub_rows)
                want = fresh.check_point(broken.x, 1e-7 / (1.0 + widest))
                before = len(derived)
                assert scheme_problems(broken, other) == want
                checks += len(derived) - before
        # 25 checks, at most one derivation per constraint type
        assert checks <= 2
