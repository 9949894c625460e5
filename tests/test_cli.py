"""In-process command line tests: exit codes, formats, determinism."""

import csv
import dataclasses
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from hetcache import baselines, bounds, cli, lp_core, scheme_lp
from hetcache.baselines import baseline_load
from hetcache.bounds import budget_program, cutset_budget
from hetcache.cli import main
from hetcache.closed_form import corner_points
from hetcache.lp_core import SolverError, solve_lp
from hetcache.scheme_lp import SchemeSolution, build_o1, build_o2, scheme_problems
from hetcache.model import (Budget, FixedMemories, load_instance, make_rate_profile,
                            rates_from_distortions)


FIG_CORNERS = [0.0, 0.5, 0.7, 1.0, 1.5, 1.7, 2.2]


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(
        json.dumps(
            {
                "K": 3,
                "N": 3,
                "q": 2,
                "rates": [0.2, 0.3, 0.8],
                "memories": [0.1, 0.2, 0.6],
            }
        )
    )
    return str(path)


@pytest.fixture
def fig_path(tmp_path):
    path = tmp_path / "fig.json"
    path.write_text(
        json.dumps({"K": 3, "N": 3, "q": 2, "rates": [0.5, 0.7, 1.0], "budget": 1.0})
    )
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolve:
    def test_joint_prints_example_load(self, ex1_path, capsys):
        assert main(["solve", ex1_path]) == 0
        assert capsys.readouterr().out == "load = 0.200000\n"

    def test_intra_prints_restricted_load(self, ex1_path, capsys):
        assert main(["solve", ex1_path, "--mode", "intra"]) == 0
        assert capsys.readouterr().out == "load = 0.216667\n"

    def test_zero_budget_costs_all_rates(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(
            json.dumps({"K": 3, "N": 3, "rates": [0.5, 0.7, 1.0], "budget": 0.0})
        )
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == "load = 2.200000\n"

    def test_out_writes_consistent_scheme(self, ex1_path, tmp_path, capsys):
        out = tmp_path / "scheme.json"
        assert main(["solve", ex1_path, "--out", str(out)]) == 0
        capsys.readouterr()
        scheme = SchemeSolution.from_json_dict(json.loads(out.read_text()))
        assert scheme_problems(scheme, load_instance(ex1_path)) == []


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"K": 3, "N": 3, "rates": [0.5, 0.7, 1.0], "memories": [2.0, 0, 0]}
            )
        )
        assert main(["solve", str(path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            '{"K": 3, "N": 3, "rates": [0.2, 0.3, 0.8], "memories": [0.1, NaN, 0.1]}',
            '{"K": "three", "N": 3, "rates": [0.2, 0.3, 0.8], "budget": 1.0}',
            '{"K": 3, "N": 3, "rates": [0.2, 0.3, 0.8], "memories": "abc"}',
            '{"K": 3, "N": 3, "rates": [0.2, NaN, 0.8], "budget": 1.0}',
            '{"K": 3, "N": 3, "rates": [0.2, 0.3, 0.8], "budget": NaN}',
            '{"K": 3, "N": 3, "rates": [0.2, 0.3, 0.8], "budget": Infinity}',
            '{"K": 3, "N": 3, "q": "x", "rates": [0.2, 0.3, 0.8], "budget": 1.0}',
            '{"K": true, "N": 3, "rates": [0.2, 0.3, 0.8], "budget": 1.0}',
            '{"K": 3, "N": 3, "distortions": [0.9, 0.2, 0.1], "budget": 1.0}',
        ],
    )
    def test_non_numeric_or_non_finite_fields(self, doc, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text(doc)
        assert main(["bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "bounds"])
    @pytest.mark.parametrize("excess, code", [(5e-10, 0), (2e-9, 2)])
    @pytest.mark.parametrize("field", ["budget", "memories"])
    def test_memory_band_edges(self, command, excess, code, field, tmp_path, capsys):
        # a budget may pass the sum of rates, and a cache size its rate, by 1e-9
        rates = [0.2, 0.3, 0.8]
        doc = {"K": 3, "N": 3, "rates": rates}
        doc[field] = sum(rates) + excess if field == "budget" else [0.1, 0.2, 0.8 + excess]
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == code
        err = capsys.readouterr().err
        assert ("outside [0, " in err) is (code == 2) and "Traceback" not in err

    def test_too_large_program_refused_quickly(self, tmp_path, capsys, monkeypatch):
        # nine users give 6447 rows, whose basis arrays would need about a
        # GiB: refused with exit 3 from the row count alone, before the
        # variable index or the solver allocates anything
        built = []
        monkeypatch.setattr(scheme_lp, "make_variable_index",
                            lambda *args, **kwargs: built.append(args))
        rates = [0.1 * k for k in range(1, 10)]
        path = tmp_path / "k9.json"
        path.write_text(json.dumps({"K": 9, "N": 9, "rates": rates, "budget": 1.0}))
        started = time.perf_counter()
        assert main(["solve", str(path)]) == 3
        assert time.perf_counter() - started < 20.0
        err = capsys.readouterr().err
        assert "error: program has 6447 rows" in err and "MiB" in err
        assert "Traceback" not in err
        assert built == []

    def test_refused_program_prints_no_size_warning(self, tmp_path, capsys):
        # nine users are refused from the row count, so no solve is long
        rates = [0.1 * k for k in range(1, 10)]
        path = tmp_path / "k9.json"
        path.write_text(json.dumps({"K": 9, "N": 9, "rates": rates, "budget": 1.0}))
        assert main(["solve", str(path)]) == 3
        assert capsys.readouterr().err.startswith("solver error: program has 6447 rows")

    @pytest.mark.parametrize("K", [7, 8])
    def test_size_warning_from_eight_users(self, K, tmp_path, capsys, monkeypatch):
        # eight users pass the size check and solve for about a minute, so
        # they warn once, after the build; seven solve in seconds and do not
        def refuse(lp, start=None):
            raise SolverError("stubbed solve")

        monkeypatch.setattr(cli, "solve_lp", refuse)
        rates = [0.1 * k for k in range(1, K + 1)]
        path = tmp_path / f"k{K}.json"
        path.write_text(json.dumps({"K": K, "N": K, "rates": rates,
                                    "memories": [0.3 * r for r in rates]}))
        assert main(["solve", str(path)]) == 3
        warning = "warning: 8 users; program size grows as 3^K, expect long solves\n" * (K == 8)
        assert capsys.readouterr().err == warning + "solver error: stubbed solve\n"

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare-baselines", "bounds",
                                         "verify"])
    @pytest.mark.parametrize("text", [b'{"K": 3, "N": 3, "\xff\xfe": 1}', b"[" * 100_000],
                             ids=["not-utf8", "deep"])
    def test_unreadable_instance_file(self, command, text, tmp_path, capsys):
        path = tmp_path / "unreadable.json"
        path.write_bytes(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not valid JSON" in err, err

    @pytest.mark.parametrize("text", [b'{"K": 3, "\xff": 1}', b"[" * 100_000],
                             ids=["not-utf8", "deep"])
    def test_unreadable_scheme_file(self, text, ex1_path, tmp_path, capsys):
        path = tmp_path / "unreadable.scheme.json"
        path.write_bytes(text)
        assert main(["verify", ex1_path, "--scheme", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not valid JSON" in err, err

    @pytest.mark.parametrize("command", ["bounds", "compare-baselines", "verify"])
    def test_file_count_above_two_to_the_53(self, command, tmp_path, capsys):
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps({"K": 3, "N": 10**400, "rates": [0.2, 0.3, 0.8],
                                    "memories": [0.1, 0.2, 0.6]}))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above 2^53" in err, err

    def test_library_beyond_the_float_range(self, tmp_path, capsys):
        # 2^53 files are allowed, and their library size is an int no float holds
        path = tmp_path / "n53.json"
        path.write_text(json.dumps({"K": 3, "N": 2**53, "rates": [0.2, 0.3, 0.8],
                                    "memories": [0.1, 0.2, 0.6]}))
        assert main(["verify", str(path), "--file-size", str(10**300)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "above the 512 MiB limit" in err, err

    def test_sweep_rejects_fixed_memories(self, ex1_path, capsys):
        assert main(["sweep", ex1_path]) == 2
        assert "budget instance" in capsys.readouterr().err

    def test_tampered_scheme_fails_verification(self, ex1_path, tmp_path, capsys):
        scheme_path = tmp_path / "scheme.json"
        assert main(["solve", ex1_path, "--out", str(scheme_path)]) == 0
        data = json.loads(scheme_path.read_text())
        data["v[{1,3}]"] = data.get("v[{1,3}]", 0.1) + 0.2
        scheme_path.write_text(json.dumps(data))
        rc = main(["verify", ex1_path, "--scheme", str(scheme_path)])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out


class TestHostileScheme:
    """verify --scheme on a four-user budget instance with one entry edited."""

    @pytest.fixture
    def paths(self, tmp_path):
        inst = tmp_path / "inst4.json"
        inst.write_text(
            json.dumps({"K": 4, "N": 4, "rates": [0.2, 0.4, 0.7, 1.0], "budget": 1.1})
        )
        scheme = tmp_path / "scheme4.json"
        assert main(["solve", str(inst), "--out", str(scheme)]) == 0
        return str(inst), scheme

    @pytest.mark.parametrize(
        "key, value, code",
        [
            ("a[1][{1}]", float("nan"), 2),
            ("a[1][{1}]", float("inf"), 2),
            ("a[1][{1}]", True, 2),
            ("a[1][{1}]", "0.1", 2),
            ("a[1][{1}]", [0.1], 2),
            ("a[9][{1}]", 0.1, 2),  # no layer 9 for four users
            ("a[1][{1,70}]", 0.1, 2),  # no user 70
            ("w[1]", 0.1, 2),
            ("variable_count", "many", 2),
            ("variable_count", 100000000, 2),  # would widen the rounding bound to 1e4
            ("variable_count", 0, 2),
            ("K", 11, 2),
            ("a[1][{}]", 5.0, 4),  # breaks the partition and the box
            ("mem[4][4]", -0.1, 4),  # negative cache share
            ("v[{1,2,3,4}]", 0.05, 4),  # no pieces ride in it
        ],
    )
    def test_exit_code(self, paths, key, value, code, capsys):
        inst, scheme = paths
        data = json.loads(scheme.read_text())
        data[key] = value
        scheme.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["verify", inst, "--scheme", str(scheme)]) == code
        out = capsys.readouterr()
        if code == 2:
            assert out.err.startswith("error:") and "Traceback" not in out.err
            assert out.out == ""
        else:
            assert out.out.startswith("FAIL: scheme is inconsistent")

    def test_unedited_scheme_passes(self, paths, capsys):
        inst, scheme = paths
        assert main(["verify", inst, "--scheme", str(scheme)]) == 0
        assert capsys.readouterr().out.startswith("PASS")


class TestSweep:
    def run_sweep(self, fig_path, tmp_path, *extra):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", fig_path, "--points", "5", "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_columns_and_corner_injection(self, fig_path, tmp_path):
        rows = read_csv(self.run_sweep(fig_path, tmp_path))
        assert list(rows[0]) == [
            "m_tot",
            "lp_load",
            "theorem1_load",
            "cutset",
            "m_1",
            "m_2",
            "m_3",
        ]
        budgets = [float(r["m_tot"]) for r in rows]
        assert budgets == sorted(budgets)
        for corner in FIG_CORNERS:
            assert any(abs(b - corner) < 1e-12 for b in budgets)

    def test_rows_are_consistent(self, fig_path, tmp_path):
        for row in read_csv(self.run_sweep(fig_path, tmp_path)):
            lp = float(row["lp_load"])
            closed = float(row["theorem1_load"])
            cut = float(row["cutset"])
            assert lp == pytest.approx(closed, abs=1e-6)
            assert cut <= closed + 1e-8
            total = sum(float(row[f"m_{k}"]) for k in (1, 2, 3))
            assert total == pytest.approx(float(row["m_tot"]), abs=1e-9)

    def test_rows_match_cold_solves(self, fig_path, tmp_path):
        inst = load_instance(fig_path)
        for row in read_csv(self.run_sweep(fig_path, tmp_path)):
            m_tot = float(row["m_tot"])
            lp, _ = build_o1(dataclasses.replace(inst, constraint=Budget(m_tot)))
            assert abs(float(row["lp_load"]) - solve_lp(lp).objective) <= 1e-9

    def test_endpoints(self, fig_path, tmp_path):
        rows = read_csv(self.run_sweep(fig_path, tmp_path))
        assert float(rows[0]["m_tot"]) == 0.0
        assert float(rows[0]["lp_load"]) == pytest.approx(2.2, abs=1e-9)
        assert float(rows[-1]["m_tot"]) == pytest.approx(2.2, abs=1e-12)
        assert float(rows[-1]["lp_load"]) == pytest.approx(0.0, abs=1e-9)

    def test_two_points_still_covers_corners(self, fig_path, tmp_path):
        out = tmp_path / "two.csv"
        assert main(["sweep", fig_path, "--points", "2", "--out", str(out)]) == 0
        budgets = [float(r["m_tot"]) for r in read_csv(out)]
        assert budgets == pytest.approx(FIG_CORNERS, abs=1e-12)

    def test_deterministic_and_clean_format(self, fig_path, tmp_path):
        first = self.run_sweep(fig_path, tmp_path).read_text()
        second = self.run_sweep(fig_path, tmp_path).read_text()
        assert first == second
        assert "\r" not in first
        assert first.splitlines()[0].startswith("m_tot,")
        # '.' decimals regardless of locale
        assert all("." in cell for cell in first.splitlines()[1].split(","))

    def test_json_format(self, fig_path, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main(
            [
                "sweep",
                fig_path,
                "--points",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = json.loads(out.read_text())
        assert all(abs(r["lp_load"] - r["theorem1_load"]) < 1e-6 for r in rows)


class TestCompare:
    def test_joint_dominates_heuristics(self, ex1_path, tmp_path):
        out = tmp_path / "cmp.csv"
        rc = main(
            [
                "compare-baselines",
                ex1_path,
                "--points",
                "6",
                "--ratio",
                "0.8",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["m_tot", "joint_o2", "pca", "oca", "cutset_fixed"]
        assert len(rows) == 6
        for row in rows:
            joint = float(row["joint_o2"])
            assert joint <= float(row["pca"]) + 1e-8
            assert joint <= float(row["oca"]) + 1e-8
            assert float(row["cutset_fixed"]) <= joint + 1e-8

    def test_joint_matches_cold_solves(self, ex1_path, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare-baselines", ex1_path, "--points", "5", "--out", str(out)]) == 0
        inst = load_instance(ex1_path)
        shape = [0.8**2, 0.8, 1.0]
        s_max = min(r / w for r, w in zip(inst.rates.r, shape))
        for i, row in enumerate(read_csv(out)):
            m = tuple(s_max * i / 4 * w for w in shape)
            lp, _ = build_o2(dataclasses.replace(inst, constraint=FixedMemories(m)))
            assert abs(float(row["joint_o2"]) - solve_lp(lp).objective) <= 1e-9

    def test_sweep_spans_zero_to_full(self, ex1_path, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare-baselines", ex1_path, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[0]["m_tot"]) == 0.0
        assert float(rows[0]["joint_o2"]) == pytest.approx(1.3, abs=1e-8)
        # the largest memory vector saturates some user's rate
        assert float(rows[-1]["joint_o2"]) < float(rows[0]["joint_o2"])

    def test_bad_ratio_rejected(self, ex1_path, capsys):
        # 1e-300 squared underflows to zero and 1e300 squared overflows
        for ratio in ("0", "1e-300", "1e300", "inf", "nan"):
            assert main(["compare-baselines", ex1_path, "--ratio", ratio]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --ratio {float(ratio)!r} must be positive"), err


class TestCompareChain:
    """The chained per-layer solves against one cold solve per point."""

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_baselines_match_cold_per_point_solves(self, K, tmp_path):
        rng = np.random.default_rng(40 + K)
        rates = sorted(float(r) for r in rng.uniform(0.05, 1.0, K))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"K": K, "N": K, "rates": rates, "memories": [0.0] * K}))
        inst = load_instance(str(path))
        for ratio in (0.6, 0.8, 0.95):
            out = tmp_path / f"cmp{ratio}.csv"
            argv = ["compare-baselines", str(path), "--points", "5", "--ratio", repr(ratio)]
            assert main(argv + ["--out", str(out)]) == 0
            shape = [ratio ** (K - k) for k in range(1, K + 1)]
            s_max = min(r / w for r, w in zip(inst.rates.r, shape))
            for i, row in enumerate(read_csv(out)):
                m = tuple(s_max * i / 4 * w for w in shape)
                sub = dataclasses.replace(inst, constraint=FixedMemories(m))
                for method in ("pca", "oca"):
                    assert abs(float(row[method]) - baseline_load(method, sub)) <= 1e-12


class TestBounds:
    def test_fixed_instance(self, ex1_path, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", ex1_path, "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["cutset"]) == pytest.approx(0.2, abs=1e-9)
        assert row["binding_users"] == "{3}"

    def test_budget_instance_includes_three_user_form(self, fig_path, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", fig_path, "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["cutset"]) == pytest.approx(float(row["cutset_k3"]), abs=1e-7)
        total = sum(float(row[f"m_{k}"]) for k in (1, 2, 3))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_json_format(self, ex1_path, capsys):
        assert main(["bounds", ex1_path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["binding_users"] == "{3}"

    @pytest.mark.parametrize("K, field", [(8, "budget"), (12, "memories")])
    def test_no_program_size_warning(self, K, field, tmp_path, capsys):
        # the 3^K warning is about the scheme program, which bounds never builds
        rates = [0.05 * k for k in range(1, K + 1)]
        doc = {"K": K, "N": K, "rates": rates}
        doc[field] = 0.3 * sum(rates) if field == "budget" else [0.3 * r for r in rates]
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestVerify:
    def test_pass_with_report(self, ex1_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                ex1_path,
                "--file-size",
                "2000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("PASS")
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["file_size"] == 2000

    def test_supplied_scheme_passes(self, ex1_path, tmp_path, capsys):
        scheme_path = tmp_path / "scheme.json"
        assert main(["solve", ex1_path, "--out", str(scheme_path)]) == 0
        rc = main(
            [
                "verify",
                ex1_path,
                "--scheme",
                str(scheme_path),
                "--file-size",
                "500",
            ]
        )
        assert rc == 0

    def test_intra_mode_verifies(self, ex1_path, capsys):
        assert main(["verify", ex1_path, "--mode", "intra"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "seed -1 must be nonnegative"),
         # 1.8 TiB of library: refused before numpy is asked for it
         ("--file-size", str(10**13), "above the 512 MiB limit")],
    )
    def test_hostile_seed_and_file_size_refused(self, ex1_path, capsys, flag, value, message):
        assert main(["verify", ex1_path, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "-1"), ("--file-size", str(10**13)), ("--file-size", "0")],
    )
    def test_library_options_refused_before_solving(self, ex1_path, capsys, monkeypatch,
                                                    flag, value):
        def no_solve(*_args):
            raise AssertionError("the scheme was solved before the options were checked")

        monkeypatch.setattr(cli, "_solve_scheme", no_solve)
        assert main(["verify", ex1_path, flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_scheme_for_another_user_count_refused_before_its_index(
            self, ex1_path, tmp_path, capsys, monkeypatch):
        # a ten-user scheme against a three-user instance: building its
        # 274 435-column index took 0.4 s and 122 MB peak on a 2-vCPU box
        path = tmp_path / "k10.json"
        joint, _restricted = scheme_lp.program_columns(10)
        path.write_text(json.dumps({"K": 10, "objective": 1.0, "variable_count": joint}))

        def no_index(*_args):
            raise AssertionError("an index was built for a scheme of another user count")

        monkeypatch.setattr(scheme_lp, "_build_index", no_index)
        assert main(["verify", ex1_path, "--scheme", str(path)]) == 2
        assert capsys.readouterr().err == "error: scheme is for 10 users, instance for 3\n"


def write_instance(tmp_path, name, rates, **memory):
    path = tmp_path / name
    path.write_text(json.dumps({"K": len(rates), "N": len(rates), "rates": rates, **memory}))
    return str(path)


def random_rate_list(rng, K):
    return sorted(float(r) for r in rng.uniform(0.05, 1.0, K))


class TestSweepGrid:
    """Every budget a sweep solves is solved once, and the last is the sum
    of rates exactly."""

    def test_grid_is_strict_and_ends_at_the_sum_of_rates(self):
        rng = np.random.default_rng(90)
        for K in range(2, 7):
            for _ in range(20):
                rates = make_rate_profile(random_rate_list(rng, K))
                total = rates.sum_rates
                corners = [m for m, _ in corner_points(rates)]
                for points in (2, 9, 50):
                    grid = cli._budget_grid(rates, points)
                    assert grid[0] == 0.0 and grid[-1] == total
                    assert all(b - a > 1e-12 * total for a, b in zip(grid, grid[1:]))
                    assert all(min(abs(g - m) for g in grid) <= 1e-12 * total for m in corners)
                    assert len(grid) >= points

    def test_sweep_prints_each_budget_once(self, tmp_path):
        rng = np.random.default_rng(91)
        for K in (2, 3, 4):
            for i in range(4):
                rates = random_rate_list(rng, K)
                path = write_instance(tmp_path, f"k{K}_{i}.json", rates, budget=0.0)
                total = load_instance(path).rates.sum_rates
                for points in ("2", "9"):
                    out = tmp_path / "sweep.csv"
                    assert main(["sweep", path, "--points", points, "--out", str(out)]) == 0
                    budgets = [float(row["m_tot"]) for row in read_csv(out)]
                    assert all(b - a > 1e-12 * total for a, b in zip(budgets, budgets[1:]))
                    assert budgets[-1] == total


class TestChainOrder:
    """Every warm chain starts at the most memory and walks down, building
    each point over one index."""

    def record(self, monkeypatch, module, name, what):
        seen = []
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.append(what(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return seen

    def test_sweep_chains_walk_down(self, monkeypatch, tmp_path):
        rates = random_rate_list(np.random.default_rng(92), 4)
        path = write_instance(tmp_path, "k4.json", rates, budget=0.0)
        # the budget row is the last equality of the scheme program
        budgets = self.record(monkeypatch, cli, "solve_lp", lambda lp, *_: lp.eq_rows[-1][1])
        bound_budgets = self.record(monkeypatch, cli, "cutset_budget",
                                    lambda inst, *_: inst.constraint.m_tot)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--points", "5", "--out", str(out)]) == 0
        printed = [float(row["m_tot"]) for row in read_csv(out)]
        assert budgets == bound_budgets == printed[::-1]
        assert budgets[0] == load_instance(path).rates.sum_rates

    def test_compare_chains_walk_down(self, monkeypatch, tmp_path):
        K, points = 4, 5
        rates = random_rate_list(np.random.default_rng(93), K)
        path = write_instance(tmp_path, "k4.json", rates, memories=[0.0] * K)
        # the cache rows are the last K equalities of the joint program
        joint = self.record(monkeypatch, cli, "solve_lp",
                            lambda lp, *_: sum(b for _, b in lp.eq_rows[-K:]))
        splits = []
        build = baselines.build_intra_layer

        def recorded(inst, split):
            programs = build(inst, split)
            splits.append(([index.K for _lp, index in programs], split))
            return programs

        monkeypatch.setattr(baselines, "build_intra_layer", recorded)
        out = tmp_path / "cmp.csv"
        assert main(["compare-baselines", path, "--points", str(points), "--out", str(out)]) == 0
        printed = [float(row["m_tot"]) for row in read_csv(out)]
        # the zero-memory point is solved in closed form, off the chain
        assert joint == pytest.approx(printed[:0:-1], abs=1e-12)
        assert all(a > b for a, b in zip(joint, joint[1:]))
        # each split builds one program per layer that a user caches in
        # part, over those users only, and the splits snake: every ordered
        # split from the top, then every proportional one from the bottom
        # back up
        f = load_instance(path).rates.f
        for counts, split in splits:
            partial = [sum(0.0 < share < fl for share in shares)
                       for fl, shares in zip(f, split)]
            assert counts == [n for n in partial if n]
        assert splits[0][0] and splits[points - 1][0] == []
        totals = [sum(map(sum, split)) for _counts, split in splits]
        assert totals[:points] == pytest.approx(printed[::-1], abs=1e-12)
        assert totals[points:] == pytest.approx(printed, abs=1e-12)

    def test_compare_solves_nothing_at_zero_memory(self, monkeypatch, tmp_path):
        # where every cache is empty the joint load is the summed rates, by
        # unicast, and no program is built or solved for it
        K = 4
        rates = random_rate_list(np.random.default_rng(97), K)
        path = write_instance(tmp_path, "k4.json", rates, memories=[0.0] * K)
        zero = dataclasses.replace(load_instance(path), constraint=FixedMemories((0.0,) * K))
        solved = solve_lp(build_o2(zero)[0]).objective
        solve = cli.solve_lp

        def stub(caches):
            def no_zero_point(lp, *args, **kwargs):
                assert any(b > 0.0 for _, b in caches(lp)), "solved at zero memory"
                return solve(lp, *args, **kwargs)
            return no_zero_point

        # the joint program's cache sizes are its last K equalities, and a
        # per-layer program's shares lead its upper-bound rows
        monkeypatch.setattr(cli, "solve_lp", stub(lambda lp: lp.eq_rows[-K:]))
        monkeypatch.setattr(baselines, "solve_lp", stub(lambda lp: lp.ub_rows))
        for points in (2, 5):
            out = tmp_path / f"cmp{points}.csv"
            assert main(["compare-baselines", path, "--points", str(points),
                         "--out", str(out)]) == 0
            row = read_csv(out)[0]
            assert float(row["m_tot"]) == 0.0
            assert float(row["joint_o2"]) == sum(rates)
            for column in ("joint_o2", "pca", "oca"):
                assert abs(float(row[column]) - solved) <= 1e-12

    def test_compare_prints_floats_where_every_cache_is_full(self, tmp_path):
        # at ratio 0.5 the top point fills every cache exactly: no program
        # is left, and the loads still print as floats
        path = write_instance(tmp_path, "full.json", [0.2, 0.4, 0.8], memories=[0.0] * 3)
        out = tmp_path / "cmp.csv"
        assert main(["compare-baselines", path, "--points", "2", "--ratio", "0.5",
                     "--out", str(out)]) == 0
        top = read_csv(out)[-1]
        assert [top[c] for c in ("joint_o2", "pca", "oca")] == ["0.0"] * 3

    def test_compare_job_fits_the_index_cache(self, tmp_path):
        # twelve K=4 then six K=5 comparisons need the two joint indexes
        # and one single-layer index per user count 1..5, which
        # INDEX_CACHE_SIZE holds, so a second pass builds none of them
        rng = np.random.default_rng(98)
        paths = [write_instance(tmp_path, f"cmp{i}.json", random_rate_list(rng, K),
                                memories=[0.0] * K)
                 for i, K in enumerate((4,) * 12 + (5,) * 6)]
        ratios = np.linspace(0.6, 0.95, len(paths))
        for attempt in range(2):
            before = scheme_lp._build_index.cache_info().misses
            for path, ratio in zip(paths, ratios):
                assert main(["compare-baselines", path, "--points", "3",
                             "--ratio", repr(float(ratio))]) == 0
            misses = scheme_lp._build_index.cache_info().misses - before
        assert misses == 0

    def test_cli_chains_invert_no_basis(self, monkeypatch, tmp_path):
        # every chain moves one program, so each start is taken with its
        # factor and no command inverts a basis
        inverted = self.record(monkeypatch, np.linalg, "inv", lambda a: a.shape)
        for K in (3, 4, 5):
            rates = random_rate_list(np.random.default_rng(96 + K), K)
            for kind, memory in (("budget", 0.4 * sum(rates)),
                                 ("memories", [0.4 * r for r in rates])):
                path = write_instance(tmp_path, f"k{K}_{kind}.json", rates, **{kind: memory})
                scheme = str(tmp_path / f"k{K}_{kind}.scheme.json")
                commands = [["solve", path, "--out", scheme],
                            ["verify", path, "--scheme", scheme, "--file-size", "1000"],
                            ["verify", path, "--file-size", "1000"],
                            ["compare-baselines", path, "--points", "6"]]
                if kind == "budget":
                    commands.append(["sweep", path, "--points", "9"])
                for argv in commands:
                    assert main(argv) == 0, argv
        assert inverted == []

    def test_cli_chains_take_every_start(self, tmp_path, starts):
        # a start that does not fit its program is dropped for a cold solve
        # without a word, so only a count shows it
        rates = random_rate_list(np.random.default_rng(98), 4)
        budget = write_instance(tmp_path, "budget.json", rates, budget=0.0)
        fixed = write_instance(tmp_path, "fixed.json", rates, memories=[0.0] * 4)
        assert main(["sweep", budget, "--points", "6"]) == 0
        swept = len(starts)
        assert main(["compare-baselines", fixed, "--points", "6"]) == 0
        assert 0 < swept < len(starts) and all(starts)

    def test_sweep_builds_its_bound_program_once(self, monkeypatch, tmp_path):
        # kept scheme and bound programs outlive a test, so both are built
        # afresh for the count not to depend on the tests before
        scheme_lp._build_index.cache_clear()
        bounds._budget_rows.cache_clear()
        rates = random_rate_list(np.random.default_rng(95), 4)
        path = write_instance(tmp_path, "k4.json", rates, budget=0.0)
        inst = load_instance(path)
        programs = [build_o1(inst)[0].n_rows, budget_program(inst).n_rows]
        derived = self.record(monkeypatch, lp_core, "_row_arrays", len)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--points", "6", "--out", str(out)]) == 0
        # one derivation for the scheme program, one for the bound's
        assert sorted(derived) == sorted(programs)
        for row in read_csv(out):
            sub = dataclasses.replace(inst, constraint=Budget(float(row["m_tot"])))
            assert abs(float(row["cutset"]) - cutset_budget(sub).value) <= 1e-12

    def test_k4_rows_match_cold_per_point_solves(self, tmp_path):
        rng = np.random.default_rng(94)
        rates = random_rate_list(rng, 4)
        path = write_instance(tmp_path, "budget.json", rates, budget=0.0)
        inst = load_instance(path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--points", "4", "--out", str(out)]) == 0
        for row in read_csv(out):
            sub = dataclasses.replace(inst, constraint=Budget(float(row["m_tot"])))
            assert abs(float(row["lp_load"]) - solve_lp(build_o1(sub)[0]).objective) <= 1e-9
            assert abs(float(row["cutset"]) - cutset_budget(sub).value) <= 1e-9

        path = write_instance(tmp_path, "fixed.json", rates, memories=[0.0] * 4)
        inst = load_instance(path)
        out = tmp_path / "cmp.csv"
        argv = ["compare-baselines", path, "--points", "4", "--ratio", "0.7"]
        assert main(argv + ["--out", str(out)]) == 0
        shape = [0.7 ** (4 - k) for k in range(1, 5)]
        s_max = min(r / w for r, w in zip(inst.rates.r, shape))
        for i, row in enumerate(read_csv(out)):
            sub = dataclasses.replace(
                inst, constraint=FixedMemories(tuple(s_max * i / 3 * w for w in shape)))
            assert abs(float(row["joint_o2"]) - solve_lp(build_o2(sub)[0]).objective) <= 1e-9
            for method in ("pca", "oca"):
                assert abs(float(row[method]) - baseline_load(method, sub)) <= 1e-9


@pytest.mark.parametrize("q, distortions", [(2, [0.4, 0.2, 0.0]), (4, [0.6, 0.3, 0.1])])
def test_distortions_instance_prints_what_its_rates_instance_prints(q, distortions, tmp_path,
                                                                    capsys):
    # a distortions instance is its rates instance: every command prints
    # the same bytes for both, the rates written as json.dumps writes them
    rates = list(rates_from_distortions(distortions, q).r)
    doc = {"K": 3, "N": 3, "q": q, "budget": 0.4 * sum(rates)}
    paths = []
    for key, profile in (("distortions", distortions), ("rates", rates)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**doc, key: profile}))
        paths.append(str(path))
    for command in (["solve"], ["sweep", "--points", "3"], ["bounds"]):
        outs = []
        for path in paths:
            assert main([command[0], path, *command[1:]]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


def test_one_parser_serves_every_call(ex1_path, capsys):
    # a rejected command, a refused instance, then two good commands, all
    # in this process, must print what a fresh process prints for each
    assert cli.build_parser() is cli.build_parser()
    commands = [["solve"], ["sweep", ex1_path], ["solve", ex1_path], ["bounds", ex1_path]]
    for argv in commands:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hetcache", *argv],
                               capture_output=True, text=True)
        assert (rc, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_verify_shares_nothing_between_calls(ex1_path, tmp_path, capsys):
    # indexes are cached per process: K=3 and K=4 verifies, interleaved
    # twice in this process, must each print and write what a fresh
    # process does
    k4_path = write_instance(tmp_path, "k4.json", [0.2, 0.45, 0.7, 0.9],
                             memories=[0.1, 0.2, 0.3, 0.5])
    fresh = {}
    for name, path in (("k3", ex1_path), ("k4", k4_path)):
        scheme = str(tmp_path / f"{name}-scheme.json")
        assert main(["solve", path, "--out", scheme]) == 0
        out = tmp_path / f"{name}-fresh.json"
        argv = ["verify", path, "--scheme", scheme, "--seed", "1"]
        proc = subprocess.run([sys.executable, "-m", "hetcache", *argv, "--out", str(out)],
                              capture_output=True, text=True)
        fresh[name] = (argv, (proc.returncode, proc.stdout, out.read_bytes()))
    capsys.readouterr()
    for call, name in enumerate(["k3", "k4", "k3", "k4"]):
        argv, want = fresh[name]
        out = tmp_path / f"{name}-{call}.json"
        rc = main([*argv, "--out", str(out)])
        assert (rc, capsys.readouterr().out, out.read_bytes()) == want
        assert want[0] == 0


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hetcache", "solve", ex1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "load = 0.200000\n"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 6 MB of resident memory; only a library
    # draw loads it
    code = "import sys, hetcache.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
