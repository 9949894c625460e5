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

from hetcache import cli
from hetcache.baselines import baseline_load
from hetcache.cli import main
from hetcache.lp_core import solve_lp
from hetcache.scheme_lp import SchemeSolution, build_o1, build_o2, scheme_problems
from hetcache.model import Budget, FixedMemories, load_instance


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

    def test_too_large_program_refused_quickly(self, tmp_path, capsys):
        # nine users give 6447 rows, whose basis arrays would need about a
        # GiB: refused with exit 3 before the solver allocates anything
        rates = [0.1 * k for k in range(1, 10)]
        path = tmp_path / "k9.json"
        path.write_text(json.dumps({"K": 9, "N": 9, "rates": rates, "budget": 1.0}))
        started = time.perf_counter()
        assert main(["solve", str(path)]) == 3
        assert time.perf_counter() - started < 20.0
        err = capsys.readouterr().err
        assert "error: program has 6447 rows" in err and "MiB" in err
        assert "Traceback" not in err

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


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "hetcache", "solve", ex1_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "load = 0.200000\n"
