"""Tests of the benchmark itself: metric names and units, and that its checks bite.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hetcache.baselines  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hetcache import cli  # noqa: E402
from hetcache.bounds import cutset_fixed  # noqa: E402
from hetcache.model import FixedMemories, ProblemInstance, make_rate_profile  # noqa: E402
from hetcache.scheme_lp import SchemeSolution  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _tiny_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_table_matches_spec():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    if trace and workload == "verify_bits":
        assert result["metrics"]["lp_core.solves"]["value"] == 0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_bits", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fixed_bound_reference_matches_enumeration():
    rng = random.Random(7)
    for K in range(1, 9):
        rates = workloads.draw_rates(rng, K)
        memories = [r * rng.random() for r in rates]
        inst = ProblemInstance(K=K, N=K, rates=make_rate_profile(rates),
                               constraint=FixedMemories(m=tuple(memories)))
        expected = cutset_fixed(inst).value
        assert abs(workloads.fixed_bound_reference(rates, memories, K) - expected) < 1e-12


def test_tracing_restores_every_target():
    before = {(module, attr): getattr(module, attr) for module, attr, *_ in tracing._TARGETS}
    splits = dict(hetcache.baselines._SPLITS)
    from_json = vars(SchemeSolution)["from_json_dict"]
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.solve_lp is not before[(cli, "solve_lp")]
        assert hetcache.baselines._SPLITS != splits
    assert tracer.missing == []
    assert all(getattr(module, attr) is fn for (module, attr), fn in before.items())
    assert hetcache.baselines._SPLITS == splits
    assert vars(SchemeSolution)["from_json_dict"] is from_json


def test_tracing_lists_a_removed_target(monkeypatch):
    monkeypatch.delattr(cli, "scheme_problems")
    with tracing.installed(tracing.Tracer()) as tracer:
        pass
    assert tracer.missing == ["hetcache.cli.scheme_problems"]
    assert not hasattr(cli, "scheme_problems")


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("cli.main"):
        with tracer.span("model.load"):
            sum(range(200_000))
    layers = tracing.job_layers(tracer)
    main_span, load_span = tracer.spans
    assert load_span.parent == 0
    assert layers["model.load_s"] == load_span.duration
    assert layers["cli.self_s"] == main_span.duration - load_span.duration


# ---------------------------------------------------------------------------
# perturbed outputs must count as failures


def _perturb_csv(stdout: str, column: str, delta: float) -> str:
    lines = stdout.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[-1].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


PERTURBATIONS = {
    "sweep_budget": lambda out: _perturb_csv(out, "lp_load", 1e-4),
    "compare_fixed": lambda out: _perturb_csv(out, "joint_o2", 1.0),
    # large enough to lift a budget bound over the achievable load
    "bounds_cutset": lambda out: _perturb_csv(out, "cutset", 1.0),
    "verify_bits": lambda out: out.replace("PASS", "FAIL"),
}


def _perturbed(main, perturb):
    def perturbed_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        print(perturb(buf.getvalue()), end="")
        return rc

    return perturbed_main


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_perturbed_output_counts_as_failure(workload, tmp_path):
    def run_cli(argv):
        return run.call_cli(cli.main, argv)[:2]

    commands = workloads.WORKLOADS[workload](5, str(tmp_path), workloads.TINY, run_cli)
    clean = run.run_job(cli.main, commands)
    assert clean.failures == []
    bad = run.run_job(_perturbed(cli.main, PERTURBATIONS[workload]), commands)
    assert len(bad.failures) == len(commands)
    assert bad.digest != clean.digest


def test_nonzero_exit_and_crash_count_as_failures(tmp_path):
    commands = workloads.sweep_budget(0, str(tmp_path), workloads.TINY, None)

    def crash(_argv):
        raise RuntimeError("boom")

    assert len(run.run_job(lambda _argv: 3, commands).failures) == len(commands)
    failures = run.run_job(crash, commands).failures
    assert len(failures) == len(commands)
    assert "RuntimeError: boom" in failures[0]["problems"][0]
