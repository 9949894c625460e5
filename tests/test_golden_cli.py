"""The golden record of tests/golden_cli.py: at zero tolerance, "no
difference" must mean equal bytes, and the CLI must keep the checked-in
record."""

import os
import subprocess
import sys

import pytest


def test_zero_tolerance_reports_respelled_numbers():
    # importing the module sets no thread variable: only its main does
    from golden_cli import differences

    a = {"exit": 0, "stdout": "load = 1.0\n", "stderr": "", "files": {}}
    respelled = dict(a, stdout="load = 1.00\n")
    assert differences(a, respelled, 0.0) == ["stdout: bytes differ"]
    assert differences(a, respelled, 1e-9) == []
    assert differences(a, dict(a, stdout="load = 1.1\n"), 0.0) == [
        "stdout: numbers differ by up to 0.1"
    ]
    # a file written only by the second run counts too
    assert differences(a, dict(a, files={"x.json": "{}"}), 0.0) == ["x.json: text differs"]
    assert differences(a, a, 0.0) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_the_cli_keeps_the_golden_record(tmp_path, capsys, threads):
    # a fresh run, byte for byte, at one BLAS thread and at two: a solve
    # pins the pool to one thread, so the count the process starts with
    # must not move a byte.  After a change that means to move the output,
    # `python tests/golden_cli.py --update` re-records
    from golden_cli import RECORD, THREAD_VARS, compare

    root = RECORD.parents[2]
    env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    now = tmp_path / "now.json"
    proc = subprocess.run([sys.executable, "tests/golden_cli.py", "--out", str(now),
                           "--threads", str(threads)],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert compare(str(RECORD), str(now), 0.0) == 0, capsys.readouterr().out
