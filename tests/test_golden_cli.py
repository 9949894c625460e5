"""The golden-record comparison of tests/golden_cli.py: at zero tolerance,
"no difference" must mean equal bytes."""


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
