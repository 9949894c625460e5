"""Hypothesis fuzzing of scheme files and of the numeric command line options.

A valid scheme file of the worked three-user example is spoiled one field
at a time, or cut short, and read by ``SchemeSolution.from_json_dict`` and
by ``hetcache verify --scheme``.  ``compare-baselines --ratio``, ``verify
--seed`` and ``verify --file-size`` get drawn values, extremes included.
Every run must exit 0, 2 or 4 without a traceback, and an exit 2 must say
why on a stderr line starting ``error: ``.
"""

import contextlib
import functools
import io
import json
import math
import os
import tempfile

import pytest

from hetcache.cli import main
from hetcache.lp_core import solve_lp
from hetcache.model import InstanceError, instance_from_dict
from hetcache.scheme_lp import SchemeSolution, build_o2, extract_scheme

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EX1 = {"K": 3, "N": 3, "q": 2, "rates": [0.2, 0.3, 0.8], "memories": [0.1, 0.2, 0.6]}

HOSTILE = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.5, 1e308, True, None, "0.1", [0.1], {}]
)
# the empty set, a user 0, unsorted or spaced sets, a one-user signal, a
# per-layer signal name, layers out of range, and a piece no signal carries
LABELS = st.sampled_from(
    ["a[1][{}]", "a[1][{0}]", "a[1][{2,1}]", "a[1][{1, 2}]", "v[{1}]", "v[{1,2,3}]",
     "v[1][{1,2}]", "a[0][{1}]", "a[4][{}]", "u[1][{1,3}][{2}]", "u[1][{1,3}][{1}]",
     "mem[3][3]", "unicast[1][2]", ""]
)
# 10^9 to 10^11 is left out: below the library cap such a run would
# really allocate gigabytes
FILE_SIZES = st.one_of(st.integers(-3, 4000), st.sampled_from([10**13, 10**400]))
RATIOS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-160, 1e160, 1e300, math.inf, -math.inf, math.nan]),
)
SEEDS = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([-1, 0, 2**64]))


@functools.cache
def valid_scheme() -> dict:
    lp, index = build_o2(instance_from_dict(EX1))
    return extract_scheme(solve_lp(lp), index).to_json_dict()


@st.composite
def scheme_texts(draw):
    """A valid scheme file, or one with a single field spoiled or cut short."""
    doc = dict(valid_scheme())
    spoil = draw(st.sampled_from(["none", "label", "value", "K", "count", "drop", "cut"]))
    if spoil == "label":
        doc[draw(LABELS)] = draw(st.one_of(st.floats(0.0, 1.0), HOSTILE))
    elif spoil == "value":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.one_of(HOSTILE, st.floats(-1.0, 2.0)))
    elif spoil == "K":
        doc["K"] = draw(st.sampled_from([0, 11, True, 2.5, "3", 2, 4, 6]))
    elif spoil == "count":
        doc["variable_count"] = draw(st.sampled_from([0, -1, 46, 48, 10**30, True, 47.0, "47"]))
    elif spoil == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    text = json.dumps(doc)
    if spoil == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code


def parses(text: str) -> bool:
    try:
        SchemeSolution.from_json_dict(json.loads(text))
    except (InstanceError, json.JSONDecodeError):
        return False
    return True


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(text=scheme_texts())
def test_scheme_file_exit_codes(text):
    readable = parses(text)
    with tempfile.TemporaryDirectory() as work:
        inst = os.path.join(work, "instance.json")
        scheme = os.path.join(work, "scheme.json")
        with open(inst, "w", encoding="utf-8") as fh:
            json.dump(EX1, fh)
        with open(scheme, "w", encoding="utf-8") as fh:
            fh.write(text)
        code = run(["verify", inst, "--scheme", scheme, "--file-size", "1000"])
    if not readable:
        assert code == 2
    if text == json.dumps(valid_scheme()):
        assert code == 0


@hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
@hypothesis.given(
    option=st.one_of(
        st.tuples(st.just("ratio"), RATIOS),
        st.tuples(st.just("seed"), SEEDS),
        st.tuples(st.just("file-size"), FILE_SIZES),
    )
)
def test_numeric_option_exit_codes(option):
    name, value = option
    with tempfile.TemporaryDirectory() as work:
        inst = os.path.join(work, "instance.json")
        with open(inst, "w", encoding="utf-8") as fh:
            json.dump(EX1, fh)
        if name == "ratio":
            code = run(["compare-baselines", inst, "--points", "2", f"--ratio={value!r}"])
            try:
                square = value**2
            except OverflowError:
                square = math.inf
            fine = value > 0 and 0.0 < square < math.inf
        else:
            code = run(["verify", inst, f"--{name}={value}"])
            fine = value >= 0 if name == "seed" else 1 <= value <= 10**8
    # a refused value exits 2, an accepted one runs to a verdict
    assert (code == 2) != fine
