"""Hypothesis fuzzing of ``hetcache bounds``: instance files, valid and
hostile, must exit 0 with the enumerated bound or 2, never with a traceback."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

from hetcache.cli import main
from hetcache.model import instance_from_dict
from hetcache.scheme_lp import mask_label

from oracles import cutset_budget_enum, cutset_fixed_enum

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
pytestmark = pytest.mark.usefixtures("own_examples")

# strings, booleans, nulls, non-finite and out-of-range numbers
HOSTILE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.25, 1.5, 1e300, True, False, None]),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


@st.composite
def instance_docs(draw):
    """A valid instance document, or one with a single field spoiled."""
    budget = draw(st.booleans())
    # the 2^K-row budget oracle gets slow beyond eight users
    K = draw(st.integers(1, 8 if budget else 10))
    rates = sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=K, max_size=K)))
    doc = {"K": K, "N": draw(st.integers(K, K + 3)), "rates": rates}
    if budget:
        doc["budget"] = draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))])) * sum(rates)
    else:
        doc["memories"] = [draw(st.sampled_from([0.0, 1.0, draw(st.floats(0.0, 1.0))])) * r
                           for r in rates]
    spoil = draw(st.sampled_from(["none", "none", "K", "N", "rates", "memory", "entry"]))
    if spoil == "N":
        doc["N"] = draw(st.one_of(st.integers(-1, K - 1), HOSTILE))
    elif spoil in ("K", "rates"):
        doc[spoil] = draw(HOSTILE)
    elif spoil == "memory":
        doc["budget" if budget else "memories"] = draw(
            st.one_of(HOSTILE, st.just(2.0 * sum(rates)))
        )
    elif spoil == "entry":
        key = draw(st.sampled_from(["rates"] if budget else ["rates", "memories"]))
        doc[key][draw(st.integers(0, K - 1))] = draw(HOSTILE)
    return doc


@hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
@hypothesis.given(doc=instance_docs())
def test_bounds_exit_codes(doc):
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "instance.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["bounds", path, "--format", "json"])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        return
    assert err.getvalue() == ""
    (row,) = json.loads(out.getvalue())
    inst = instance_from_dict(doc)
    if "budget" in doc:
        assert row["cutset"] == pytest.approx(cutset_budget_enum(inst).value, abs=1e-9)
    else:
        want = cutset_fixed_enum(inst)
        assert row["cutset"] == pytest.approx(want.value, abs=1e-12)
        assert row["binding_users"] == mask_label(want.binding_set)
