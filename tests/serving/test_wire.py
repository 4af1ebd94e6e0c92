"""Float parsing on the wire: orjson must read numbers as ``json.loads`` does.

The server parses predict bodies with ``orjson`` and quantizes the
floats it reads, so a parser that rounded one decimal differently would
move an input code.  CPython's ``json.loads`` rounds correctly; these
properties pin orjson to it bit for bit, and pin that orjson rejects
the literals ``json.loads`` would turn into +-inf.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_repr_of_finite_floats_parses_bit_identically(values):
    for v in values:
        assert orjson.loads(repr(v)).hex() == json.loads(repr(v)).hex() == v.hex()


decimal_literals = st.builds(
    lambda sign, lead, rest, point, exp: (
        f"{sign}{lead}{rest[:point]}{'.' if point < len(rest) else ''}"
        f"{rest[point:]}e{exp}"
    ),
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.text("0123456789", max_size=39),
    st.integers(0, 39),
    st.integers(-340, 310),
)


@given(st.lists(decimal_literals, min_size=1, max_size=64))
def test_decimal_literals_parse_bit_identically_or_raise_where_json_overflows(literals):
    for text in literals:
        expected = json.loads(text)
        if math.isfinite(expected):
            assert orjson.loads(text).hex() == expected.hex(), text
        else:
            with pytest.raises(orjson.JSONDecodeError):
                orjson.loads(text)


def test_random_bit_patterns_and_rounding_edges_parse_bit_identically():
    """One array of 50k random finite float64 (subnormals included) plus
    the classic hard cases: subnormal halfway points and DBL_MAX."""
    rng = np.random.default_rng(18)
    values = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    text = "[" + ",".join(map(repr, values[np.isfinite(values)].tolist())) + "]"
    assert np.array_equal(bits(orjson.loads(text)), bits(json.loads(text)))

    edges = [
        "5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
        "2.2250738585072011e-308", "2.2250738585072012e-308",
        "4.9406564584124654e-324", "1.7976931348623157e308",
        "1.7976931348623158e308", "0.1", "-0.0", "1e-400",
    ]
    for text in edges:
        assert orjson.loads(text).hex() == json.loads(text).hex(), text
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads("1.7976931348623159e308")
    assert json.loads("1.7976931348623159e308") == math.inf


def test_only_the_serving_tier_imports_orjson():
    """orjson is a dependency of ``repro.serving`` alone."""
    code = ("import sys, repro, repro.cli, repro.core, repro.inference, "
            "repro.runtime, repro.training; print('orjson' in sys.modules)")
    src = str(Path(repro.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
