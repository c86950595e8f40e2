"""Property test: ingest_table fails only with its typed errors.

Documents are drawn near the table schema, mostly valid field by field,
with any field liable to be replaced by arbitrary JSON or a near miss.
They pass through json.dumps/json.loads as a file would, so NaN, Infinity
and integers of any size all reach the validator.
"""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentcert import CorrelatorTable, DuplicateMoment, RangeError, SchemaError, ingest_table

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# Numbers JSON can carry that no float in [-1, 1] or sigma >= 0 matches.
odd_numbers = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -0.5]) | st.floats() | st.integers()


def _mostly(draw, usual, rare):
    """A draw from ``usual`` three times in four, else from ``rare``."""
    return draw(rare) if draw(st.integers(0, 3)) == 0 else draw(usual)


def _or_junk(draw, strategy):
    """A draw from ``strategy``, or one time in eight arbitrary JSON."""
    return draw(json_values) if draw(st.integers(0, 7)) == 0 else draw(strategy)


@st.composite
def moment(draw, parties, settings_count):
    chosen = sorted(draw(st.lists(st.integers(1, parties), min_size=1, max_size=parties, unique=True)))
    item = {
        "parties": _or_junk(draw, st.just(chosen)),
        "settings": _or_junk(
            draw, st.lists(st.integers(0, settings_count - 1), min_size=len(chosen), max_size=len(chosen))
        ),
        "value": _or_junk(draw, st.just(_mostly(draw, st.floats(-1.0, 1.0), odd_numbers))),
    }
    if draw(st.booleans()):
        item["sigma"] = _or_junk(draw, st.just(_mostly(draw, st.floats(0.0, 1.0), odd_numbers)))
    return item


@st.composite
def documents(draw):
    parties = draw(st.integers(1, 3))
    settings_count = draw(st.integers(1, 2))
    scenario = {"parties": parties, "settings": settings_count}
    if draw(st.booleans()):
        scenario["outcomes"] = _mostly(draw, st.just(2), st.integers(1, 3))
    # Near misses such as 1.0 and true compare equal to 1.
    version = _mostly(draw, st.just(1), st.sampled_from([1.0, True, 2]))
    return {
        "schema_version": _or_junk(draw, st.just(version)),
        "scenario": _or_junk(draw, st.just(scenario)),
        "moments": _or_junk(draw, st.lists(moment(parties, settings_count), max_size=4)),
    }


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(*[documents()] * 7, json_values))
@example({
    "schema_version": 1,
    "scenario": {"parties": 1, "settings": 1},
    "moments": [{"parties": [1], "settings": [0], "value": 0.5, "sigma": math.inf}],
})
def test_ingest_table_raises_only_typed_errors(document):
    try:
        table = ingest_table(json.loads(json.dumps(document)))
    except (SchemaError, RangeError, DuplicateMoment):
        return
    assert isinstance(table, CorrelatorTable)
