"""The reference JSON encoding and hypothesis strategies for format pins.

WAL lines and protocol frames are pinned to :func:`reference_json`: a
fresh ``json.dumps`` call with sorted keys and no spaces, which is what
both wrote before they shared one encoder.
"""

import json

from hypothesis import strategies as st


def reference_json(obj) -> str:
    """The canonical encoding, through ``json.dumps``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: Characters JSON must escape or that ``ensure_ascii`` turns into
#: ``\\uXXXX`` escapes (a surrogate pair for the last one).
AWKWARD = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x85\u2028\xe9\u20ac\U0001f600'

texts = st.text(st.one_of(st.sampled_from(AWKWARD), st.characters()),
                max_size=12)
ints = st.one_of(st.integers(-5, 70000),
                 st.integers(-(2 ** 80), 2 ** 80))
floats = st.one_of(st.floats(), st.sampled_from([1e4 / 3, 1e300, 5e-324,
                                                 -0.0, 2.0 ** 63]))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=12)

faults = st.fixed_dictionaries({}, optional={
    "misfire_rate": floats, "corruption_rate": floats,
    "timeout_rate": floats, "temperature_c": floats,
    "rs_fallback": st.booleans(), "max_attempts": ints,
    "max_accesses": st.none() | ints})
capacity = st.fixed_dictionaries({}, optional={
    "horizon": ints, "warn_probability": floats,
    "refuse_probability": floats})

provision_records = st.fixed_dictionaries({
    "op": st.just("provision"), "tenant": texts, "alpha": floats,
    "beta": floats, "n": ints, "k": ints, "copies": ints, "seed": ints,
    "secret": texts, "scheme": st.sampled_from(["shamir", "rs"]),
    "faults": st.none() | faults, "capacity": st.none() | capacity})
access_records = st.fixed_dictionaries(
    {"op": st.just("access"), "tenant": texts},
    optional={"rid": texts, "trace": texts})
#: What the hub appends to the WAL, with the field values stretched.
wal_records = st.one_of(provision_records, access_records)
#: Frame payloads: requests and responses are JSON objects.
payloads = st.one_of(wal_records,
                     st.dictionaries(texts, json_values, max_size=6))
