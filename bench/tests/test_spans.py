import asyncio

import pytest

from spans import (
    LAYERS,
    Tracer,
    _resolve,
    covered,
    layer_totals,
    read_jsonl,
    self_times,
)


def test_covered_merges_overlapping_and_clips_to_the_span():
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == pytest.approx(5)
    assert covered(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(3)
    assert covered(0, 10, [(11, 12)]) == 0
    assert covered(0, 10, []) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (0, "parent", 0.0, 10.0, None, None),
        (1, "child", 1.0, 4.0, 0, None),
        (2, "child", 3.0, 6.0, 0, None),   # overlaps the first child
        (3, "grandchild", 2.0, 3.0, 1, None),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10 - 5)
    assert selfs[1] == pytest.approx(3 - 1)
    assert selfs[2] == pytest.approx(3)
    assert selfs[3] == pytest.approx(1)


def test_a_round_is_a_child_of_every_request_it_served():
    spans = [
        (0, "submit", 0.0, 5.0, None, {"trace": "a"}),
        (1, "submit", 1.0, 5.5, None, {"trace": "b"}),
        (2, "serve_round", 3.0, 4.0, None, {"links": ["a", "b"],
                                             "size": 2}),
        (3, "append_batch", 3.2, 3.6, 2, None),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(4.0)   # queue wait of request a
    assert selfs[1] == pytest.approx(3.5)
    assert selfs[2] == pytest.approx(0.6)   # counted once, not per parent
    assert selfs[3] == pytest.approx(0.4)


def test_layer_totals_count_only_spans_starting_inside_an_op():
    layers = (("x", "", "", None),)
    spans = [(0, "x", 1.0, 2.0, None, None), (1, "x", 5.0, 6.0, None, None),
             (2, "x", 9.0, 9.5, None, {"size": 3})]
    totals = layer_totals(spans, self_times(spans), [(0.5, 2.5), (8, 10)],
                          layers)
    assert totals["x"]["calls"] == 2
    assert totals["x"]["self_s"] == pytest.approx(1.5)
    assert totals["x"]["sizes"] == [3]


def test_restore_puts_back_every_patched_attribute_by_identity():
    originals = {(target, attr): vars(_resolve(target))[attr]
                 for _, target, attr, _ in LAYERS}
    tracer = Tracer()
    tracer.install()
    try:
        for (target, attr), original in originals.items():
            assert vars(_resolve(target))[attr] is not original
    finally:
        tracer.restore()
    for (target, attr), original in originals.items():
        assert vars(_resolve(target))[attr] is original
    tracer.restore()  # idempotent
    for (target, attr), original in originals.items():
        assert vars(_resolve(target))[attr] is original


class _Owner:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    async def waits(self, tenant, rid=None, trace=None):
        await asyncio.sleep(0)
        return self.inner()


def test_wrapped_calls_record_parents_and_trace_ids(tmp_path):
    owner = f"{__name__}:_Owner"
    layers = (("outer", owner, "outer", None),
              ("inner", owner, "inner", None),
              ("waits", owner, "waits",
               lambda args, kwargs: {"trace": kwargs.get("trace")}))
    tracer = Tracer(layers)
    tracer.install()
    try:
        assert _Owner().outer() == 2
        assert asyncio.run(_Owner().waits("t", trace="tr-1")) == 1
    finally:
        tracer.restore()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    outer, = by_name["outer"]
    waits, = by_name["waits"]
    inner_parents = sorted(span[4] for span in by_name["inner"])
    assert inner_parents == sorted([outer[0], waits[0]])
    assert waits[5] == {"trace": "tr-1"}
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    assert read_jsonl(str(path)) == tracer.spans
