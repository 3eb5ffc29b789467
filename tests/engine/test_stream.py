"""Chunk-boundary streaming semantics.

Property: ``scan_stream`` over *any* chunking of a stream equals
``scan`` over the concatenated buffer -- including ``^``/``$``-anchored
rules, nullable rules, and matches whose counter/bit-vector state spans
a chunk boundary.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.scanner import ReportSet
from repro.matching import RulesetMatcher

#: rules chosen so that chunk boundaries can fall inside counter runs,
#: bit-vector gaps, and anchored matches
RULES = [
    ("lit", r"abc"),
    ("start", r"^ab"),
    ("end", r"bc$"),
    ("nullable", r"c*"),
    ("counter", r"[^a]a{3,5}"),
    ("gap", r"b.{2,4}c"),
    ("exact", r"^[abc]{4}$"),
]

_MATCHERS: dict = {}


def matcher() -> RulesetMatcher:
    # module-level cache: compilation dominates test time otherwise
    if "m" not in _MATCHERS:
        _MATCHERS["m"] = RulesetMatcher(RULES)
    return _MATCHERS["m"]


def chunkings(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({min(c, len(data)) for c in cuts})
    chunks = []
    prev = 0
    for point in points:
        chunks.append(data[prev:point])
        prev = point
    chunks.append(data[prev:])
    return chunks


small_data = st.lists(
    st.sampled_from(list(b"abcx")), max_size=40
).map(bytes)


@given(
    data=small_data,
    cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_any_chunking_equals_single_buffer(data, cuts):
    m = matcher()
    whole = m.scan(data)
    chunked = m.scan_stream(chunkings(data, cuts))
    assert chunked == whole


@given(data=small_data)
@settings(max_examples=40, deadline=None)
def test_byte_at_a_time_equals_single_buffer(data):
    m = matcher()
    whole = m.scan(data)
    drip = m.scan_stream(bytes([b]) for b in data)
    assert drip == whole


def test_counter_run_across_boundary():
    m = matcher()
    # the a{3,5} run straddles the cut: counter state must carry over
    result = m.scan_stream([b"xaa", b"aaz"])
    assert result.matches["counter"] == m.scan(b"xaaaaz").matches["counter"]
    assert 5 in result.matches["counter"]


def test_end_anchor_gated_at_stream_end_only():
    m = matcher()
    # 'bc' occurs mid-stream and at the end; only the final occurrence
    # survives the $ gate, and gating happens at finish() time
    result = m.scan_stream([b"abc", b"x", b"abc"])
    assert result.matches["end"] == [7]
    assert m.scan(b"abcxabc").matches["end"] == [7]


def test_start_anchor_only_fires_on_first_chunk():
    m = matcher()
    result = m.scan_stream([b"ab", b"ab"])
    assert result.matches["start"] == [2]


def test_nullable_rule_never_reports():
    m = matcher()
    assert "nullable" not in m.scan_stream([b"ab", b"ab"]).matches
    assert m.empty_match_rules() == {"nullable"}


def test_empty_chunks_are_harmless():
    m = matcher()
    assert m.scan_stream([b"", b"abc", b"", b""]) == m.scan(b"abc")


def test_str_chunks_accepted():
    m = matcher()
    assert m.scan_stream(["ab", "c"]).matches["lit"] == [3]


def test_bytearray_and_memoryview_chunks_accepted():
    """Every bytes-like flavour behaves identically in the streaming
    path (not just the one-shot scan_bytes special case)."""
    m = matcher()
    want = m.scan(b"xabcx").matches
    assert m.scan_stream([bytearray(b"xab"), bytearray(b"cx")]).matches == want
    assert m.scan_stream([memoryview(b"xab"), memoryview(b"cx")]).matches == want
    assert m.scan(bytearray(b"xabcx")).matches == want
    assert m.scan(memoryview(b"xabcx")).matches == want
    # non-contiguous views are recast via copy, not rejected
    strided = memoryview(b"xxaxbxcxxx")[::2]
    assert m.scan(strided).matches == m.scan(b"xabcx").matches


def test_mixed_chunk_flavours_in_one_stream():
    m = matcher()
    chunks = [b"xa", bytearray(b"b"), memoryview(b"c"), "x"]
    assert m.scan_stream(chunks).matches == m.scan(b"xabcx").matches


def test_non_latin1_str_raises_clear_value_error():
    """A bare UnicodeEncodeError out of the scanner guts is a bug; the
    error must say what to do instead (pass bytes)."""
    from repro.engine.scanner import StreamScanner

    m = matcher()
    for trigger in (
        lambda: m.scan("caf€"),
        lambda: m.scan_stream(["ab", "€"]),
        lambda: StreamScanner(m.tables).feed("☃"),
    ):
        with pytest.raises(ValueError, match="latin-1.*pass\\s+bytes") as exc_info:
            trigger()
        assert not isinstance(exc_info.value, UnicodeEncodeError)


def test_non_bytes_chunk_raises_type_error():
    m = matcher()
    with pytest.raises(TypeError, match="bytes-like or str"):
        m.scan(12345)


def test_stream_energy_matches_single_buffer():
    m = matcher()
    data = b"xaaaab" * 50
    assert (
        m.scan_stream([data[:73], data[73:]]).energy_nj_per_byte
        == m.scan(data).energy_nj_per_byte
    )


class TestReportSet:
    """The scanner's compact report store stands in for a ``set``."""

    def test_equals_the_set_of_its_pairs(self):
        pairs = [(9, "a"), (3, "b"), (3, "a"), (7, None), (5, "a")]  # unordered
        reports = ReportSet(pairs)
        want = set(pairs)
        assert reports == want and want == reports
        assert len(reports) == 5 and set(reports) == want
        assert (3, "a") in reports
        assert (4, "a") not in reports and (3, "c") not in reports
        assert "junk" not in reports and ("x", "a") not in reports
        assert not reports.record(5, "a")
        assert reports | {(1, "z")} == want | {(1, "z")}
        assert pickle.loads(pickle.dumps(reports)) == want
