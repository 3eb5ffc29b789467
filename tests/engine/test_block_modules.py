"""In-sweep counter/bit-vector execution (`engine.block_modules`).

Three layers of proof that module state is exact under vector sweeps:

* analyze-level: which wirings the block scanner absorbs into closed
  forms and which it rejects (the optimistic-rescan fallback);
* chunk-boundary properties: counter registers and bit-vector shift
  registers carry exactly across ``feed()`` splits at **every** split
  point of a matching window, with sweeps committing (zero rescans);
* a long-input property: many overlapping entries per block, with the
  block scanner's reports, stats and carried scalar state equal to the
  interpreter's after every ``feed()``;
* the disable-streak decay: a module-dense burst turns sweeps off,
  module-quiescent input turns them back on, equivalence holds across
  the whole disable/re-enable arc;
* both STE lane forms at tiny block sizes: with the sweep's cuts forced
  all-sparse and then all-dense, the every-split and long-input
  properties hold again, so sparse STEs hand off to dense modules and
  on to sparse successors exactly at every block length.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.block as block_engine
from repro.compiler.emit import Decision, emit_network, plan_decisions
from repro.compiler.pipeline import compile_pattern, compile_ruleset
from repro.engine.block import BlockScanner, BlockSweepStats, _program_for
from repro.engine.scanner import StreamScanner
from repro.engine.tables import compile_tables
from repro.regex.parser import parse
from repro.regex.rewrite import simplify
from tests.helpers import forced_lane_form

pytestmark = pytest.mark.skipif(
    block_engine.numpy_or_none() is None,
    reason="numpy not installed (block backend unavailable)",
)

_TABLES_CACHE: dict = {}


def _tables(pattern):
    tables = _TABLES_CACHE.get(pattern)
    if tables is None:
        tables = compile_tables(compile_pattern(pattern, report_id="p").network)
        _TABLES_CACHE[pattern] = tables
    return tables


def _want(tables, data):
    reference = StreamScanner(tables)
    reference.feed(data)
    return reference.finish(), reference.stats


def _carried_state(scanner):
    return (
        scanner._enabled,
        scanner._cycle,
        scanner._counts,
        scanner._bv,
        scanner._pre,
        scanner._dirty,
    )


def _assert_every_split_exact(tables, data, block_size):
    """Feed ``data`` split at every possible point; each split must
    carry the interpreter's scalar state across the split and
    reproduce the one-shot reference exactly, with every sweep
    committing (the whole point of in-lane module execution).  Returns
    the sparse STE lanes the block scanners evaluated."""
    want_reports, want_stats = _want(tables, data)
    sparse_lanes = 0
    for split in range(len(data) + 1):
        scanner = BlockScanner(tables, block_size=block_size)
        scanner.feed(data[:split])
        context = (data, split, block_size)
        head = StreamScanner(tables)
        head.feed(data[:split])
        assert _carried_state(scanner._scalar) == _carried_state(head), context
        scanner.feed(data[split:])
        assert scanner.finish() == want_reports, context
        assert scanner.stats.equivalent(want_stats), context
        sweep = scanner.sweep_stats
        assert sweep.modules_vectorized, context
        assert sweep.rescans == 0, context
        sparse_lanes += sweep.sparse_lanes
    return sparse_lanes


class TestAnalyze:
    """Which tables the sweep absorbs vs. rejects."""

    @pytest.mark.parametrize(
        "pattern",
        [r"[^a]a{3,9}", r"b.{2,4}c", r"x[ab]{2,6}y", r"ba{2,2}c"],
    )
    def test_one_ste_loops_vectorize(self, pattern):
        program = _program_for(_tables(pattern))
        assert program.full_ok
        assert any(plan.absorbed is not None for plan in program.mod_plans)

    def test_all_input_bit_vector_runs_free_standing(self):
        # `.` bodies pair with an always-on STE, so the module is not
        # absorbed -- but its lanes still evaluate inside the sweep
        program = _program_for(_tables(r".{3,5}z"))
        assert program.full_ok
        assert all(plan.absorbed is None for plan in program.mod_plans)

    def test_multi_ste_body_falls_back(self):
        # (ab){2,3}: both body STEs drive the counter's fst/lst ports,
        # outside every absorption template -> optimistic path
        program = _program_for(_tables(r"x(ab){2,3}y"))
        assert not program.full_ok
        assert program.vector_ok  # STE graph itself is still fine

    def test_module_free_tables_unchanged(self):
        program = _program_for(_tables(r"abc"))
        assert program.pure and program.full_ok and program.vector_ok
        assert program.mod_plans is None


class TestChunkBoundaryProperties:
    """Satellite: module state carries exactly across feed() splits."""

    @given(
        lo=st.integers(min_value=2, max_value=6),
        extra=st.integers(min_value=0, max_value=3),
        run=st.integers(min_value=1, max_value=9),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_counter_register_across_every_split(self, lo, extra, run, block_size):
        hi = lo + extra
        tables = _tables(f"[^a]a{{{lo},{hi}}}")
        data = b"ca" + b"x" + b"a" * run + b"bc"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        gap=st.integers(min_value=0, max_value=7),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_vector_register_across_every_split(self, lo, extra, gap, block_size):
        hi = lo + extra
        tables = _tables(f"b.{{{lo},{hi}}}c")
        # overlapping b's keep several tokens of different ages alive;
        # `.` excludes the newline, which kills every live token
        data = b"bb" + b"x" * gap + b"c" + b"b" + b"c" + b"bbx\n" + b"x" * gap + b"c"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=2, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
        run=st.integers(min_value=1, max_value=8),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_input_bit_vector_across_every_split(self, lo, extra, run, block_size):
        hi = lo + extra
        tables = _tables(f".{{{lo},{hi}}}z")
        # the newline breaks the `.` body under every carried token
        data = b"ab" * run + b"z" + b"a\nab" * 2 + b"az"
        _assert_every_split_exact(tables, data, block_size)

    @pytest.mark.parametrize("pattern", [r"[ab]a{2,4}", r"[^b]a{2,3}b"])
    @pytest.mark.parametrize("block_size", [2, 3, 5, 64])
    def test_forced_counter_resets_on_every_entry(self, pattern, block_size):
        # a counter forced onto a repetition whose head overlaps its
        # body (the compiler would pick a bit vector): every entry
        # inside a live run resets the register, so it never reaches lo
        ast = simplify(parse(pattern).ast)
        decisions = {i: Decision.COUNTER for i in plan_decisions(ast, {})}
        tables = compile_tables(emit_network(ast, decisions, report_id="p").network)
        assert any(plan.absorbed is not None for plan in _program_for(tables).mod_plans)
        data = b"baaaaab xaaab aaaaaaab"
        _assert_every_split_exact(tables, data, block_size)

    @given(
        lo=st.integers(min_value=2, max_value=4),
        extra=st.integers(min_value=0, max_value=2),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_mixed_ruleset_across_every_split(self, lo, extra, block_size):
        hi = lo + extra
        key = ("mixed", lo, hi)
        tables = _TABLES_CACHE.get(key)
        if tables is None:
            rules = [
                ("ctr", f"[^a]a{{{lo},{hi}}}"),
                ("gap", f"b.{{{lo},{hi}}}c"),
                ("lit", "abc"),
            ]
            tables = compile_tables(compile_ruleset(rules).network)
            _TABLES_CACHE[key] = tables
        data = b"xa" * hi + b"b" + b"y" * lo + b"cabc"
        _assert_every_split_exact(tables, data, block_size)


#: `{lo,hi}` shapes over a small alphabet: absorbed counters, absorbed
#: and ALL_INPUT bit vectors (whose `.` bodies break on the newline),
#: class-run bodies and chained modules
_LONG_SHAPES = [
    "{head}a{{{lo},{hi}}}",
    "b.{{{lo},{hi}}}c",
    ".{{{lo},{hi}}}c",
    "[ab]{{{lo},{hi}}}c",
    "{head}a{{{lo},{hi}}}b{{1,{lo}}}",
]


@st.composite
def _long_rule(draw, tag):
    lo = draw(st.integers(min_value=1, max_value=20))
    hi = lo + draw(st.integers(min_value=0, max_value=20))
    if hi == 1:
        hi = 2  # `a{1,1}` simplifies to a plain STE
    shape = draw(st.sampled_from(_LONG_SHAPES))
    head = draw(st.sampled_from(["b", "[^a]", "c"]))
    return (tag, shape.format(head=head, lo=lo, hi=hi))


class TestLongInputProperty:
    """Hundreds of bytes per block and ``hi`` up to 40: many tokens of
    different ages overlap inside one block, and the carried state must
    match the interpreter's at every chunk boundary."""

    @given(
        rules=st.integers(min_value=1, max_value=3).flatmap(
            lambda k: st.tuples(*[_long_rule(tag=f"r{i}") for i in range(k)])
        ),
        alphabet=st.sampled_from([b"abc", b"ab\n", b"abc\n", b"aab\n"]),
        data=st.data(),
        block_size=st.sampled_from([7, 64, 1024]),
    )
    @settings(max_examples=25, deadline=None)
    def test_state_equals_interpreter_after_every_feed(
        self, rules, alphabet, data, block_size
    ):
        text, cuts = _long_text(data, alphabet)
        _assert_long_input_exact(rules, text, cuts, block_size)


def _long_text(data, alphabet):
    """Up to 2,000 bytes of runs of one byte each (the draws of
    :class:`TestLongInputProperty`), plus up to four feed cut points."""
    # runs of one byte let a lone token age out at a block boundary
    runs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(list(alphabet)), st.integers(1, 45)),
            min_size=1,
            max_size=120,
        )
    )
    text = b"".join(bytes([byte]) * length for byte, length in runs)
    text = (text * (200 // len(text) + 1))[:2000]
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(text)), min_size=1, max_size=4))
    )
    return text, cuts


def _assert_long_input_exact(rules, text, cuts, block_size):
    """Feed ``text`` cut at ``cuts`` to the block and the scalar
    scanner; reports, stats and carried state must agree after every
    feed.  Returns the sparse STE lanes the block scanner evaluated."""
    key = ("long",) + rules
    tables = _TABLES_CACHE.get(key)
    if tables is None:
        tables = compile_tables(compile_ruleset(list(rules)).network)
        _TABLES_CACHE[key] = tables
    block = BlockScanner(tables, block_size=block_size)
    stream = StreamScanner(tables)
    for start, end in zip([0] + cuts, cuts + [len(text)]):
        block.feed(text[start:end])
        stream.feed(text[start:end])
        context = (rules, start, end)
        assert block.reports == stream.reports, context
        assert block.stats.equivalent(stream.stats), context
        assert _carried_state(block._scalar) == _carried_state(stream), context
    assert block.sweep_stats.modules_vectorized
    return block.sweep_stats.sparse_lanes


@pytest.mark.parametrize("form", ["sparse", "dense"])
class TestForcedLaneForms:
    """The chunk-boundary and long-input properties with every eligible
    STE lane forced sparse, then dense, at block sizes 2 to 1024.  In
    the sparse form a module's sparse drivers reach it as positions and
    its dense output lanes feed sparse successors: every hand-off
    between the two forms lands on a block boundary somewhere."""

    @staticmethod
    def _assert_form(form, sparse_lanes):
        if form == "sparse":
            assert sparse_lanes > 0
        else:
            assert sparse_lanes == 0

    @given(
        lo=st.integers(min_value=2, max_value=4),
        extra=st.integers(min_value=0, max_value=2),
        block_size=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_mixed_ruleset_across_every_split(self, form, lo, extra, block_size):
        hi = lo + extra
        key = ("mixed", lo, hi)
        tables = _TABLES_CACHE.get(key)
        if tables is None:
            rules = [
                ("ctr", f"[^a]a{{{lo},{hi}}}"),
                ("gap", f"b.{{{lo},{hi}}}c"),
                ("lit", "abc"),
            ]
            tables = compile_tables(compile_ruleset(rules).network)
            _TABLES_CACHE[key] = tables
        data = b"xa" * hi + b"b" + b"y" * lo + b"cabc"
        with forced_lane_form(form):
            sparse_lanes = _assert_every_split_exact(tables, data, block_size)
        self._assert_form(form, sparse_lanes)

    @pytest.mark.parametrize(
        "pattern",
        [r"[^a]a{2,5}bc", r"xb.{1,3}cd", r"ab[ab]{2,4}c", r"ab(c|d)e", r"x(ab|[ab]b)d"],
    )
    @pytest.mark.parametrize("block_size", [2, 3, 7])
    def test_single_rule_across_every_split(self, form, pattern, block_size):
        # `x(ab|[ab]b)d`: both predecessors of `d` fire on "xab", so
        # its sparse candidates must be deduplicated
        data = b"xaaabcab xbabcd abbabcabdeabce aaaaabcd xabd"
        with forced_lane_form(form):
            sparse_lanes = _assert_every_split_exact(_tables(pattern), data, block_size)
        self._assert_form(form, sparse_lanes)

    @given(
        rules=st.integers(min_value=1, max_value=3).flatmap(
            lambda k: st.tuples(*[_long_rule(tag=f"r{i}") for i in range(k)])
        ),
        alphabet=st.sampled_from([b"abc", b"ab\n", b"abc\n", b"aab\n"]),
        data=st.data(),
        block_size=st.sampled_from([2, 7, 64, 1024]),
    )
    @settings(max_examples=20, deadline=None)
    def test_state_equals_interpreter_after_every_feed(
        self, form, rules, alphabet, data, block_size
    ):
        text, cuts = _long_text(data, alphabet)
        with forced_lane_form(form):
            sparse_lanes = _assert_long_input_exact(rules, text, cuts, block_size)
        if form == "dense":
            assert sparse_lanes == 0


class TestSweepStats:
    """Satellite: rescans/commits surfaced, not inferred."""

    def test_zero_rescans_assertable_on_vectorized_modules(self):
        tables = _tables(r"[^a]a{3,9}")
        scanner = BlockScanner(tables, block_size=16)
        scanner.feed(b"xaaaa baaab zaaaaaaaaaz " * 50)
        sweep = scanner.sweep_stats
        assert isinstance(sweep, BlockSweepStats)
        assert sweep.modules_vectorized
        assert sweep.rescans == 0
        assert sweep.committed_blocks > 0
        assert not sweep.sweeps_disabled

    def test_rescans_counted_on_fallback_wiring(self):
        tables = _tables(r"x(ab){2,3}y")
        scanner = BlockScanner(tables, block_size=16)
        scanner.feed(b"xababy" + b"z" * 26)
        sweep = scanner.sweep_stats
        assert not sweep.modules_vectorized
        assert sweep.rescans >= 1
        assert sweep.rescans == scanner._rescans

    def test_reset_clears_sweep_stats(self):
        scanner = BlockScanner(_tables(r"[^a]a{3,9}"), block_size=16)
        scanner.feed(b"xaaaa" * 40)
        assert scanner.sweep_stats.committed_blocks > 0
        scanner.reset()
        sweep = scanner.sweep_stats
        assert sweep.committed_blocks == 0 and sweep.rescans == 0
        assert sweep.reenables == 0 and not sweep.sweeps_disabled


class TestDisableStreakDecay:
    """Satellite: the vector-disable streak decays instead of lasting
    for the stream's lifetime."""

    def test_sweeps_rearm_after_quiescent_blocks(self):
        tables = _tables(r"x(ab){2,3}y")
        block = 16
        scanner = BlockScanner(tables, block_size=block)
        # module-dense phase: every sweep aborts until the streak trips
        dense = b"xababy xabababy " * 64
        scanner.feed(dense)
        assert scanner.sweep_stats.sweeps_disabled
        # module-quiescent phase: after _REENABLE_AFTER clean blocks
        # the scanner must start sweeping again
        quiet = b"z" * (block_engine._REENABLE_AFTER * block + block)
        scanner.feed(quiet)
        sweep = scanner.sweep_stats
        assert not sweep.sweeps_disabled
        assert sweep.reenables == 1
        committed_before = sweep.committed_blocks
        scanner.feed(b"z" * (4 * block))
        assert scanner.sweep_stats.committed_blocks > committed_before

    def test_module_activity_resets_the_quiescence_clock(self):
        tables = _tables(r"x(ab){2,3}y")
        block = 16
        scanner = BlockScanner(tables, block_size=block)
        scanner.feed(b"xababy xabababy " * 64)
        assert scanner.sweep_stats.sweeps_disabled
        # keep poking the counter inside every would-be-quiet window:
        # the decay clock must never reach the re-enable threshold
        for _ in range(8):
            scanner.feed(b"xab" + b"z" * (block - 3))
        sweep = scanner.sweep_stats
        assert sweep.sweeps_disabled
        assert sweep.reenables == 0

    def test_equivalence_across_disable_and_reenable(self):
        tables = _tables(r"x(ab){2,3}y")
        block = 16
        data = (
            b"xababy xabababy " * 64  # disable
            + b"z" * (block_engine._REENABLE_AFTER * block + block)  # re-arm
            + b"xababy" + b"z" * 40  # post-re-enable matches
        )
        want_reports, want_stats = _want(tables, data)
        scanner = BlockScanner(tables, block_size=block)
        for offset in range(0, len(data), 48):
            scanner.feed(data[offset : offset + 48])
        assert scanner.finish() == want_reports
        assert scanner.stats.equivalent(want_stats)
        assert scanner.sweep_stats.reenables >= 1
