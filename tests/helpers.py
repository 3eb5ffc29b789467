"""Shared test utilities: regex strategies and engine-agreement checks."""

from __future__ import annotations

import contextlib
import random

from hypothesis import strategies as st

from repro.nca.counting_sets import counting_match_ends
from repro.nca.execution import nca_match_ends
from repro.nca.glushkov import build_nca
from repro.regex.ast import (
    EPSILON,
    Regex,
    Sym,
    alternation,
    concat,
    repeat,
    star,
)
from repro.regex.charclass import CharClass
from repro.regex.oracle import match_ends
from repro.regex.rewrite import simplify

#: Small alphabet used by the property tests: enough to produce
#: overlapping classes (the source of interesting ambiguity) while
#: keeping input spaces searchable.
ALPHABET = b"abc"


def char_classes() -> st.SearchStrategy[CharClass]:
    """Non-empty classes over the small alphabet, plus their complements."""
    subsets = st.sets(st.sampled_from(list(ALPHABET)), min_size=1, max_size=3)
    return st.builds(CharClass.of_bytes, subsets) | st.builds(
        lambda s: CharClass.of_bytes(s).complement(),
        st.sets(st.sampled_from(list(ALPHABET)), min_size=1, max_size=2),
    )


def regexes(max_depth: int = 3, max_bound: int = 5) -> st.SearchStrategy[Regex]:
    """Random regex ASTs with counting, at most ``max_depth`` deep."""
    leaves = st.builds(Sym, char_classes()) | st.just(EPSILON)

    def extend(children: st.SearchStrategy[Regex]) -> st.SearchStrategy[Regex]:
        pair = st.tuples(children, children)
        bounds = st.tuples(
            st.integers(min_value=0, max_value=max_bound),
            st.integers(min_value=2, max_value=max_bound),
        )
        return st.one_of(
            st.builds(lambda ab: concat(*ab), pair),
            st.builds(lambda ab: alternation(*ab), pair),
            st.builds(star, children),
            st.builds(
                lambda c_b: repeat(c_b[0], min(c_b[1][0], c_b[1][1]), c_b[1][1]),
                st.tuples(children, bounds),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def inputs(max_len: int = 12) -> st.SearchStrategy[bytes]:
    return st.binary(max_size=max_len).map(
        lambda raw: bytes(ALPHABET[b % len(ALPHABET)] for b in raw)
    )


def engines_match_ends(ast: Regex, data: bytes) -> tuple[list[int], list[int], list[int]]:
    """(oracle, token-interpreter, counting-set) report positions."""
    simplified = simplify(ast)
    want = [e for e in match_ends(simplified, data)]
    nca = build_nca(simplified)
    got_tokens = nca_match_ends(nca, data)
    got_counting = counting_match_ends(nca, data)
    return want, got_tokens, got_counting


def random_strings(alphabet: str, count: int, max_len: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


@contextlib.contextmanager
def forced_lane_form(form: str):
    """Run the block sweep with every eligible STE lane in one form.

    ``"sparse"`` lifts both cuts of :mod:`repro.engine.block` so that
    every STE outside the always-dense kinds (always-on heads,
    self-loops) is evaluated as sorted positions, at any block length;
    ``"dense"`` evaluates every STE as a boolean lane."""
    import repro.engine.block as block_engine

    saved = (block_engine._SPARSE_MIN_BLOCK, block_engine._SPARSE_MAX_SHARE)
    if form == "sparse":
        block_engine._SPARSE_MIN_BLOCK = 0
        block_engine._SPARSE_MAX_SHARE = float("inf")
    elif form == "dense":
        block_engine._SPARSE_MIN_BLOCK = float("inf")
    else:
        raise ValueError(f"unknown lane form {form!r}")
    try:
        yield
    finally:
        block_engine._SPARSE_MIN_BLOCK, block_engine._SPARSE_MAX_SHARE = saved
