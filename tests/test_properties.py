"""Property tests: the config language over mutants of the reference configs,
and beam search against exhaustive enumeration on random toy models.

Hypothesis runs derandomized with a fixed example budget, so every run
draws the same examples.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrig.configlang import (SEQUENCE, ParseError, deep_equal, parse_config,
                               resolve_anchors, serialize_config)
from seqrig.inference import SearchSpec, decode

from conftest import DECODE_CONFIG, STANDARD_CONFIG, TIED_CONFIG, fill
from helpers import PrefixTableModel, enumerate_hypotheses

BASES = [fill(t, "data", "out") for t in (STANDARD_CONFIG, TIED_CONFIG, DECODE_CONFIG)]
# characters that carry syntax, plus a few that do not
ALPHABET = list("{}[],:\"'!&*#- \n\\~\tabz09.")

FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=400)


@st.composite
def mutants(draw) -> str:
    """A reference config with one to three character edits, quoted words or
    trailing comments."""
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["insert", "delete", "replace", "quote", "comment"]))
        if op == "insert":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        elif op == "replace":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos + 1:]
        elif op == "comment":
            # end the line at pos with a comment that holds quotes and tabs
            eol = text.find("\n", pos)
            eol = len(text) if eol < 0 else eol
            comment = (draw(st.sampled_from([" ", "\t", " \t"])) + "#"
                       + draw(st.text(alphabet="\"'\t #:a", max_size=6)))
            text = text[:eol] + comment + text[eol:]
        else:
            # wrap the word that starts at or after pos in quotes
            start = pos
            while start < len(text) and not text[start].isalpha():
                start += 1
            end = start
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            quote = draw(st.sampled_from(['"', "'"]))
            text = text[:start] + quote + text[start:end] + quote + text[end:]
    return text


def _parse_or_none(text: str):
    try:
        return parse_config(text)
    except ParseError:
        return None


@FIXED
@given(mutants())
@example("a: {b:")
def test_mutant_parses_or_raises_parse_error(text):
    _parse_or_none(text)


@FIXED
@given(mutants())
@example("")
@example("{}\n")
@example("# only a comment\n")
@example('b"c: x #y\n')
@example('a: "x\t#y"\n')
def test_serialize_parse_is_a_fixed_point(text):
    tree = _parse_or_none(text)
    if tree is None:
        return
    try:
        tree = resolve_anchors(tree)
    except ParseError:
        return
    once = serialize_config(tree)
    again = parse_config(once)
    assert deep_equal(tree, again)
    assert serialize_config(again) == once


@FIXED
@given(st.text(alphabet="ab:'\"# \t", min_size=1, max_size=8),
       st.sampled_from([" # note", "\t# it's", " \t#", ' # d"']))
@example("it's", " # note")
@example('b"c', ' # d"')
def test_trailing_comment_reads_as_nothing(value, comment):
    bare = _parse_or_none(f"a: {value}\n")
    if bare is not None:
        assert deep_equal(parse_config(f"a: {value}{comment}\n"), bare)


@FIXED
@given(st.text(alphabet="[]1, x", max_size=6).map(lambda s: "[" + s))
@example("[1, 2]")
def test_flow_sequence_is_empty_or_a_parse_error(value):
    tree = _parse_or_none(f"a: {value}\n")
    if tree is not None:
        node = tree.get("a")
        assert value.strip() == "[]" and node.kind == SEQUENCE and not node.children


_words = st.tuples(st.sampled_from("abz_"), st.text(alphabet="abz_09./", max_size=8)).map(
    "".join)
_key_text = st.text(alphabet="ab :,{}#-!&*\"\\", max_size=8)
_double_quoted = _key_text.map(
    lambda s: '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"')
_single_quoted = _key_text.map(lambda s: f"'{s}'")
_values = st.one_of(st.integers(-99, 99).map(str), _words)


@FIXED
@given(st.one_of(_words, _double_quoted, _single_quoted), _values)
def test_flow_and_block_mappings_read_keys_alike(key, value):
    flow = parse_config(f"m: {{{key}: {value}}}\n")
    block = parse_config(f"m:\n  {key}: {value}\n")
    assert deep_equal(flow, block)


@FIXED
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 3))
def test_exhaustive_beam_finds_the_enumeration_argmax(seed, vocab, max_len):
    model = PrefixTableModel(vocab_size=vocab, max_len=max_len, seed=seed)
    best_ids, best_score, _ = max(enumerate_hypotheses(model, max_len), key=lambda e: e[1])
    found = decode(model, model.src, SearchSpec(strategy="beam", beam_size=vocab ** max_len,
                                                max_len=max_len))
    top = max(found, key=lambda h: h.logprob)
    assert top.ids == best_ids
    assert abs(top.logprob - best_score) <= 1e-12
