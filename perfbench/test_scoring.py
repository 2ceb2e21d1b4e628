"""Hand-computed examples for the benchmark's own scorers."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from scoring import corpus_bleu, exact_match, levenshtein, read_lines, wer  # noqa: E402


def test_exact_match_counts_whole_sequences():
    assert exact_match([["a", "b"], ["c"]], [["a", "b"], ["d"]]) == 0.5
    assert exact_match([["a"]], [["a", "a"]]) == 0.0


def test_levenshtein_textbook_cases():
    assert levenshtein(list("kitten"), list("sitting")) == 3
    assert levenshtein([], ["a", "b"]) == 2
    assert levenshtein(["a", "b"], []) == 2
    assert levenshtein(["a", "b", "c"], ["a", "b", "c"]) == 0


def test_wer_sums_edits_over_reference_words():
    # one substitution plus one insertion against four reference words,
    # and one deletion against two
    hyps = [["a", "b", "c"], ["e", "f", "g"]]
    refs = [["a", "x", "c", "d"], ["e", "f"]]
    assert wer(hyps, refs) == 3 / 6


def test_bleu_identical_corpus_is_one():
    refs = [["a", "b", "c", "d", "e"], ["f", "g"]]
    assert corpus_bleu(refs, refs) == 1.0


def test_bleu_zero_when_an_order_has_no_match():
    # 4-grams: one in the hypothesis, none matching
    assert corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "e"]]) == 0.0


def test_bleu_drops_orders_without_hypothesis_ngrams():
    # unigrams 2/3, bigrams 1/1, no trigrams or 4-grams; equal lengths
    hyps = [["a", "b"], ["c"]]
    refs = [["a", "b"], ["d"]]
    assert corpus_bleu(hyps, refs) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)


def test_bleu_clips_repeated_ngrams_and_applies_brevity_penalty():
    # unigrams: "a" x2 clipped to 1, "b" 1 -> 2/3; bigrams: "a a" 0/1 -> 0
    assert corpus_bleu([["a", "a", "b"]], [["a", "b", "c", "d"]]) == 0.0
    # all precisions 1, hypothesis 5 words against 6: BP = exp(1 - 6/5)
    hyp = ["a", "b", "c", "d", "e"]
    assert corpus_bleu([hyp], [hyp + ["f"]]) == pytest.approx(math.exp(-0.2), abs=1e-15)


def test_count_mismatch_is_an_error():
    with pytest.raises(ValueError):
        wer([["a"]], [])


def test_read_lines_keeps_empty_hypotheses(tmp_path):
    path = tmp_path / "hyp.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    assert read_lines(path) == [["a", "b"], [], ["c"]]
