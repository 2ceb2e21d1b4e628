"""The benchmark's own scorers, written apart from ``seqrig.metrics``.

They read hypothesis and reference files as whitespace-split lines and
follow the definitions in the seqrig README: exact sequence match, corpus
word error rate by Levenshtein distance, and corpus 4-gram BLEU with
clipped counts and a brevity penalty.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path


def read_lines(path) -> list[list[str]]:
    return [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]


def exact_match(hyps, refs) -> float:
    """Share of hypotheses equal to their reference, token for token."""
    _same_count(hyps, refs)
    return sum(1 for h, r in zip(hyps, refs) if list(h) == list(r)) / len(refs)


def levenshtein(a, b) -> int:
    """Fewest unit-cost insertions, deletions and substitutions from a to b."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1))
    return table[-1][-1]


def wer(hyps, refs) -> float:
    """Summed edit distance over summed reference length."""
    _same_count(hyps, refs)
    return sum(levenshtein(h, r) for h, r in zip(hyps, refs)) / sum(len(r) for r in refs)


def corpus_bleu(hyps, refs, max_n: int = 4) -> float:
    """Corpus BLEU: geometric mean of clipped n-gram precisions times BP.

    An order with no hypothesis n-grams anywhere in the corpus is left out
    of the mean; an order with n-grams but no match makes the score 0.
    """
    _same_count(hyps, refs)
    hits = Counter()
    counts = Counter()
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hyp_grams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            hits[n] += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
            counts[n] += sum(hyp_grams.values())
    orders = [n for n in range(1, max_n + 1) if counts[n] > 0]
    if not orders or any(hits[n] == 0 for n in orders):
        return 0.0
    log_precision = sum(math.log(hits[n] / counts[n]) for n in orders) / len(orders)
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(log_precision)


SCORERS = {"accuracy": exact_match, "wer": wer, "bleu": corpus_bleu}


def _same_count(hyps, refs) -> None:
    if len(hyps) != len(refs) or not refs:
        raise ValueError(f"need equal, nonzero counts: {len(hyps)} hyps, {len(refs)} refs")
