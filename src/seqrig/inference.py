"""Decoding: greedy / beam / sampling search with length-normalized ranking.

Beam search keeps the k best partial hypotheses by raw log-probability;
hypotheses that emit the end token move to a finished pool without using a
beam slot.  Search stops once the pool holds k entries, every beam has
finished, or the length cap is hit (actives are then truncated into the
pool).  Length normalization (raw logprob divided by length^alpha, length
counting generated tokens excluding the end token) applies only to the
final ranking, never to pruning.  Ties break toward the lower token id and,
at equal score, toward the earlier-finished hypothesis.

The live beam is stepped as the rows of one ``model.next_logprobs`` call,
which takes n previous ids and an n-row state and returns an (n, V)
log-softmax node; ``model.select_rows`` keeps the state rows that survive
pruning.  Greedy search is the beam of size 1.  Candidates are ranked by
score, then token id, then beam slot, so batching changes no tie-break.

:func:`sample_rows` is the one sampler, for ``strategy: sample`` and for
REINFORCE training: the rows of a decoder state step in lockstep as one
``model.next_logprobs`` call and draw their tokens in row order, keeping
each row's log-probability as a graph node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .data import ES, SS

STRATEGIES = ("greedy", "beam", "sample")


@dataclass
class SearchSpec:
    strategy: str = "greedy"
    beam_size: int = 1
    max_len: Optional[int] = None
    length_norm_exp: float = 0.0
    sample_n: int = 1
    temperature: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown search strategy '{self.strategy}'")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.sample_n < 1:
            raise ValueError("sample_n must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.length_norm_exp < 0:
            raise ValueError("length normalization exponent must be >= 0")


@dataclass
class Hypothesis:
    ids: list[int]            # generated tokens, ending in ES unless truncated
    logprob: float            # sum of token log-probabilities (<= 0)
    normalized_score: float = 0.0
    finished: bool = True

    def surface_ids(self) -> list[int]:
        """Token ids without the closing end token."""
        return self.ids[:-1] if self.finished and self.ids and self.ids[-1] == ES else self.ids


def normalize_score(logprob: float, length: int, alpha: float) -> float:
    """Power-law length normalization: logprob / length**alpha."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return logprob / (length ** alpha)


def default_max_len(src_len: int) -> int:
    return 2 * src_len + 5


def _rank(pool: list[Hypothesis], alpha: float) -> list[Hypothesis]:
    for hyp in pool:
        length = max(1, len(hyp.surface_ids()))
        hyp.normalized_score = normalize_score(hyp.logprob, length, alpha)
    # stable sort: at equal score the earlier-finished hypothesis wins
    return sorted(pool, key=lambda h: -h.normalized_score)


def _beam_search(model, ctx, max_len: int, k: int) -> list[Hypothesis]:
    # the live beam: row r of ``state`` carries ids[r], whose raw score is
    # scores[r]; ``rows`` picks the rows of the last step's state it keeps
    ids: list[list[int]] = [[]]
    scores = np.zeros(1)
    state, rows = ctx.initial, [0]
    pool: list[Hypothesis] = []
    hit_cap = True
    for _ in range(max_len):
        state = model.select_rows(state, rows)
        prev = [seq[-1] if seq else SS for seq in ids]
        state, logprobs = model.next_logprobs(ctx, state, prev)
        n = len(ids)
        total = scores[:, None] + logprobs.value
        # flat index token * n + slot: a stable sort of the negated scores
        # breaks ties toward the lower token id, then the earlier slot
        order = np.argsort(-total.T.ravel(), kind="stable")[:k]
        next_ids, next_scores, rows = [], [], []
        for flat in order.tolist():
            token, slot = divmod(flat, n)
            score = float(total[slot, token])
            if token == ES:
                pool.append(Hypothesis(ids=ids[slot] + [ES], logprob=score, finished=True))
            else:
                next_ids.append(ids[slot] + [token])
                next_scores.append(score)
                rows.append(slot)
        ids, scores = next_ids, np.asarray(next_scores)
        # the pool-size stop alone could end the search while an active
        # partial still outscores every finished hypothesis; since raw
        # scores only decrease along a path, waiting until the incumbent
        # is unbeatable keeps larger beams from losing it
        unbeatable = (pool and ids
                      and max(h.logprob for h in pool) >= max(next_scores))
        if not ids or (len(pool) >= k and unbeatable):
            hit_cap = False
            break
    if hit_cap:
        # only the length cap truncates; partials alive when the pool fills
        # are discarded (their scores are not comparable to finished ones)
        for seq, score in zip(ids, scores.tolist()):
            if seq:
                pool.append(Hypothesis(ids=seq, logprob=score, finished=False))
    return pool


def sample_rows(model, ctx, state, max_lens: list[int], temperature: float,
                rng: np.random.Generator) -> tuple[list[list[int]], T.Expr]:
    """Draw one sequence per row of ``state``; returns the ids of each row and
    the (n,) node of each row's summed token log-probabilities.

    All rows step together as one ``model.next_logprobs`` call, and within a
    step they draw in row order from ``softmax(logprobs / temperature)``.
    Row r stops after the end token or after ``max_lens[r]`` (>= 1) tokens.
    A stopped row keeps stepping, since its state cannot leave the graph,
    but it draws nothing and adds an exact zero to its total.
    """
    ids: list[list[int]] = [[] for _ in max_lens]
    live = [True] * len(max_lens)
    total = None
    while any(live):
        prev = [seq[-1] if seq else SS for seq in ids]
        state, logprobs = model.next_logprobs(ctx, state, prev)
        picked = np.zeros(logprobs.shape)
        for r, seq in enumerate(ids):
            if not live[r]:
                continue
            scaled = logprobs.value[r] / temperature
            probs = np.exp(scaled - scaled.max())
            probs /= probs.sum()
            token = int(rng.choice(len(probs), p=probs))
            seq.append(token)
            picked[r, token] = 1.0
            live[r] = token != ES and len(seq) < max_lens[r]
        term = T.sum_last(T.mul(logprobs, T.const(picked)))
        total = term if total is None else T.add(total, term)
    return ids, total


def decode(model, src_item, spec: SearchSpec,
           rng: Optional[np.random.Generator] = None) -> list[Hypothesis]:
    """Decode one source item into a ranked list of hypotheses."""
    if model.src_length(src_item) == 0:
        raise ValueError("empty source sequence")
    ctx = model.start_decode(src_item)
    max_len = spec.max_len if spec.max_len is not None else default_max_len(model.src_length(src_item))
    if spec.strategy == "sample":
        if rng is None:
            raise ValueError("sampling needs an RNG")
        n = spec.sample_n
        rows, logprobs = sample_rows(model, ctx, model.select_rows(ctx.initial, [0] * n),
                                     [max_len] * n, spec.temperature, rng)
        pool = [Hypothesis(ids=seq, logprob=float(lp), finished=seq[-1] == ES)
                for seq, lp in zip(rows, logprobs.value.tolist())]
    else:
        k = 1 if spec.strategy == "greedy" else spec.beam_size
        pool = _beam_search(model, ctx, max_len, k)
    return _rank(pool, spec.length_norm_exp)
