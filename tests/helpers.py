"""Shared test utilities: gradient checking, tiny models, toy search models,
the per-hypothesis beam search oracle and the one-row-at-a-time sampling
oracles."""

from __future__ import annotations

import numpy as np

from seqrig import tensor as T
from seqrig.data import ES, SS, PlainTextReader, Vocab
from seqrig.inference import Hypothesis, default_max_len
from seqrig.nn import (BiLSTMSeqTransducer, CopyBridge, DecodeContext,
                       DefaultTranslator, MlpAttender, MlpSoftmaxDecoder,
                       SimpleWordEmbedder)
from seqrig.tensor import Expr, Runtime, backward


def rel_errors(analytic, numeric) -> np.ndarray:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1e-6, np.abs(analytic) + np.abs(numeric))
    return np.abs(analytic - numeric) / denom


def finite_diff_check(build_loss, params, h: float = 1e-5,
                      max_coords: int | None = None,
                      total_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between backward and central finite differences.

    ``build_loss`` must rebuild the loss graph from the current parameter
    values deterministically (fix any dropout masks beforehand).
    ``max_coords`` caps the checked coordinates per parameter;
    ``total_coords`` caps them across all parameters (random sample).
    """
    params = list(params)
    for p in params:
        p.grad[...] = 0.0
    backward(build_loss())
    analytic = {p.name: p.grad.copy() for p in params}
    jobs = []
    for p in params:
        coords = np.arange(p.value.size)
        if max_coords is not None and p.value.size > max_coords:
            assert rng is not None
            coords = rng.choice(p.value.size, size=max_coords, replace=False)
        jobs.extend((p, int(c)) for c in coords)
    if total_coords is not None and len(jobs) > total_coords:
        assert rng is not None
        picked = rng.choice(len(jobs), size=total_coords, replace=False)
        jobs = [jobs[i] for i in picked]
    worst = 0.0
    for p, c in jobs:
        flat = p.value.reshape(-1)
        orig = flat[c]
        flat[c] = orig + h
        up = float(build_loss().value)
        flat[c] = orig - h
        down = float(build_loss().value)
        flat[c] = orig
        numeric = (up - down) / (2 * h)
        a = analytic[p.name].reshape(-1)[c]
        worst = max(worst, float(rel_errors(a, numeric)))
    for p in params:
        p.grad[...] = 0.0
    return worst


def reference_param_expr(param) -> Expr:
    """A parameter leaf with a gradient buffer of its own, which its backward
    rule adds into ``param.grad``; the oracle for ``Parameter.expr``, whose
    leaves add straight into ``param.grad``."""

    def bwd(node: Expr) -> None:
        param.grad += node.grad

    return Expr(param.value, (), f"param:{param.name}", bwd, check=False)


def tiny_vocab(n_content: int = 3) -> Vocab:
    return Vocab([f"w{i}" for i in range(n_content)])


def tiny_translator(seed: int = 0, dim: int = 4, n_content: int = 3,
                    layers: int = 1, dropout: float = 0.0,
                    encoder_cls=BiLSTMSeqTransducer, enc_layers: int | None = None,
                    trg_embedder_cls=SimpleWordEmbedder, tied: bool = False,
                    word_dropout: float = 0.0):
    """A fully wired translator small enough for exhaustive gradient checks."""
    runtime = Runtime(seed)
    vocab = tiny_vocab(n_content)
    reader = PlainTextReader(vocab)
    src_emb = SimpleWordEmbedder(runtime, "model.src_embedder", emb_dim=dim)
    encoder = encoder_cls(runtime, "model.encoder",
                          layers=enc_layers if enc_layers is not None else layers,
                          hidden_dim=dim, dropout=dropout)
    attender = MlpAttender(runtime, "model.attender", hidden_dim=dim)
    trg_emb = trg_embedder_cls(runtime, "model.trg_embedder", emb_dim=dim,
                               word_dropout=word_dropout)
    decoder = MlpSoftmaxDecoder(runtime, "model.decoder", layers=layers,
                                hidden_dim=dim, mlp_hidden_dim=dim,
                                bridge=CopyBridge(), dropout=dropout,
                                vocab_projector=trg_emb if tied else None)
    model = DefaultTranslator(runtime, "model", src_reader=reader, trg_reader=reader,
                              src_embedder=src_emb, encoder=encoder, attender=attender,
                              trg_embedder=trg_emb, decoder=decoder)
    return model, runtime


class PrefixTableModel:
    """Toy decode model: a fixed log-prob table keyed by the emitted prefix.

    Implements the decode interface (start_decode / next_logprobs /
    select_rows / src_length).  The running state holds one prefix tuple of
    emitted tokens per row (None before the first step), so exhaustive
    enumeration is trivial.  ``next_logprobs`` returns ``const`` rows, and
    answers a prefix past the end token with the root row: a sampled row
    that has stopped keeps stepping, but its row is never read.
    """

    def __init__(self, vocab_size: int, max_len: int, seed: int):
        self.vocab_size = vocab_size
        self.max_len = max_len
        rng = np.random.default_rng(seed)
        self.table: dict[tuple, np.ndarray] = {}
        level = [()]
        for _ in range(max_len):
            nxt = []
            for prefix in level:
                raw = rng.normal(0.0, 2.0, size=vocab_size)
                raw -= np.log(np.exp(raw).sum())  # normalized log-probs
                self.table[prefix] = raw
                for tok in range(vocab_size):
                    if tok != 1:
                        nxt.append(prefix + (tok,))
            level = nxt
        self.src = [3, 3]

    def src_length(self, src_item) -> int:
        return len(src_item)

    def start_decode(self, src_item) -> DecodeContext:
        return DecodeContext(att=None, initial=[None])

    def next_logprobs(self, ctx, state, prev_ids):
        prefixes = [() if s is None else s + (int(p),) for s, p in zip(state, prev_ids)]
        return prefixes, T.const(np.stack([self.table[() if ES in p else p] for p in prefixes]))

    @staticmethod
    def select_rows(state, rows):
        return [state[r] for r in rows]


def reference_beam_search(model, ctx, max_len: int, k: int) -> list[Hypothesis]:
    """The per-hypothesis beam search that the batched search replaced.

    Each partial hypothesis steps on its own as a one-row decoder call, and
    the candidates of a step are sorted as (score, token, slot) tuples.
    Returns the unranked pool; kept as the oracle for the batched search.
    """
    active = [([], 0.0, ctx.initial)]
    pool: list[Hypothesis] = []
    hit_cap = True
    for _ in range(max_len):
        candidates = []
        for slot, (ids, logprob, state) in enumerate(active):
            prev = ids[-1] if ids else SS
            state, logprobs = model.next_logprobs(ctx, state, [prev])
            logprobs = logprobs.value
            for token in range(logprobs.shape[1]):
                candidates.append((logprob + float(logprobs[0, token]), token, slot, state))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        next_active = []
        for score, token, slot, state in candidates[:k]:
            ids = active[slot][0]
            if token == ES:
                pool.append(Hypothesis(ids=ids + [ES], logprob=score, finished=True))
            else:
                next_active.append((ids + [token], score, state))
        active = next_active
        unbeatable = (pool and active
                      and max(h.logprob for h in pool) >= max(a[1] for a in active))
        if not active or (len(pool) >= k and unbeatable):
            hit_cap = False
            break
    if hit_cap:
        for ids, logprob, _ in active:
            if ids:
                pool.append(Hypothesis(ids=ids, logprob=logprob, finished=False))
    return pool


def enumerate_hypotheses(model: PrefixTableModel, max_len: int):
    """Every ES-terminated sequence up to max_len plus every truncation,
    with raw log-prob scores — the exhaustive-search oracle."""
    out = []

    def walk(prefix: tuple, logprob: float):
        if len(prefix) == max_len:
            out.append((list(prefix), logprob, False))
            return
        logits = model.table[prefix]
        for tok in range(model.vocab_size):
            score = logprob + float(logits[tok])
            if tok == 1:
                out.append((list(prefix) + [1], score, True))
            else:
                walk(prefix + (tok,), score)

    walk((), 0.0)
    return out


class QuantileRng:
    """RNG stub whose ``choice`` returns the first index at which the
    cumulative probability passes a quantile, so a row's draw does not
    depend on how many draws came before it.  The quantile is ``u`` or, when
    ``u`` is None, the fractional part of ``1000 * p[-1]``, which varies
    from step to step and row to row.  Counts its draws."""

    def __init__(self, u: float | None):
        self.u = u
        self.draws = 0

    def choice(self, n: int, p) -> int:
        self.draws += 1
        u = self.u if self.u is not None else (1000.0 * p[-1]) % 1.0
        return min(int(np.searchsorted(np.cumsum(p), u, side="right")), n - 1)


class CountingRng:
    """A seeded numpy Generator whose ``choice`` calls are counted."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.draws = 0

    def choice(self, n: int, p):
        self.draws += 1
        return self.rng.choice(n, p=p)


def reference_sample_sequence(model, ctx, rng, max_len: int):
    """Draw one sequence from one row, keeping -log p terms in the graph.

    The REINFORCE sampler that :func:`seqrig.inference.sample_rows`
    replaced; kept as its oracle.
    """
    state = ctx.initial
    ids: list[int] = []
    terms = []
    for _ in range(max_len):
        prev = ids[-1] if ids else SS
        emb = model.trg_embedder.embed_step(np.asarray([prev], dtype=np.int64), False)
        state, logits = model.decoder.step(state, emb, model.attender, ctx.att, False)
        probs = T._softmax_value(logits.value[0])
        token = int(rng.choice(len(probs), p=probs))
        terms.append(T.esum(T.pick_neg_log_softmax(logits, np.asarray([token]))))
        ids.append(token)
        if token == ES:
            break
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return ids, total


def reference_reinforce_loss(model, batch, reward_fn, baseline: float, rng):
    """The per-row REINFORCE loss that the lockstep one replaced: each row is
    encoded alone and sampled by :func:`reference_sample_sequence`."""
    loss = None
    rewards = []
    n_tokens = 0
    for row in range(batch.size):
        if batch.src.ndim == 3:
            src_item = batch.src[row][batch.src_mask[row] > 0]
        else:
            src_item = [int(t) for t, m in zip(batch.src[row], batch.src_mask[row]) if m > 0]
        ref = [int(t) for t, m in zip(batch.trg[row], batch.trg_mask[row]) if m > 0]
        ctx = model.start_decode(src_item)
        ids, neg_logprob = reference_sample_sequence(
            model, ctx, rng, default_max_len(model.src_length(src_item)))
        reward = float(reward_fn(ids, ref))
        rewards.append(reward)
        term = T.scale(neg_logprob, reward - baseline)
        loss = term if loss is None else T.add(loss, term)
        n_tokens += len(ids)
    return loss, float(np.mean(rewards)), n_tokens


def reference_sample_search(model, ctx, max_len: int, n: int, temperature: float,
                            rng) -> list[Hypothesis]:
    """The ``strategy: sample`` search that :func:`seqrig.inference.sample_rows`
    replaced: n samples, one after another, each stepping one row.  Returns
    the unranked pool; kept as its oracle."""
    pool = []
    for _ in range(n):
        ids: list[int] = []
        state = ctx.initial
        logprob = 0.0
        finished = False
        for _ in range(max_len):
            prev = ids[-1] if ids else SS
            state, logprobs = model.next_logprobs(ctx, state, [prev])
            logprobs = logprobs.value[0]
            scaled = logprobs / temperature
            probs = np.exp(scaled - scaled.max())
            probs /= probs.sum()
            token = int(rng.choice(len(probs), p=probs))
            logprob += float(logprobs[token])
            ids.append(token)
            if token == ES:
                finished = True
                break
        pool.append(Hypothesis(ids=ids, logprob=logprob, finished=finished))
    return pool
