"""Model components: embedders, sequence encoders, attention, decoder.

Components are created from their config arguments and then wired together
by :class:`DefaultTranslator`, which fills in the dimensions that only the
assembled model knows (vocab sizes, encoder output dim, decoder input dim).
All parameters are allocated during that wiring, in a fixed documented
order, so a fixed seed gives bit-identical initializations.  Every shape
check happens at construction time.

Sequences travel as lists of ``(B, d)`` expression nodes plus a ``(B, T)``
numpy validity mask.  LSTM state updates are carry-masked on padding, so
extending a batch's padding never changes any result.  Variational dropout
samples one mask per (layer, direction, input/hidden) per sequence and
reuses it across time steps; masked attention adds -1e9 to padded scores,
which underflows to weight exactly 0 after the softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import tensor as T
from .data import SS
from .tensor import Expr, Runtime, const


@dataclass
class EncodedSeq:
    """Encoder output: per-position states, per-layer final (h, c), mask."""

    states: list[Expr]                       # T' entries of shape (B, d)
    final_states: list[tuple[Expr, Expr]]    # one (h, c) per layer
    mask: np.ndarray                         # (B, T')

    @property
    def length(self) -> int:
        return len(self.states)


@dataclass
class DecoderState:
    layers: list[tuple[Expr, Expr]]
    prev_context: Expr
    drop_cache: dict


class _LstmCell:
    """Standard LSTM cell (gates i, f, o plus candidate; forget bias 0)."""

    def __init__(self, runtime: Runtime, name: str, input_dim: int, hidden_dim: int):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = runtime.params.add(f"{name}.w_x", (input_dim, 4 * hidden_dim), runtime.rng)
        self.w_h = runtime.params.add(f"{name}.w_h", (hidden_dim, 4 * hidden_dim), runtime.rng)
        self.b = runtime.params.add(f"{name}.b", (4 * hidden_dim,), runtime.rng, init="zeros")

    def step(self, x: Expr, h: Expr, c: Expr) -> tuple[Expr, Expr]:
        gates = T.add(T.add(T.matmul(x, self.w_x.expr()), T.matmul(h, self.w_h.expr())),
                      self.b.expr())
        d = self.hidden_dim
        i = T.sigmoid(T.slice_last(gates, 0, d))
        f = T.sigmoid(T.slice_last(gates, d, 2 * d))
        o = T.sigmoid(T.slice_last(gates, 2 * d, 3 * d))
        g = T.tanh(T.slice_last(gates, 3 * d, 4 * d))
        c_new = T.add(T.mul(f, c), T.mul(i, g))
        h_new = T.mul(o, T.tanh(c_new))
        return h_new, c_new


class _BiLstmLayer:
    """One bidirectional layer; each direction gets hidden_dim/2 units."""

    def __init__(self, runtime: Runtime, name: str, input_dim: int, hidden_dim: int):
        if hidden_dim % 2 != 0:
            raise ValueError(f"{name}: hidden_dim must be even, got {hidden_dim}")
        self.runtime = runtime
        self.hidden_dim = hidden_dim
        half = hidden_dim // 2
        self.fwd = _LstmCell(runtime, f"{name}.fwd", input_dim, half)
        self.bwd = _LstmCell(runtime, f"{name}.bwd", input_dim, half)

    def _run(self, cell: _LstmCell, xs: list[Expr], mask: np.ndarray, order,
             dropout: float, train: bool, cache: dict, key: str):
        batch = xs[0].value.shape[0]
        h = const(np.zeros((batch, cell.hidden_dim)))
        c = const(np.zeros((batch, cell.hidden_dim)))
        outs: list[Optional[Expr]] = [None] * len(xs)
        for t in order:
            x = T.variational_dropout(xs[t], dropout, self.runtime.rng, cache,
                                      (key, "x"), train)
            h_in = T.variational_dropout(h, dropout, self.runtime.rng, cache,
                                         (key, "h"), train)
            h_new, c_new = cell.step(x, h_in, c)
            keep = const(mask[:, t:t + 1])
            drop = const(1.0 - mask[:, t:t + 1])
            h = T.add(T.mul(keep, h_new), T.mul(drop, h))
            c = T.add(T.mul(keep, c_new), T.mul(drop, c))
            outs[t] = h
        return outs, (h, c)

    def transduce(self, xs: list[Expr], mask: np.ndarray, dropout: float,
                  train: bool) -> tuple[list[Expr], tuple[Expr, Expr]]:
        cache: dict = {}
        steps = range(len(xs))
        f_outs, (f_h, f_c) = self._run(self.fwd, xs, mask, steps, dropout, train, cache, "f")
        b_outs, (b_h, b_c) = self._run(self.bwd, xs, mask, reversed(steps), dropout, train, cache, "b")
        outs = [T.concat([f, b], axis=1) for f, b in zip(f_outs, b_outs)]
        final = (T.concat([f_h, b_h], axis=1), T.concat([f_c, b_c], axis=1))
        return outs, final


class BiLSTMSeqTransducer:
    """Stacked bidirectional LSTM; output dim equals hidden_dim per position."""

    def __init__(self, runtime: Runtime, name: str, layers: int = 1,
                 hidden_dim: int = 512, dropout: float = 0.0):
        if layers < 1:
            raise ValueError("layers must be >= 1")
        self.runtime = runtime
        self.name = name
        self.layers = layers
        self.hidden_dim = hidden_dim
        self.dropout = dropout
        self._stack: list[_BiLstmLayer] = []

    @property
    def output_dim(self) -> int:
        return self.hidden_dim

    @property
    def final_state_layers(self) -> int:
        return self.layers

    def _upper_input_dim(self) -> int:
        """Input dim of every layer above the first."""
        return self.hidden_dim

    @staticmethod
    def _pair(xs: list[Expr], mask: np.ndarray) -> tuple[list[Expr], np.ndarray]:
        """Between-layer step; the plain stack passes states through."""
        return xs, mask

    def finalize(self, input_dim: int) -> None:
        if self._stack:
            return
        for i in range(self.layers):
            dim_in = input_dim if i == 0 else self._upper_input_dim()
            self._stack.append(_BiLstmLayer(self.runtime, f"{self.name}.layer{i}",
                                            dim_in, self.hidden_dim))

    def transduce(self, xs: list[Expr], mask: np.ndarray, train: bool) -> EncodedSeq:
        if not xs:
            raise ValueError("cannot transduce an empty sequence")
        finals = []
        for i, layer in enumerate(self._stack):
            if i > 0:
                xs, mask = self._pair(xs, mask)
            xs, final = layer.transduce(xs, mask, self.dropout, train)
            finals.append(final)
        return EncodedSeq(states=xs, final_states=finals[-self.final_state_layers:],
                          mask=mask)


class PyramidalLSTMSeqTransducer(BiLSTMSeqTransducer):
    """Pyramidal bidirectional LSTM stack.

    The first layer is a plain BiLSTM; every further layer concatenates
    adjacent pairs of the previous layer's outputs (odd tails padded with a
    zero frame) before its own BiLSTM, so the output length follows
    T_l = ceil(T_{l-1} / 2) and total subsampling is 2^(layers-1).
    """

    @property
    def final_state_layers(self) -> int:
        return 1  # only the topmost layer's finals are exposed

    def _upper_input_dim(self) -> int:
        return 2 * self.hidden_dim

    @staticmethod
    def _pair(xs: list[Expr], mask: np.ndarray) -> tuple[list[Expr], np.ndarray]:
        batch, dim = xs[0].value.shape
        out: list[Expr] = []
        n_pairs = (len(xs) + 1) // 2
        new_mask = np.zeros((mask.shape[0], n_pairs))
        for t in range(n_pairs):
            left = xs[2 * t]
            right = xs[2 * t + 1] if 2 * t + 1 < len(xs) else const(np.zeros((batch, dim)))
            out.append(T.concat([left, right], axis=1))
            new_mask[:, t] = mask[:, 2 * t]
        return out, new_mask


# ---------------------------------------------------------------------------
# embedders
# ---------------------------------------------------------------------------


class SimpleWordEmbedder:
    """Lookup-table embedder; optional word dropout during training."""

    def __init__(self, runtime: Runtime, name: str, emb_dim: int = 512,
                 vocab_size: Optional[int] = None, word_dropout: float = 0.0):
        self.runtime = runtime
        self.name = name
        self.emb_dim = emb_dim
        self.vocab_size = vocab_size
        self.word_dropout = word_dropout
        self.table = None
        if vocab_size is not None:
            self.attach_vocab(vocab_size)

    def attach_vocab(self, vocab_size: int) -> None:
        if self.table is not None:
            if vocab_size != self.vocab_size:
                raise ValueError(f"{self.name}: vocab size {vocab_size} conflicts "
                                 f"with configured {self.vocab_size}")
            return
        self.vocab_size = vocab_size
        self.table = self.runtime.params.add(f"{self.name}.table",
                                             (vocab_size, self.emb_dim),
                                             self.runtime.rng, init="embed")

    def embed_step(self, ids: np.ndarray, train: bool = False) -> Expr:
        emb = T.lookup(self.table.expr(), ids)
        return T.word_dropout(emb, self.word_dropout, self.runtime.rng, train)

    def embed_sequence(self, src: np.ndarray, mask: np.ndarray, train: bool = False) -> list[Expr]:
        return [self.embed_step(src[:, t], train) for t in range(src.shape[1])]


class DenseWordEmbedder(SimpleWordEmbedder):
    """Embedder whose table doubles as the output projection matrix.

    ``project(h) = h @ table.T + b`` produces vocab logits, so pointing a
    decoder's ``vocab_projector`` at this component ties input embeddings
    and output projection to one storage.
    """

    def __init__(self, runtime: Runtime, name: str, emb_dim: int = 512,
                 vocab_size: Optional[int] = None, word_dropout: float = 0.0):
        self.bias = None
        super().__init__(runtime, name, emb_dim, vocab_size, word_dropout)

    def attach_vocab(self, vocab_size: int) -> None:
        had_table = self.table is not None
        super().attach_vocab(vocab_size)
        if not had_table:
            self.bias = self.runtime.params.add(f"{self.name}.bias", (vocab_size,),
                                                self.runtime.rng, init="zeros")

    def project(self, h: Expr) -> Expr:
        if h.value.shape[-1] != self.emb_dim:
            raise ValueError(f"{self.name}: projection input dim {h.value.shape[-1]} "
                             f"!= emb_dim {self.emb_dim}")
        return T.add(T.matmul(h, T.transpose(self.table.expr())), self.bias.expr())


class NoopEmbedder:
    """Pass-through for precomputed feature matrices; emb_dim = feature dim."""

    def __init__(self, runtime: Runtime, name: str, emb_dim: int = 512):
        self.runtime = runtime
        self.name = name
        self.emb_dim = emb_dim

    def embed_sequence(self, src: np.ndarray, mask: np.ndarray, train: bool = False) -> list[Expr]:
        if src.ndim != 3 or src.shape[2] != self.emb_dim:
            raise ValueError(f"{self.name}: expected (B, T, {self.emb_dim}) features, "
                             f"got {src.shape}")
        return [const(src[:, t, :]) for t in range(src.shape[1])]


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


@dataclass
class AttentionState:
    enc: EncodedSeq
    pre: list[Expr]          # W_enc projections of encoder states, plus bias
    neg_mask: np.ndarray     # (B, T) additive -1e9 on padded positions


class MlpAttender:
    """Single-hidden-layer MLP attention: v . tanh(W_enc h_j + W_dec s + b)."""

    def __init__(self, runtime: Runtime, name: str, hidden_dim: int = 512):
        self.runtime = runtime
        self.name = name
        self.hidden_dim = hidden_dim
        self.w_enc = self.w_dec = self.b = self.v = None

    def finalize(self, enc_dim: int, dec_dim: int) -> None:
        if self.w_enc is not None:
            return
        add = self.runtime.params.add
        self.w_enc = add(f"{self.name}.w_enc", (enc_dim, self.hidden_dim), self.runtime.rng)
        self.w_dec = add(f"{self.name}.w_dec", (dec_dim, self.hidden_dim), self.runtime.rng)
        self.b = add(f"{self.name}.b", (self.hidden_dim,), self.runtime.rng, init="zeros")
        self.v = add(f"{self.name}.v", (self.hidden_dim, 1), self.runtime.rng)

    def init_sent(self, enc: EncodedSeq) -> AttentionState:
        if not enc.states:
            raise ValueError("cannot attend over an empty encoding")
        w_enc, b = self.w_enc.expr(), self.b.expr()
        pre = [T.add(T.matmul(h, w_enc), b) for h in enc.states]
        return AttentionState(enc=enc, pre=pre, neg_mask=(1.0 - enc.mask) * -1e9)

    def calc(self, att: AttentionState, dec_state: Expr) -> tuple[Expr, Expr]:
        """Returns (weights over positions (B, T), context vector (B, d_enc))."""
        s_proj = T.matmul(dec_state, self.w_dec.expr())
        v = self.v.expr()
        scores = T.concat([T.matmul(T.tanh(T.add(p, s_proj)), v) for p in att.pre], axis=1)
        weights = T.softmax(T.add(scores, const(att.neg_mask)))
        context = None
        for j, h in enumerate(att.enc.states):
            term = T.mul(T.slice_last(weights, j, j + 1), h)
            context = term if context is None else T.add(context, term)
        return weights, context


# ---------------------------------------------------------------------------
# bridge and decoder
# ---------------------------------------------------------------------------


class CopyBridge:
    """Copies encoder final (h, c) into the decoder's initial state."""

    def validate(self, enc_layers: int, enc_dim: int, dec_layers: int, dec_dim: int) -> None:
        if enc_layers != dec_layers or enc_dim != dec_dim:
            raise ValueError(
                f"CopyBridge needs matching shapes: encoder {enc_layers} layer(s) of dim "
                f"{enc_dim} vs decoder {dec_layers} layer(s) of dim {dec_dim}")

    def initial_layers(self, enc: EncodedSeq, dec_layers: int) -> list[tuple[Expr, Expr]]:
        if len(enc.final_states) != dec_layers:
            raise ValueError(f"CopyBridge: encoder has {len(enc.final_states)} final "
                             f"state(s), decoder expects {dec_layers}")
        return list(enc.final_states)


class MlpSoftmaxDecoder:
    """LSTM decoder with input feeding and an MLP before the vocab softmax.

    Per step: LSTM input is [previous embedding ; previous context]; the MLP
    maps [top hidden ; fresh context] through tanh; logits come from the
    tied projector when one is configured, else from this decoder's own
    projection matrix.  With a tied projector the MLP output dim is forced
    to the projector's emb_dim.
    """

    def __init__(self, runtime: Runtime, name: str, layers: int = 1,
                 hidden_dim: int = 512, mlp_hidden_dim: int = 512,
                 bridge: Optional[CopyBridge] = None, vocab_projector=None,
                 dropout: float = 0.0, vocab_size: Optional[int] = None):
        if layers < 1:
            raise ValueError("layers must be >= 1")
        self.runtime = runtime
        self.name = name
        self.layers = layers
        self.hidden_dim = hidden_dim
        self.mlp_hidden_dim = mlp_hidden_dim
        self.bridge = bridge if bridge is not None else CopyBridge()
        self.vocab_projector = vocab_projector
        self.dropout = dropout
        self.vocab_size = vocab_size
        self._cells: list[_LstmCell] = []
        self.w_mlp = self.b_mlp = self.w_out = self.b_out = None
        self.enc_dim = None

    def finalize(self, emb_dim: int, enc_dim: int, vocab_size: int) -> None:
        if self._cells:
            return
        if self.vocab_size is not None and self.vocab_size != vocab_size:
            raise ValueError(f"{self.name}: vocab size {vocab_size} conflicts with "
                             f"configured {self.vocab_size}")
        self.vocab_size = vocab_size
        self.enc_dim = enc_dim
        mlp_out = self.mlp_hidden_dim
        if self.vocab_projector is not None:
            mlp_out = self.vocab_projector.emb_dim
        self.mlp_out = mlp_out
        add = self.runtime.params.add
        for i in range(self.layers):
            dim_in = emb_dim + enc_dim if i == 0 else self.hidden_dim
            self._cells.append(_LstmCell(self.runtime, f"{self.name}.layer{i}",
                                         dim_in, self.hidden_dim))
        self.w_mlp = add(f"{self.name}.w_mlp", (self.hidden_dim + enc_dim, mlp_out),
                         self.runtime.rng)
        self.b_mlp = add(f"{self.name}.b_mlp", (mlp_out,), self.runtime.rng, init="zeros")
        if self.vocab_projector is None:
            self.w_out = add(f"{self.name}.w_out", (vocab_size, mlp_out), self.runtime.rng)
            self.b_out = add(f"{self.name}.b_out", (vocab_size,), self.runtime.rng,
                             init="zeros")

    def initial_state(self, enc: EncodedSeq) -> DecoderState:
        batch = enc.states[0].value.shape[0]
        layers = self.bridge.initial_layers(enc, self.layers)
        for h, _ in layers:
            if h.value.shape[1] != self.hidden_dim:
                raise ValueError(f"{self.name}: bridge produced dim {h.value.shape[1]}, "
                                 f"decoder expects {self.hidden_dim}")
        return DecoderState(layers=layers,
                            prev_context=const(np.zeros((batch, self.enc_dim))),
                            drop_cache={})

    def step(self, state: DecoderState, emb: Expr, attender: MlpAttender,
             att: AttentionState, train: bool) -> tuple[DecoderState, Expr]:
        x = T.concat([emb, state.prev_context], axis=1)
        new_layers = []
        rng = self.runtime.rng
        for i, cell in enumerate(self._cells):
            h_prev, c_prev = state.layers[i]
            x = T.variational_dropout(x, self.dropout, rng, state.drop_cache,
                                      (i, "x"), train)
            h_in = T.variational_dropout(h_prev, self.dropout, rng, state.drop_cache,
                                         (i, "h"), train)
            h, c = cell.step(x, h_in, c_prev)
            new_layers.append((h, c))
            x = h
        top = new_layers[-1][0]
        _, context = attender.calc(att, top)
        m = T.tanh(T.add(T.matmul(T.concat([top, context], axis=1), self.w_mlp.expr()),
                         self.b_mlp.expr()))
        if self.vocab_projector is not None:
            logits = self.vocab_projector.project(m)
        else:
            logits = T.add(T.matmul(m, T.transpose(self.w_out.expr())), self.b_out.expr())
        return replace(state, layers=new_layers, prev_context=context), logits


# ---------------------------------------------------------------------------
# the assembled model
# ---------------------------------------------------------------------------


@dataclass
class DecodeContext:
    """Per-sentence inference state shared by all hypotheses."""

    att: AttentionState
    initial: DecoderState


class DefaultTranslator:
    """Attentional encoder-decoder wired from its configured parts.

    Construction performs all cross-component wiring in a fixed order
    (source embedder vocab, encoder input dim, target embedder vocab,
    decoder dims, attender dims, bridge check), which also fixes the
    parameter initialization order.
    """

    def __init__(self, runtime: Runtime, name: str, src_reader, trg_reader,
                 src_embedder, encoder, attender, trg_embedder, decoder):
        self.runtime = runtime
        self.name = name
        self.src_reader = src_reader
        self.trg_reader = trg_reader
        self.src_embedder = src_embedder
        self.encoder = encoder
        self.attender = attender
        self.trg_embedder = trg_embedder
        self.decoder = decoder
        if getattr(src_reader, "vocab", None) is not None and hasattr(src_embedder, "attach_vocab"):
            src_embedder.attach_vocab(len(src_reader.vocab))
        encoder.finalize(input_dim=src_embedder.emb_dim)
        self.trg_vocab = trg_reader.vocab
        trg_embedder.attach_vocab(len(self.trg_vocab))
        decoder.finalize(emb_dim=trg_embedder.emb_dim, enc_dim=encoder.output_dim,
                         vocab_size=len(self.trg_vocab))
        attender.finalize(enc_dim=encoder.output_dim, dec_dim=decoder.hidden_dim)
        decoder.bridge.validate(getattr(encoder, "final_state_layers", 1),
                                encoder.output_dim, decoder.layers, decoder.hidden_dim)

    def encode(self, src: np.ndarray, src_mask: np.ndarray, train: bool) -> EncodedSeq:
        embs = self.src_embedder.embed_sequence(src, src_mask, train)
        return self.encoder.transduce(embs, src_mask, train)

    def calc_loss(self, batch, train: bool, label_smoothing: float = 0.0) -> tuple[Expr, int]:
        """Teacher-forced negative log-likelihood summed over real tokens."""
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if batch.size == 0 or batch.trg.shape[1] == 0:
            raise ValueError("empty batch")
        enc = self.encode(batch.src, batch.src_mask, train)
        att = self.attender.init_sent(enc)
        state = self.decoder.initial_state(enc)
        batch_size, t_max = batch.trg.shape
        vocab = self.decoder.vocab_size
        prev = np.full((batch_size,), SS, dtype=np.int64)
        loss = None
        for t in range(t_max):
            emb = self.trg_embedder.embed_step(prev, train)
            state, logits = self.decoder.step(state, emb, self.attender, att, train)
            gold = batch.trg[:, t]
            pick = T.pick_neg_log_softmax(logits, gold)
            if label_smoothing > 0.0:
                lp_sum = T.sum_last(T.log_softmax(logits))
                term = T.add(T.scale(pick, 1.0 - label_smoothing),
                             T.scale(lp_sum, -label_smoothing / vocab))
            else:
                term = pick
            masked = T.esum(T.mul(term, const(batch.trg_mask[:, t])))
            loss = masked if loss is None else T.add(loss, masked)
            prev = gold
        return loss, batch.n_trg_tokens()

    # -- single-sentence inference ------------------------------------------

    def start_decode(self, src_item) -> DecodeContext:
        if isinstance(src_item, np.ndarray):
            src = src_item[None, :, :]
            mask = np.ones((1, src_item.shape[0]))
        else:
            if len(src_item) == 0:
                raise ValueError("empty source sequence")
            src = np.asarray([src_item], dtype=np.int64)
            mask = np.ones((1, len(src_item)))
        enc = self.encode(src, mask, train=False)
        att = self.attender.init_sent(enc)
        return DecodeContext(att=att, initial=self.decoder.initial_state(enc))

    def next_logprobs(self, ctx: DecodeContext, state: DecoderState,
                      prev_ids) -> tuple[DecoderState, np.ndarray]:
        """One decoder step for n hypotheses: n previous ids, an n-row state.

        Returns the new n-row state and the (n, V) log-probabilities.  The
        one-row attention state broadcasts against the n decoder rows.
        """
        emb = self.trg_embedder.embed_step(np.asarray(prev_ids, dtype=np.int64), False)
        state, logits = self.decoder.step(state, emb, self.attender, ctx.att, False)
        return state, T.log_softmax(logits).value

    @staticmethod
    def select_rows(state: DecoderState, rows: list[int]) -> DecoderState:
        """The state of the hypotheses ``rows``, in that order (decoding only)."""
        if rows == list(range(state.prev_context.value.shape[0])):
            return state

        def take(x: Expr) -> Expr:
            return const(x.value[rows])

        return replace(state, layers=[(take(h), take(c)) for h, c in state.layers],
                       prev_context=take(state.prev_context))

    def src_length(self, src_item) -> int:
        return src_item.shape[0] if isinstance(src_item, np.ndarray) else len(src_item)
