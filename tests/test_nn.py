"""Component tests: shapes, symmetries, bridges, and an independent
numpy re-implementation of the full teacher-forced unroll."""

import numpy as np
import pytest

from seqrig.data import ES, SS, Batch, PlainTextReader
from seqrig.nn import (BiLSTMSeqTransducer, CopyBridge, DefaultTranslator,
                       DenseWordEmbedder, MlpAttender, MlpSoftmaxDecoder,
                       NoopEmbedder, PyramidalLSTMSeqTransducer,
                       SimpleWordEmbedder)
from seqrig.tensor import Runtime, const

from helpers import finite_diff_check, tiny_translator, tiny_vocab


def single_batch(src, trg):
    src = np.asarray([src], dtype=np.int64)
    trg = np.asarray([trg], dtype=np.int64)
    return Batch(src, np.ones_like(src, dtype=np.float64),
                 trg, np.ones_like(trg, dtype=np.float64), order=[0])


class TestEmbedders:
    def test_lookup_row_equality(self):
        runtime = Runtime(0)
        emb = SimpleWordEmbedder(runtime, "emb", emb_dim=4, vocab_size=6)
        out = emb.embed_step(np.asarray([0]))
        np.testing.assert_array_equal(out.value[0], emb.table.value[0])

    def test_sequence_shapes(self):
        runtime = Runtime(0)
        emb = SimpleWordEmbedder(runtime, "emb", emb_dim=3, vocab_size=6)
        ids = np.zeros((2, 5), dtype=np.int64)
        vecs = emb.embed_sequence(ids, np.ones((2, 5)))
        assert len(vecs) == 5 and all(v.value.shape == (2, 3) for v in vecs)

    def test_word_dropout_one_zeroes_everything(self):
        runtime = Runtime(0)
        emb = SimpleWordEmbedder(runtime, "emb", emb_dim=4, vocab_size=6,
                                 word_dropout=1.0)
        out = emb.embed_step(np.asarray([1, 2, 3]), train=True)
        np.testing.assert_array_equal(out.value, np.zeros((3, 4)))

    def test_id_out_of_range(self):
        runtime = Runtime(0)
        emb = SimpleWordEmbedder(runtime, "emb", emb_dim=4, vocab_size=6)
        with pytest.raises(IndexError):
            emb.embed_step(np.asarray([6]))

    def test_dense_projection_of_zero_vector_is_bias(self):
        runtime = Runtime(0)
        emb = DenseWordEmbedder(runtime, "emb", emb_dim=4, vocab_size=6)
        emb.bias.value[...] = np.arange(6.0)
        out = emb.project(const(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.value[0], np.arange(6.0))

    def test_dense_projection_dim_check(self):
        runtime = Runtime(0)
        emb = DenseWordEmbedder(runtime, "emb", emb_dim=4, vocab_size=6)
        with pytest.raises(ValueError, match="dim"):
            emb.project(const(np.zeros((1, 5))))

    def test_tied_parameter_count_delta_is_v_times_d(self):
        tied, rt_tied = tiny_translator(seed=1, dim=4, n_content=5, tied=True,
                                        trg_embedder_cls=DenseWordEmbedder)
        untied, rt_untied = tiny_translator(seed=1, dim=4, n_content=5)
        v, d = len(tiny_vocab(5)), 4
        assert rt_untied.params.total_size() - rt_tied.params.total_size() == v * d

    def test_tied_gradient_accumulates_from_both_uses(self):
        model, runtime = tiny_translator(seed=2, dim=4, n_content=2, tied=True,
                                         trg_embedder_cls=DenseWordEmbedder)
        batch = single_batch([3, 4], [4, 3, ES])

        def build():
            loss, _ = model.calc_loss(batch, train=False)
            return loss

        table = model.trg_embedder.table
        assert finite_diff_check(build, [table]) < 1e-4

    def test_noop_embedder_passes_features_through(self):
        runtime = Runtime(0)
        emb = NoopEmbedder(runtime, "emb", emb_dim=3)
        feats = np.arange(12.0).reshape(1, 4, 3)
        vecs = emb.embed_sequence(feats, np.ones((1, 4)))
        np.testing.assert_array_equal(vecs[2].value, feats[:, 2, :])
        with pytest.raises(ValueError, match="features"):
            emb.embed_sequence(np.zeros((1, 4, 2)), np.ones((1, 4)))


def make_bilstm(runtime, name="enc", layers=1, hidden=4, input_dim=3, dropout=0.0):
    enc = BiLSTMSeqTransducer(runtime, name, layers=layers, hidden_dim=hidden,
                              dropout=dropout)
    enc.finalize(input_dim=input_dim)
    return enc


class TestBiLstm:
    @pytest.mark.parametrize("length", [1, 7])
    def test_output_length_equals_input_length(self, length):
        runtime = Runtime(0)
        enc = make_bilstm(runtime)
        xs = [const(np.ones((2, 3))) for _ in range(length)]
        out = enc.transduce(xs, np.ones((2, length)), train=False)
        assert out.length == length
        assert all(s.value.shape == (2, 4) for s in out.states)

    def test_all_zero_weights_and_inputs_give_zero_states(self):
        runtime = Runtime(0)
        enc = make_bilstm(runtime)
        for p in runtime.params:
            p.value[...] = 0.0
        out = enc.transduce([const(np.zeros((1, 3)))] * 4, np.ones((1, 4)), False)
        for s in out.states:
            np.testing.assert_array_equal(s.value, np.zeros((1, 4)))
        for h, c in out.final_states:
            np.testing.assert_array_equal(h.value, np.zeros((1, 4)))

    def test_reversal_swaps_direction_halves_of_summed_output(self):
        # symmetric init: backward cells share the forward cells' weights
        runtime = Runtime(3)
        enc = make_bilstm(runtime, hidden=4, input_dim=3)
        layer = enc._stack[0]
        for dst, src in ((layer.bwd.w_x, layer.fwd.w_x), (layer.bwd.w_h, layer.fwd.w_h),
                         (layer.bwd.b, layer.fwd.b)):
            dst.value[...] = src.value
        rng = np.random.default_rng(0)
        xs = [const(rng.normal(size=(1, 3))) for _ in range(5)]
        fwd_out = enc.transduce(xs, np.ones((1, 5)), False)
        rev_out = enc.transduce(xs[::-1], np.ones((1, 5)), False)
        total = sum(s.value for s in fwd_out.states)
        total_rev = sum(s.value for s in rev_out.states)
        np.testing.assert_allclose(total_rev[:, :2], total[:, 2:], atol=1e-12)
        np.testing.assert_allclose(total_rev[:, 2:], total[:, :2], atol=1e-12)

    def test_empty_sequence_rejected(self):
        runtime = Runtime(0)
        enc = make_bilstm(runtime)
        with pytest.raises(ValueError, match="empty"):
            enc.transduce([], np.ones((1, 0)), False)

    def test_odd_hidden_dim_rejected(self):
        runtime = Runtime(0)
        enc = BiLSTMSeqTransducer(runtime, "enc", layers=1, hidden_dim=5)
        with pytest.raises(ValueError, match="even"):
            enc.finalize(input_dim=3)

    def test_final_state_is_carry_masked_at_padding(self):
        runtime = Runtime(1)
        enc = make_bilstm(runtime)
        rng = np.random.default_rng(0)
        xs3 = [const(rng.normal(size=(1, 3))) for _ in range(3)]
        out3 = enc.transduce(xs3, np.ones((1, 3)), False)
        padded = xs3 + [const(np.zeros((1, 3)))] * 2
        mask = np.asarray([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out5 = enc.transduce(padded, mask, False)
        np.testing.assert_allclose(out5.final_states[0][0].value,
                                   out3.final_states[0][0].value, atol=1e-12)


class TestPyramid:
    def make(self, layers, input_dim=3, hidden=4, seed=0):
        runtime = Runtime(seed)
        enc = PyramidalLSTMSeqTransducer(runtime, "enc", layers=layers,
                                         hidden_dim=hidden)
        enc.finalize(input_dim=input_dim)
        return enc

    def length_after(self, enc, length):
        xs = [const(np.zeros((1, 3))) for _ in range(length)]
        return enc.transduce(xs, np.ones((1, length)), False).length

    def test_four_layers_sixteen_to_two(self):
        assert self.length_after(self.make(4), 16) == 2  # subsampling factor 8

    def test_four_layers_seventeen_to_three(self):
        # ceil halving: 17 -> 9 -> 5 -> 3
        assert self.length_after(self.make(4), 17) == 3

    def test_ceil_recurrence_holds_for_many_lengths(self):
        enc = self.make(3)
        for length in range(1, 21):
            expected = length
            for _ in range(2):
                expected = (expected + 1) // 2
            assert self.length_after(enc, length) == expected

    def test_single_layer_degenerates_to_plain_bilstm(self):
        pyramid = self.make(1, seed=11)
        runtime = Runtime(11)
        plain = make_bilstm(runtime, input_dim=3, hidden=4)
        rng = np.random.default_rng(4)
        xs = [const(rng.normal(size=(2, 3))) for _ in range(6)]
        mask = np.ones((2, 6))
        a = pyramid.transduce(xs, mask, False)
        b = plain.transduce(xs, mask, False)
        assert a.length == b.length
        for x, y in zip(a.states, b.states):
            np.testing.assert_allclose(x.value, y.value, atol=1e-15)

    def test_parameters_are_named_and_shaped_per_layer_in_order(self):
        enc = self.make(2, input_dim=3, hidden=4)
        got = [(p.name, p.shape) for p in enc.runtime.params]
        expected = []
        for layer, dim_in in (("layer0", 3), ("layer1", 8)):
            for direction in ("fwd", "bwd"):
                name = f"enc.{layer}.{direction}"
                expected += [(f"{name}.w_x", (dim_in, 8)), (f"{name}.w_h", (2, 8)),
                             (f"{name}.b", (8,))]
        assert got == expected
        out = enc.transduce([const(np.zeros((1, 3)))] * 4, np.ones((1, 4)), False)
        assert len(out.final_states) == enc.final_state_layers == 1

    def test_pair_masks_follow_first_frame(self):
        enc = self.make(2)
        xs = [const(np.zeros((1, 3))) for _ in range(5)]
        mask = np.asarray([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out = enc.transduce(xs, mask, False)
        assert out.length == 3
        np.testing.assert_array_equal(out.mask, [[1.0, 1.0, 0.0]])


class TestAttender:
    def setup_attention(self, states, mask, seed=0):
        runtime = Runtime(seed)
        att = MlpAttender(runtime, "att", hidden_dim=4)
        att.finalize(enc_dim=3, dec_dim=3)
        from seqrig.nn import EncodedSeq
        enc = EncodedSeq(states=[const(s) for s in states], final_states=[],
                         mask=np.asarray(mask, dtype=np.float64))
        return att, att.init_sent(enc)

    def test_weights_sum_to_one_over_valid_positions(self):
        rng = np.random.default_rng(0)
        att, state = self.setup_attention([rng.normal(size=(2, 3)) for _ in range(5)],
                                          np.ones((2, 5)))
        weights, _ = att.calc(state, const(rng.normal(size=(2, 3))))
        np.testing.assert_allclose(weights.value.sum(axis=1), 1.0, atol=1e-9)

    def test_single_valid_position_takes_all_weight(self):
        rng = np.random.default_rng(1)
        states = [rng.normal(size=(1, 3)) for _ in range(4)]
        att, state = self.setup_attention(states, [[1.0, 0.0, 0.0, 0.0]])
        weights, context = att.calc(state, const(rng.normal(size=(1, 3))))
        np.testing.assert_allclose(weights.value, [[1.0, 0.0, 0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(context.value, states[0], atol=1e-12)

    def test_identical_states_give_uniform_weights(self):
        common = np.random.default_rng(2).normal(size=(1, 3))
        att, state = self.setup_attention([common] * 5, np.ones((1, 5)))
        weights, context = att.calc(state, const(np.zeros((1, 3))))
        np.testing.assert_allclose(weights.value, np.full((1, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(context.value, common, atol=1e-12)

    def test_empty_encoding_rejected(self):
        from seqrig.nn import EncodedSeq
        runtime = Runtime(0)
        att = MlpAttender(runtime, "att", hidden_dim=4)
        att.finalize(enc_dim=3, dec_dim=3)
        with pytest.raises(ValueError, match="empty"):
            att.init_sent(EncodedSeq(states=[], final_states=[], mask=np.ones((1, 0))))


class TestBridgeAndDecoder:
    def test_copy_bridge_copies_final_states(self):
        model, runtime = tiny_translator(seed=0, dim=4)
        enc = model.encode(np.asarray([[3, 4, 5]]), np.ones((1, 3)), False)
        state = model.decoder.initial_state(enc)
        np.testing.assert_array_equal(state.layers[0][0].value,
                                      enc.final_states[0][0].value)
        np.testing.assert_array_equal(state.layers[0][1].value,
                                      enc.final_states[0][1].value)
        np.testing.assert_array_equal(state.prev_context.value, np.zeros((1, 4)))

    def test_dim_mismatch_fails_at_instantiation(self):
        runtime = Runtime(0)
        vocab = tiny_vocab()
        reader = PlainTextReader(vocab)
        kwargs = dict(
            src_reader=reader, trg_reader=reader,
            src_embedder=SimpleWordEmbedder(runtime, "m.src_embedder", emb_dim=4),
            encoder=make_bilstm(runtime, "m.encoder", hidden=8, input_dim=4),
            attender=MlpAttender(runtime, "m.attender", hidden_dim=4),
            trg_embedder=SimpleWordEmbedder(runtime, "m.trg_embedder", emb_dim=4),
            decoder=MlpSoftmaxDecoder(runtime, "m.decoder", layers=1, hidden_dim=4,
                                      mlp_hidden_dim=4, bridge=CopyBridge()),
        )
        with pytest.raises(ValueError, match="CopyBridge"):
            DefaultTranslator(runtime, "m", **kwargs)

    def test_zero_everything_gives_zero_decoder_init(self):
        model, runtime = tiny_translator(seed=0, dim=4)
        for p in runtime.params:
            p.value[...] = 0.0
        enc = model.encode(np.asarray([[3, 3]]), np.ones((1, 2)), False)
        state = model.decoder.initial_state(enc)
        np.testing.assert_array_equal(state.layers[0][0].value, np.zeros((1, 4)))

    def test_logits_cover_target_vocab(self):
        model, runtime = tiny_translator(seed=0, dim=4, n_content=5)
        ctx = model.start_decode([3, 4])
        state, logprobs = model.next_logprobs(ctx, ctx.initial, [0])
        logprobs = logprobs[0]
        assert logprobs.shape == (8,)  # 3 reserved + 5 content

    def test_layer_count_mismatch_rejected(self):
        model, runtime = tiny_translator(seed=0, dim=4)
        enc = model.encode(np.asarray([[3]]), np.ones((1, 1)), False)
        with pytest.raises(ValueError, match="final"):
            CopyBridge().initial_layers(enc, dec_layers=2)


def manual_unroll_loss(runtime, src_ids, trg_ids):
    """Independent numpy re-implementation of the teacher-forced model."""
    def p(name):
        return runtime.params.get(name).value

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def lstm(name, x, h, c):
        g = x @ p(f"{name}.w_x") + h @ p(f"{name}.w_h") + p(f"{name}.b")
        d = g.shape[-1] // 4
        i, f, o, cand = sig(g[:, :d]), sig(g[:, d:2 * d]), sig(g[:, 2 * d:3 * d]), np.tanh(g[:, 3 * d:])
        c2 = f * c + i * cand
        return o * np.tanh(c2), c2

    emb_src = p("model.src_embedder.table")
    half = p("model.encoder.layer0.fwd.w_h").shape[0]
    hf = cf = np.zeros((1, half))
    fwd = []
    for t in src_ids:
        hf, cf = lstm("model.encoder.layer0.fwd", emb_src[[t]], hf, cf)
        fwd.append(hf)
    hb = cb = np.zeros((1, half))
    bwd = [None] * len(src_ids)
    for idx in reversed(range(len(src_ids))):
        hb, cb = lstm("model.encoder.layer0.bwd", emb_src[[src_ids[idx]]], hb, cb)
        bwd[idx] = hb
    states = [np.concatenate([f, b], axis=1) for f, b in zip(fwd, bwd)]
    h_dec = np.concatenate([fwd[-1], bwd[0]], axis=1)
    c_dec = np.concatenate([cf, cb], axis=1)

    w_enc, w_dec_att = p("model.attender.w_enc"), p("model.attender.w_dec")
    b_att, v_att = p("model.attender.b"), p("model.attender.v")
    pre = [s @ w_enc + b_att for s in states]

    emb_trg = p("model.trg_embedder.table")
    ctx = np.zeros((1, states[0].shape[1]))
    loss = 0.0
    prev = SS
    for gold in trg_ids:
        x = np.concatenate([emb_trg[[prev]], ctx], axis=1)
        h_dec, c_dec = lstm("model.decoder.layer0", x, h_dec, c_dec)
        scores = np.concatenate([np.tanh(q + h_dec @ w_dec_att) @ v_att for q in pre],
                                axis=1)
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        ctx = sum(weights[0, j] * states[j] for j in range(len(states)))
        m = np.tanh(np.concatenate([h_dec, ctx], axis=1) @ p("model.decoder.w_mlp")
                    + p("model.decoder.b_mlp"))
        logits = m @ p("model.decoder.w_out").T + p("model.decoder.b_out")
        shifted = logits - logits.max()
        logp = shifted - np.log(np.exp(shifted).sum())
        loss -= logp[0, gold]
        prev = gold
    return loss


class TestManualUnrollOracle:
    def test_three_step_unroll_matches_independent_numpy(self):
        model, runtime = tiny_translator(seed=8, dim=2, n_content=2)
        src, trg = [3, 4], [4, 3, ES]
        loss, n_tokens = model.calc_loss(single_batch(src, trg), train=False)
        expected = manual_unroll_loss(runtime, src, trg)
        assert n_tokens == 3
        np.testing.assert_allclose(float(loss.value), expected, rtol=1e-12)


class TestModelGradients:
    def test_full_bilstm_model_passes_finite_differences(self):
        model, runtime = tiny_translator(seed=5, dim=2, n_content=2)
        batch = single_batch([3, 4, 3], [4, 4, ES])

        def build():
            loss, _ = model.calc_loss(batch, train=False)
            return loss

        assert finite_diff_check(build, runtime.params) < 1e-4

    def test_pyramidal_model_passes_finite_differences(self):
        model, runtime = tiny_translator(seed=6, dim=2, n_content=2,
                                         encoder_cls=PyramidalLSTMSeqTransducer,
                                         enc_layers=2)
        # pyramid: encoder final layer count is 1, decoder layers must be 1
        batch = single_batch([3, 4, 3, 4], [3, ES])

        def build():
            loss, _ = model.calc_loss(batch, train=False)
            return loss

        assert finite_diff_check(build, runtime.params) < 1e-4
