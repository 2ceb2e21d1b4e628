"""Search tests: score normalization, beam-vs-enumeration oracles, sampling."""

import numpy as np
import pytest

from seqrig.inference import (Hypothesis, SearchSpec, _rank, decode, default_max_len,
                              normalize_score, sample_rows)

from helpers import (CountingRng, PrefixTableModel, QuantileRng, enumerate_hypotheses,
                     reference_beam_search, reference_sample_search, tiny_translator)


class TestNormalizeScore:
    def test_hand_value(self):
        # 4 ** 1.5 = 8
        assert normalize_score(-10.0, 4, 1.5) == pytest.approx(-1.25)

    def test_zero_exponent_is_identity(self):
        assert normalize_score(-3.7, 9, 0.0) == -3.7

    def test_length_one_is_identity_for_any_exponent(self):
        for alpha in (0.0, 0.7, 1.5, 3.0):
            assert normalize_score(-2.5, 1, alpha) == -2.5

    def test_length_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_score(-1.0, 0, 1.0)


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(strategy="beam", beam_size=0)
        with pytest.raises(ValueError):
            SearchSpec(strategy="wild")
        with pytest.raises(ValueError):
            SearchSpec(strategy="sample", temperature=0.0)
        with pytest.raises(ValueError):
            SearchSpec(length_norm_exp=-1.0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(max_len=0), "max_len"), (dict(strategy="beam", beam_size=3, max_len=-1), "max_len"),
        (dict(strategy="sample", sample_n=0), "sample_n"),
    ])
    def test_decode_limits_below_one_rejected(self, kwargs, message):
        # these once decoded to an empty hypothesis list
        with pytest.raises(ValueError, match=f"{message} must be >= 1"):
            SearchSpec(**kwargs)


class TestBeamSearch:
    def test_beam_one_identical_to_greedy(self):
        for seed in range(5):
            model = PrefixTableModel(vocab_size=3, max_len=4, seed=seed)
            greedy = decode(model, model.src, SearchSpec(strategy="greedy", max_len=4))
            beam1 = decode(model, model.src, SearchSpec(strategy="beam", beam_size=1,
                                                        max_len=4))
            assert greedy[0].ids == beam1[0].ids
            assert greedy[0].logprob == pytest.approx(beam1[0].logprob)

    def test_beam_two_recovers_argmax_on_fixed_toy(self):
        model = PrefixTableModel(vocab_size=3, max_len=3, seed=123)
        enum = enumerate_hypotheses(model, max_len=3)
        best_ids, best_score, _ = max(enum, key=lambda e: e[1])
        found = decode(model, model.src, SearchSpec(strategy="beam", beam_size=2,
                                                    max_len=3, length_norm_exp=0.0))
        assert found[0].logprob == pytest.approx(best_score, abs=1e-12)
        assert found[0].ids == best_ids

    def test_exhaustive_beam_equals_enumeration_argmax(self):
        # beam(V^max_len) must recover the global optimum on enumerable toys
        for seed in range(20):
            max_len = 3 if seed % 2 == 0 else 4
            vocab = 3
            model = PrefixTableModel(vocab_size=vocab, max_len=max_len, seed=seed)
            enum = enumerate_hypotheses(model, max_len=max_len)
            best_ids, best_score, _ = max(enum, key=lambda e: e[1])
            found = decode(model, model.src,
                           SearchSpec(strategy="beam", beam_size=vocab ** max_len,
                                      max_len=max_len))
            best = max(found, key=lambda h: h.logprob)
            assert best.logprob == pytest.approx(best_score, abs=1e-12)
            assert best.ids == best_ids

    def test_monotonicity_larger_beams_never_lose_the_incumbent(self):
        for seed in range(20):
            model = PrefixTableModel(vocab_size=3, max_len=4, seed=seed)
            prev_best = -np.inf
            for k in range(1, 3 ** 4 + 1):
                hyps = decode(model, model.src,
                              SearchSpec(strategy="beam", beam_size=k, max_len=4))
                best = max(h.logprob for h in hyps)
                assert best >= prev_best - 1e-12, f"seed {seed}, k {k}"
                prev_best = best

    def test_alpha_zero_ranking_equals_raw_logprob_ranking(self):
        model = PrefixTableModel(vocab_size=3, max_len=4, seed=7)
        hyps = decode(model, model.src,
                      SearchSpec(strategy="beam", beam_size=6, max_len=4,
                                 length_norm_exp=0.0))
        raw = sorted(hyps, key=lambda h: -h.logprob)
        assert [h.ids for h in hyps] == [h.ids for h in raw]
        assert all(h.normalized_score == h.logprob for h in hyps)

    def test_length_norm_reranks_only(self):
        model = PrefixTableModel(vocab_size=3, max_len=4, seed=9)
        plain = decode(model, model.src, SearchSpec(strategy="beam", beam_size=5,
                                                    max_len=4))
        normed = decode(model, model.src, SearchSpec(strategy="beam", beam_size=5,
                                                     max_len=4, length_norm_exp=1.5))
        # same hypothesis set (pruning untouched), possibly different order
        assert sorted(tuple(h.ids) for h in plain) == sorted(tuple(h.ids) for h in normed)
        for h in normed:
            length = max(1, len(h.ids) - (1 if h.finished else 0))
            assert h.normalized_score == pytest.approx(h.logprob / length ** 1.5)

    def test_decode_is_deterministic(self):
        model, runtime = tiny_translator(seed=4, dim=4, n_content=3)
        spec = SearchSpec(strategy="beam", beam_size=3)
        a = decode(model, [3, 4, 5], spec)
        b = decode(model, [3, 4, 5], spec)
        assert [h.ids for h in a] == [h.ids for h in b]

    def test_monotonicity_on_a_real_model(self):
        for seed in (1, 2, 3):
            model, _ = tiny_translator(seed=seed, dim=4, n_content=3)
            prev = -np.inf
            for k in range(1, 7):
                hyps = decode(model, [3, 4], SearchSpec(strategy="beam", beam_size=k,
                                                        max_len=6))
                best = max(h.logprob for h in hyps)
                assert best >= prev - 1e-12
                prev = best

    def test_empty_source_rejected(self):
        model, _ = tiny_translator(seed=0)
        with pytest.raises(ValueError, match="empty"):
            decode(model, [], SearchSpec())

    def test_logprob_is_nonpositive(self):
        model, _ = tiny_translator(seed=2, dim=4)
        for hyp in decode(model, [3, 4], SearchSpec(strategy="beam", beam_size=4)):
            assert hyp.logprob <= 0.0

    def test_max_len_default_truncates(self):
        model = PrefixTableModel(vocab_size=3, max_len=6, seed=3)
        hyps = decode(model, [3], SearchSpec(strategy="beam", beam_size=2, max_len=2))
        assert all(len(h.ids) <= 2 + 1 for h in hyps)


def _oracle_decode(model, src, spec):
    """The ranked output of the per-hypothesis search for ``spec``."""
    ctx = model.start_decode(src)
    max_len = spec.max_len if spec.max_len is not None else default_max_len(len(src))
    k = 1 if spec.strategy == "greedy" else spec.beam_size
    return _rank(reference_beam_search(model, ctx, max_len, k), spec.length_norm_exp)


def _assert_same_hypotheses(found, expected):
    assert [h.ids for h in found] == [h.ids for h in expected]
    assert [h.finished for h in found] == [h.finished for h in expected]
    for a, b in zip(found, expected):
        assert abs(a.logprob - b.logprob) <= 1e-9
        assert abs(a.normalized_score - b.normalized_score) <= 1e-9


class TestBatchedBeamMatchesOracle:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_real_models(self, k, alpha):
        for seed in range(4):
            model, _ = tiny_translator(seed=seed, dim=4, n_content=3, layers=1 + seed % 2)
            for src in ([3], [3, 4], [5, 4, 3, 3]):
                spec = SearchSpec(strategy="beam", beam_size=k, length_norm_exp=alpha)
                _assert_same_hypotheses(decode(model, src, spec),
                                        _oracle_decode(model, src, spec))

    def test_greedy_on_a_real_model(self):
        model, _ = tiny_translator(seed=5, dim=4, n_content=3, layers=2)
        spec = SearchSpec(strategy="greedy")
        _assert_same_hypotheses(decode(model, [3, 4, 5], spec),
                                _oracle_decode(model, [3, 4, 5], spec))

    def test_exact_ties_break_alike(self):
        # every continuation has the same log-prob, so each step's ranking
        # rests on the token and slot tie-breaks alone
        model = PrefixTableModel(vocab_size=4, max_len=4, seed=0)
        for prefix in model.table:
            model.table[prefix] = np.full(4, -np.log(4.0))
        for k in (1, 2, 3, 7):
            spec = SearchSpec(strategy="beam", beam_size=k, max_len=4)
            _assert_same_hypotheses(decode(model, model.src, spec),
                                    _oracle_decode(model, model.src, spec))

    def test_toy_models(self):
        for seed in range(10):
            model = PrefixTableModel(vocab_size=3, max_len=4, seed=seed)
            for k in (1, 2, 5, 81):
                spec = SearchSpec(strategy="beam", beam_size=k, max_len=4)
                _assert_same_hypotheses(decode(model, model.src, spec),
                                        _oracle_decode(model, model.src, spec))

    def test_select_rows_is_a_no_op_for_rows_in_order(self):
        model, _ = tiny_translator(seed=0, dim=4)
        state = model.start_decode([3, 4]).initial
        assert model.select_rows(state, [0]) is state
        picked = model.select_rows(state, [0, 0, 0])
        assert picked.prev_context.value.shape == (3, 4)
        assert model.select_rows(picked, [0, 1, 2]) is picked


class TestSampling:
    def test_deterministic_given_seed(self):
        model, _ = tiny_translator(seed=4, dim=4)
        spec = SearchSpec(strategy="sample", sample_n=5, temperature=1.0)
        a = decode(model, [3, 4], spec, rng=np.random.default_rng(11))
        b = decode(model, [3, 4], spec, rng=np.random.default_rng(11))
        assert [h.ids for h in a] == [h.ids for h in b]

    def test_temperature_sharpens_toward_greedy(self):
        model = PrefixTableModel(vocab_size=3, max_len=3, seed=5)
        greedy = decode(model, model.src, SearchSpec(strategy="greedy", max_len=3))
        sampled = decode(model, model.src,
                         SearchSpec(strategy="sample", sample_n=8, temperature=1e-4,
                                    max_len=3), rng=np.random.default_rng(0))
        assert all(h.ids == greedy[0].ids for h in sampled)

    def test_sampling_needs_rng(self):
        model = PrefixTableModel(vocab_size=3, max_len=3, seed=5)
        with pytest.raises(ValueError, match="RNG"):
            decode(model, model.src, SearchSpec(strategy="sample"))


def _start_padded(model, srcs):
    """``model.start`` on the padded batch of ``srcs``."""
    src = np.zeros((len(srcs), max(len(s) for s in srcs)), dtype=np.int64)
    mask = np.zeros(src.shape)
    for r, ids in enumerate(srcs):
        src[r, :len(ids)] = ids
        mask[r, :len(ids)] = 1.0
    return model.start(src, mask, train=False)


class TestSampleRowsMatchesOracle:
    """Rows sampled in lockstep against the one-row-at-a-time search they
    replaced (``helpers.reference_sample_search``)."""

    @staticmethod
    def _assert_same_samples(found, expected):
        assert [h.ids for h in found] == [h.ids for h in expected]
        assert [h.finished for h in found] == [h.finished for h in expected]
        for a, b in zip(found, expected):
            assert abs(a.logprob - b.logprob) <= 1e-12

    @pytest.mark.parametrize("u", [0.2, 0.5, 0.9, None], ids=["u0.2", "u0.5", "u0.9", "varied"])
    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_real_models(self, u, temperature):
        for seed in range(4):
            model, _ = tiny_translator(seed=seed, dim=4, n_content=3, layers=1 + seed % 2)
            for src in ([3], [3, 4], [5, 4, 3, 3]):
                for n in (1, 3):
                    spec = SearchSpec(strategy="sample", sample_n=n, temperature=temperature)
                    expected = reference_sample_search(model, model.start_decode(src),
                                                       default_max_len(len(src)), n,
                                                       temperature, QuantileRng(u))
                    self._assert_same_samples(decode(model, src, spec, rng=QuantileRng(u)),
                                              _rank(expected, 0.0))

    @pytest.mark.parametrize("u", [0.3, 0.6, None], ids=["u0.3", "u0.6", "varied"])
    def test_toy_models(self, u):
        # rows that emit the end token keep stepping past it
        for seed in range(10):
            model = PrefixTableModel(vocab_size=3, max_len=4, seed=seed)
            spec = SearchSpec(strategy="sample", sample_n=4, max_len=4)
            expected = reference_sample_search(model, model.start_decode(model.src), 4, 4,
                                               1.0, QuantileRng(u))
            self._assert_same_samples(decode(model, model.src, spec, rng=QuantileRng(u)),
                                      _rank(expected, 0.0))

    def test_one_sample_is_bitwise_the_oracle_under_a_real_stream(self):
        for seed in range(5):
            model, _ = tiny_translator(seed=seed, dim=4, n_content=3)
            spec = SearchSpec(strategy="sample", sample_n=1, temperature=0.7)
            found = decode(model, [3, 4, 5], spec, rng=np.random.default_rng(seed))
            expected = reference_sample_search(model, model.start_decode([3, 4, 5]),
                                               default_max_len(3), 1, 0.7,
                                               np.random.default_rng(seed))
            assert [(h.ids, h.logprob, h.finished) for h in found] == \
                [(h.ids, h.logprob, h.finished) for h in expected]

    @pytest.mark.parametrize("u", [0.5, 0.9, None], ids=["u0.5", "u0.9", "varied"])
    def test_row_alone_equals_row_in_a_padded_batch(self, u):
        short = [4, 3]
        for seed in range(4):
            model, _ = tiny_translator(seed=seed, dim=4, n_content=3, layers=1 + seed % 2)
            results = []
            for srcs, row in (([short], 0), ([[3, 5, 4, 4], short, [5, 5, 3]], 1)):
                ctx = _start_padded(model, srcs)
                ids, logprob = sample_rows(model, ctx, ctx.initial,
                                           [default_max_len(len(s)) for s in srcs], 1.0,
                                           QuantileRng(u))
                results.append((ids[row], float(logprob.value[row])))
            (alone, lp_alone), (batched, lp_batched) = results
            assert alone == batched
            assert abs(lp_alone - lp_batched) <= 1e-12

    def test_rows_draw_once_per_sampled_token(self):
        model, _ = tiny_translator(seed=3, dim=4, n_content=3)
        for seed in range(5):
            rng = CountingRng(seed)
            hyps = decode(model, [3, 4], SearchSpec(strategy="sample", sample_n=6), rng=rng)
            assert rng.draws == sum(len(h.ids) for h in hyps)


class TestHypothesis:
    def test_surface_ids_strip_end_token(self):
        assert Hypothesis(ids=[3, 4, 1], logprob=-1.0).surface_ids() == [3, 4]
        assert Hypothesis(ids=[3, 4], logprob=-1.0, finished=False).surface_ids() == [3, 4]
