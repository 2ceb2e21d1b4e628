"""Losses, decay policy, checkpointing, REINFORCE, and multi-task training."""

import math

import numpy as np
import pytest

from seqrig import tensor as T
from seqrig import training
from seqrig.components import default_registry
from seqrig.configlang import parse_config
from seqrig.data import ES, Batch, SrcBatcher
from seqrig.log import Logger
from seqrig.nn import DenseWordEmbedder
from seqrig.optim import SgdTrainer
from seqrig.resolver import instantiate_graph
from seqrig.tensor import NonFiniteError, Parameter, backward, clip_global_norm
from seqrig.training import (DevRecord, TrainContext, TrainingError, apply_weights,
                             bleu_reward, load_checkpoint, load_weights,
                             reinforce_loss, reinforce_surrogate,
                             run_dev_tasks_and_decay, save_checkpoint, save_weights)

from helpers import reference_param_expr, tiny_translator


class CaptureLogger(Logger):
    def __init__(self, name="t"):
        super().__init__(name, None)
        self.lines = []

    def write_text(self, text):
        self.lines.append(f"[{self.exp_name}] {text}")


def single_batch(src, trg):
    src = np.asarray([src], dtype=np.int64)
    trg = np.asarray([trg], dtype=np.int64)
    return Batch(src, np.ones_like(src, dtype=np.float64),
                 trg, np.ones_like(trg, dtype=np.float64), order=[0])


class TestMleLoss:
    def test_uniform_model_gives_log_vocab_per_token(self):
        model, runtime = tiny_translator(seed=0, dim=4, n_content=5)  # vocab 8
        for p in runtime.params:
            p.value[...] = 0.0
        loss, n = model.calc_loss(single_batch([3, 4], [4, ES]), train=False)
        assert float(loss.value) / n == pytest.approx(math.log(8), abs=1e-12)

    def test_zero_smoothing_equals_summed_gold_neg_logprobs(self):
        # independent path: step the decoder by hand via next_logprobs
        model, _ = tiny_translator(seed=1, dim=4)
        src, trg = [3, 4], [4, 3, ES]
        loss, _ = model.calc_loss(single_batch(src, trg), train=False,
                                  label_smoothing=0.0)
        ctx = model.start_decode(src)
        state, total, prev = ctx.initial, 0.0, 0
        for gold in trg:
            state, logprobs = model.next_logprobs(ctx, state, [prev])
            logprobs = logprobs[0]
            total -= logprobs[gold]
            prev = gold
        assert float(loss.value) == pytest.approx(total, rel=1e-12)

    def test_smoothing_limit(self):
        model, _ = tiny_translator(seed=2, dim=4)
        batch = single_batch([3, 4, 5], [5, 4, ES])
        a, _ = model.calc_loss(batch, train=False, label_smoothing=0.0)
        b, _ = model.calc_loss(batch, train=False, label_smoothing=1e-12)
        assert abs(float(a.value) - float(b.value)) < 1e-8

    def test_smoothed_value_matches_hand_formula(self):
        model, _ = tiny_translator(seed=3, dim=4, n_content=2)  # vocab 5
        eps, gold = 0.2, 4
        ctx = model.start_decode([3, 4])
        _, logprobs = model.next_logprobs(ctx, ctx.initial, [0])
        logprobs = logprobs[0]
        expected = (1 - eps) * -logprobs[gold] + (eps / 5) * -logprobs.sum()
        loss, _ = model.calc_loss(single_batch([3, 4], [gold]), train=False,
                                  label_smoothing=eps)
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)

    def test_padding_extension_never_changes_loss(self):
        model, _ = tiny_translator(seed=4, dim=4)
        src = np.asarray([[3, 4, 0], [4, 0, 0]], dtype=np.int64)
        src_mask = np.asarray([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        trg = np.asarray([[4, 1], [3, 1]], dtype=np.int64)
        trg_mask = np.ones((2, 2))
        plain = Batch(src, src_mask, trg, trg_mask, order=[0, 1])
        wider = Batch(np.pad(src, ((0, 0), (0, 2))), np.pad(src_mask, ((0, 0), (0, 2))),
                      np.pad(trg, ((0, 0), (0, 3))), np.pad(trg_mask, ((0, 0), (0, 3))),
                      order=[0, 1])
        a, na = model.calc_loss(plain, train=False)
        b, nb = model.calc_loss(wider, train=False)
        assert float(a.value) == float(b.value)  # exact equality
        assert na == nb

    def test_empty_batch_rejected(self):
        model, _ = tiny_translator(seed=0)
        batch = Batch(np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1)),
                      np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1)), [])
        with pytest.raises(ValueError, match="empty"):
            model.calc_loss(batch, train=False)

    def test_smoothing_range_validated(self):
        model, _ = tiny_translator(seed=0)
        with pytest.raises(ValueError):
            model.calc_loss(single_batch([3], [3]), train=False, label_smoothing=1.0)


class TestReinforce:
    def test_constant_reward_at_baseline_gives_zero_gradient(self):
        model, runtime = tiny_translator(seed=5, dim=4)
        batch = single_batch([3, 4], [4, 3, ES])
        loss, mean_r, _ = reinforce_loss(model, batch, lambda h, r: 0.7,
                                         baseline=0.7, rng=np.random.default_rng(0))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-15)
        backward(loss)
        assert all(np.all(p.grad == 0.0) for p in runtime.params)
        assert mean_r == pytest.approx(0.7)

    def test_self_reward_is_one_and_finite(self):
        hyp = [3, 4, 5, ES]
        assert bleu_reward(hyp, hyp) == pytest.approx(1.0)

    def test_length_one_enumeration_matches_analytic_gradient(self):
        # V=2: exhaustive expectation of the surrogate gradient vs autodiff
        # of the analytic expected reward
        rewards = np.asarray([0.3, 0.9])
        baseline = 0.25
        w = Parameter("w", np.asarray([0.4, -0.8]))
        expected_grad = np.zeros(2)
        probs = np.exp(w.value) / np.exp(w.value).sum()
        for y in (0, 1):
            w.grad[...] = 0.0
            backward(reinforce_surrogate(T.pick_neg_log_softmax(w.expr(), y),
                                         rewards[y], baseline))
            expected_grad += probs[y] * w.grad
        w.grad[...] = 0.0
        analytic = T.esum(T.mul(T.softmax(w.expr()), T.const(rewards)))
        backward(T.scale(analytic, -1.0))  # surrogate minimizes -E[r]
        np.testing.assert_allclose(expected_grad, w.grad, atol=1e-6)

    def test_length_two_enumeration_matches_analytic_gradient(self):
        start = Parameter("start", np.asarray([0.2, -0.4]))
        trans = Parameter("trans", np.asarray([[0.7, -0.1], [-0.3, 0.5]]))
        rewards = {(a, b): 0.1 + 0.3 * a + 0.5 * b for a in (0, 1) for b in (0, 1)}
        baseline = 0.2

        def neg_logprob(seq):
            first = T.pick_neg_log_softmax(start.expr(), seq[0])
            row = T.lookup(trans.expr(), [seq[0]])
            second = T.esum(T.pick_neg_log_softmax(row, np.asarray([seq[1]])))
            return T.add(first, second)

        p_start = np.exp(start.value) / np.exp(start.value).sum()
        p_trans = np.exp(trans.value) / np.exp(trans.value).sum(axis=1, keepdims=True)
        expected = {name: np.zeros_like(p.value) for name, p in
                    (("start", start), ("trans", trans))}
        for seq, reward in rewards.items():
            start.grad[...] = 0.0
            trans.grad[...] = 0.0
            backward(reinforce_surrogate(neg_logprob(seq), reward, baseline))
            weight = p_start[seq[0]] * p_trans[seq[0], seq[1]]
            expected["start"] += weight * start.grad
            expected["trans"] += weight * trans.grad
        start.grad[...] = 0.0
        trans.grad[...] = 0.0
        analytic = None
        for seq, reward in rewards.items():
            p_first = T.slice_last(T.softmax(start.expr()), seq[0], seq[0] + 1)
            row = T.softmax(T.lookup(trans.expr(), [seq[0]]))
            p_second = T.slice_last(row, seq[1], seq[1] + 1)
            term = T.scale(T.esum(T.mul(p_first, p_second)), reward)
            analytic = term if analytic is None else T.add(analytic, term)
        backward(T.scale(analytic, -1.0))
        np.testing.assert_allclose(expected["start"], start.grad, atol=1e-6)
        np.testing.assert_allclose(expected["trans"], trans.grad, atol=1e-6)

    def test_sampled_loss_is_deterministic_under_seed(self):
        model, _ = tiny_translator(seed=6, dim=4)
        batch = single_batch([3, 4], [4, ES])
        a, _, _ = reinforce_loss(model, batch, bleu_reward, 0.0,
                                 np.random.default_rng(9))
        b, _, _ = reinforce_loss(model, batch, bleu_reward, 0.0,
                                 np.random.default_rng(9))
        assert float(a.value) == float(b.value)

    def test_nonfinite_reward_rejected(self):
        model, _ = tiny_translator(seed=6, dim=4)
        batch = single_batch([3], [3, ES])
        with pytest.raises(TrainingError, match="reward"):
            reinforce_loss(model, batch, lambda h, r: float("nan"), 0.0,
                           np.random.default_rng(0))


class TestParameterLeafGradients:
    """Leaves that add straight into ``Parameter.grad`` against leaves with a
    buffer of their own (``helpers.reference_param_expr``)."""

    # a leaf read by several ops: the oracle sums their contributions in the
    # leaf before adding the total, so the last bits may differ
    SHARED_LEAVES = ("model.attender.w_enc", "model.attender.b", "model.attender.v")

    @staticmethod
    def _gradients(model_kwargs, loss_kind):
        model, runtime = tiny_translator(seed=3, dim=4, n_content=3, dropout=0.3,
                                         word_dropout=0.25, **model_kwargs)
        batch = SrcBatcher(3).make_batches([[3, 4, 5], [4, 3], [5]],
                                           [[4, 3, ES], [3, ES], [5, 4, 3, ES]])[0]
        if loss_kind == "mle":
            loss, _ = model.calc_loss(batch, train=True, label_smoothing=0.1)
        else:
            loss, _, _ = reinforce_loss(model, batch, bleu_reward, 0.2, runtime.rng)
        backward(loss)
        return {p.name: p.grad.copy() for p in runtime.params}

    @pytest.mark.parametrize("loss_kind", ["mle", "reinforce"])
    @pytest.mark.parametrize("model_kwargs", [
        {}, dict(tied=True, trg_embedder_cls=DenseWordEmbedder)], ids=["untied", "tied"])
    def test_equal_to_leaves_with_their_own_buffer(self, model_kwargs, loss_kind, monkeypatch):
        grads = self._gradients(model_kwargs, loss_kind)
        monkeypatch.setattr(Parameter, "expr", reference_param_expr)
        expected = self._gradients(model_kwargs, loss_kind)
        assert list(grads) == list(expected)
        assert all(np.any(g != 0.0) for g in grads.values())
        for name, grad in grads.items():
            if name in self.SHARED_LEAVES:
                np.testing.assert_allclose(grad, expected[name], rtol=1e-12, atol=0.0)
            else:
                np.testing.assert_array_equal(grad, expected[name], err_msg=name)


class ScriptedDevTask:
    """Stub dev task yielding a pre-scripted score sequence."""

    def __init__(self, scores, direction="min"):
        self.scores = list(scores)
        self.direction = direction
        self.model = None

    def run(self, model, runtime):
        return [("loss", self.scores.pop(0), self.direction)]


class TestDecayPolicy:
    def run_sequence(self, scores, patience=1, factor=0.5):
        task = ScriptedDevTask(scores)
        trainer = SgdTrainer(lr=1.0)
        record = DevRecord()
        lrs = []
        for _ in scores:
            run_dev_tasks_and_decay([task], record, trainer,
                                    {"factor": factor, "patience": patience},
                                    None, None, CaptureLogger())
            lrs.append(trainer.lr)
        return lrs, record

    def test_scripted_sequence_decays_exactly_at_third_check(self):
        lrs, record = self.run_sequence([5.0, 4.0, 4.0], patience=1)
        assert lrs == [1.0, 1.0, 0.5]
        assert record.best == 4.0

    def test_strictly_improving_never_decays(self):
        lrs, _ = self.run_sequence([5.0, 4.0, 3.0, 2.0], patience=1)
        assert lrs == [1.0] * 4

    def test_two_decays_compose_to_quarter(self):
        lrs, _ = self.run_sequence([5.0, 5.0, 5.0], patience=1)
        assert lrs == [1.0, 0.5, 0.25]

    def test_patience_two_waits_two_flat_checks(self):
        lrs, _ = self.run_sequence([5.0, 5.0, 5.0, 5.0], patience=2)
        assert lrs == [1.0, 1.0, 0.5, 0.5]

    def test_counter_resets_on_improvement(self):
        lrs, _ = self.run_sequence([5.0, 5.0, 4.0, 4.0], patience=2)
        assert lrs == [1.0, 1.0, 1.0, 1.0]

    def test_needs_a_dev_task(self):
        with pytest.raises(ValueError):
            run_dev_tasks_and_decay([], DevRecord(), SgdTrainer(), {}, None, None,
                                    CaptureLogger())


class TestWeightsRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = [Parameter("a.w", rng.normal(size=(7, 3)) * 10.0 ** rng.uniform(-8, 8)),
                  Parameter("a.b", rng.normal(size=(5,))),
                  Parameter("c", np.asarray(rng.normal()))]

        class Box:
            def __iter__(self):
                return iter(params)

        save_weights(Box(), tmp_path / "w.txt")
        loaded = load_weights(tmp_path / "w.txt")
        assert list(loaded) == ["a.w", "a.b", "c"]
        for p in params:
            assert loaded[p.name].shape == p.value.shape
            np.testing.assert_array_equal(loaded[p.name], p.value)  # bitwise

    @pytest.mark.parametrize("line, text, match", [
        (2, None, r"w\.txt:2: file ends inside parameter 'a\.w'"),
        (3, "1 2 3", r"w\.txt:3: parameter 'a\.w' row has 3 values, expected 4"),
        (5, "1 2 3 4", r"w\.txt:5: parameter 'a\.b' row has 4 values, expected 3"),
        (3, "1 nan 3 4", r"w\.txt:3: parameter 'a\.w' has a non-finite value"),
        (7, "-inf", r"w\.txt:7: parameter 'c' has a non-finite value"),
        (5, "1 abc 3", r"w\.txt:5: parameter 'a\.b' has a non-numeric value"),
        (4, "param a.b x 3", r"w\.txt:4: rank and dims must be non-negative integers"),
        (1, "param a.w 2 2 4.0", r"w\.txt:1: rank and dims must be non-negative integers"),
        (1, "param a.w 2 -1 4", r"w\.txt:1: rank and dims must be non-negative integers"),
        (4, "param a.b 1 3 9", r"w\.txt:4: header dims do not match rank"),
    ], ids=["truncated", "short-row", "long-row", "nan", "inf", "non-numeric",
            "rank-not-int", "dim-not-int", "dim-negative", "extra-dim"])
    def test_defects_name_path_and_line(self, tmp_path, line, text, match):
        params = [Parameter("a.w", np.ones((2, 4))), Parameter("a.b", np.ones(3)),
                  Parameter("c", np.asarray(1.0))]
        path = tmp_path / "w.txt"
        save_weights(params, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        lines = lines[:line] if text is None else lines[:line - 1] + [text] + lines[line:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrainingError, match=match):
            load_weights(path)

    def test_shape_mismatch_names_first_offending_parameter(self, tmp_path):
        model, runtime = tiny_translator(seed=0, dim=4)
        save_weights(runtime.params, tmp_path / "w.txt")
        weights = load_weights(tmp_path / "w.txt")
        other, other_rt = tiny_translator(seed=0, dim=6)
        with pytest.raises(TrainingError, match="model.src_embedder.table"):
            apply_weights(other_rt.params, weights)

    def test_apply_weights_rejects_nonfinite_value(self):
        _, runtime = tiny_translator(seed=0, dim=4)
        weights = {p.name: p.value.copy() for p in runtime.params}
        weights["model.decoder.w_out"][1, 2] = np.inf
        with pytest.raises(NonFiniteError, match=r"'param:model\.decoder\.w_out'"):
            apply_weights(runtime.params, weights)

    def test_name_mismatches_are_strict_both_ways(self, tmp_path):
        model, runtime = tiny_translator(seed=0, dim=4)
        save_weights(runtime.params, tmp_path / "w.txt")
        weights = load_weights(tmp_path / "w.txt")
        same, same_rt = tiny_translator(seed=1, dim=4)
        with pytest.raises(TrainingError, match="bogus.extra"):
            apply_weights(same_rt.params, {"bogus.extra": np.zeros(2)} | weights)
        dropped = dict(weights)
        dropped.pop("model.src_embedder.table")
        with pytest.raises(TrainingError, match="model.src_embedder.table"):
            apply_weights(same_rt.params, dropped)


def copy_config(data, out, epochs=5, dim=16, seed=11, trainer="!AdamTrainer {lr: 0.001}",
                name="copytrain", extra_train="", dev=True):
    dev_block = f"""
    dev_tasks:
      - !LossEvalTask
        src_file: {data}/dev.src
        ref_file: {data}/dev.trg
""" if dev else "\n"
    return f"""\
{name}: !Experiment
  exp_global: !ExpGlobal
    model_file: {out}/{{EXP}}.mod
    log_file: {out}/{{EXP}}.log
    default_layer_dim: {dim}
    seed: {seed}
  model: !DefaultTranslator
    src_reader: !PlainTextReader
      vocab: !Vocab {{vocab_file: {data}/vocab.txt}}
    trg_reader: !PlainTextReader
      vocab: !Vocab {{vocab_file: {data}/vocab.txt}}
    src_embedder: !SimpleWordEmbedder {{}}
    encoder: !BiLSTMSeqTransducer {{layers: 1}}
    attender: !MlpAttender {{}}
    trg_embedder: !SimpleWordEmbedder {{}}
    decoder: !MlpSoftmaxDecoder
      layers: 1
      bridge: !CopyBridge {{}}
  train: !SimpleTrainingRegimen
    run_for_epochs: {epochs}
    batcher: !SrcBatcher {{batch_size: 16}}
    src_file: {data}/train.src
    trg_file: {data}/train.trg
    trainer: {trainer}{extra_train}{dev_block}"""


def instantiate(text, name, registry=None):
    registry = registry or default_registry()
    return instantiate_graph(parse_config(text).get(name), registry, name)


class TestSimpleRegimen:
    def test_zero_epochs_changes_nothing_and_saves_nothing(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=0), "copytrain")
        before = {p.name: p.value.copy() for p in exp.runtime.params}
        exp.run(CaptureLogger())
        for p in exp.runtime.params:
            np.testing.assert_array_equal(p.value, before[p.name])
        assert not (tmp_path / "copytrain.mod").exists()

    def test_loss_nonincreasing_over_first_five_epochs(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=5), "copytrain")
        logger = CaptureLogger("copytrain")
        exp.run(logger)
        losses = [float(line.split("loss/word=")[1])
                  for line in logger.lines if "loss/word=" in line]
        assert len(losses) == 5
        increases = [b / a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(increases) <= 1 and all(r <= 1.02 for r in increases)

    def test_epoch_log_line_format(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=1), "copytrain")
        logger = CaptureLogger("copytrain")
        exp.run(logger)
        epoch_lines = [l for l in logger.lines if " epoch=" in l]
        assert epoch_lines[0].startswith("[copytrain] epoch=1 words=")
        assert "loss/word=" in epoch_lines[0]
        assert not any("task=" in l for l in epoch_lines)
        dev_lines = [l for l in logger.lines if " dev " in l]
        assert dev_lines and "lr=0.001" in dev_lines[0]

    def test_checkpoint_round_trip_reproduces_dev_loss(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=2), "copytrain")
        exp.run(CaptureLogger())
        task = exp.train.dev_tasks[0]
        expected = task.run(exp.model, exp.runtime)[0][1]
        spec, weights = load_checkpoint(tmp_path / "copytrain.mod")
        fresh = instantiate_graph(spec.children[0][1], default_registry(), "copytrain")
        apply_weights(fresh.runtime.params, weights)
        got = fresh.train.dev_tasks[0].run(fresh.model, fresh.runtime)[0][1]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_interrupted_save_keeps_previous_checkpoint(self, copy_data, tmp_path,
                                                       monkeypatch):
        exp = instantiate(copy_config(copy_data, tmp_path, dev=False), "copytrain")
        model_dir = tmp_path / "copytrain.mod"
        save_checkpoint(exp, model_dir)
        before = {f.name: f.read_bytes() for f in model_dir.iterdir()}
        saved = {p.name: p.value.copy() for p in exp.runtime.params}
        for p in exp.runtime.params:
            p.value += 1.0

        def interrupted(params, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("param model.src_embedder.table 2 16 16\n0.5")
                raise RuntimeError("interrupted")

        monkeypatch.setattr(training, "save_weights", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            save_checkpoint(exp, model_dir)
        assert {f.name: f.read_bytes() for f in model_dir.iterdir()} == before
        spec, weights = load_checkpoint(model_dir)
        fresh = instantiate_graph(spec.children[0][1], default_registry(), "copytrain")
        apply_weights(fresh.runtime.params, weights)
        for name, value in saved.items():
            np.testing.assert_array_equal(fresh.runtime.params.get(name).value, value)

    def test_eval_only_skips_training(self, copy_data, tmp_path):
        text = copy_config(copy_data, tmp_path, epochs=3)
        text = text.replace("seed: 11", "seed: 11\n    eval_only: True")
        exp = instantiate(text, "copytrain")
        before = {p.name: p.value.copy() for p in exp.runtime.params}
        exp.run(CaptureLogger())
        for p in exp.runtime.params:
            np.testing.assert_array_equal(p.value, before[p.name])

    def test_nonfinite_loss_aborts_with_batch_id(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=1), "copytrain")
        # large enough that the first matmul's row sums overflow to inf
        exp.runtime.params.get("model.src_embedder.table").value[...] = 1e308
        with np.errstate(over="ignore"), \
                pytest.raises(TrainingError, match=r"epoch 1, batch 0"):
            exp.run(CaptureLogger())

    def test_nonfinite_last_step_aborts_before_checkpoint(self, copy_data, tmp_path):
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=1, dev=False), "copytrain")
        src = exp.model.src_reader.read(exp.train.src_file)
        trg = exp.model.trg_reader.read(exp.train.trg_file, add_eos=True)
        n_batches = len(exp.train.batcher.make_batches(src, trg))
        trainer, steps = exp.train.trainer, []
        adam_step = trainer.step

        def step(params):
            adam_step(params)
            steps.append(None)
            if len(steps) == n_batches:  # the run's last update goes bad
                params.get("model.src_embedder.table").value[0, 0] = np.nan

        trainer.step = step
        with pytest.raises(TrainingError, match=(
                r"op 'param:model\.src_embedder\.table' "
                rf"\(epoch 1, batch {n_batches - 1}\)")):
            exp.run(CaptureLogger())
        assert not (tmp_path / "copytrain.mod").exists()

    def test_reinforce_smoke_trains_without_error(self, copy_data, tmp_path):
        extra = "\n    loss: reinforce"
        exp = instantiate(copy_config(copy_data, tmp_path, epochs=1, dim=8,
                                      extra_train=extra, dev=False), "copytrain")
        exp.run(CaptureLogger())
        regimen = exp.train
        assert regimen._baseline != 0.0  # EMA moved after one epoch

    def test_equals_hand_written_epoch_loop(self, copy_data, tmp_path):
        text = copy_config(copy_data, tmp_path, epochs=2, dim=8, dev=False)
        exp = instantiate(text, "copytrain")
        ctx = TrainContext(exp_name="copytrain", runtime=exp.runtime,
                           logger=CaptureLogger())
        exp.train.run(ctx, default_model=exp.model)
        trained = {p.name: p.value.copy() for p in exp.runtime.params}

        oracle = instantiate(text, "copytrain")  # identical init (same seed)
        model, trainer = oracle.model, oracle.train.trainer
        src = model.src_reader.read(oracle.train.src_file)
        trg = model.trg_reader.read(oracle.train.trg_file, add_eos=True)
        batches = SrcBatcher(16).make_batches(src, trg)
        for _ in range(2):  # epochs
            for batch in SrcBatcher.shuffled(batches, oracle.runtime.rng):
                loss, _ = model.calc_loss(batch, train=True)
                backward(loss)
                clip_global_norm(oracle.runtime.params, 5.0)
                trainer.step(oracle.runtime.params)
        for p in oracle.runtime.params:
            np.testing.assert_allclose(p.value, trained[p.name], atol=0, rtol=0)


def multitask_config(data, out, shared_model_ref: bool, epochs=2, lr0=0.1, lr1=0.1,
                     disjoint=False, share_encoder=False, seed=13, model_file=""):
    def model_block(indent, ref_src=False):
        pad = " " * indent
        if ref_src:
            src_emb = f"{pad}  src_embedder: !Ref {{path: train.tasks.0.model.src_embedder}}\n" \
                      f"{pad}  encoder: !Ref {{path: train.tasks.0.model.encoder}}\n"
        else:
            src_emb = (f"{pad}  src_embedder: !SimpleWordEmbedder {{}}\n"
                       f"{pad}  encoder: !BiLSTMSeqTransducer {{layers: 1}}\n")
        return (f"!DefaultTranslator\n"
                f"{pad}  src_reader: !PlainTextReader\n"
                f"{pad}    vocab: !Vocab {{vocab_file: {data}/vocab.txt}}\n"
                f"{pad}  trg_reader: !PlainTextReader\n"
                f"{pad}    vocab: !Vocab {{vocab_file: {data}/vocab.txt}}\n"
                + src_emb +
                f"{pad}  attender: !MlpAttender {{}}\n"
                f"{pad}  trg_embedder: !SimpleWordEmbedder {{}}\n"
                f"{pad}  decoder: !MlpSoftmaxDecoder\n"
                f"{pad}    layers: 1\n"
                f"{pad}    bridge: !CopyBridge {{}}\n")

    if shared_model_ref:
        task1_model = "!Ref {path: train.tasks.0.model}\n"
    elif share_encoder or disjoint:
        task1_model = model_block(8, ref_src=share_encoder)
    return f"""\
multi: !Experiment
  exp_global: !ExpGlobal
    model_file: "{model_file}"
    default_layer_dim: 8
    seed: {seed}
  train: !MultiTaskRegimen
    tasks:
      - !SimpleTrainingRegimen
        run_for_epochs: {epochs}
        batcher: !SrcBatcher {{batch_size: 16}}
        src_file: {data}/train.src
        trg_file: {data}/train.trg
        trainer: !SgdTrainer {{lr: {lr0}}}
        model: {model_block(8)}
      - !SimpleTrainingRegimen
        run_for_epochs: {epochs}
        batcher: !SrcBatcher {{batch_size: 16}}
        src_file: {data}/train.src
        trg_file: {data}/train.trg
        trainer: !SgdTrainer {{lr: {lr1}}}
        model: {task1_model}"""


class TestMultiTask:
    def test_full_sharing_equals_interleaved_single_task(self, copy_data, tmp_path):
        """Two clones sharing the whole model == one model trained on the
        interleaved batch stream with one (stateless) SGD trainer."""
        text = multitask_config(copy_data, tmp_path, shared_model_ref=True)
        exp = instantiate(text, "multi")
        ctx = TrainContext(exp_name="multi", runtime=exp.runtime,
                           logger=CaptureLogger())
        exp.train.run(ctx)
        trained = {p.name: p.value.copy() for p in exp.runtime.params}

        oracle = instantiate(text, "multi")  # identical init (same seed)
        model = oracle.train.tasks[0].model
        src = model.src_reader.read(oracle.train.tasks[0].src_file)
        trg = model.trg_reader.read(oracle.train.tasks[0].trg_file, add_eos=True)
        batches = SrcBatcher(16).make_batches(src, trg)
        trainer = SgdTrainer(lr=0.1)
        for _ in range(2):  # epochs
            perm0 = SrcBatcher.shuffled(batches, oracle.runtime.rng)
            perm1 = SrcBatcher.shuffled(batches, oracle.runtime.rng)
            for b0, b1 in zip(perm0, perm1):
                for batch in (b0, b1):
                    loss, _ = model.calc_loss(batch, train=True)
                    backward(loss)
                    clip_global_norm(oracle.runtime.params, 5.0)
                    trainer.step(oracle.runtime.params)
        for p in oracle.runtime.params:
            np.testing.assert_allclose(p.value, trained[p.name], atol=1e-12)

    def test_disjoint_tasks_do_not_interact(self, copy_data, tmp_path):
        final = {}
        for label, lr0 in (("normal", 0.1), ("frozen0", 0.0)):
            text = multitask_config(copy_data, tmp_path, shared_model_ref=False,
                                    disjoint=True, lr0=lr0)
            exp = instantiate(text, "multi")
            ctx = TrainContext(exp_name="multi", runtime=exp.runtime,
                               logger=CaptureLogger())
            exp.train.run(ctx)
            final[label] = {p.name: p.value.copy() for p in exp.runtime.params
                            if p.name.startswith("train.tasks.1.model")}
        assert final["normal"].keys() == final["frozen0"].keys()
        for name in final["normal"]:
            np.testing.assert_array_equal(final["normal"][name], final["frozen0"][name])

    def test_frozen_task_leaves_exclusive_parameters_untouched(self, copy_data, tmp_path):
        text = multitask_config(copy_data, tmp_path, shared_model_ref=False,
                                share_encoder=True, lr1=0.0)
        exp = instantiate(text, "multi")
        before = {p.name: p.value.copy() for p in exp.runtime.params}
        ctx = TrainContext(exp_name="multi", runtime=exp.runtime,
                           logger=CaptureLogger())
        exp.train.run(ctx)
        shared_moved = any(
            not np.array_equal(p.value, before[p.name])
            for p in exp.runtime.params
            if p.name.startswith("train.tasks.0.model.encoder"))
        assert shared_moved
        for p in exp.runtime.params:
            if p.name.startswith("train.tasks.1.model"):
                np.testing.assert_array_equal(p.value, before[p.name])

    def test_checkpoint_at_end_without_dev_tasks(self, copy_data, tmp_path):
        text = multitask_config(copy_data, tmp_path, shared_model_ref=False,
                                share_encoder=True, model_file=tmp_path / "multi.mod")
        exp = instantiate(text, "multi")
        logger = CaptureLogger("multi")
        exp.run(logger)
        epoch_lines = [l for l in logger.lines if " epoch=" in l]
        assert len(epoch_lines) == 4
        assert all(l.startswith("[multi] task=task") for l in epoch_lines)
        spec, weights = load_checkpoint(tmp_path / "multi.mod")
        fresh = instantiate_graph(spec.children[0][1], default_registry(), "multi")
        apply_weights(fresh.runtime.params, weights)
        for p in exp.runtime.params:
            np.testing.assert_array_equal(fresh.runtime.params.get(p.name).value, p.value)

    def test_needs_at_least_two_tasks(self):
        from seqrig.training import MultiTaskRegimen
        with pytest.raises(ValueError):
            MultiTaskRegimen(tasks=[])


class TestEvalTasks:
    def test_uniform_model_eval_loss_is_log_vocab(self, copy_data):
        from seqrig.tasks import LossEvalTask
        model, runtime = tiny_translator(seed=0, dim=4, n_content=7)  # vocab 10
        for p in runtime.params:
            p.value[...] = 0.0
        task = LossEvalTask(str(copy_data / "dev.src"), str(copy_data / "dev.trg"))
        name, score, direction = task.run(model, runtime)[0]
        assert name == "loss" and direction == "min"
        assert score == pytest.approx(math.log(10), abs=1e-12)

    def test_repeated_evaluation_is_identical(self, copy_data):
        from seqrig.tasks import LossEvalTask
        model, runtime = tiny_translator(seed=1, dim=4, n_content=7)
        task = LossEvalTask(str(copy_data / "dev.src"), str(copy_data / "dev.trg"))
        first = task.run(model, runtime)[0][1]
        second = task.run(model, runtime)[0][1]
        assert first == second

    def test_accuracy_task_writes_hyp_file_in_order(self, copy_data, tmp_path):
        from seqrig.tasks import AccuracyEvalTask
        model, runtime = tiny_translator(seed=2, dim=4, n_content=7)
        hyp = tmp_path / "out.hyp"
        task = AccuracyEvalTask(str(copy_data / "dev.src"), str(copy_data / "dev.trg"),
                                hyp_file=str(hyp), eval_metrics="accuracy,wer,bleu")
        results = task.run(model, runtime)
        assert [r[0] for r in results] == ["accuracy", "wer", "bleu"]
        lines = hyp.read_text().splitlines()
        assert len(lines) == len((copy_data / "dev.src").read_text().splitlines())
