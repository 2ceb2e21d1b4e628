"""CLI runner tests: multi-experiment runs, logging, search, gendata."""

import random

import pytest

from seqrig.cli import main, random_search, run_experiments, sample_assignments
from seqrig.configlang import ParseError
from seqrig.log import Logger
from seqrig.resolver import ResolveError

from conftest import DECODE_CONFIG, STANDARD_CONFIG, fill


def small_experiment(name, data, out, epochs=1, seed=3, eval_metrics="accuracy"):
    return f"""\
{name}: !Experiment
  exp_global: !ExpGlobal
    model_file: {out}/{{EXP}}.mod
    log_file: {out}/{{EXP}}.log
    default_layer_dim: 8
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
    dev_tasks:
      - !LossEvalTask
        src_file: {data}/dev.src
        ref_file: {data}/dev.trg
  evaluate:
  - !AccuracyEvalTask
    src_file: {data}/test.src
    ref_file: {data}/test.trg
    hyp_file: {out}/{{EXP}}.hyp
    eval_metrics: {eval_metrics}
"""


class TestLogger:
    def test_epoch_event_format(self, capsys):
        logger = Logger("mini_experiment")
        logger.write({"epoch": 1, "words": 1024, "loss/word": 2.31})
        out = capsys.readouterr().out.rstrip("\n")
        assert out == "[mini_experiment] epoch=1 words=1024 loss/word=2.31"

    def test_start_event_format(self, capsys):
        logger = Logger("mini_experiment")
        logger.write_text("start config=conf.yaml")
        assert capsys.readouterr().out.rstrip("\n") == \
            "[mini_experiment] start config=conf.yaml"

    def test_file_mirrors_stdout(self, tmp_path, capsys):
        path = tmp_path / "x.log"
        logger = Logger("e", str(path))
        logger.write({"a": 1})
        logger.close()
        assert path.read_text() == "[e] a=1\n"
        assert capsys.readouterr().out == "[e] a=1\n"

    def test_unwritable_path_degrades_to_stdout(self, capsys):
        logger = Logger("e", "/proc/definitely/not/writable.log")
        logger.write({"a": 1})
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "[e] a=1" in captured.out


class TestRunExperiments:
    def test_two_experiments_run_in_file_order(self, copy_data, tmp_path):
        text = (small_experiment("exp_a", copy_data, tmp_path)
                + small_experiment("exp_b", copy_data, tmp_path))
        cfg = tmp_path / "two.yaml"
        cfg.write_text(text)
        results = run_experiments(cfg)
        assert [r.name for r in results] == ["exp_a", "exp_b"]
        assert all(r.status == "ok" for r in results)
        assert (tmp_path / "exp_a.log").exists() and (tmp_path / "exp_b.log").exists()
        log_a = (tmp_path / "exp_a.log").read_text().splitlines()
        assert all(line.startswith("[exp_a] ") for line in log_a)

    def test_selection_runs_only_the_subset(self, copy_data, tmp_path):
        text = (small_experiment("exp_a", copy_data, tmp_path)
                + small_experiment("exp_b", copy_data, tmp_path))
        cfg = tmp_path / "two.yaml"
        cfg.write_text(text)
        results = run_experiments(cfg, selection=["exp_b"])
        assert [r.name for r in results] == ["exp_b"]
        assert not (tmp_path / "exp_a.log").exists()

    def test_selection_reproduces_full_run_seed(self, copy_data, tmp_path):
        text = (small_experiment("exp_a", copy_data, tmp_path / "full")
                + small_experiment("exp_b", copy_data, tmp_path / "full"))
        cfg = tmp_path / "two.yaml"
        cfg.write_text(text)
        full = run_experiments(cfg)
        (tmp_path / "sel").mkdir()
        text_sel = text.replace(str(tmp_path / "full"), str(tmp_path / "sel"))
        cfg_sel = tmp_path / "two_sel.yaml"
        cfg_sel.write_text(text_sel)
        only_b = run_experiments(cfg_sel, selection=["exp_b"])
        assert only_b[0].metrics == full[1].metrics
        full_w = (tmp_path / "full" / "exp_b.mod" / "weights.txt").read_bytes()
        sel_w = (tmp_path / "sel" / "exp_b.mod" / "weights.txt").read_bytes()
        assert full_w == sel_w

    def test_failure_does_not_stop_the_rest(self, copy_data, tmp_path):
        broken = small_experiment("bad", copy_data, tmp_path).replace(
            f"{copy_data}/vocab.txt", f"{copy_data}/missing.txt")
        text = broken + small_experiment("good", copy_data, tmp_path)
        cfg = tmp_path / "mix.yaml"
        cfg.write_text(text)
        results = run_experiments(cfg)
        assert [r.status for r in results] == ["failed", "ok"]
        assert results[0].error and results[0].metrics is None
        assert results[1].metrics is not None

    def test_unparseable_config_aborts_before_running(self, copy_data, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("a: 1\na: 2\n")
        with pytest.raises(ParseError):
            run_experiments(cfg)
        assert not list(tmp_path.glob("*.log"))

    def test_exit_code_counts_failures(self, copy_data, tmp_path):
        broken = small_experiment("bad", copy_data, tmp_path).replace(
            f"{copy_data}/vocab.txt", f"{copy_data}/missing.txt")
        cfg = tmp_path / "mix.yaml"
        cfg.write_text(broken + small_experiment("good", copy_data, tmp_path))
        assert main(["run", str(cfg)]) == 1

    def test_same_config_reruns_byte_identical(self, copy_data, tmp_path):
        logs = []
        for run in ("one", "two"):
            out = tmp_path / run
            cfg = tmp_path / f"{run}.yaml"
            cfg.write_text(small_experiment("exp", copy_data, out, epochs=2))
            run_experiments(cfg)
            logs.append((out / "exp.log").read_bytes())
            # strip the config-path start line, which legitimately differs
        a = b"\n".join(logs[0].split(b"\n")[1:])
        b = b"\n".join(logs[1].split(b"\n")[1:])
        assert a == b

    def test_load_workflow(self, copy_data, tmp_path):
        train_cfg = tmp_path / "standard.yaml"
        train_cfg.write_text(fill(STANDARD_CONFIG, copy_data, tmp_path)
                             .replace("default_layer_dim: 512", "default_layer_dim: 8")
                             .replace("emb_dim: 128", "emb_dim: 8")
                             .replace("run_for_epochs: 20", "run_for_epochs: 1")
                             .replace("mini_experiment", "standard"))
        assert main(["run", str(train_cfg)]) == 0
        decode_cfg = tmp_path / "decode.yaml"
        decode_cfg.write_text(fill(DECODE_CONFIG, copy_data, tmp_path))
        results = run_experiments(decode_cfg)
        assert results[0].status == "ok"
        hyp = tmp_path / "decode_exp.test_hyp2"
        assert hyp.exists()
        assert len(hyp.read_text().splitlines()) == 20
        # eval_only: the checkpoint was not overwritten by new training
        assert "accuracy" in results[0].metrics


class TestRandomSearch:
    def test_documented_sampling_order_is_reproducible(self):
        slots = [("emb_dim", "model.src_embedder.emb_dim", [32, 64]),
                 ("lr", "train.trainer.lr", [0.1, 0.01])]
        got = sample_assignments(slots, trials=4, seed=7)
        rng = random.Random(7)
        expected = [[vals[rng.randrange(len(vals))] for _, _, vals in slots]
                    for _ in range(4)]
        assert got == expected

    def test_single_slot_single_value_three_identical_trials(self, copy_data, tmp_path):
        cfg = tmp_path / "base.yaml"
        cfg.write_text(small_experiment("base", copy_data, tmp_path, epochs=1))
        space = tmp_path / "space.yaml"
        space.write_text("dim:\n  path: exp_global.default_layer_dim\n  values:\n    - 8\n")
        results = random_search(cfg, space, trials=3, seed=0)
        assert len(results) == 3
        assert [r.name for r in results] == ["base_trial0", "base_trial1", "base_trial2"]
        assert all(r.status == "ok" for r in results)

    def test_sampled_overwrites_are_applied(self, copy_data, tmp_path):
        cfg = tmp_path / "base.yaml"
        cfg.write_text(small_experiment("base", copy_data, tmp_path, epochs=1))
        space = tmp_path / "space.yaml"
        space.write_text("dim:\n  path: exp_global.default_layer_dim\n  values:\n"
                         "    - 4\n    - 6\n")
        results = random_search(cfg, space, trials=4, seed=5)
        assert all(r.status == "ok" for r in results)
        slots = [("dim", "exp_global.default_layer_dim", [4, 6])]
        expected_dims = [a[0] for a in sample_assignments(slots, 4, 5)]
        assert len(set(expected_dims)) == 2  # both values drawn at this seed
        for trial, dim in enumerate(expected_dims):
            # the sampled dim shows up in the trial's saved parameter shapes
            weights = (tmp_path / f"base_trial{trial}.mod" / "weights.txt").read_text()
            header = [l for l in weights.splitlines()
                      if l.startswith("param model.encoder.layer0.fwd.w_h ")][0]
            assert header.split()[-2] == str(dim // 2)

    def test_invalid_slot_path_rejected(self, copy_data, tmp_path):
        cfg = tmp_path / "base.yaml"
        cfg.write_text(small_experiment("base", copy_data, tmp_path))
        space = tmp_path / "space.yaml"
        space.write_text("x:\n  path: no.such.path\n  values:\n    - 1\n")
        from seqrig.resolver import ResolveError
        with pytest.raises(ResolveError, match="no.such.path"):
            random_search(cfg, space, trials=1)

    def test_invalid_slot_path_names_the_slot_location(self, tmp_path):
        cfg = tmp_path / "base.yaml"
        cfg.write_text("base: !Experiment\n  exp_global: !ExpGlobal {}\n")
        space = tmp_path / "space.yaml"
        space.write_text("ok:\n  path: exp_global\n  values:\n    - 1\n"
                         "x:\n  path: exp_global.nope.deeper\n  values:\n    - 1\n")
        with pytest.raises(ResolveError, match=r"not found .*\(line 6, col 3\)"):
            random_search(cfg, space, trials=1)

    def test_non_string_slot_path_exits_with_error(self, tmp_path, capsys):
        cfg = tmp_path / "base.yaml"
        cfg.write_text("base: !Experiment\n  exp_global: !ExpGlobal {}\n")
        space = tmp_path / "space.yaml"
        space.write_text("x:\n  path: 5\n  values:\n    - 1\n")
        rc = main(["search", str(cfg), "--space", str(space), "--trials", "1"])
        assert rc == 1
        assert "error: search slot 'x' requires a string 'path'" in capsys.readouterr().err


class TestGendata:
    def test_writes_all_splits(self, tmp_path):
        out = tmp_path / "d"
        rc = main(["gendata", "reverse", "--out", str(out), "--vocab-size", "12",
                   "--train", "30", "--dev", "10", "--test", "10", "--seed", "4"])
        assert rc == 0
        for name in ("vocab.txt", "train.src", "train.trg", "dev.src", "dev.trg",
                     "test.src", "test.trg"):
            assert (out / name).exists(), name

    def test_feats_task_writes_feature_container(self, tmp_path):
        out = tmp_path / "f"
        rc = main(["gendata", "feats", "--out", str(out), "--vocab-size", "8",
                   "--train", "5", "--dev", "2", "--test", "2", "--feat-dim", "4"])
        assert rc == 0
        assert (out / "train.feats").read_text().startswith("utt ")

    def test_cli_is_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            main(["gendata", "copy", "--out", str(tmp_path / sub), "--vocab-size",
                  "9", "--train", "20", "--dev", "5", "--test", "5", "--seed", "2"])
        for name in ("train.src", "dev.trg", "vocab.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_bad_arguments_exit_nonzero(self, tmp_path):
        rc = main(["gendata", "copy", "--out", str(tmp_path), "--vocab-size", "2"])
        assert rc == 1
