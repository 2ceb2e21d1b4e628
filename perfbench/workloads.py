"""The three workloads and the phases every one of them runs.

A workload drives seqrig only through its public API, in the order
``seqrig run`` uses: ``parse_config`` -> ``resolve_anchors`` ->
``instantiate_graph`` -> ``SimpleTrainingRegimen.run`` ->
``save_checkpoint``, then the ``load:`` workflow (``load_checkpoint``,
``apply_overwrites``, ``instantiate_graph``, ``apply_weights``) and
``AccuracyEvalTask.run`` with greedy and beam-5 search.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import math
import re
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from seqrig import configlang, resolver, training
from seqrig.components import default_registry
from seqrig.log import Logger
from seqrig.tasks import LossEvalTask

import corpora
import scoring

# a short region is repeated until its calls add up to this many seconds in
# all, spread over the rounds, in blocks of calls lasting BLOCK_SECONDS
REPEAT_SECONDS = 1.0
BLOCK_SECONDS = 0.05


@dataclass
class Workload:
    name: str
    make_data: Callable[[Path, int, int], None]     # (dir, seed, model seed)
    experiment: str              # the training experiment, with @DATA@/@OUT@
    src_ext: str                 # "src" or "feats"
    eval_metrics: str
    rounds: int                  # the test set is decoded in this many chunks
    min_exact: float = 0.0       # share of outputs equal to their source
    max_wer: float = math.inf
    check_epoch_loss: bool = False
    # when set, the training split and the experiment seed are fixed, so
    # every run decodes with the same model
    model_seed: Optional[int] = None


def _copy_data(out: Path, seed: int, model_seed: int) -> None:
    corpora.write_vocab(out, 16)
    for split, n, s in (("train", 600, model_seed), ("dev", 100, seed), ("test", 160, seed)):
        corpora.token_split(out, split, "copy", n, 16, (1, 8), s)


def _reverse_data(out: Path, seed: int, model_seed: int) -> None:
    corpora.write_vocab(out, 300)
    for split, n, s in (("train", 160, model_seed), ("dev", 64, seed), ("test", 48, seed)):
        corpora.token_split(out, split, "reverse", n, 300, (2, 8), s, zipf=True)


def _feature_data(out: Path, seed: int, model_seed: int) -> None:
    corpora.write_vocab(out, 12)
    for split, n, s in (("train", 500, model_seed), ("dev", 80, seed), ("test", 80, seed)):
        corpora.feature_split(out, split, n, 12, (1, 8), s, feat_dim=8,
                              frames_per_token=4, noise=0.1)


# the README's copy experiment without dropout: at dropout 0.1 and 12 epochs
# some training seeds left a model that got long sentences with repeated
# tokens wrong (on seed 1819559330, 2 of 160 test sentences and 15 of 800)
COPY_D64 = """\
copy_d64: !Experiment
  exp_global: !ExpGlobal
    model_file: @OUT@/{EXP}.mod
    log_file: @OUT@/{EXP}.log
    default_layer_dim: 64
    dropout: 0.0
  model: !DefaultTranslator
    src_reader: !PlainTextReader
      vocab: !Vocab {vocab_file: @DATA@/vocab.txt}
    trg_reader: !PlainTextReader
      vocab: !Vocab {vocab_file: @DATA@/vocab.txt}
    src_embedder: !SimpleWordEmbedder {}
    encoder: !BiLSTMSeqTransducer
      layers: 1
    attender: !MlpAttender {}
    trg_embedder: !SimpleWordEmbedder
      emb_dim: 32
    decoder: !MlpSoftmaxDecoder
      layers: 1
      bridge: !CopyBridge {}
  train: !SimpleTrainingRegimen
    run_for_epochs: 12
    batcher: !SrcBatcher {batch_size: 8}
    src_file: @DATA@/train.src
    trg_file: @DATA@/train.trg
    trainer: !AdamTrainer {lr: 0.002}
    dev_tasks:
      - !LossEvalTask
        src_file: @DATA@/dev.src
        ref_file: @DATA@/dev.trg
"""

# STANDARD_CONFIG of the seqrig test suite, with a short epoch budget and an
# Adam rate low enough that the dev loss improves at every epoch
STD_D512 = """\
std_d512: !Experiment
  exp_global: !ExpGlobal
    model_file: @OUT@/{EXP}.mod
    log_file: @OUT@/{EXP}.log
    default_layer_dim: 512
    dropout: 0.3
  model: !DefaultTranslator
    src_reader: !PlainTextReader
      vocab: !Vocab {vocab_file: @DATA@/vocab.txt}
    trg_reader: !PlainTextReader
      vocab: !Vocab {vocab_file: @DATA@/vocab.txt}
    src_embedder: !SimpleWordEmbedder {}
    encoder: !BiLSTMSeqTransducer
      layers: 1
    attender: !MlpAttender {}
    trg_embedder: !SimpleWordEmbedder
      emb_dim: 128
    decoder: !MlpSoftmaxDecoder
      layers: 1
      bridge: !CopyBridge {}
  train: !SimpleTrainingRegimen
    run_for_epochs: 2
    batcher: !SrcBatcher
      batch_size: 32
    src_file: @DATA@/train.src
    trg_file: @DATA@/train.trg
    trainer: !AdamTrainer {lr: 0.0003}
    dev_tasks:
      - !LossEvalTask
        src_file: @DATA@/dev.src
        ref_file: @DATA@/dev.trg
"""

# ten epochs, not eight: after eight the dev loss still jumps at Adam 0.003,
# and seeds 13 and 23 read WER 0.031 and 0.039 against the 0.05 limit
ASR_PYR = """\
asr_pyr: !Experiment
  exp_global: !ExpGlobal
    model_file: @OUT@/{EXP}.mod
    log_file: @OUT@/{EXP}.log
    default_layer_dim: 32
  model: !DefaultTranslator
    src_reader: !FeatureReader {feat_dim: 8}
    trg_reader: !PlainTextReader
      vocab: !Vocab {vocab_file: @DATA@/vocab.txt}
    src_embedder: !NoopEmbedder {emb_dim: 8}
    encoder: !PyramidalLSTMSeqTransducer {layers: 3}
    attender: !MlpAttender {}
    trg_embedder: !SimpleWordEmbedder {}
    decoder: !MlpSoftmaxDecoder
      layers: 1
      bridge: !CopyBridge {}
  train: !SimpleTrainingRegimen
    run_for_epochs: 10
    batcher: !SrcBatcher {batch_size: 8}
    src_file: @DATA@/train.feats
    trg_file: @DATA@/train.trg
    trainer: !AdamTrainer {lr: 0.003}
    dev_tasks:
      - !LossEvalTask
        src_file: @DATA@/dev.feats
        ref_file: @DATA@/dev.trg
"""

# the DECODE_CONFIG flow of the seqrig test suite; its evaluate list holds a
# greedy and a beam-5 task for every chunk of the test set
DECODE = """\
decode_exp: !Experiment
  load: @MODEL@
  overwrite:
  - path: exp_global.eval_only
    val: True
  - path: evaluate
    val:
@TASKS@"""
DECODE_TASK = """\
    - !AccuracyEvalTask
      src_file: @DATA@/test.@CHUNK@.@EXT@
      ref_file: @DATA@/test.@CHUNK@.trg
      hyp_file: @OUT@/{EXP}.@CHUNK@.@PHASE@.hyp
      eval_metrics: @METRICS@
"""
BEAM5 = "      strategy: beam\n      beam_size: 5\n"


WORKLOADS = {w.name: w for w in [
    Workload("copy-d64", _copy_data, COPY_D64, "src", "accuracy,bleu", rounds=4,
             min_exact=0.99),
    # two epochs leave a dim-512 model far from converged, and how long its
    # outputs run, so the decode work, changes with its training seed (greedy
    # read 13.6 to 39.4 sentences/s over seeds 1-10); dev and test still vary.
    # One round: a save takes 7 s and a load 4 s, each long enough on its own
    Workload("std-d512", _reverse_data, STD_D512, "src", "bleu,accuracy", rounds=1,
             check_epoch_loss=True, model_seed=0),
    Workload("asr-pyr", _feature_data, ASR_PYR, "feats", "wer", rounds=4, max_wer=0.05),
]}

OP_KINDS = ("experiment_setups", "training_batches", "dev_evaluations",
            "checkpoint_saves", "checkpoint_loads", "sentences_decoded")


@dataclass
class Run:
    """What one workload run measured, counted and checked."""

    metrics: dict = field(default_factory=dict)      # end-to-end name -> value
    attempted: dict = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    failed: dict = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))
    checks: list = field(default_factory=list)       # (name, ok, detail)
    walls: dict = field(default_factory=dict)        # phase -> wall seconds

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @contextlib.contextmanager
    def phase(self, name: str, tracer, **ops: int):
        """One phase: a traced span, its wall time, and its operations by
        kind.  If it raises, its operations count as failed (at least one),
        the error is reported and the run goes on with the next phase."""
        for kind, n in ops.items():
            self.attempted[kind] += n
        start = tracer.clock()
        try:
            with tracer.span(f"phase.{name}", name):
                yield
        except Exception:
            for kind, n in ops.items():
                self.attempted[kind] += 0 if n else 1
                self.failed[kind] += n or 1
            print(f"phase {name} failed:", file=sys.stderr)
            traceback.print_exc()
        finally:
            self.walls[name] = self.walls.get(name, 0.0) + tracer.clock() - start


def _fill(template: str, **values) -> str:
    for key, value in values.items():
        template = template.replace(f"@{key}@", str(value))
    return template


def _repeat(clock, budget: float, call) -> tuple[list[float], int, object]:
    """Time ``call`` until its calls add up to ``budget`` seconds (one call
    at least).  Calls shorter than BLOCK_SECONDS are timed in blocks of
    several, with garbage collected between blocks.  Returns the seconds
    per call of each block, the number of calls and the last result."""
    times: list[float] = []
    calls = 0
    total = 0.0
    per_block = 1
    while not times or total < budget:
        gc.collect()
        result = None
        start = clock()
        for _ in range(per_block):
            result = call()
        elapsed = clock() - start
        times.append(elapsed / per_block)
        calls += per_block
        total += elapsed
        per_block = max(1, int(BLOCK_SECONDS / times[-1]))
    return times, calls, result


def _release_memory() -> None:
    """Collect garbage and hand free heap pages back to the system (glibc),
    so that the peak RSS of a load does not depend on how the heap was left
    fragmented by training."""
    gc.collect()
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL("libc.so.6").malloc_trim(0)


def _parse(text: str, name: str):
    return configlang.resolve_anchors(configlang.parse_config(text)).get(name)


def _snapshot(params) -> dict[str, bytes]:
    return {p.name: p.value.tobytes() for p in params}


def run_workload(wl: Workload, seed: int, work: Path, tracer) -> Run:
    """Set up, train, then ``wl.rounds`` rounds of set-up, save, load and
    decoding one chunk of the test set greedily and with beam 5.

    The machine's speed drifts over seconds, so every short metric is
    sampled in every round and reads over the whole second half of the run.
    """
    run = Run()
    data, out = work / "data", work / "out"
    data.mkdir(parents=True)
    out.mkdir()
    model_seed = seed if wl.model_seed is None else wl.model_seed
    wl.make_data(data, seed, model_seed)
    corpora.split_test(data, wl.src_ext, wl.rounds)
    registry = default_registry()
    budget = REPEAT_SECONDS / wl.rounds
    samples = {"setup_s": [], "checkpoint_save_s": [], "checkpoint_load_s": []}
    decoded = {"greedy": [0, 0.0], "beam5": [0, 0.0]}      # sentences, seconds
    outputs = {phase: ([], [], []) for phase in decoded}    # hyps, refs, sources
    dev = LossEvalTask(str(data / f"dev.{wl.src_ext}"), str(data / "dev.trg"))

    exp = None
    with run.phase("setup", tracer, experiment_setups=0):
        exp = _setup(run, wl, data, out, registry, model_seed, tracer.clock, budget, samples)
    with run.phase("train", tracer, **_training_ops(exp)):
        _train(run, wl, exp, tracer.clock)
    saved, dev_before, model_file = {}, None, str(out / "missing.mod")
    with run.phase("dev_before_save", tracer, dev_evaluations=1):
        dev_before = dev.run(exp.model, exp.runtime)[0][1]
        saved = _snapshot(exp.runtime.params)
        model_file = exp.exp_global.model_file

    tasks = "".join(_fill(DECODE_TASK, DATA=data, OUT=out, EXT=wl.src_ext, CHUNK=i,
                          PHASE=phase, METRICS=wl.eval_metrics) + extra
                    for i in range(wl.rounds)
                    for phase, extra in (("greedy", ""), ("beam5", BEAM5)))
    decode_text = _fill(DECODE, MODEL=model_file, TASKS=tasks)
    decoder = None
    for chunk in range(wl.rounds):
        if chunk:
            with run.phase("setup", tracer, experiment_setups=0):
                _setup(run, wl, data, out, registry, model_seed, tracer.clock, budget,
                       samples)
        # the trained experiment in the first round, then its reloaded copy
        trained = exp if chunk == 0 else decoder
        with run.phase("save", tracer, checkpoint_saves=0):
            times, calls, _ = _repeat(tracer.clock, budget,
                                      lambda: training.save_checkpoint(trained, model_file))
            run.attempted["checkpoint_saves"] += calls
            samples["checkpoint_save_s"] += times
        # as in ``seqrig run``, the decode experiment starts afresh
        exp = trained = decoder = None
        with run.phase("load", tracer, checkpoint_loads=0):
            decoder = _load(run, decode_text, registry, model_seed, tracer.clock, budget,
                            samples)
        if decoder is None:
            continue
        run.check(f"reload.{chunk}.bit_identical",
                  _snapshot(decoder.runtime.params) == saved, f"{len(saved)} parameters")
        if chunk == 0:
            with run.phase("dev_after_load", tracer, dev_evaluations=1):
                dev_after = dev.run(decoder.model, decoder.runtime)[0][1]
                run.check("reload.dev_loss_equal", dev_after == dev_before,
                          f"before save {dev_before!r}, after load {dev_after!r}")
        for phase, task in zip(decoded, decoder.evaluate[2 * chunk:2 * chunk + 2]):
            lengths = source_lengths(Path(task.src_file))
            with run.phase(phase, tracer, sentences_decoded=len(lengths)):
                gc.collect()
                start = tracer.clock()
                reported = task.run(decoder.model, decoder.runtime)
                decoded[phase][1] += tracer.clock() - start
                decoded[phase][0] += len(lengths)
                for kept, part in zip(outputs[phase],
                                      _check_decode(run, f"{phase}.{chunk}", task, reported,
                                                    lengths)):
                    kept += part

    for phase, (hyps, refs, sources) in outputs.items():
        if hyps:
            _check_quality(run, wl, phase, hyps, refs, sources)
    for name, times in samples.items():
        if times:
            run.metrics[name] = statistics.median(times)
    for phase, (sentences, seconds) in decoded.items():
        if seconds:
            run.metrics[f"{phase}_sents_per_s"] = sentences / seconds
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


def _setup(run: Run, wl: Workload, data: Path, out: Path, registry, seed: int, clock,
           budget: float, samples: dict):
    """parse_config + resolve_anchors + instantiate_graph, repeated."""
    text = _fill(wl.experiment, DATA=data, OUT=out)
    name = wl.experiment.split(":", 1)[0]
    times, calls, exp = _repeat(clock, budget, lambda: resolver.instantiate_graph(
        _parse(text, name), registry, name, seed_override=seed))
    run.attempted["experiment_setups"] += calls
    samples["setup_s"] += times
    return exp


def _training_ops(exp) -> dict[str, int]:
    if exp is None:
        return {"training_batches": 0, "dev_evaluations": 0}
    regimen = exp.train
    lines = Path(regimen.trg_file).read_text(encoding="utf-8").splitlines()
    epochs = regimen.run_for_epochs
    return {"training_batches": epochs * math.ceil(len(lines) / regimen.batcher.batch_size),
            "dev_evaluations": epochs * len(regimen.dev_tasks)}


def _train(run: Run, wl: Workload, exp, clock) -> None:
    """SimpleTrainingRegimen.run as Experiment.run calls it, then its log checked."""
    regimen = exp.train
    trg_lines = Path(regimen.trg_file).read_text(encoding="utf-8").splitlines()
    corpus_words = sum(len(line.split()) + 1 for line in trg_lines)
    log_file = Path(exp.exp_global.log_file)
    logger = Logger(exp.name, path=str(log_file))
    ctx = training.TrainContext(exp_name=exp.name, runtime=exp.runtime, logger=logger,
                                model_file=exp.exp_global.model_file, exp=exp)
    try:
        # seqrig mirrors its log lines to stdout; the log file keeps them
        with contextlib.redirect_stdout(io.StringIO()):
            gc.collect()
            start = clock()
            regimen.run(ctx, default_model=exp.model)
            seconds = clock() - start
    finally:
        logger.close()
    _check_training_log(run, log_file, regimen.run_for_epochs, corpus_words,
                        wl.check_epoch_loss)
    run.metrics["train_words_per_s"] = regimen.run_for_epochs * corpus_words / seconds


def _load(run: Run, text: str, registry, seed: int, clock, budget: float, samples: dict):
    """The ``load:`` workflow of ``seqrig run``, repeated for ``budget``
    seconds; only ``load_checkpoint`` and ``apply_weights`` are timed."""
    root = resolver.substitute_placeholders(_parse(text, "decode_exp"), "decode_exp")
    overwrites = resolver.parse_overwrites(root.get("overwrite"))
    times: list[float] = []
    decoder = None
    while not times or sum(times) < budget:
        decoder = None
        run.attempted["checkpoint_loads"] += 1
        _release_memory()
        start = clock()
        spec, weights = training.load_checkpoint(root.get("load").value)
        loaded = clock() - start
        (_, exp_tree), = spec.children
        exp_tree = resolver.apply_overwrites(exp_tree, overwrites)
        decoder = resolver.instantiate_graph(exp_tree, registry, "decode_exp",
                                             seed_override=seed)
        start = clock()
        training.apply_weights(decoder.runtime.params, weights)
        times.append(loaded + clock() - start)
        weights = None
    samples["checkpoint_load_s"] += times
    return decoder


def _check_training_log(run: Run, log_file: Path, epochs: int, corpus_words: int,
                        check_epoch_loss: bool) -> None:
    text = log_file.read_text(encoding="utf-8")
    epoch_lines = re.findall(r"epoch=\d+ words=(\d+) loss/word=(\S+)", text)
    dev_losses = [float(v) for v in re.findall(r"dev loss=(\S+)", text)]
    run.check("train.epochs_logged", len(epoch_lines) == epochs,
              f"{len(epoch_lines)} of {epochs}")
    words = {int(w) for w, _ in epoch_lines}
    run.check("train.words", words == {corpus_words},
              f"logged {sorted(words)}, corpus has {corpus_words}")
    # a checkpoint is written at every strict dev improvement
    best = math.inf
    for loss in dev_losses:
        if loss < best:
            best = loss
            run.attempted["checkpoint_saves"] += 1
    if check_epoch_loss and epoch_lines:
        first, last = float(epoch_lines[0][1]), float(epoch_lines[-1][1])
        run.check("train.loss_falls", last < first, f"loss/word {first} -> {last}")


def source_lengths(path: Path) -> list[int]:
    """Source length per sentence: tokens per line, or frames per utterance."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix == ".feats":
        return [int(line.split()[2]) for line in lines if line.startswith("utt ")]
    return [len(line.split()) for line in lines]


def _check_decode(run: Run, phase: str, task, reported, lengths: list[int]):
    """Per-chunk checks; returns the chunk's hypotheses, references and sources."""
    hyps = scoring.read_lines(task.hyp_file)
    refs = scoring.read_lines(task.ref_file)
    for name, value, _ in reported:
        own = scoring.SCORERS[name](hyps, refs)
        run.check(f"{phase}.{name}_matches_own_scorer", abs(own - value) <= 1e-12,
                  f"seqrig {value!r}, benchmark {own!r}")
    over = sum(len(h) > 2 * n + 5 for h, n in zip(hyps, lengths))
    run.check(f"{phase}.length_cap", len(hyps) == len(lengths) and over == 0,
              f"{over} of {len(hyps)} hypotheses over 2*len+5")
    sources = scoring.read_lines(task.src_file) if task.src_file.endswith(".src") else []
    return hyps, refs, sources


def _check_quality(run: Run, wl: Workload, phase: str, hyps, refs, sources) -> None:
    """Whole-test-set checks: copying for copy-d64, WER for asr-pyr."""
    if wl.min_exact > 0:
        share = scoring.exact_match(hyps, sources)
        run.check(f"{phase}.copies_source", share >= wl.min_exact,
                  f"{share:.4f} of outputs equal their source (need {wl.min_exact})")
    if wl.max_wer < math.inf:
        value = scoring.wer(hyps, refs)
        run.check(f"{phase}.wer", value <= wl.max_wer, f"WER {value:.4f} (max {wl.max_wer})")
