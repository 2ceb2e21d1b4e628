"""Training: losses, regimens, dev-driven LR decay, checkpointing.

Both regimens run through one round-robin loop, :func:`train_round_robin`;
single-task training is its one-task case.

Loss values are summed over tokens for the optimizer and divided by the
token count for logging, so logged loss/word is batch-size independent.
Gradients get a single global-norm clip at 5.0 before every step, and every
parameter is checked for NaN or Inf after it, so a bad update aborts at its
own batch, naming ``param:<name>``.

Checkpoint layout under ``<model_file>/``: ``spec.yaml`` (the dumped
experiment, runnable as-is) and ``weights.txt`` (per parameter a header
``param <name> <rank> <d1..dk>`` followed by row-major decimals with 17
significant digits, which round-trips float64 exactly).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .data import ES, SrcBatcher, Batch
from .inference import default_max_len
from .log import Logger, fmt_value
from .metrics import sentence_bleu_smooth
from .optim import AdamTrainer
from .tensor import NonFiniteError, Runtime, clip_global_norm

GRAD_CLIP_NORM = 5.0
BASELINE_DECAY = 0.9


class TrainingError(Exception):
    pass


@dataclass
class TrainContext:
    """What a regimen needs from its surrounding experiment."""

    exp_name: str
    runtime: Runtime
    logger: Logger
    model_file: str = ""
    exp: object = None  # dumped for checkpoints when set


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def reinforce_surrogate(neg_logprob_sum: T.Expr, reward: float, baseline: float) -> T.Expr:
    """Policy-gradient surrogate for one sampled sequence.

    The reward is treated as a constant, so backward through
    ``(reward - baseline) * sum(-log p)`` yields the REINFORCE gradient.
    """
    return T.scale(neg_logprob_sum, reward - baseline)


def _strip_eos(ids: list[int]) -> list[int]:
    return ids[:-1] if ids and ids[-1] == ES else ids


def bleu_reward(hyp_ids: list[int], ref_ids: list[int]) -> float:
    """Default REINFORCE reward: +1-smoothed sentence BLEU on token ids."""
    return sentence_bleu_smooth(_strip_eos(hyp_ids), _strip_eos(ref_ids))


def sample_sequence(model, ctx, rng: np.random.Generator, max_len: int):
    """Draw one sequence from the model, keeping -log p terms in the graph."""
    from .data import SS

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


def reinforce_loss(model, batch: Batch, reward_fn: Callable = bleu_reward,
                   baseline: float = 0.0, rng: Optional[np.random.Generator] = None):
    """Sampled policy-gradient loss over a batch.

    Each row is sampled autoregressively up to 2*src_len+5 tokens; rows that
    never emit the end token are truncated and rewarded as-is.  Returns the
    surrogate loss node, the mean reward, and the sampled token count.
    """
    if rng is None:
        raise ValueError("reinforce_loss needs the experiment RNG")
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
        ids, neg_logprob = sample_sequence(model, ctx, rng, default_max_len(model.src_length(src_item)))
        reward = float(reward_fn(ids, ref))
        if not np.isfinite(reward):
            raise TrainingError("reward function returned a non-finite value")
        rewards.append(reward)
        term = reinforce_surrogate(neg_logprob, reward, baseline)
        loss = term if loss is None else T.add(loss, term)
        n_tokens += len(ids)
    return loss, float(np.mean(rewards)), n_tokens


# ---------------------------------------------------------------------------
# dev evaluation and decay
# ---------------------------------------------------------------------------


@dataclass
class DevRecord:
    """History of dev scores; the counter resets exactly on strict improvement."""

    direction: str = "min"
    history: list[float] = field(default_factory=list)
    best: Optional[float] = None
    since_improvement: int = 0

    def update(self, score: float) -> bool:
        self.history.append(score)
        better = (self.best is None
                  or (self.direction == "min" and score < self.best)
                  or (self.direction == "max" and score > self.best))
        if better:
            self.best = score
            self.since_improvement = 0
        else:
            self.since_improvement += 1
        return better


DEFAULT_LR_DECAY = {"factor": 0.5, "patience": 1}


def run_dev_tasks_and_decay(dev_tasks, record: DevRecord, trainer, decay: dict,
                            model, runtime, logger: Logger) -> bool:
    """Run all dev tasks; the first task's first score drives decay/improvement.

    After ``patience`` consecutive checks without strict improvement the
    learning rate is multiplied by ``factor`` and the counter resets.
    Returns whether the driving score improved.
    """
    if not dev_tasks:
        raise ValueError("need at least one dev task")
    driving: Optional[float] = None
    for i, task in enumerate(dev_tasks):
        results = task.run(model, runtime)
        for name, score, direction in results:
            logger.write_text(f"dev {name}={fmt_value(score)} lr={fmt_value(trainer.lr)}")
            if i == 0 and driving is None:
                driving = score
                record.direction = direction
    improved = record.update(driving)
    if not improved and record.since_improvement >= decay.get("patience", 1):
        trainer.lr *= decay.get("factor", 0.5)
        record.since_improvement = 0
    return improved


# ---------------------------------------------------------------------------
# regimens
# ---------------------------------------------------------------------------


class SimpleTrainingRegimen:
    """Epoch-based training of one model on one parallel corpus.

    Runs as the one-task case of :func:`train_round_robin`.
    """

    def __init__(self, run_for_epochs: int, src_file: str, trg_file: str,
                 batcher: Optional[SrcBatcher] = None, dev_tasks=None, trainer=None,
                 loss: str = "mle", label_smoothing: float = 0.0,
                 lr_decay: Optional[dict] = None, model=None, name: Optional[str] = None):
        if run_for_epochs < 0:
            raise ValueError("run_for_epochs must be >= 0")
        if loss not in ("mle", "reinforce"):
            raise ValueError(f"unknown loss '{loss}'")
        decay = dict(DEFAULT_LR_DECAY)
        if lr_decay:
            decay.update(lr_decay)
        if not 0.0 < decay["factor"] < 1.0:
            raise ValueError("lr_decay factor must be in (0, 1)")
        self.run_for_epochs = run_for_epochs
        self.src_file = src_file
        self.trg_file = trg_file
        self.batcher = batcher if batcher is not None else SrcBatcher(32)
        self.dev_tasks = list(dev_tasks) if dev_tasks else []
        self.trainer = trainer if trainer is not None else AdamTrainer()
        self.loss = loss
        self.label_smoothing = label_smoothing
        self.lr_decay = decay
        self.model = model
        self.name = name
        self._baseline = 0.0
        self._record = DevRecord()

    def _calc_loss(self, model, batch: Batch, rng):
        if self.loss == "mle":
            return model.calc_loss(batch, train=True, label_smoothing=self.label_smoothing)
        loss, mean_reward, n_tokens = reinforce_loss(model, batch, bleu_reward,
                                                     self._baseline, rng)
        self._baseline = BASELINE_DECAY * self._baseline + (1 - BASELINE_DECAY) * mean_reward
        return loss, n_tokens

    def _train_batch(self, model, batch: Batch, runtime: Runtime, epoch: int, index: int):
        try:
            loss, n_tokens = self._calc_loss(model, batch, runtime.rng)
            T.backward(loss)
            clip_global_norm(runtime.params, GRAD_CLIP_NORM)
            self.trainer.step(runtime.params)
            runtime.params.check_finite()
        except NonFiniteError as err:
            raise TrainingError(f"aborting: {err} (epoch {epoch}, batch {index})") from err
        return float(loss.value), n_tokens

    def run(self, ctx: TrainContext, default_model=None) -> None:
        train_round_robin([self], ctx, default_model)


class MultiTaskRegimen:
    """Round-robin multi-task training: one batch per task per cycle.

    Each task is a SimpleTrainingRegimen with its own model (components may
    be shared across tasks via config references), its own data, loss, and
    optimizer.  See :func:`train_round_robin` for the schedule, dev
    evaluation and checkpointing.
    """

    def __init__(self, tasks):
        if not tasks or len(tasks) < 2:
            raise ValueError("MultiTaskRegimen needs at least two tasks")
        self.tasks = list(tasks)

    def run(self, ctx: TrainContext, default_model=None) -> None:
        train_round_robin(self.tasks, ctx, default_model)


@dataclass
class _TaskRun:
    """Progress of one task through its epochs."""

    task: SimpleTrainingRegimen
    model: object
    batches: list[Batch]
    order: list[Batch] = field(default_factory=list)  # this epoch's shuffled batches
    index: int = 0
    epoch: int = 0
    loss: float = 0.0
    words: int = 0


def train_round_robin(tasks: list[SimpleTrainingRegimen], ctx: TrainContext,
                      default_model=None) -> None:
    """Train ``tasks`` in strict round robin, one batch per task per cycle.

    Every task reshuffles its batches from the experiment stream at the start
    of each of its epochs and leaves the cycle after ``run_for_epochs``.  At
    each task's epoch end its epoch line is logged and its dev tasks run and
    drive its learning-rate decay.  The checkpoint follows the first task: it
    is saved on each strict improvement of that task's dev score or, when the
    first task has no dev tasks, once at the end.  With more than one task,
    epoch lines carry a ``task=<name>`` key and errors name the task.
    """
    multi = len(tasks) > 1
    can_save = bool(ctx.model_file) and ctx.exp is not None
    runs = []
    for i, task in enumerate(tasks):
        model = task.model if task.model is not None else default_model
        if model is None:
            raise TrainingError(f"task {i} has no model" if multi
                                else "training regimen has no model")
        src = model.src_reader.read(task.src_file)
        trg = model.trg_reader.read(task.trg_file, add_eos=True)
        runs.append(_TaskRun(task, model, task.batcher.make_batches(src, trg)))
    while any(run.epoch < run.task.run_for_epochs for run in runs):
        for i, run in enumerate(runs):
            task = run.task
            if run.epoch >= task.run_for_epochs:
                continue
            if run.index == len(run.order):
                run.order = SrcBatcher.shuffled(run.batches, ctx.runtime.rng)
                run.index, run.loss, run.words = 0, 0.0, 0
            try:
                loss_value, n_tokens = task._train_batch(
                    run.model, run.order[run.index], ctx.runtime, run.epoch + 1, run.index)
            except TrainingError as err:
                if multi:
                    raise TrainingError(f"task {i}: {err}") from err
                raise
            run.index += 1
            run.loss += loss_value
            run.words += n_tokens
            if run.index < len(run.order):
                continue
            run.epoch += 1
            line = {"task": task.name or f"task{i}"} if multi else {}
            line.update({"epoch": run.epoch, "words": run.words,
                         "loss/word": run.loss / max(run.words, 1)})
            ctx.logger.write(line)
            if task.dev_tasks:
                improved = run_dev_tasks_and_decay(task.dev_tasks, task._record,
                                                   task.trainer, task.lr_decay, run.model,
                                                   ctx.runtime, ctx.logger)
                if i == 0 and improved and can_save:
                    save_checkpoint(ctx.exp, ctx.model_file)
    if can_save and not tasks[0].dev_tasks and any(t.run_for_epochs > 0 for t in tasks):
        save_checkpoint(ctx.exp, ctx.model_file)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_weights(params, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in params:
            dims = " ".join(str(d) for d in p.shape)
            fh.write(f"param {p.name} {len(p.shape)} {dims}".rstrip() + "\n")
            rows = p.value.reshape(-1, p.shape[-1]) if p.shape else p.value.reshape(1, 1)
            for row in rows:
                fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_weights(path) -> dict[str, np.ndarray]:
    """Strictly read a ``save_weights`` file; every defect names path and line."""
    out: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    i = 0
    while i < len(lines):
        head_line = i + 1
        head = lines[i].split()
        if len(head) < 3 or head[0] != "param":
            raise TrainingError(f"{path}:{head_line}: expected a "
                                f"'param <name> <rank> <dims>' header")
        name = head[1]
        if not all(tok.isdecimal() for tok in head[2:]):
            raise TrainingError(f"{path}:{head_line}: rank and dims must be "
                                f"non-negative integers")
        rank, dims = int(head[2]), tuple(int(d) for d in head[3:])
        if len(dims) != rank:
            raise TrainingError(f"{path}:{head_line}: header dims do not match rank")
        if name in out:
            raise TrainingError(f"{path}:{head_line}: duplicate parameter '{name}'")
        n_cols = dims[-1] if dims else 1
        n_rows = int(np.prod(dims[:-1], dtype=np.int64)) if dims else 1
        if head_line + n_rows > len(lines):
            raise TrainingError(f"{path}:{len(lines)}: file ends inside parameter '{name}' "
                                f"({len(lines) - head_line} of {n_rows} rows)")
        values: list[float] = []
        for i in range(head_line, head_line + n_rows):
            row = lines[i].split()
            if len(row) != n_cols:
                raise TrainingError(f"{path}:{i + 1}: parameter '{name}' row has "
                                    f"{len(row)} values, expected {n_cols}")
            try:
                values.extend(map(float, row))
            except ValueError:
                raise TrainingError(f"{path}:{i + 1}: parameter '{name}' has a "
                                    f"non-numeric value") from None
        arr = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(arr)
        if not finite.all():
            bad_line = head_line + 1 + int(np.argmin(finite)) // n_cols
            raise TrainingError(f"{path}:{bad_line}: parameter '{name}' has a non-finite value")
        out[name] = arr.reshape(dims)
        i = head_line + n_rows
    return out


def apply_weights(params, weights: dict[str, np.ndarray]) -> None:
    """Strictly load values into an instantiated parameter set.

    A NaN or Inf raises :class:`NonFiniteError` naming ``param:<name>``.
    """
    for name, arr in weights.items():
        if name not in params:
            raise TrainingError(f"weights mismatch: parameter '{name}' not in model")
        p = params.get(name)
        if p.shape != arr.shape:
            raise TrainingError(f"weights mismatch: parameter '{name}' has shape "
                                f"{p.shape}, file has {arr.shape}")
        p.value[...] = arr
    for p in params:
        if p.name not in weights:
            raise TrainingError(f"weights mismatch: parameter '{p.name}' missing from file")
    params.check_finite()


def save_checkpoint(exp, model_file: str) -> Path:
    """Write ``spec.yaml`` + ``weights.txt`` under the model directory.

    Both files are written under temporary names and renamed over the
    targets only once both are complete, so a save that fails part-way
    leaves the previous checkpoint as it was.
    """
    from .configlang import ConfigNode, serialize_config
    from .resolver import dump_spec

    out = Path(model_file)
    out.mkdir(parents=True, exist_ok=True)
    doc = ConfigNode.mapping([(exp.name, dump_spec(exp))])
    spec_tmp, weights_tmp = out / "spec.yaml.tmp", out / "weights.txt.tmp"
    try:
        spec_tmp.write_text(serialize_config(doc), encoding="utf-8")
        save_weights(exp.runtime.params, weights_tmp)
        os.replace(weights_tmp, out / "weights.txt")
        os.replace(spec_tmp, out / "spec.yaml")
    finally:
        spec_tmp.unlink(missing_ok=True)
        weights_tmp.unlink(missing_ok=True)
    return out


def load_checkpoint(model_file: str):
    """Read back (spec tree root mapping, weights dict)."""
    from .configlang import parse_config

    out = Path(model_file)
    spec = parse_config((out / "spec.yaml").read_text(encoding="utf-8"))
    weights = load_weights(out / "weights.txt")
    return spec, weights
