"""Command-line entry point: run experiments, random search, data generation.

Experiments run sequentially in file order (or selection order).  Each gets
its own seeded runtime with effective seed = (the ``--seed`` override if
given, else the experiment's own ``exp_global.seed``) + its 0-based index
in this run, so a failing experiment never perturbs the next one's draws.
The process exit code is the number of failed experiments.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .components import default_registry
from .configlang import (ConfigNode, ParseError, parse_config, resolve_anchors,
                         node_at_path)
from .data import gen_synthetic, gen_synthetic_features, write_vocab
from .log import Logger, fmt_value
from .metrics import METRICS
from .resolver import (Overwrite, Registry, ResolveError, apply_overwrites,
                       instantiate_graph, parse_overwrites, read_path,
                       substitute_placeholders)
from .training import apply_weights, load_checkpoint


@dataclass
class ExperimentResult:
    name: str
    status: str                      # "ok" | "failed"
    metrics: Optional[dict] = None   # present iff ok
    error: Optional[str] = None      # present iff failed
    log_file: str = ""
    model_file: str = ""
    hyp_files: list = field(default_factory=list)


def _config_seed(subtree: ConfigNode) -> int:
    node = node_at_path(subtree, "exp_global.seed")
    return int(node.value) if node is not None and node.kind == "scalar" else 0


def _instantiate(subtree: ConfigNode, name: str, registry: Registry, seed: int):
    """Build one experiment, following the load/overwrite workflow if present."""
    if subtree.get("load") is None:
        return instantiate_graph(subtree, registry, name, seed_override=seed)
    subtree = substitute_placeholders(subtree, name)
    extra = [k for k in subtree.keys() if k not in ("load", "overwrite")]
    if extra:
        raise ResolveError(f"a load experiment only takes 'load' and 'overwrite', "
                           f"got {extra}")
    load_path = subtree.get("load").value
    spec, weights = load_checkpoint(load_path)
    if len(spec.children) != 1:
        raise ResolveError(f"checkpoint spec at '{load_path}' must hold one experiment")
    _, exp_tree = spec.children[0]
    if subtree.get("overwrite") is not None:
        exp_tree = apply_overwrites(exp_tree, parse_overwrites(subtree.get("overwrite")))
    exp = instantiate_graph(exp_tree, registry, name, seed_override=seed)
    apply_weights(exp.runtime.params, weights)
    return exp


def _read_config(path) -> ConfigNode:
    return resolve_anchors(parse_config(Path(path).read_text(encoding="utf-8")))


def _run_one(subtree: ConfigNode, name: str, index: int, config_path: str,
             registry: Registry, seed_override: Optional[int]) -> ExperimentResult:
    """Run one experiment; a failure is reported and recorded, not raised."""
    try:
        base_seed = seed_override if seed_override is not None else _config_seed(subtree)
        exp = _instantiate(subtree, name, registry, base_seed + index)
        logger = Logger(name, path=exp.exp_global.log_file or None)
        try:
            logger.write_text(f"start config={config_path}")
            metrics = exp.run(logger)
        finally:
            logger.close()
    except Exception as err:
        print(f"[{name}] failed: {err}", file=sys.stderr)
        return ExperimentResult(name=name, status="failed", error=str(err))
    hyp_files = [task.hyp_file for task in exp.evaluate
                 if getattr(task, "hyp_file", None)]
    return ExperimentResult(name=name, status="ok", metrics=metrics,
                            log_file=exp.exp_global.log_file,
                            model_file=exp.exp_global.model_file,
                            hyp_files=hyp_files)


def run_experiments(config_path, selection: Optional[list[str]] = None,
                    seed_override: Optional[int] = None,
                    registry: Optional[Registry] = None) -> list[ExperimentResult]:
    """Run all (or selected) experiments of a config file, in order.

    A failure in one experiment is recorded and does not stop the others;
    an unparseable config aborts before anything runs.
    """
    registry = registry if registry is not None else default_registry()
    root = _read_config(config_path)
    file_order = root.keys()
    names = file_order
    if selection is not None:
        unknown = [n for n in selection if n not in file_order]
        if unknown:
            raise ValueError(f"unknown experiment(s) {unknown}; config has {file_order}")
        names = list(selection)
    results = []
    for name in names:
        # the seed offset is the experiment's file-order index, so a selected
        # subset reproduces exactly what the full run would produce
        index = file_order.index(name)
        results.append(_run_one(root.get(name), name, index, str(config_path),
                                registry, seed_override))
    return results


# ---------------------------------------------------------------------------
# random search
# ---------------------------------------------------------------------------


def _parse_space(space_root: ConfigNode) -> list[tuple[str, str, list[ConfigNode]]]:
    """Space file: mapping of slot name -> {path: ..., values: [...]}."""
    slots = []
    for slot, node in space_root.children:
        path = read_path(node, f"search slot '{slot}'")
        values = node.get("values")
        if values is None or values.kind != "sequence" or not values.children:
            raise ResolveError(f"search slot '{slot}' needs a nonempty 'values' sequence",
                               loc=node.loc)
        slots.append((slot, path, list(values.children)))
    return slots


def sample_assignments(slots: list[tuple[str, str, list]], trials: int,
                       seed: int) -> list[list]:
    """The documented search sampling: ``random.Random(seed)``, one
    ``randrange(len(values))`` draw per slot in declaration order, per trial."""
    rng = random.Random(seed)
    return [[values[rng.randrange(len(values))] for _, _, values in slots]
            for _ in range(trials)]


def random_search(config_path, space_path, trials: int, seed: int = 0,
                  experiment: Optional[str] = None,
                  registry: Optional[Registry] = None) -> list[ExperimentResult]:
    """Sample overwrites uniformly per slot, run one experiment per trial.

    Trial i runs as ``<base>_trial<i>`` (seed offset i) and reports its
    first evaluate metric; see :func:`sample_assignments` for the
    reproducible sampling order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    registry = registry if registry is not None else default_registry()
    root = _read_config(config_path)
    names = root.keys()
    if experiment is None:
        if len(names) != 1:
            raise ValueError(f"config has {len(names)} experiments; pass --experiment")
        experiment = names[0]
    base = root.get(experiment)
    if base is None:
        raise ValueError(f"no experiment '{experiment}' in config")
    space_root = _read_config(space_path)
    slots = _parse_space(space_root)
    for slot, path, _ in slots:
        if node_at_path(base, path) is None:
            raise ResolveError(f"search slot path '{path}' not found in base config",
                               loc=space_root.get(slot).loc)
    results = []
    for trial, assignment in enumerate(sample_assignments(slots, trials, seed)):
        overwrites = [Overwrite(path, value, space_root.get(slot).loc)
                      for (slot, path, _), value in zip(slots, assignment)]
        tree = apply_overwrites(base, overwrites)
        name = f"{experiment}_trial{trial}"
        results.append(_run_one(tree, name, trial, str(config_path), registry, None))
    _print_summary(results)
    return results


def _print_summary(results: list[ExperimentResult]) -> None:
    scored = []
    for res in results:
        if res.status == "ok" and res.metrics:
            metric, value = next(iter(res.metrics.items()))
            scored.append((res.name, metric, value))
    if not scored:
        return
    direction = METRICS.get(scored[0][1], (None, "min"))[1]
    scored.sort(key=lambda row: -row[2] if direction == "max" else row[2])
    print("trial summary (best first):")
    for name, metric, value in scored:
        print(f"  {name}: {metric}={fmt_value(value)}")


# ---------------------------------------------------------------------------
# argparse surface
# ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="seqrig",
                                     description="config-driven seq2seq experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--experiments", help="comma-separated subset to run")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")

    p_search = sub.add_parser("search", help="random search over a parameter space")
    p_search.add_argument("config")
    p_search.add_argument("--space", required=True)
    p_search.add_argument("--trials", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--experiment", default=None)

    p_gen = sub.add_parser("gendata", help="generate synthetic corpora")
    p_gen.add_argument("task", choices=["copy", "reverse", "sum-coded", "feats"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--vocab-size", type=int, default=16)
    p_gen.add_argument("--min-len", type=int, default=1)
    p_gen.add_argument("--max-len", type=int, default=8)
    p_gen.add_argument("--train", type=int, default=600)
    p_gen.add_argument("--dev", type=int, default=100)
    p_gen.add_argument("--test", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--feat-dim", type=int, default=8)
    p_gen.add_argument("--frames-per-token", type=int, default=4)
    p_gen.add_argument("--noise", type=float, default=0.1)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            selection = args.experiments.split(",") if args.experiments else None
            results = run_experiments(args.config, selection, args.seed)
            return sum(res.status == "failed" for res in results)
        if args.command == "search":
            results = random_search(args.config, args.space, args.trials, args.seed,
                                    args.experiment)
            return sum(res.status == "failed" for res in results)
        return _gendata(args)
    except (ParseError, ResolveError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _gendata(args) -> int:
    out = Path(args.out)
    length_range = (args.min_len, args.max_len)
    splits = [("train", args.train, args.seed), ("dev", args.dev, args.seed + 1),
              ("test", args.test, args.seed + 2)]
    out.mkdir(parents=True, exist_ok=True)
    write_vocab(args.vocab_size, out / "vocab.txt")
    for prefix, count, seed in splits:
        if count < 1:
            continue
        if args.task == "feats":
            from .data import feature_prototypes
            protos = feature_prototypes(args.vocab_size, args.feat_dim, args.seed)
            gen_synthetic_features(args.vocab_size, length_range, count, seed, out,
                                   prefix=prefix, prototypes=protos,
                                   feat_dim=args.feat_dim,
                                   frames_per_token=args.frames_per_token,
                                   noise=args.noise)
        else:
            gen_synthetic(args.task, args.vocab_size, length_range, count, seed, out,
                          prefix=prefix)
    print(f"wrote {args.task} corpus to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
