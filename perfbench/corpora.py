"""Seeded corpus generator for the benchmark workloads.

Every split has a fixed multiset of sentence lengths: lengths cycle through
``lo..hi`` and are then shuffled.  The seed picks the tokens, the order and
the feature noise, never the amount of work, so two seeds give batches of
the same shapes and the same number of target words.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SPLITS = ("train", "dev", "test")


def words(vocab_size: int) -> list[str]:
    """Content tokens of a vocab with ``vocab_size`` ids (3 are reserved)."""
    return [f"w{i}" for i in range(vocab_size - 3)]


def _rng(seed: int, split: str) -> np.random.Generator:
    return np.random.default_rng([seed, SPLITS.index(split)])


def _lengths(n: int, lo: int, hi: int, rng: np.random.Generator) -> list[int]:
    lengths = [lo + i % (hi - lo + 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def write_vocab(out: Path, vocab_size: int) -> None:
    (out / "vocab.txt").write_text("".join(w + "\n" for w in words(vocab_size)),
                                   encoding="utf-8")


def token_split(out: Path, split: str, task: str, n: int, vocab_size: int,
                lengths: tuple[int, int], seed: int, zipf: bool = False) -> None:
    """``<split>.src``/``<split>.trg`` for the copy or reverse task.

    Tokens are uniform, or with ``zipf`` drawn with probability
    proportional to 1/rank, as words of natural text are.
    """
    rng = _rng(seed, split)
    vocab = words(vocab_size)
    weights = 1.0 / np.arange(1, len(vocab) + 1) if zipf else np.ones(len(vocab))
    src_lines, trg_lines = [], []
    for length in _lengths(n, *lengths, rng):
        src = [vocab[i] for i in rng.choice(len(vocab), size=length, p=weights / weights.sum())]
        trg = src if task == "copy" else src[::-1]
        src_lines.append(" ".join(src) + "\n")
        trg_lines.append(" ".join(trg) + "\n")
    (out / f"{split}.src").write_text("".join(src_lines), encoding="utf-8")
    (out / f"{split}.trg").write_text("".join(trg_lines), encoding="utf-8")


def prototypes(vocab_size: int, feat_dim: int, seed: int) -> np.ndarray:
    """One feature prototype per content token, shared by all splits."""
    return np.random.default_rng([seed, 99]).uniform(-1.0, 1.0,
                                                     size=(vocab_size - 3, feat_dim))


def feature_split(out: Path, split: str, n: int, vocab_size: int,
                  lengths: tuple[int, int], seed: int, feat_dim: int,
                  frames_per_token: int, noise: float) -> None:
    """``<split>.feats`` (``utt <id> <T> <d>`` + T rows) and ``<split>.trg``.

    Each token emits ``frames_per_token`` noisy copies of its prototype, as
    ``seqrig gendata feats`` does.
    """
    rng = _rng(seed, split)
    protos = prototypes(vocab_size, feat_dim, seed)
    vocab = words(vocab_size)
    feat_lines, trg_lines = [], []
    for utt, length in enumerate(_lengths(n, *lengths, rng)):
        idxs = rng.integers(0, len(vocab), size=length)
        frames = np.repeat(protos[idxs], frames_per_token, axis=0)
        frames += noise * rng.standard_normal(frames.shape)
        feat_lines.append(f"utt u{utt} {len(frames)} {feat_dim}\n")
        feat_lines.extend(" ".join(f"{v:.6f}" for v in row) + "\n" for row in frames)
        trg_lines.append(" ".join(vocab[i] for i in idxs) + "\n")
    (out / f"{split}.feats").write_text("".join(feat_lines), encoding="utf-8")
    (out / f"{split}.trg").write_text("".join(trg_lines), encoding="utf-8")


def split_test(out: Path, src_ext: str, chunks: int) -> None:
    """Cut ``test.<src_ext>``/``test.trg`` into ``test.<i>.<src_ext>``/``test.<i>.trg``."""
    trg = (out / "test.trg").read_text(encoding="utf-8").splitlines(keepends=True)
    src = (out / f"test.{src_ext}").read_text(encoding="utf-8").splitlines(keepends=True)
    if src_ext == "feats":   # one item is a header plus its frame rows
        starts = [i for i, line in enumerate(src) if line.startswith("utt ")]
        src = ["".join(src[a:b]) for a, b in zip(starts, starts[1:] + [len(src)])]
    size = -(-len(trg) // chunks)
    for i in range(chunks):
        part = slice(i * size, (i + 1) * size)
        (out / f"test.{i}.{src_ext}").write_text("".join(src[part]), encoding="utf-8")
        (out / f"test.{i}.trg").write_text("".join(trg[part]), encoding="utf-8")
