"""Vocabularies, corpus readers, batching, and synthetic task generation.

File formats:

* vocab file — one token per line; ids start at 3 after the reserved
  ``<s>``=0, ``</s>``=1, ``<unk>``=2
* parallel text — one whitespace-tokenized sentence per line
* feature container — per utterance a header ``utt <id> <T> <d>`` followed
  by T lines of d floats (plain text, diff-able)
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

SS = 0   # <s>
ES = 1   # </s>
UNK = 2  # <unk>
RESERVED = ["<s>", "</s>", "<unk>"]


class DataError(Exception):
    """Malformed corpus or vocab input."""


class Vocab:
    """Bijective token<->id table with fixed reserved ids 0..2."""

    def __init__(self, tokens: Sequence[str] = ()):
        self.tokens = RESERVED + list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise DataError("duplicate token in vocabulary")

    @staticmethod
    def from_file(path) -> "Vocab":
        tokens: list[str] = []
        seen = set(RESERVED)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tok = line.rstrip("\n")
                if tok in seen:
                    raise DataError(f"{path}:{lineno}: duplicate token '{tok}'")
                seen.add(tok)
                tokens.append(tok)
        return Vocab(tokens)

    def to_id(self, token: str) -> int:
        return self.index.get(token, UNK)

    def to_token(self, idx: int) -> str:
        return self.tokens[idx]

    def __len__(self) -> int:
        return len(self.tokens)


class PlainTextReader:
    """One sentence per line; whitespace tokens mapped through a vocab."""

    def __init__(self, vocab: Vocab):
        self.vocab = vocab

    def read(self, path, add_eos: bool = False) -> list[list[int]]:
        out = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                ids = [self.vocab.to_id(tok) for tok in line.split()]
                if add_eos:
                    ids.append(ES)
                out.append(ids)
        return out


class FeatureReader:
    """Reader for precomputed feature matrices in the text container format."""

    def __init__(self, feat_dim: Optional[int] = None):
        self.feat_dim = feat_dim
        self.vocab = None

    def read(self, path, add_eos: bool = False) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        i = 0
        lineno = 0
        while i < len(lines):
            lineno = i + 1
            header = lines[i].split()
            if len(header) != 4 or header[0] != "utt":
                raise DataError(f"{path}:{lineno}: malformed header (want 'utt <id> <T> <d>')")
            try:
                n_frames, dim = int(header[2]), int(header[3])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed header (want 'utt <id> <T> <d>')")
            if n_frames < 0 or dim < 1:
                raise DataError(f"{path}:{lineno}: header needs T >= 0 and d >= 1")
            if self.feat_dim is not None and dim != self.feat_dim:
                raise DataError(f"{path}:{lineno}: feature dim {dim} != declared {self.feat_dim}")
            rows = []
            for t in range(n_frames):
                i += 1
                if i >= len(lines):
                    raise DataError(f"{path}:{i}: truncated utterance")
                vals = lines[i].split()
                if len(vals) != dim:
                    raise DataError(f"{path}:{i + 1}: row has {len(vals)} values, expected {dim}")
                try:
                    rows.append([float(v) for v in vals])
                except ValueError:
                    raise DataError(f"{path}:{i + 1}: non-numeric feature value") from None
            feats = np.asarray(rows, dtype=np.float64).reshape(n_frames, dim)
            finite = np.isfinite(feats).all(axis=1)
            if not finite.all():
                raise DataError(f"{path}:{lineno + 1 + int(np.argmin(finite))}: "
                                f"non-finite feature value")
            out.append(feats)
            i += 1
        return out


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """A padded, masked mini-batch sorted by source length."""

    src: np.ndarray            # (B, T) int ids or (B, T, d) float features
    src_mask: np.ndarray       # (B, T) 1.0 on real positions
    trg: np.ndarray            # (B, T') int ids
    trg_mask: np.ndarray       # (B, T') 1.0 on real positions
    order: list[int] = field(default_factory=list)  # original corpus indices

    @property
    def size(self) -> int:
        return self.src.shape[0]

    def n_trg_tokens(self) -> int:
        return int(self.trg_mask.sum())


def pair_corpora(src, trg) -> list[tuple]:
    """Zip parallel corpora, dropping empty-source pairs with a warning."""
    if len(src) != len(trg):
        raise DataError(f"parallel corpora differ in length: {len(src)} vs {len(trg)}")
    pairs = []
    for i, (s, t) in enumerate(zip(src, trg)):
        if len(s) == 0:
            warnings.warn(f"skipping pair {i}: empty source sequence")
            continue
        pairs.append((i, s, t))
    return pairs


def _pad_ids(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    t_max = max((len(s) for s in seqs), default=0)
    t_max = max(t_max, 1)
    ids = np.zeros((len(seqs), t_max), dtype=np.int64)
    mask = np.zeros((len(seqs), t_max), dtype=np.float64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
        mask[i, :len(s)] = 1.0
    return ids, mask


def _pad_feats(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    t_max = max(s.shape[0] for s in seqs)
    dim = seqs[0].shape[1]
    feats = np.zeros((len(seqs), t_max, dim), dtype=np.float64)
    mask = np.zeros((len(seqs), t_max), dtype=np.float64)
    for i, s in enumerate(seqs):
        feats[i, :s.shape[0]] = s
        mask[i, :s.shape[0]] = 1.0
    return feats, mask


class SrcBatcher:
    """Sort pairs by source length, chunk into batches of ``batch_size``.

    The sort is stable (ties keep corpus order) and the chunking is over
    consecutive runs, so within-batch length spread is minimal.  Batch
    *order* is shuffled per epoch from the experiment's seeded stream via
    :meth:`shuffled`.
    """

    def __init__(self, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def make_batches(self, src, trg) -> list[Batch]:
        pairs = pair_corpora(src, trg)
        if not pairs:
            raise DataError("empty corpus")
        pairs.sort(key=lambda p: len(p[1]))
        batches = []
        for start in range(0, len(pairs), self.batch_size):
            chunk = pairs[start:start + self.batch_size]
            order = [p[0] for p in chunk]
            srcs = [p[1] for p in chunk]
            trgs = [p[2] for p in chunk]
            if isinstance(srcs[0], np.ndarray):
                s, s_mask = _pad_feats(srcs)
            else:
                s, s_mask = _pad_ids(srcs)
            t, t_mask = _pad_ids(trgs)
            batches.append(Batch(s, s_mask, t, t_mask, order))
        return batches

    @staticmethod
    def shuffled(batches: list[Batch], rng: np.random.Generator) -> list[Batch]:
        perm = rng.permutation(len(batches))
        return [batches[i] for i in perm]


# ---------------------------------------------------------------------------
# synthetic tasks
# ---------------------------------------------------------------------------

SYNTHETIC_TASKS = ("copy", "reverse", "sum-coded")


def content_tokens(vocab_size: int) -> list[str]:
    """The non-reserved tokens of a synthetic vocab of total size vocab_size."""
    if vocab_size < 4:
        raise ValueError("vocab_size must be >= 4 (3 reserved ids + content)")
    return [f"w{i}" for i in range(vocab_size - 3)]


def write_vocab(vocab_size: int, path) -> None:
    Path(path).write_text("".join(tok + "\n" for tok in content_tokens(vocab_size)),
                          encoding="utf-8")


def gen_synthetic(task: str, vocab_size: int, length_range: tuple[int, int],
                  n: int, seed: int, out_dir, prefix: str = "train") -> dict[str, Path]:
    """Write one split of a synthetic token task; byte-deterministic per seed.

    copy: target = source; reverse: target = source reversed; sum-coded:
    target is the single token whose index is the sum of source token
    indices modulo the content vocab size.
    """
    if task not in SYNTHETIC_TASKS:
        raise ValueError(f"unknown task '{task}'")
    lo, hi = length_range
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid length range {length_range}")
    if n < 1:
        raise ValueError("n must be >= 1")
    words = content_tokens(vocab_size)
    rng = random.Random(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_path = out_dir / f"{prefix}.src"
    trg_path = out_dir / f"{prefix}.trg"
    with open(src_path, "w", encoding="utf-8") as src_fh, \
            open(trg_path, "w", encoding="utf-8") as trg_fh:
        for _ in range(n):
            length = rng.randint(lo, hi)
            idxs = [rng.randrange(len(words)) for _ in range(length)]
            src = [words[i] for i in idxs]
            if task == "copy":
                trg = src
            elif task == "reverse":
                trg = src[::-1]
            else:
                trg = [words[sum(idxs) % len(words)]]
            src_fh.write(" ".join(src) + "\n")
            trg_fh.write(" ".join(trg) + "\n")
    return {"src": src_path, "trg": trg_path}


def feature_prototypes(vocab_size: int, feat_dim: int, seed: int) -> np.ndarray:
    """One fixed feature prototype per content token, drawn from uniform(-1,1)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(vocab_size - 3, feat_dim))


def gen_synthetic_features(vocab_size: int, length_range: tuple[int, int], n: int,
                           seed: int, out_dir, prefix: str = "train",
                           prototypes: Optional[np.ndarray] = None, feat_dim: int = 8,
                           frames_per_token: int = 4, noise: float = 0.1) -> dict[str, Path]:
    """Write a feature-to-token split: each token emits ``frames_per_token``
    noisy copies of its prototype vector."""
    lo, hi = length_range
    if not (1 <= lo <= hi) or n < 1:
        raise ValueError("invalid length range or count")
    if prototypes is None:
        prototypes = feature_prototypes(vocab_size, feat_dim, seed)
    words = content_tokens(vocab_size)
    if prototypes.shape != (len(words), feat_dim):
        raise ValueError("prototypes shape does not match vocab/feat_dim")
    rng = np.random.default_rng(seed + 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    src_path = out_dir / f"{prefix}.feats"
    trg_path = out_dir / f"{prefix}.trg"
    with open(src_path, "w", encoding="utf-8") as src_fh, \
            open(trg_path, "w", encoding="utf-8") as trg_fh:
        for utt in range(n):
            length = int(rng.integers(lo, hi + 1))
            idxs = [int(rng.integers(0, len(words))) for _ in range(length)]
            frames = []
            for i in idxs:
                base = prototypes[i]
                for _ in range(frames_per_token):
                    frames.append(base + noise * rng.standard_normal(feat_dim))
            src_fh.write(f"utt u{utt} {len(frames)} {feat_dim}\n")
            for row in frames:
                src_fh.write(" ".join(f"{v:.6f}" for v in row) + "\n")
            trg_fh.write(" ".join(words[i] for i in idxs) + "\n")
    return {"src": src_path, "trg": trg_path}
