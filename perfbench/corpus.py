"""Workload definitions and the planted-but-noisy corpus generator.

Every workload is a Gaussian corpus with a hidden bijection: target row
k holds source row ``rho[k]`` plus isotropic noise, rotated by a random
orthogonal matrix so the Procrustes map is not the identity. Both
vocabularies are larger than the dictionary, and the dictionary is a
random subset of the planted pairs listed in source frequency order, so
``lexicon.split`` takes the most frequent pairs as seeds. The same
(workload, seed) always writes byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input: corpus shape, noise, and the experiment spec."""

    name: str
    vocab: int  # words per language
    dim: int
    noise: float  # per-coordinate Gaussian noise, relative to unit-variance rows
    dict_pairs: int  # dictionary size, a random subset of the planted pairs
    seeds: int
    spec: dict = field(default_factory=dict)  # remaining ExperimentSpec fields
    min_p_at_1: float = 0.0  # output check: planted data must stay this learnable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="itersgm-active",
            vocab=1800,
            dim=50,
            noise=1.4,
            dict_pairs=1200,
            seeds=100,
            spec={
                "method": "itersgm",
                "strategy": "active",
                "iters": 2,
                "sgm_max_iters": 6,
            },
            min_p_at_1=85.0,
        ),
        Workload(
            name="iterproc-topn",
            vocab=4000,
            dim=300,
            noise=2.1,
            dict_pairs=3000,
            seeds=500,
            spec={
                "method": "iterproc",
                "strategy": "add_all",
                "iters": 3,
                "vocab_mode": "top_n",
            },
            min_p_at_1=95.0,
        ),
        Workload(
            name="softsgm-restarts",
            vocab=1200,
            dim=50,
            noise=1.25,
            dict_pairs=800,
            seeds=100,
            spec={"method": "softsgm", "soft_runs": 8, "sgm_max_iters": 4},
            min_p_at_1=90.0,
        ),
    )
}


@dataclass(frozen=True)
class Corpus:
    """Paths of one generated corpus plus the planted gold test split."""

    src_emb: Path
    tgt_emb: Path
    dictionary: Path
    gold_test: tuple[tuple[str, str], ...]


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    # The workload name enters the stream so two workloads never share data.
    tag = int.from_bytes(hashlib.sha256(workload.name.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, tag)))


def _write_vec(path: Path, words, vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for word, row in zip(words, vectors):
            handle.write(word + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def generate(workload: Workload, seed: int, out_dir) -> Corpus:
    """Write ``src.vec``, ``tgt.vec`` and ``dict.txt`` for one workload seed."""
    if not 0 < workload.seeds < workload.dict_pairs <= workload.vocab:
        raise ValueError(f"{workload.name}: need 0 < seeds < dict_pairs <= vocab")
    rng = _rng(workload, seed)
    n, d = workload.vocab, workload.dim
    src = rng.normal(size=(n, d))
    rho = rng.permutation(n)  # target row k is the translation of source row rho[k]
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    tgt = (src[rho] + workload.noise * rng.normal(size=(n, d))) @ rotation
    tgt_of = np.empty(n, dtype=np.intp)
    tgt_of[rho] = np.arange(n)

    src_words = [f"s{i:05d}" for i in range(n)]
    tgt_words = [f"t{k:05d}" for k in range(n)]
    chosen = np.sort(rng.choice(n, size=workload.dict_pairs, replace=False))
    pairs = tuple((src_words[i], tgt_words[tgt_of[i]]) for i in chosen)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(
        src_emb=out / "src.vec",
        tgt_emb=out / "tgt.vec",
        dictionary=out / "dict.txt",
        gold_test=pairs[workload.seeds :],
    )
    _write_vec(corpus.src_emb, src_words, src)
    _write_vec(corpus.tgt_emb, tgt_words, tgt)
    with open(corpus.dictionary, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{s} {t}\n" for s, t in pairs)
    return corpus
