"""Shared fixtures: planted-permutation corpora, graph helpers and on-disk
file builders."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import bilex
from bilex import EmbeddingMatrix, ExperimentSpec, Lexicon, normalize, pipelines


def make_planted(n=60, d=10, noise=0.0, seed=0):
    """A source space, a (possibly noisy) permuted copy, and the gold lexicon.

    Target row k holds the vector of source word rho[k], so the hidden
    matching is known exactly; both sides go through the standard
    normalization.
    """
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, d))
    src = normalize(EmbeddingMatrix(tuple(f"s{i:03d}" for i in range(n)), base))
    rho = rng.permutation(n)
    tgt_rows = base[rho]
    if noise:
        tgt_rows = tgt_rows + noise * rng.normal(size=(n, d))
    tgt = normalize(EmbeddingMatrix(tuple(f"t{k:03d}" for k in range(n)), tgt_rows))
    inverse = np.empty(n, dtype=int)
    inverse[rho] = np.arange(n)
    lexicon = Lexicon(tuple((f"s{i:03d}", f"t{inverse[i]:03d}") for i in range(n)))
    return src, tgt, lexicon


def block_rows(squared_norms) -> np.ndarray:
    """0/1 rows with disjoint supports: row i holds ``squared_norms[i]``
    ones, so the Gram matrix is exactly ``diag(squared_norms)``."""
    return np.repeat(np.eye(len(squared_norms)), squared_norms, axis=1)


# The worked 4-vertex example: Gram graphs diag(2, 2, 3, 4) and
# diag(1, 3, 4, 2), whose seeded (s = 1) optimum is x2-y4, x3-y2, x4-y3.
DIAG4_X = block_rows([2, 2, 3, 4])
DIAG4_Y = block_rows([1, 3, 4, 2])


def gram(rows) -> np.ndarray:
    """The dense n x n similarity matrix of a graph held as its rows."""
    return rows @ rows.T


def frobenius(gx, gy, perm) -> float:
    """||Gx - Gy[perm][:, perm]||_F^2, the matching objective SGM minimizes."""
    perm = np.asarray(perm)
    return float(((gram(gx) - gram(gy)[np.ix_(perm, perm)]) ** 2).sum())


def correlated_pair(n, s, noise, rng, d=4):
    """Rows of a graph, a noisy copy with its free rows hidden-permuted,
    and the planted matching: source vertex i is copy vertex
    ``planted[i]``, and the first s vertices match themselves.

    The copy carries Gaussian noise of scale ``noise / (2 sqrt(d))``,
    which perturbs each off-diagonal Gram entry by about
    ``noise / sqrt(2)``, as a symmetric bump of scale ``noise`` on the
    Gram matrix would.
    """
    gx = rng.normal(size=(n, d))
    hidden = np.concatenate([np.arange(s), s + rng.permutation(n - s)])
    moved = gx[hidden]
    if noise:
        moved = moved + noise / (2 * np.sqrt(d)) * rng.normal(size=(n, d))
    planted = np.empty(n, dtype=int)
    planted[hidden] = np.arange(n)
    return gx, moved, planted


def sinkhorn(matrix, iters=200) -> np.ndarray:
    """A doubly-stochastic matrix balanced from ``|matrix|``."""
    p = np.abs(matrix) + 1e-3
    for _ in range(iters):
        p /= p.sum(axis=1, keepdims=True)
        p /= p.sum(axis=0, keepdims=True)
    return p


def make_spec(**overrides) -> ExperimentSpec:
    """Spec with dummy paths for pipelines that get a prebuilt dataset."""
    values = dict(src_emb="-", tgt_emb="-", dictionary="-", seeds=15)
    values.update(overrides)
    return ExperimentSpec(**values)


def blas_env(threads: str) -> dict[str, str]:
    """This environment with the BLAS thread variables set to ``threads``,
    or removed when it is ``"unset"``, and the imported package's ``src``
    directory first on ``PYTHONPATH``, for running ``bilex`` in a
    subprocess."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
        if threads != "unset":
            env[var] = threads
    src = str(Path(bilex.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def write_vec(path, vocab, vectors) -> None:
    vectors = np.asarray(vectors, dtype=float)
    lines = [f"{len(vocab)} {vectors.shape[1]}"]
    for word, row in zip(vocab, vectors):
        lines.append(word + " " + " ".join(format(v, ".12g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_pairs(path, pairs) -> None:
    path.write_text(
        "".join(f"{s}\t{t}\n" for s, t in pairs), encoding="utf-8"
    )


@pytest.fixture
def seed_log(monkeypatch):
    """The seeds of every bidirectional round a run makes, in call order:
    one (forward seeds, reverse seeds) tuple of word-pair lists per
    ``pipelines._round`` call, read through the words of the run's
    ``pipelines._index_space``."""
    log, words = [], []
    index_space, round_ = pipelines._index_space, pipelines._round

    def indexed(ds, spec):
        space = index_space(ds, spec)
        words[:] = space[1:3]
        return space

    def logged(rows, spec, engine, seeds_fwd, seeds_rev, key):
        src, tgt = words
        log.append(tuple([(src[a], tgt[b]) for a, b in seeds.tolist()]
                         for seeds in (seeds_fwd, seeds_rev)))
        return round_(rows, spec, engine, seeds_fwd, seeds_rev, key)

    monkeypatch.setattr(pipelines, "_index_space", indexed)
    monkeypatch.setattr(pipelines, "_round", logged)
    return log


@pytest.fixture
def diag4_files(tmp_path):
    """The worked 4x4 example as on-disk files.

    Mutually orthogonal, non-unit vectors whose Gram matrices are
    diag(2, 2, 3, 4) and diag(1, 3, 4, 2); the dictionary lists the
    known matching with (x1, y1) first so a seeds=1 split fixes it.
    """
    d = 4
    src_rows = np.diag([np.sqrt(2.0), np.sqrt(2.0), np.sqrt(3.0), 2.0])
    tgt_rows = np.diag([1.0, np.sqrt(3.0), 2.0, np.sqrt(2.0)])
    src_path = tmp_path / "diag4_src.vec"
    tgt_path = tmp_path / "diag4_tgt.vec"
    dict_path = tmp_path / "diag4_dict.tsv"
    write_vec(src_path, [f"x{i}" for i in range(1, 5)], src_rows)
    write_vec(tgt_path, [f"y{i}" for i in range(1, 5)], tgt_rows)
    write_pairs(dict_path, [("x1", "y1"), ("x2", "y4"), ("x3", "y2"), ("x4", "y3")])
    return src_path, tgt_path, dict_path


@pytest.fixture
def planted_files(tmp_path):
    """A planted-permutation corpus written as .vec and dictionary files."""

    def build(n=40, d=8, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n, d))
        rho = rng.permutation(n)
        tgt_rows = base[rho] + (noise * rng.normal(size=(n, d)) if noise else 0.0)
        inverse = np.empty(n, dtype=int)
        inverse[rho] = np.arange(n)
        src_path = tmp_path / f"src_{seed}.vec"
        tgt_path = tmp_path / f"tgt_{seed}.vec"
        dict_path = tmp_path / f"dict_{seed}.tsv"
        write_vec(src_path, [f"s{i:03d}" for i in range(n)], base)
        write_vec(tgt_path, [f"t{k:03d}" for k in range(n)], tgt_rows)
        write_pairs(dict_path, [(f"s{i:03d}", f"t{inverse[i]:03d}") for i in range(n)])
        return src_path, tgt_path, dict_path

    return build
