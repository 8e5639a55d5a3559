"""Seed-span maps, CSLS scoring, and hypothesis extraction."""

import logging

import numpy as np
import pytest

from bilex import OrthogonalMap, extract_hypotheses, solve_procrustes
from bilex.procrustes import _top_k_means
from conftest import random_orthogonal


def unit_rows(m):
    m = np.asarray(m, dtype=float)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestSolveProcrustes:
    def test_identity_case(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        w = solve_procrustes(x, x).w
        np.testing.assert_allclose(w, np.eye(3), atol=1e-8)

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(1)
        r = random_orthogonal(4, rng)
        x = rng.normal(size=(10, 4))
        w = solve_procrustes(x, x @ r).w
        assert np.linalg.norm(w - r) < 1e-6

    def test_coordinate_swap(self):
        x = np.eye(2)
        y = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(
            solve_procrustes(x, y).w, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_procrustes(np.ones((3, 2)), np.ones((4, 2)))

    def test_no_seed_rows_raises(self):
        with pytest.raises(ValueError, match="at least one seed pair is required"):
            solve_procrustes(np.empty((0, 2)), np.empty((0, 2)))

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(2)
        w = solve_procrustes(rng.normal(size=(9, 5)), rng.normal(size=(9, 5)))
        for _ in range(50):
            a, b = rng.normal(size=(2, 5))
            assert abs(
                np.linalg.norm((a - b) @ w.w) - np.linalg.norm(a - b)
            ) < 1e-9

    def test_objective_optimality_over_random_orthogonal(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            x = rng.normal(size=(12, d))
            y = rng.normal(size=(12, d))
            w = solve_procrustes(x, y).w
            best = np.linalg.norm(x @ w - y)
            for _ in range(100):
                q = random_orthogonal(d, rng)
                assert best <= np.linalg.norm(x @ q - y) + 1e-9

    def test_reflection_allowed(self):
        # A reflection target must be matched exactly: det(W) = -1.
        x = np.eye(3)
        y = np.diag([1.0, 1.0, -1.0])
        w = solve_procrustes(x, y).w
        assert np.linalg.det(w) == pytest.approx(-1.0, abs=1e-9)

    def test_fewer_seeds_than_dimensions_give_the_seed_span_map(self):
        rng = np.random.default_rng(4)
        assert_seed_span_map(*rng.normal(size=(2, 3, 5)), rank=3)

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_at_least_d_seeds_are_unique_without_warning(self, caplog, extra):
        # Rank d: the unique orthogonal solution. No fit logs, at any rank.
        rng = np.random.default_rng(5)
        with caplog.at_level(logging.DEBUG, logger="bilex.procrustes"):
            w = assert_seed_span_map(*rng.normal(size=(2, 5 + extra, 5)), rank=5)
        np.testing.assert_allclose(w.T @ w, np.eye(5), atol=1e-12)
        assert caplog.records == []

    def test_rank_deficient_seeds_give_the_seed_span_map(self):
        # The rank is that of X^T Y, not the seed count, even when seeds are many.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2)) @ rng.normal(size=(2, 4))
        assert_seed_span_map(x, rng.normal(size=(20, 4)), rank=2)

    def test_orthogonal_map_validation(self):
        # The contract is a partial isometry: W^T W is a rank-r projector.
        with pytest.raises(ValueError, match="not a partial isometry"):
            OrthogonalMap(np.array([[1.0, 0.1], [0.0, 1.0]]))
        # A rank-1 projector passes as rank 1, and not as the default d.
        assert OrthogonalMap(np.diag([1.0, 0.0]), rank=1).rank == 1
        with pytest.raises(ValueError, match="rank-2 projector"):
            OrthogonalMap(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="map must be square"):
            OrthogonalMap(np.eye(2, 3))


def assert_seed_span_map(x, y, rank):
    """Check the map of seeds x, y: its rank, that W^T W is a rank-r
    projector, that W maps the seeds as an orthogonal Procrustes solution
    does, and that the reverse problem's map is W^T; returns W."""
    mapping = solve_procrustes(x, y)
    w = mapping.w
    assert mapping.rank == rank
    p = w.T @ w
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    assert np.trace(p) == pytest.approx(rank, abs=1e-12)
    u, _, vt = np.linalg.svd(x.T @ y)
    np.testing.assert_allclose(x @ w, x @ (u @ vt), atol=1e-12)
    np.testing.assert_allclose(solve_procrustes(y, x).w, w.T, rtol=0, atol=1e-14)
    return w


def csls_scores(src, tgt, k):
    """The full score matrix, rebuilt from each source's ranking of every
    target."""
    rows, _ = extract_hypotheses(src, tgt, top_k=len(tgt), csls_k=k)
    scores = np.empty(rows.index.shape)
    np.put_along_axis(scores, rows.index, rows.score, axis=1)
    return scores


def neighborhood_means(src, tgt, k):
    """Source and target CSLS means, as the scorer computes them."""
    return (
        _top_k_means(src @ tgt.T, k, sequential=False),
        _top_k_means(tgt @ src.T, k, sequential=True),
    )


class TestCslsIndex:
    def test_all_equal_cosines(self):
        # Every source at the same angle from every target.
        src = np.tile(np.array([1.0, 0.0]), (4, 1))
        c = 0.3
        tgt = np.tile(np.array([c, np.sqrt(1 - c * c)]), (5, 1))
        src_avgs, tgt_avgs = neighborhood_means(src, tgt, k=3)
        np.testing.assert_allclose(src_avgs, c, atol=1e-12)
        np.testing.assert_allclose(tgt_avgs, c, atol=1e-12)

    def test_top_two_of_three_targets_against_sort_oracle(self):
        rng = np.random.default_rng(4)
        src = unit_rows(rng.normal(size=(6, 4)))
        tgt = unit_rows(rng.normal(size=(3, 4)))
        src_avgs, tgt_avgs = neighborhood_means(src, tgt, k=2)
        cosines = src @ tgt.T
        for i in range(6):
            expected = np.sort(cosines[i])[-2:].mean()
            assert src_avgs[i] == pytest.approx(expected, abs=1e-12)
        for j in range(3):
            expected = np.sort(cosines[:, j])[-2:].mean()
            assert tgt_avgs[j] == pytest.approx(expected, abs=1e-12)

    def test_k_equal_to_vocab_size_is_row_mean(self):
        rng = np.random.default_rng(5)
        src = unit_rows(rng.normal(size=(4, 3)))
        tgt = unit_rows(rng.normal(size=(4, 3)))
        src_avgs, _ = neighborhood_means(src, tgt, k=4)
        cosines = src @ tgt.T
        np.testing.assert_allclose(src_avgs, cosines.mean(axis=1), atol=1e-12)

    def test_k_larger_than_candidate_set_is_clamped(self):
        rng = np.random.default_rng(13)
        src = unit_rows(rng.normal(size=(3, 4)))
        tgt = unit_rows(rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(csls_scores(src, tgt, 4), csls_scores(src, tgt, 3))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            csls_scores(np.eye(3), np.eye(3), 0)

    def test_means_outside_unit_interval_raise(self):
        # Rows of norm 2 give cosines of 4: not a cosine scoring input.
        with pytest.raises(ValueError, match="unit-norm"):
            csls_scores(2.0 * np.eye(3), 2.0 * np.eye(3), 2)


class TestCslsScore:
    def test_all_equal_cosines_score_zero(self):
        src = np.tile(np.array([1.0, 0.0]), (3, 1))
        tgt = np.tile(np.array([0.5, np.sqrt(0.75)]), (3, 1))
        np.testing.assert_allclose(csls_scores(src, tgt, 2), 0.0, atol=1e-12)

    def test_definition_restated(self):
        rng = np.random.default_rng(6)
        src = unit_rows(rng.normal(size=(5, 4)))
        tgt = unit_rows(rng.normal(size=(6, 4)))
        cosines = src @ tgt.T
        src_avgs, tgt_avgs = neighborhood_means(src, tgt, k=3)
        scores = csls_scores(src, tgt, 3)
        assert scores.shape == (5, 6)
        for i in range(5):
            for j in range(6):
                manual = 2 * cosines[i, j] - src_avgs[i] - tgt_avgs[j]
                assert scores[i, j] == pytest.approx(manual, abs=1e-12)
        np.testing.assert_allclose(
            scores,
            2 * cosines - src_avgs[:, None] - tgt_avgs[None, :],
            atol=1e-12,
        )

    def test_argmax_agrees_with_cosine_without_hubs(self):
        # Each source has a dedicated near-copy target; no target is close
        # to more than one source, so CSLS cannot change the winner.
        rng = np.random.default_rng(7)
        src = unit_rows(rng.normal(size=(12, 16)))
        tgt = unit_rows(src + 0.01 * rng.normal(size=src.shape))
        cosines = src @ tgt.T
        scores = csls_scores(src, tgt, 3)
        np.testing.assert_array_equal(
            scores.argmax(axis=1), cosines.argmax(axis=1)
        )

    def test_shape_must_match_index(self):
        # Source and target rows of different dimension cannot be scored.
        with pytest.raises(ValueError):
            extract_hypotheses(np.eye(2), np.eye(5, 3), top_k=5, csls_k=1)


class TestExtractHypotheses:
    def test_perfect_alignment_shuffled(self):
        rng = np.random.default_rng(8)
        src = unit_rows(rng.normal(size=(10, 6)))
        shuffle = rng.permutation(10)
        tgt = src[shuffle]
        hyps = extract_hypotheses(src, tgt, top_k=1, csls_k=3)[0].hypotheses()
        want = {i: int(np.flatnonzero(shuffle == i)[0]) for i in range(10)}
        assert hyps.top1() == want

    def test_top_k_clamped_to_vocab(self):
        rng = np.random.default_rng(9)
        src = unit_rows(rng.normal(size=(4, 5)))
        tgt = unit_rows(rng.normal(size=(3, 5)))
        hyps = extract_hypotheses(src, tgt, top_k=5)[0].hypotheses()
        assert all(len(ranked) == 3 for ranked in hyps.entries.values())

    def test_hub_demoted_under_csls(self):
        # Two orthogonal sources; a hub target at cosine 0.6 from both and
        # one niche target per source at cosine 0.55. Cosine ranks the hub
        # first everywhere; the hub's high neighborhood average demotes it
        # under CSLS.
        src = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]], dtype=float)
        hub = np.array([0.6, 0.6, np.sqrt(1 - 0.72), 0, 0])
        t0 = np.array([0.55, 0, 0, np.sqrt(1 - 0.3025), 0])
        t1 = np.array([0, 0.55, 0, 0, np.sqrt(1 - 0.3025)])
        tgt = np.vstack([hub, t0, t1])
        by_cos = np.argsort(-(src @ tgt.T), axis=1, kind="stable")
        by_csls = extract_hypotheses(src, tgt, top_k=3, csls_k=2)[0].hypotheses()
        assert by_cos[:, 0].tolist() == [0, 0]  # hub wins raw cosine
        assert by_csls.top1() == {0: 1, 1: 2}  # niche targets win CSLS
        hub_rank_cos = by_cos[0].tolist().index(0)
        hub_rank_csls = [t for t, _ in by_csls.entries[0]].index(0)
        assert hub_rank_csls > hub_rank_cos

    def test_many_to_one_permitted(self):
        src = unit_rows(np.array([[1.0, 0.05, 0.0], [1.0, -0.05, 0.0]]))
        tgt = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        hyps = extract_hypotheses(src, tgt, top_k=1, csls_k=1)[0].hypotheses()
        assert hyps.top1() == {0: 0, 1: 0}

    def test_score_ties_break_by_ascending_index(self):
        # One source with csls_k = 1: CSLS is cosine minus a constant.
        src = np.array([[1.0, 0.0]])
        tgt = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])  # targets 0,1 tie
        hyps = extract_hypotheses(src, tgt, top_k=3, csls_k=1)[0].hypotheses()
        assert [t for t, _ in hyps.entries[0]] == [2, 0, 1]

    def test_tie_at_top_k_boundary_prefers_smaller_index(self):
        # targets 1 and 2 tie exactly at the k-th rank; index 1 must win
        src = np.array([[1.0, 0.0]])
        half = np.array([0.5, np.sqrt(0.75)])
        tgt = np.vstack([[1.0, 0.0], half, half, [0.0, 1.0]])
        hyps = extract_hypotheses(src, tgt, top_k=2, csls_k=1)[0].hypotheses()
        assert [t for t, _ in hyps.entries[0]] == [0, 1]

    def test_matches_full_sort_oracle(self):
        # CSLS restated from src @ tgt.T, its means from full sorts.
        rng = np.random.default_rng(21)
        src = unit_rows(rng.normal(size=(8, 5)))
        tgt = unit_rows(rng.normal(size=(11, 5)))
        hyps = extract_hypotheses(src, tgt, top_k=4, csls_k=3)[0].hypotheses()
        cosines = src @ tgt.T
        src_avgs = np.sort(cosines, axis=1)[:, -3:].mean(axis=1)
        tgt_avgs = np.sort(cosines, axis=0)[-3:].mean(axis=0)
        scores = 2 * cosines - src_avgs[:, None] - tgt_avgs[None, :]
        for i in range(8):
            order = sorted(range(11), key=lambda j: (-scores[i, j], j))[:4]
            assert [t for t, _ in hyps.entries[i]] == order

    def test_empty_target_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            extract_hypotheses(np.eye(2), np.empty((0, 2)), top_k=1)

    def test_empty_source_set_raises(self):
        with pytest.raises(ValueError, match="source set is empty"):
            extract_hypotheses(np.empty((0, 2)), np.eye(2), top_k=1)

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError, match="top_k must be positive"):
            extract_hypotheses(np.eye(2), np.eye(2), top_k=0)


class TestSoftSeeding:
    def test_corrupted_seed_absent_from_top1(self):
        # Two seed pairs are swapped, so the seed list claims x0 -> y1 and
        # x1 -> y0 while the geometry says otherwise. The fitted map follows
        # the ten clean pairs and neither claimed pair survives as a top-1
        # hypothesis.
        rng = np.random.default_rng(12)
        d, s = 4, 12
        x = unit_rows(rng.normal(size=(s, d)))
        y = x @ random_orthogonal(d, rng)
        claimed_order = np.arange(s)
        claimed_order[[0, 1]] = [1, 0]
        w = solve_procrustes(x, y[claimed_order])
        hyps = extract_hypotheses(w.apply(x), y, top_k=1)[0].hypotheses()
        assert hyps.top1()[0] != 1  # claimed seed pair (x0, y1) not honored
        assert hyps.top1()[0] == 0  # the geometric match wins instead
