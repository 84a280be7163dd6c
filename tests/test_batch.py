"""The stacked solver path against one-instance solves of the same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essential_lab import distributions as dist
from essential_lab import montecarlo as mc
from essential_lab import solver as sv
from essential_lab.errors import EliminationFailed, RankDeficient
from essential_lab.geometry import EssentialMatrix

from oracles import planted_instance, projective_distance

BOXES55 = [dist.BoxSpec(-5.0, 5.0, -5.0, 5.0)] * 10


def corpus(per_kind=75, seed=20):
    """Rows and kernel bases of unifG, psi, box and planted instances."""
    rngs = [dist.rng_for(seed, i) for i in range(3 * per_kind)]
    stacks = [dist.sample_unifG(rngs[:per_kind]),
              dist.sample_psi(rngs[per_kind:2 * per_kind]),
              dist.sample_box(rngs[2 * per_kind:], BOXES55)]
    rng = np.random.default_rng(seed)
    planted = np.array([planted_instance(rng)[0] for _ in range(per_kind)])
    stacks.append((planted, sv.nullspace_basis(planted)))
    return (np.concatenate([rows for rows, _ in stacks]),
            np.concatenate([basis for _, basis in stacks]))


def chart_generators(n, seed=3):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def assert_same_result(alone, stacked):
    assert (stacked.real_count, stacked.status, stacked.retries, stacked.reason) == \
        (alone.real_count, alone.status, alone.retries, alone.reason)
    for sol in stacked.solutions:
        vec = sol.m.ravel() / np.sqrt(2.0)
        gap = min(projective_distance(vec, other.m.ravel() / np.sqrt(2.0))
                  for other in alone.solutions)
        assert gap <= 1e-10


def forced_retry_instance(rng):
    """Rows with a kernel basis whose first chart fails elimination.

    The first three basis matrices have a zero third row, so the
    determinant vanishes on their span and the leading 10x10 block of
    the constraint matrix has a zero row.
    """
    first = rng.standard_normal((3, 3, 3))
    first[:, 2] = 0.0
    spanning = np.concatenate([first.reshape(3, 9), rng.standard_normal((1, 9))])
    basis = np.linalg.qr(spanning.T)[0].T        # keeps the span of the first three
    rows = np.linalg.svd(basis)[2][4:]           # the orthogonal complement
    return rows, basis


def sample(kind, rngs):
    """A stack (rows, basis) of one instance of ``kind`` per generator."""
    if kind == "unifG":
        return dist.sample_unifG(rngs)
    return dist.sample_psi(rngs) if kind == "psi" else dist.sample_box(rngs, BOXES55)


def solo_outcome(result):
    """(count, reason, retries) of a CountResult, as count_batch reports them."""
    return (0 if result.failed else result.real_count, result.reason, result.retries)


def counted_outcome(counted, i):
    """(count, reason, retries) of instance i of a count_batch result."""
    return (int(counted.count[i]), sv.FAILURE_REASONS[counted.reason[i]],
            int(counted.retries[i]))


class TestStackedSampling:
    @pytest.mark.parametrize("kind", ["unifG", "psi", "box"])
    def test_stack_draws_what_each_generator_draws_alone(self, kind):
        rows, basis = sample(kind, [dist.rng_for(9, i) for i in range(40)])
        for i in range(40):
            alone_rows, alone_basis = sample(kind, [dist.rng_for(9, i)])
            assert np.array_equal(rows[i:i + 1], alone_rows)
            assert np.array_equal(basis[i:i + 1], alone_basis)

    @pytest.mark.parametrize("kind", ["unifG", "psi", "box"])
    def test_streams_draw_what_their_generators_draw(self, kind):
        streams = dist.Streams(9, 1000, 40)
        rows, basis = sample(kind, streams)
        rngs = [dist.rng_for(9, 1000 + i) for i in range(40)]
        expected_rows, expected_basis = sample(kind, rngs)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(basis, expected_basis)
        for i in (0, 17, 39):
            assert np.array_equal(streams[i].standard_normal(4), rngs[i].standard_normal(4))

    def test_short_vectors_are_redrawn_from_their_own_stream(self):
        streams = dist.Streams(12, 0, 4)
        raw = streams.fill(dist._normals, np.empty((4, 10, 3)))
        raw[2, 5] = 0.0
        points = dist._rp2_points(raw.copy(), streams)
        alone = dist.rng_for(12, 2)
        first = alone.standard_normal((10, 3))
        first[5] = alone.standard_normal(3)
        expected = dist._rp2_points(first[None], [alone])[0]
        assert np.array_equal(points[2], expected)
        assert np.array_equal(streams[2].standard_normal(4), alone.standard_normal(4))

    def test_degenerate_boxes_raise_in_a_stack(self):
        tiny = [dist.BoxSpec(0.0, 1e-30, 0.0, 1e-30)] * 10
        with pytest.raises(RankDeficient):
            dist.sample_box([dist.rng_for(10, i) for i in range(3)], tiny)


class TestSolveBatch:
    def test_stack_matches_one_at_a_time(self):
        rows, basis = corpus()
        stacked = sv.solve_batch(rows, basis, chart_generators(len(rows)))
        assert len(stacked) == len(rows) == 300
        for i, rng in enumerate(chart_generators(len(rows))):
            assert_same_result(sv.solve_five_point(rows[i], rng=rng), stacked[i])
        assert not stacked.failed
        assert stacked.real_count == sum(r.real_count for r in stacked)

    def test_retried_rows_match_their_solo_results(self):
        rng = np.random.default_rng(5)
        rows, basis = corpus(per_kind=4)
        forced = [forced_retry_instance(rng) for _ in range(4)]
        rows = np.concatenate([rows[:8], [r for r, _ in forced], rows[8:]])
        basis = np.concatenate([basis[:8], [b for _, b in forced], basis[8:]])
        for retries in (5, 0):
            stacked = sv.solve_batch(rows, basis, chart_generators(len(rows)), retries)
            for i, gen in enumerate(chart_generators(len(rows))):
                alone = sv.solve_batch(rows[i:i + 1], basis[i:i + 1], [gen], retries)[0]
                assert_same_result(alone, stacked[i])
            retried = [r for r in stacked if r.retries or r.failed]
            assert len(retried) == 4
            if retries:
                assert all(r.status == "retried" for r in retried)
            else:
                assert all(r.reason == "elimination" for r in retried)

    def test_streams_chunk_with_forced_retries_matches_solo_results(self):
        seed, n, forced = 41, 12, [1, 6, 11]
        streams = dist.Streams(seed, 0, n)
        rows, basis = dist.sample_psi(streams)
        rng = np.random.default_rng(5)
        for i in forced:
            rows[i], basis[i] = forced_retry_instance(rng)
        counted = sv.count_batch(rows, basis, streams)
        assert np.all(counted.retries[forced] > 0) and not counted.failed.any()
        rngs = [dist.rng_for(seed, i) for i in range(n)]
        dist.sample_psi(rngs)
        solved = sv.solve_batch(rows, basis, rngs)
        replayed = dist.Streams(seed, 0, n)
        dist.sample_psi(replayed)
        # the new charts come from each instance's own stream, at the same position
        for a, b in zip(solved, sv.solve_batch(rows, basis, replayed)):
            assert all(np.array_equal(x.m, y.m) for x, y in zip(a.solutions, b.solutions))
        for i, result in enumerate(solved):
            alone = dist.rng_for(seed, i)
            dist.sample_psi([alone])
            assert_same_result(sv.solve_batch(rows[i:i + 1], basis[i:i + 1], [alone])[0],
                               result)
            assert counted_outcome(counted, i) == solo_outcome(result)

    @pytest.mark.parametrize("kind", ["unifG", "psi"])
    def test_rank_deficient_draws_are_redrawn_from_their_own_stream(self, kind, monkeypatch):
        seed, n, forced = 31, 10, (2, 7)
        first = {sample(kind, [dist.rng_for(seed, i)])[0][0].tobytes() for i in forced}
        nullspace = sv.nullspace_basis

        def rank_deficient_first_draws(rows):
            rows = np.asarray(rows, dtype=float)
            hit = np.array([r.tobytes() in first for r in rows.reshape(-1, 5, 9)])
            return np.where(hit.reshape(rows.shape[:-2] + (1, 1)), np.nan, nullspace(rows))

        monkeypatch.setattr(sv, "nullspace_basis", rank_deficient_first_draws)
        monkeypatch.setattr(dist, "nullspace_basis", rank_deficient_first_draws)
        streams = dist.Streams(seed, 0, n)
        rows, basis = sample(kind, streams)
        counted = sv.count_batch(rows, basis, streams)
        for i in range(n):
            alone = dist.rng_for(seed, i)
            alone_rows, alone_basis = sample(kind, [alone])
            assert np.array_equal(rows[i:i + 1], alone_rows)
            assert np.array_equal(basis[i:i + 1], alone_basis)
            assert rows[i].tobytes() not in first
            result = sv.solve_batch(alone_rows, alone_basis, [alone])[0]
            assert counted_outcome(counted, i) == solo_outcome(result)
            assert np.array_equal(streams[i].standard_normal(4), alone.standard_normal(4))

    def test_count_batch_counts_what_solve_batch_returns(self):
        rows, basis = corpus(per_kind=30)
        rng = np.random.default_rng(8)
        forced = [forced_retry_instance(rng) for _ in range(3)]
        rows = np.concatenate([rows, [r for r, _ in forced]])
        basis = np.concatenate([basis, [b for _, b in forced]])
        for retries in (5, 0):
            counted = sv.count_batch(rows, basis, chart_generators(len(rows)), retries)
            solved = sv.solve_batch(rows, basis, chart_generators(len(rows)), retries)
            assert [counted_outcome(counted, i) for i in range(len(rows))] == \
                [solo_outcome(result) for result in solved]

    def test_experiments_build_no_essential_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an EssentialMatrix was built")

        monkeypatch.setattr(EssentialMatrix, "trusted", classmethod(refuse))
        monkeypatch.setattr(EssentialMatrix, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            sv.solve_five_point(dist.sample_unifG([dist.rng_for(1, 0)])[0][0])
        for kind, boxes in (("unifG", None), ("psi", None), ("box", BOXES55)):
            report = mc.run_experiment(kind, 300, 2, boxes=boxes)
            assert sum(report.histogram) + report.failures == 300

    def test_stage_failures_come_back_as_nan_in_a_stack(self):
        rng = np.random.default_rng(6)
        good = sv.nullspace_basis(rng.standard_normal((5, 9)))
        _, bad = forced_retry_instance(rng)
        t = sv.action_matrix(sv.build_constraint_matrix(np.stack([good, bad])))
        assert np.all(np.isfinite(t[0])) and np.all(np.isnan(t[1]))
        values, _ = sv.eigen_candidates(t)
        assert np.all(np.isfinite(values[:10])) and np.all(np.isnan(values[10:]))
        with pytest.raises(EliminationFailed):
            sv.action_matrix(sv.build_constraint_matrix(bad))


def mixing_matrix(rng):
    """An invertible 5x5 matrix with singular values in [0.5, 2]."""
    q1 = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    q2 = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    return q1 @ np.diag(rng.uniform(0.5, 2.0, 5)) @ q2


class TestMetamorphic:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["unifG", "psi"]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_count_invariant_under_row_mixing(self, seed, kind):
        rng = dist.rng_for(seed, 0)
        rows = sample(kind, [rng])[0][0]
        mixed = mixing_matrix(rng) @ rows
        base = sv.solve_five_point(rows, rng=0)
        assert sv.solve_five_point(mixed, rng=0).real_count == base.real_count

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_count_invariant_under_swapping_u_and_v(self, seed):
        rows = dist.sample_psi([dist.rng_for(seed, 0)])[0][0]
        swapped = rows.reshape(5, 3, 3).transpose(0, 2, 1).reshape(5, 9)
        base = sv.solve_five_point(rows, rng=0)
        assert sv.solve_five_point(swapped, rng=0).real_count == base.real_count
