"""The stacked solver path against one-instance solves of the same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essential_lab import distributions as dist
from essential_lab import montecarlo as mc
from essential_lab import solver as sv
from essential_lab.errors import RankDeficient
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


def outcome(result, i=0):
    """(count, status, retries, reason) and solution matrices of one instance.

    ``result`` is the CountResult of solve_five_point, or a StackResult of
    which instance ``i`` is read.
    """
    if isinstance(result, sv.CountResult):
        return ((result.real_count, result.status, result.retries, result.reason),
                [sol.m for sol in result.solutions])
    code, tries = result.reason[i], int(result.retries[i])
    status = "failed" if code != sv.SOLVED else "retried" if tries else "ok"
    mats = result.solutions[i, result.kept[i]] if code == sv.SOLVED else []
    return (int(result.count[i]), status, tries, sv.FAILURE_REASONS[code]), list(mats)


def assert_same_result(alone, stacked, i):
    """Instance ``i`` of the StackResult ``stacked`` against ``alone``, solved by itself."""
    (head, mats), (alone_head, alone_mats) = outcome(stacked, i), outcome(alone)
    assert head == alone_head and len(mats) == len(alone_mats)
    for mat in mats:
        gap = min(projective_distance(mat.ravel() / np.sqrt(2.0), other.ravel() / np.sqrt(2.0))
                  for other in alone_mats)
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
        assert len(stacked.count) == len(rows) == 300
        total = 0
        for i, rng in enumerate(chart_generators(len(rows))):
            alone = sv.solve_five_point(rows[i], rng=rng)
            assert_same_result(alone, stacked, i)
            total += alone.real_count
        assert not stacked.failed
        assert stacked.real_count == total

    def test_retried_rows_match_their_solo_results(self):
        rng = np.random.default_rng(5)
        rows, basis = corpus(per_kind=4)
        forced = [forced_retry_instance(rng) for _ in range(4)]
        rows = np.concatenate([rows[:8], [r for r, _ in forced], rows[8:]])
        basis = np.concatenate([basis[:8], [b for _, b in forced], basis[8:]])
        for retries in (5, 0):
            stacked = sv.solve_batch(rows, basis, chart_generators(len(rows)), retries)
            for i, gen in enumerate(chart_generators(len(rows))):
                alone = sv.solve_batch(rows[i:i + 1], basis[i:i + 1], [gen], retries)
                assert_same_result(alone, stacked, i)
            retried = (stacked.retries > 0) | (stacked.reason != sv.SOLVED)
            assert np.flatnonzero(retried).tolist() == [8, 9, 10, 11]
            if retries:
                assert np.all(stacked.reason[retried] == sv.SOLVED)
            else:
                assert np.all(stacked.reason[retried] == sv.ELIMINATION)
                # read as one result, a stack fails only when every instance fails
                assert not stacked.failed
                assert sv.solve_batch(rows[retried], basis[retried],
                                      chart_generators(4), retries).failed

    def test_streams_chunk_with_forced_retries_matches_solo_results(self):
        seed, n, forced = 41, 12, [1, 6, 11]
        streams = dist.Streams(seed, 0, n)
        rows, basis = dist.sample_psi(streams)
        rng = np.random.default_rng(5)
        for i in forced:
            rows[i], basis[i] = forced_retry_instance(rng)
        on_streams = sv.solve_batch(rows, basis, streams)
        assert np.all(on_streams.retries[forced] > 0) and np.all(on_streams.reason == sv.SOLVED)
        rngs = [dist.rng_for(seed, i) for i in range(n)]
        dist.sample_psi(rngs)
        solved = sv.solve_batch(rows, basis, rngs)
        # the new charts come from each instance's own stream, at the same position
        for a, b in zip(on_streams, solved):
            assert np.array_equal(a, b)
        for i in range(n):
            alone = dist.rng_for(seed, i)
            dist.sample_psi([alone])
            assert_same_result(sv.solve_batch(rows[i:i + 1], basis[i:i + 1], [alone]),
                               solved, i)

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
        on_streams = sv.solve_batch(rows, basis, streams)
        for i in range(n):
            alone = dist.rng_for(seed, i)
            alone_rows, alone_basis = sample(kind, [alone])
            assert np.array_equal(rows[i:i + 1], alone_rows)
            assert np.array_equal(basis[i:i + 1], alone_basis)
            assert rows[i].tobytes() not in first
            assert_same_result(sv.solve_batch(alone_rows, alone_basis, [alone]), on_streams, i)
            assert np.array_equal(streams[i].standard_normal(4), alone.standard_normal(4))

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
        alone = sv.action_matrix(sv.build_constraint_matrix(bad[None]))
        assert alone.shape == (1, 10, 10) and np.all(np.isnan(alone))
        assert np.all(np.isnan(sv.eigen_candidates(alone).values))

    def test_masking_one_instance_leaves_the_others_exact(self):
        """A stage gives the good instances of a stack with one failed instance
        the same bits as the same stack with nothing to mask."""
        rng = np.random.default_rng(8)
        good = [0, 1, 3, 4, 5]
        rows = rng.standard_normal((6, 5, 9))
        bad_rows = rows.copy()
        bad_rows[2, 0, 0] = np.nan
        basis, masked_basis = sv.nullspace_basis(rows), sv.nullspace_basis(bad_rows)
        assert np.all(np.isnan(masked_basis[2]))
        assert np.array_equal(masked_basis[good], basis[good])

        ill = basis.copy()
        ill[2] = forced_retry_instance(rng)[1]
        t, masked_t = (sv.action_matrix(sv.build_constraint_matrix(b)) for b in (basis, ill))
        assert np.all(np.isfinite(t)) and np.all(np.isnan(masked_t[2]))
        assert np.array_equal(masked_t[good], t[good])

        nan_t = t.copy()
        nan_t[2] = np.nan
        clean, masked = sv.eigen_candidates(t), sv.eigen_candidates(nan_t)
        for got, want in ((masked.values, clean.values), (masked.triples, clean.triples)):
            got, want = got.reshape(6, 10, -1), want.reshape(6, 10, -1)
            assert np.all(np.isnan(got[2]))
            assert np.array_equal(got[good], want[good])

    def test_one_instance_builds_a_generator_only_to_retry(self, monkeypatch):
        rows, _, _ = planted_instance(np.random.default_rng(0))
        forced_rows, forced_basis = forced_retry_instance(np.random.default_rng(5))
        seeded = np.random.default_rng
        built = []

        def counting_default_rng(seed=None):
            built.append(seed)
            return seeded(seed)

        monkeypatch.setattr(sv.np.random, "default_rng", counting_default_rng)
        assert not sv.solve_five_point(rows, rng=7).failed and built == []
        # its own kernel basis would give this instance a chart that solves; the
        # forced one fails elimination, so the solve retries
        monkeypatch.setattr(sv, "nullspace_basis", lambda rows: forced_basis.copy())
        by_seed = sv.solve_five_point(forced_rows, rng=7)
        assert built == [7] and by_seed.status == "retried"
        by_generator = sv.solve_five_point(forced_rows, rng=seeded(7))
        for result in (by_seed, by_generator):
            assert result.real_count == len(result.solutions)
        assert ((by_seed.real_count, by_seed.status, by_seed.retries, by_seed.reason,
                 by_seed.residual_max)
                == (by_generator.real_count, by_generator.status, by_generator.retries,
                    by_generator.reason, by_generator.residual_max))
        assert ([(s.m.tobytes(), s.residual) for s in by_seed.solutions]
                == [(s.m.tobytes(), s.residual) for s in by_generator.solutions])


    def test_an_eigen_failure_fails_only_its_own_instance(self, monkeypatch):
        """A stacked eig that LAPACK fails is redone matrix by matrix."""
        rows, basis = dist.sample_unifG(dist.Streams(19, 0, 4))
        t = sv.action_matrix(sv.build_constraint_matrix(basis))
        clean = sv.eigen_candidates(t)
        eig = np.linalg.eig

        def fails_on_instance_2(a):
            if a.ndim == 3 or np.array_equal(a, t[2].T):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", fails_on_instance_2)
        failed = sv.eigen_candidates(t)
        for got, want in ((failed.values, clean.values), (failed.triples, clean.triples)):
            got, want = got.reshape(4, 10, -1), want.reshape(4, 10, -1)
            assert np.all(np.isnan(got[2]))
            assert np.array_equal(got[[0, 1, 3]], want[[0, 1, 3]])
        result = sv.validate_and_count(failed, rows, basis, sv.build_constraint_matrix(basis))
        assert result.reason.tolist() == [sv.SOLVED, sv.SOLVED, sv.ELIMINATION, sv.SOLVED]

    @pytest.mark.parametrize("rng, error", [("seed", TypeError), (-1, ValueError)])
    def test_one_instance_rejects_an_unusable_rng_before_solving(self, rng, error):
        rows, _, _ = planted_instance(np.random.default_rng(0))
        assert sv.solve_five_point(rows).status == "ok"    # no retry would build a generator
        with pytest.raises(error):
            sv.solve_five_point(rows, rng=rng)

    def test_no_stage_takes_an_svd(self, monkeypatch):
        forced_rows, forced_basis = forced_retry_instance(np.random.default_rng(5))

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD was taken")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        streams = dist.Streams(17, 0, 6)
        rows, basis = dist.sample_psi(streams)
        rows[3], basis[3] = forced_rows, forced_basis
        result = sv.solve_batch(rows, basis, streams)
        assert result.retries[3] > 0 and np.all(result.reason == sv.SOLVED)
        assert sv.solve_five_point(rows[0], rng=0).status == "ok"


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

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["unifG", "psi"]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_solutions_follow_rotations_of_both_sides(self, seed, kind):
        """Rows R -> U R V^T map each solution E to U E V^T, for rotations U and V."""
        rng = dist.rng_for(seed, 0)
        rows = sample(kind, [rng])[0][0]
        u, v = dist.haar_rotations(rng.standard_normal((2, 3, 3)))
        moved = (u @ rows.reshape(5, 3, 3) @ v.T).reshape(5, 9)
        base = sv.solve_five_point(rows, rng=0)
        turned = sv.solve_five_point(moved, rng=0)
        assert not base.failed and turned.real_count == base.real_count
        for sol in base.solutions:
            image = (u @ sol.m @ v.T).ravel() / np.sqrt(2.0)
            gap = min(projective_distance(image, other.m.ravel() / np.sqrt(2.0))
                      for other in turned.solutions)
            assert gap <= 1e-8
