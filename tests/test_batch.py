"""The stacked solver path against one-instance solves of the same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essential_lab import distributions as dist
from essential_lab import solver as sv
from essential_lab.errors import EliminationFailed, RankDeficient

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


class TestStackedSampling:
    @pytest.mark.parametrize("kind", ["unifG", "psi", "box"])
    def test_stack_draws_what_each_generator_draws_alone(self, kind):
        def draw(rng):
            if kind == "unifG":
                return dist.sample_unifG(rng)
            if kind == "psi":
                return dist.sample_psi(rng)
            return dist.sample_box(rng, BOXES55)

        rows, basis = draw([dist.rng_for(9, i) for i in range(40)])
        for i in range(40):
            space = draw(dist.rng_for(9, i))
            space = space if kind == "unifG" else space[1]
            assert np.array_equal(rows[i], space.rows)
            assert np.array_equal(basis[i], space.basis)

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
        space = dist.sample_unifG(rng) if kind == "unifG" else dist.sample_psi(rng)[1]
        mixed = mixing_matrix(rng) @ space.rows
        base = sv.solve_five_point(space, rng=0)
        assert sv.solve_five_point(mixed, rng=0).real_count == base.real_count

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_count_invariant_under_swapping_u_and_v(self, seed):
        _, space = dist.sample_psi(dist.rng_for(seed, 0))
        swapped = space.rows.reshape(5, 3, 3).transpose(0, 2, 1).reshape(5, 9)
        base = sv.solve_five_point(space, rng=0)
        assert sv.solve_five_point(swapped, rng=0).real_count == base.real_count
