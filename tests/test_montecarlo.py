import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from essential_lab import distributions as dists
from essential_lab import montecarlo as mc

from oracles import det_route_at_once, gap_and_budget, sqrt_rounded

BOXES55 = [(-5.0, 5.0, -5.0, 5.0)] * 10

values_strategy = st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40)


def exact_statistics(values):
    """Mean, unbiased variance and standard error of floats: two passes over Fractions."""
    values = [Fraction(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else Fraction(0)
    return float(mean), float(variance), sqrt_rounded(variance / n)


def grouped_statistics(*groups):
    """mean_variance of the values in groups, from the exact sums of each group added."""
    arrays = [np.array(g) for g in groups]
    return mc.mean_variance(sum(map(len, arrays)), sum(mc._exact_sum(x) for x in arrays),
                            sum(mc._exact_sum(x * x) for x in arrays))


class TestMeanVariance:
    @given(values_strategy, values_strategy)
    @example([1e6, 1e6 - 0.1], [1e6 + 0.1])     # plain sums of x and x^2 lose this spread
    # ill-conditioned sums: the old shifted sum missed the first two (hypothesis
    # seeds 172 and 195), a sum of rounded chunk sums misses the third
    @example([995591.0], [-995700.9999999999])
    @example([999598.0, 999598.0, -999652.0], [-999652.0])
    @example([1e6, 0.1], [-1e6])
    @example([1.0], [3.0])      # variance / n = 1: the square root is exact
    @settings(max_examples=100, deadline=None)
    def test_each_statistic_is_the_exact_one_rounded_once(self, a, b):
        squares = sum(Fraction(v) ** 2 for v in a + b)
        got = mc.mean_variance(len(a + b), mc._exact_sum(np.array(a)) + mc._exact_sum(np.array(b)),
                               squares)
        assert got == exact_statistics(a + b)

    @given(values_strategy, values_strategy, values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_grouping_into_chunks_does_not_matter(self, a, b, c):
        assert grouped_statistics(a + b, c) == grouped_statistics(a, b + c) \
            == grouped_statistics(a, b, c) == grouped_statistics(a + b + c)

    # sums over n = 2 with total 0: variance / n = squares / 2, below and above 2^111
    @pytest.mark.parametrize("squares", [Fraction(1, 3 * 10 ** 300), Fraction(3),
                                         Fraction(10 ** 40), Fraction(10 ** 300 + 1)])
    def test_the_standard_error_is_rounded_once_at_any_scale(self, squares):
        assert mc.mean_variance(2, 0, squares) == (0.0, float(squares), sqrt_rounded(squares / 2))

    def test_integer_sums_divide_as_integers(self):
        rng = np.random.default_rng(3)
        for n in rng.integers(2, 10 ** 9, 20).tolist():
            total = int(rng.integers(0, 10 * n))
            squares = total * total // n + int(rng.integers(0, 10 ** 6))
            mean, variance, _ = mc.mean_variance(n, total, squares)
            assert (mean, variance) == (total / n, (n * squares - total * total) / (n * (n - 1)))

    def test_one_value_has_no_spread(self):
        assert mc.mean_variance(1, Fraction(5, 2), Fraction(25, 4)) == (2.5, 0.0, 0.0)
        assert mc.mean_variance(0, 0, 0) == (0.0, 0.0, 0.0)


class TestExactSum:
    def test_long_columns_are_summed_in_exact_slices(self, monkeypatch):
        x = np.random.default_rng(1).standard_normal(1000) * np.logspace(-100, 100, 1000)
        whole = mc._exact_sum(x)
        monkeypatch.setattr(mc, "_EXACT_SLICE", 7)
        assert mc._exact_sum(x) == whole == sum(map(Fraction, x.tolist()))

    def test_values_that_are_not_finite_raise(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                mc._exact_sum(np.array([1.0, 2.0, bad]))


PERMUTATIONS = [(perm, (-1) ** sum(perm[i] > perm[k] for i in range(5) for k in range(i + 1, 5)))
                for perm in itertools.permutations(range(5))]


def exact_det(a) -> Fraction:
    """The determinant of one 5x5 float matrix, exactly (Leibniz over integers).

    Every entry is an integer over a power of two, so the matrix times the
    largest denominator d is an integer matrix; its determinant over d^5.
    """
    ratios = [x.as_integer_ratio() for x in np.ravel(a).tolist()]
    d = max(den for _, den in ratios)
    n = [num * (d // den) for num, den in ratios]
    total = sum(sign * math.prod(n[5 * i + perm[i]] for i in range(5))
                for perm, sign in PERMUTATIONS)
    return Fraction(total, d ** 5)


class TestAbsDet5:
    @pytest.mark.parametrize("kind", ["z", "gauss", "rank4"])
    def test_error_within_eight_ulps_of_the_permanent(self, kind):
        rng = np.random.default_rng(5)
        if kind == "z":
            a = dists.sample_z_matrices(dists.rng_for(5, 0), 1000)
        elif kind == "gauss":
            a = rng.standard_normal((1000, 5, 5))
        else:       # rank 4 plus noise: |det| ~ 1e-9 with terms of order one
            a = (rng.standard_normal((1000, 5, 4)) @ rng.standard_normal((1000, 4, 5))
                 + 1e-9 * rng.standard_normal((1000, 5, 5)))
        dets = mc.abs_det5(a)
        # perm(|A|) bounds the sum of the |terms| of the Leibniz expansion
        permanent = sum(np.prod(np.abs(a[:, range(5), perm]), axis=1) for perm, _ in PERMUTATIONS)
        errors = [abs(Fraction(d) - abs(exact_det(m))) for d, m in zip(dets.tolist(), a)]
        assert np.all(np.array(errors, dtype=float) <= 8.0 * np.finfo(float).eps * permanent)

    def test_a_matrix_gives_the_same_bits_in_any_stack(self):
        # the stack spans two full blocks and three matrices of a third
        a = np.random.default_rng(6).standard_normal((2 * mc.DET_BLOCK + 3, 5, 5))
        dets = mc.abs_det5(a)
        alone = np.array([mc.abs_det5(m) for m in a])
        assert np.array_equal(dets, alone)

    def test_stack_shapes(self):
        a = np.random.default_rng(7).standard_normal((2, 3, 5, 5))
        assert mc.abs_det5(a).shape == (2, 3)
        assert mc.abs_det5(a[0, 0]).shape == ()
        assert mc.abs_det5(a[:, :0]).shape == (2, 0)
        with pytest.raises(ValueError):
            mc.abs_det5(a[..., :4])


class TestRunExperiment:
    def test_report_invariants(self):
        report = mc.run_experiment("unifG", 700, seed=5)
        assert sum(report.histogram) + report.failures == report.n
        solved = report.n - report.failures
        recomputed = sum(k * c for k, c in enumerate(report.histogram)) / solved
        assert report.mean == pytest.approx(recomputed, rel=1e-12)
        assert all(report.histogram[k] == 0 for k in (1, 3, 5, 7, 9))

    def test_se_mean_is_rounded_once_from_the_histogram(self):
        # seed 0 is one of the 6 of seeds 0-39 at n = 256 on which this differs from
        # math.sqrt(variance / solved), which rounds twice
        report = mc.run_experiment("psi", 256, seed=0)
        solved = report.n - report.failures
        counts = np.repeat(np.arange(11), report.histogram)
        assert report.variance == pytest.approx(np.var(counts, ddof=1), rel=1e-12)
        total, squares = (sum(k ** p * c for k, c in enumerate(report.histogram)) for p in (1, 2))
        assert (report.mean, report.variance, report.se_mean) == \
            mc.mean_variance(solved, total, squares)
        variance = Fraction(solved * squares - total * total, solved * (solved - 1))
        assert report.se_mean == sqrt_rounded(variance / solved)
        assert report.se_mean != math.sqrt(report.variance / solved)

    def test_a_single_solved_instance_has_no_spread(self):
        report = mc.run_experiment("psi", 1, seed=3)
        assert report.failures == 0 and sum(report.histogram) == 1
        assert report.mean == float(report.histogram.index(1))
        assert (report.variance, report.se_mean) == (0.0, 0.0)

    def test_worker_counts_agree(self):
        one = mc.run_experiment("psi", 1100, seed=6, workers=1)
        four = mc.run_experiment("psi", 1100, seed=6, workers=4)
        da, db = one.to_dict(), four.to_dict()
        da.pop("wall_time")
        db.pop("wall_time")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_box_requires_boxes(self):
        with pytest.raises(ValueError):
            mc.run_experiment("box", 10, seed=0)
        with pytest.raises(ValueError):
            mc.run_experiment("psi", 10, seed=0, boxes=BOXES55)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            mc.run_experiment("cauchy", 10, seed=0)


@pytest.fixture(scope="module")
def det_1e6_seed21():
    return mc.estimate_abs_det(10 ** 6, seed=21)


class TestDetEstimator:
    def test_second_moment_near_derived_constant(self, det_1e6_seed21):
        est = det_1e6_seed21
        assert abs(est.second_moment - 7.5) <= 3.0 * est.se_second

    def test_derived_mean_matches_reference(self, det_1e6_seed21):
        est = det_1e6_seed21
        # reference level 3.95 from the large determinant ensemble
        assert abs(est.derived_mean - 3.95) <= 4.0 * mc.DET_TO_COUNT * est.se_mean

    def test_determinism(self):
        a = mc.estimate_abs_det(10 ** 5, seed=3)
        b = mc.estimate_abs_det(10 ** 5, seed=3)
        assert a.mean_abs_det == b.mean_abs_det
        assert a.second_moment == b.second_moment

    # one matrix, one partial slice, a slice boundary, a chunk boundary
    @pytest.mark.parametrize("n", [1, 7, 40_961, 250_001])
    def test_slices_give_the_bits_of_whole_chunks(self, n):
        est = mc.estimate_abs_det(n, seed=4)
        (mean, second), (se_mean, se_second) = det_route_at_once(
            n, 4, mc.DET_CHUNK, dists.rng_for, mc.abs_det5)
        got = est.to_dict()
        got.pop("wall_time")
        assert got == {"n": n, "seed": 4, "mean_abs_det": mean, "second_moment": second,
                       "derived_mean": mc.DET_TO_COUNT * mean, "se_mean": se_mean,
                       "se_second": se_second}

    def test_slices_of_any_size_give_the_same_bits(self, monkeypatch):
        # 12k matrices cross one slice boundary of 8192, or eleven of 1000
        whole = mc.estimate_abs_det(12_000, seed=8).to_dict()
        monkeypatch.setattr(dists, "_Z_SLICE", 5 * 1000)
        sliced = mc.estimate_abs_det(12_000, seed=8).to_dict()
        whole.pop("wall_time")
        sliced.pop("wall_time")
        assert sliced == whole

    def test_a_chunk_builds_no_stack_of_its_matrices(self):
        # the chunk's 3 x 1.25M normals are 28.6 MiB, a fourth row would add 9.5 MiB and its
        # (250k, 5, 5) stack 48 MiB; the slice buffer and abs_det5's blocks take 4.3 MiB
        # more, so 5 MiB leaves no room for an array of the chunk's 250k dets (1.9 MiB)
        tracemalloc.start()
        try:
            mc.estimate_abs_det(250_000, 0)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1.25e6 * 8 / 2 ** 20 + 5


class TestCrossCheck:
    def test_small_n_agreement(self):
        gap, budget = gap_and_budget(mc.run_experiment("psi", 400, seed=41),
                                     mc.estimate_abs_det(10_000, seed=42), mc.DET_TO_COUNT)
        assert gap <= budget

    def test_corrupted_constant_fails(self, monkeypatch):
        monkeypatch.setattr(mc, "DET_TO_COUNT", math.pi ** 3 / 4.0 * 1.25)
        gap, budget = gap_and_budget(mc.run_experiment("psi", 2000, seed=42),
                                     mc.estimate_abs_det(200_000, seed=43), mc.DET_TO_COUNT)
        assert gap > budget
