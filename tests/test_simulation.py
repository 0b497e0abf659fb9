import numpy as np
import pytest

from fairgrade import (
    CvResult,
    ExamResultGraph,
    GradeVector,
    InstanceTooLargeError,
    MeritVector,
    NonConvergenceError,
    ParameterOutOfRangeError,
    Roster,
    TaskAssignmentGraph,
    benchmark,
    decompose_error,
    estimate_ex_post_bias,
    generate_assignment,
    grade,
    sample_exam_result,
    simple_average,
    simulated_cross_validate,
    sweep_degree,
    sweep_question_sample_size,
    verify_ex_ante_fairness,
)
from fairgrade import simulation as sim
from fairgrade.model import PriorSpec
from fairgrade.rng import scalar_seed, substream
from fairgrade.simulation import (
    EXACT_ENUMERATION,
    MONTE_CARLO,
    _exact_moments,
    cross_validate,
    cv_threshold_table,
    uniform_difficulty_sampler,
)

from conftest import answer_probability


def recursive_expected_grade(rule, g, u):
    """Independent oracle: recursion over edges instead of bitmask iteration."""
    edges = g.edges
    roster = g.roster

    def go(k, bits, prob):
        if k == len(edges):
            res = ExamResultGraph(g, np.array(bits, dtype=np.uint8))
            return prob * rule(res).values
        i, j = edges[k]
        p = answer_probability(u, roster, i, j)
        return go(k + 1, bits + [1], prob * p) + go(k + 1, bits + [0], prob * (1 - p))

    return go(0, [], 1.0)


@pytest.fixture
def tiny_instance(small_population):
    roster, u = small_population
    g = generate_assignment(roster, 3, 2, 0)
    return g, u


class TestSeeds:
    """A seed is an integer: floats, strings and None are rejected, not truncated."""

    @pytest.mark.parametrize("seed", [1.9, 2.0, "1", None])
    def test_non_integer_seeds_raise(self, tiny_instance, seed):
        g, u = tiny_instance
        with pytest.raises(TypeError):
            generate_assignment(g.roster, 3, 2, seed)
        with pytest.raises(TypeError):
            sample_exam_result(g, u, seed)
        with pytest.raises(TypeError):
            substream(seed, 0)
        with pytest.raises(TypeError):
            estimate_ex_post_bias(simple_average, g, u, 10, seed)

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint8(1), True])
    def test_integer_seeds_give_the_int_streams(self, tiny_instance, seed):
        g, u = tiny_instance
        assert generate_assignment(g.roster, 3, 2, seed) == generate_assignment(g.roster, 3, 2, 1)
        assert sample_exam_result(g, u, seed) == sample_exam_result(g, u, 1)
        assert substream(seed, 4).random() == substream(1, 4).random()
        assert scalar_seed(seed, 2) == scalar_seed(1, 2)

    @pytest.mark.parametrize("key", ["1", 1.0, 1.5, None])
    def test_non_integer_key_elements_raise(self, key):
        with pytest.raises(TypeError):
            substream(1, 0, key)
        with pytest.raises(TypeError):
            scalar_seed(1, key)

    @pytest.mark.parametrize("key", [np.int64(3), np.uint8(3), np.intp(3)])
    def test_integer_key_elements_give_the_int_streams(self, key):
        assert substream(1, key, 2).random() == substream(1, 3, 2).random()
        assert scalar_seed(1, 2, key) == scalar_seed(1, 2, 3)


class TestExactExpectedGrade:
    def test_single_edge_equal_merits(self):
        r = Roster.index_based(1, 1)
        g = TaskAssignmentGraph(r, ((0, 0),))
        u = MeritVector.for_roster(r, [0.0], [0.0])
        assert _exact_moments(simple_average, g, u)[0][0] == pytest.approx(0.5)

    def test_complete_graph_matches_benchmark(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((0, 0), (0, 1), (1, 0), (1, 1)))
        u = MeritVector.for_roster(r, [0.3, -0.3], [0.5, -0.5])
        exact = _exact_moments(simple_average, g, u)[0]
        assert exact == pytest.approx(benchmark(u, r).values, abs=1e-12)

    def test_matches_recursive_oracle(self, tiny_instance):
        g, u = tiny_instance
        for rule in (simple_average, grade):
            exact = _exact_moments(rule, g, u)[0]
            assert exact == pytest.approx(recursive_expected_grade(rule, g, u), abs=1e-12)

    def test_too_large_rejected(self):
        r = Roster.index_based(5, 5)
        g = TaskAssignmentGraph(r, tuple((i, j) for i in range(5) for j in range(5)))
        u = MeritVector.for_roster(r, [0.0] * 5, [0.0] * 5)
        with pytest.raises(InstanceTooLargeError):
            _exact_moments(simple_average, g, u)


class TestEstimateExPostBias:
    def test_constant_merits_averaging_unbiased(self):
        r = Roster.index_based(3, 4)
        u = MeritVector.for_roster(r, [0.0] * 3, [0.0] * 4)
        g = generate_assignment(r, 4, 2, 1)
        report = estimate_ex_post_bias(simple_average, g, u, 4000, 2)
        assert np.all(np.abs(report.per_student_deviation) <= 3 * report.per_student_se)

    def test_complete_assignment_averaging_unbiased(self):
        r = Roster.index_based(2, 3)
        u = MeritVector.for_roster(r, [0.4, -0.4], [-0.5, 0.0, 0.5])
        g = TaskAssignmentGraph(r, tuple((i, j) for i in range(2) for j in range(3)))
        report = estimate_ex_post_bias(simple_average, g, u, 4000, 3)
        assert np.all(np.abs(report.per_student_deviation) <= 4 * report.per_student_se)

    def test_matches_enumeration_oracle(self, tiny_instance):
        g, u = tiny_instance
        opt = benchmark(u, g.roster).values
        for rule in (simple_average, grade):
            exact = _exact_moments(rule, g, u)[0]
            report = estimate_ex_post_bias(rule, g, u, 3000, 4)
            for k in range(g.roster.n_students):
                true_dev = exact[k] - opt[k]
                se = max(report.per_student_se[k], 1e-12)
                assert abs(report.per_student_deviation[k] - true_dev) <= 4 * se

    def test_aggregates_consistent(self, tiny_instance):
        g, u = tiny_instance
        report = estimate_ex_post_bias(simple_average, g, u, 50, 5)
        bias = report.per_student_deviation**2
        assert report.max_bias == pytest.approx(bias.max())
        assert report.avg_bias == pytest.approx(bias.mean())

    def test_deterministic(self, tiny_instance):
        g, u = tiny_instance
        a = estimate_ex_post_bias(grade, g, u, 40, 6)
        b = estimate_ex_post_bias(grade, g, u, 40, 6)
        assert np.array_equal(a.per_student_deviation, b.per_student_deviation)

    def test_failed_replications_counted(self, tiny_instance):
        g, u = tiny_instance
        calls = {"k": 0}

        def flaky(res):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                raise np.linalg.LinAlgError("singular")
            return simple_average(res)

        report = estimate_ex_post_bias(flaky, g, u, 30, 7)
        assert report.failed_replications == 10
        assert report.replications == 20
        dec = decompose_error(flaky, [g, g], u, 30, 7)
        assert dec.failed_replications == 20

        def singular(res):
            raise np.linalg.LinAlgError("singular")

        with pytest.raises(RuntimeError, match="every replication failed"):
            decompose_error(singular, [g], u, 5, 7)

    def test_programming_errors_propagate(self, tiny_instance):
        g, u = tiny_instance

        def broken(res):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            estimate_ex_post_bias(broken, g, u, 5, 7)
        with pytest.raises(RuntimeError, match="boom"):
            decompose_error(broken, [g], u, 5, 7)


class TestExAnteFairness:
    def test_one_student_two_questions(self):
        r = Roster.index_based(1, 2)
        u = MeritVector.for_roster(r, [0.3], [-1.0, 1.0])
        assert verify_ex_ante_fairness(r, 2, 1, u)

    def test_two_students_three_questions(self, small_population):
        roster, u = small_population
        assert verify_ex_ante_fairness(roster, 3, 2, u)

    def test_one_student_both_degrees(self):
        r = Roster.index_based(1, 3)
        u = MeritVector.for_roster(r, [0.0], [-1.0, 0.0, 1.0])
        assert verify_ex_ante_fairness(r, 3, 1, u)
        assert verify_ex_ante_fairness(r, 3, 2, u)

    def test_too_large_rejected(self):
        r = Roster.index_based(6, 8)
        u = MeritVector.for_roster(r, [0.0] * 6, [0.0] * 8)
        with pytest.raises(InstanceTooLargeError):
            verify_ex_ante_fairness(r, 8, 4, u)

    @pytest.mark.parametrize("m, d", [(4, 2), (2, 3), (3, 0)])
    def test_impossible_sizes_rejected(self, small_population, m, d):
        roster, u = small_population  # 3 questions: 0 assignments would give 0/0
        with pytest.raises(ParameterOutOfRangeError):
            verify_ex_ante_fairness(roster, m, d, u)


class TestDecomposeError:
    def test_exact_identity(self, tiny_instance):
        g, u = tiny_instance
        for rule in (simple_average, grade):
            dec = decompose_error(rule, [g], u, 0, 0, estimator=EXACT_ENUMERATION)
            assert abs(dec.error - dec.bias - dec.variance) <= 1e-12

    def test_needs_two_replications(self, tiny_instance):
        g, u = tiny_instance
        with pytest.raises(ParameterOutOfRangeError):
            decompose_error(simple_average, [g], u, 1, 9)
        with pytest.raises(ValueError, match="^unknown estimator 'exact'$"):
            decompose_error(simple_average, [g], u, 5, 9, estimator="exact")

    def test_monte_carlo_identity_is_algebraic(self, tiny_instance):
        g, u = tiny_instance
        dec = decompose_error(simple_average, [g], u, 500, 9)
        assert abs(dec.error - dec.bias - dec.variance) <= 1e-12

    def test_deterministic_rule_has_zero_variance(self, tiny_instance):
        g, u = tiny_instance

        def constant(res):
            return GradeVector(res.roster, np.full(res.roster.n_students, 0.5), "const")

        dec = decompose_error(constant, [g], u, 0, 0, estimator=EXACT_ENUMERATION)
        assert dec.variance == pytest.approx(0.0, abs=1e-15)

    def test_exact_matches_monte_carlo(self, tiny_instance):
        g, u = tiny_instance
        exact = decompose_error(simple_average, [g], u, 0, 0, estimator=EXACT_ENUMERATION)
        mc = decompose_error(simple_average, [g], u, 5000, 10)
        assert mc.error == pytest.approx(exact.error, abs=0.01)
        assert mc.variance == pytest.approx(exact.variance, abs=0.01)


class TestSweeps:
    def test_sweep_degree_points_sorted_and_coincide_at_extremes(self):
        rng = np.random.default_rng(1)
        r = Roster.index_based(3, 4)
        u = MeritVector.for_roster(r, rng.normal(0, 0.5, 3), rng.normal(0, 0.5, 4))
        result = sweep_degree(r, u, 4, [4, 1, 2], 3, 40, 11)
        assert [p.value for p in result.points] == [1, 2, 4]
        for d in (1, 4):
            point = next(p for p in result.points if p.value == d)
            # equivalence theorems: both rules produce identical grades here
            assert point.per_rule["ours"].max_bias == pytest.approx(
                point.per_rule["avg"].max_bias, abs=1e-12
            )

    def test_sweep_bank_m_equals_d_coincides(self):
        sampler = uniform_difficulty_sampler(-1.0, 1.0)
        result = sweep_question_sample_size([0.2, -0.2], sampler, [3, 5], 3, 2, 30, 12)
        point = next(p for p in result.points if p.value == 3)
        assert point.per_rule["ours"].max_bias == pytest.approx(
            point.per_rule["avg"].max_bias, abs=1e-12
        )

    def test_sweep_bank_validates_degree(self):
        sampler = uniform_difficulty_sampler()
        with pytest.raises(ParameterOutOfRangeError):
            sweep_question_sample_size([0.0], sampler, [2, 5], 3, 1, 10, 0)


class TestEmptyWork:
    """An estimate over no graphs, draws, repetitions or sweep values raises,
    naming the count, instead of averaging nothing into NaN."""

    @pytest.mark.parametrize("call, count", [
        ("estimate_ex_post_bias", "replications"),
        ("decompose_error", "graphs"),
        ("sweep_degree", "graphs_per_d"),
        ("sweep_degree", "d_values"),
        ("sweep_question_sample_size", "graphs_per_m"),
        ("sweep_question_sample_size", "m_values"),
        ("cross_validate", "repetitions"),
        ("simulated_cross_validate", "repetitions"),
        ("simulated_cross_validate", "d2_values"),
    ])
    def test_raises_naming_the_count(self, small_population, call, count):
        roster, u = small_population
        g = generate_assignment(roster, 3, 2, 0)
        sampler = uniform_difficulty_sampler()
        answers = np.random.default_rng(5).integers(0, 2, (4, 3))
        calls = {
            ("estimate_ex_post_bias", "replications"):
                lambda: estimate_ex_post_bias(grade, g, u, 0, 1),
            ("decompose_error", "graphs"): lambda: decompose_error(grade, [], u, 5, 1),
            ("sweep_degree", "graphs_per_d"): lambda: sweep_degree(roster, u, 3, [2], 0, 5, 1),
            ("sweep_degree", "d_values"): lambda: sweep_degree(roster, u, 3, [], 2, 5, 1),
            ("sweep_question_sample_size", "graphs_per_m"): lambda: sweep_question_sample_size(
                [0.0, 0.5], sampler, [3], 2, 0, 5, 1),
            ("sweep_question_sample_size", "m_values"): lambda: sweep_question_sample_size(
                [0.0, 0.5], sampler, [], 2, 2, 5, 1),
            ("cross_validate", "repetitions"):
                lambda: cross_validate(answers, 3, 2, repetitions=0, seed=1),
            ("simulated_cross_validate", "repetitions"):
                lambda: simulated_cross_validate(PriorSpec(), 6, [2], 0, 1),
            ("simulated_cross_validate", "d2_values"):
                lambda: simulated_cross_validate(PriorSpec(), 6, [], 5, 1),
        }
        with pytest.raises(ParameterOutOfRangeError, match=f"^{count} must be >= 1, got 0$"):
            calls[call, count]()


class TestCrossValidation:
    def test_full_degree_gives_zero_mse(self):
        rng = np.random.default_rng(2)
        answers = rng.integers(0, 2, (6, 5))
        res = cross_validate(answers, 4, 5, 20, seed=13)
        assert res.mse_per_rule["ours"] == pytest.approx(0.0, abs=1e-12)
        assert res.mse_per_rule["avg"] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_incomplete_or_bad_shape(self):
        with pytest.raises(ValueError):
            cross_validate(np.array([0, 1, 1]), 1, 1, 1, seed=1)
        with pytest.raises(ValueError):
            cross_validate(np.array([[0, 2], [1, 0]]), 1, 1, 1, seed=1)
        with pytest.raises(ParameterOutOfRangeError):
            cross_validate(np.zeros((2, 2), dtype=int), 3, 1, 1, seed=1)
        with pytest.raises(ParameterOutOfRangeError):
            cross_validate(np.zeros((2, 2), dtype=int), 1, 3, 1, seed=1)

    def test_seed_is_required(self):
        """Every randomized routine takes an explicit seed, passed by name here."""
        answers = np.zeros((3, 3), dtype=int)
        with pytest.raises(TypeError, match="seed"):
            cross_validate(answers, 2, 2, 1)
        with pytest.raises(TypeError):
            cross_validate(answers, 2, 2, 1, None, 1)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        answers = rng.integers(0, 2, (8, 6))
        a = cross_validate(answers, 5, 3, 15, seed=14)
        b = cross_validate(answers, 5, 3, 15, seed=14)
        assert a.mse_per_rule == b.mse_per_rule

    def test_pinned_mse(self):
        """Exact MSEs of both harnesses on two seeds: a change in the draws,
        their order or the averaging moves a last bit and fails here."""
        answers = np.random.default_rng(3).integers(0, 2, (8, 6))
        assert cross_validate(answers, 5, 3, 6, seed=1).mse_per_rule == {
            "ours": 0.07239963188084769, "avg": 0.05648148148148149}
        assert cross_validate(answers, 5, 3, 6, seed=2).mse_per_rule == {
            "ours": 0.06683542737899173, "avg": 0.04814814814814814}
        pinned = {
            1: [{"ours": 0.051388888888888894, "avg": 0.05277777777777778},
                {"ours": 0.02276388888888889, "avg": 0.02361111111111111}],
            2: [{"ours": 0.04027777777777778, "avg": 0.03333333333333334},
                {"ours": 0.08318055555555555, "avg": 0.08055555555555555}],
        }
        for seed, mse in pinned.items():
            results = simulated_cross_validate(PriorSpec(), 5, [2, 3], 4, seed, n_questions=6)
            assert [r.mse_per_rule for r in results] == mse

    @staticmethod
    def fails_on_call(k):
        """`simple_average`, except that its k-th call raises NonConvergenceError."""
        calls = []

        def flaky(res):
            calls.append(None)
            if len(calls) == k:
                raise NonConvergenceError("stalled", None)
            return simple_average(res)

        return flaky

    def test_failed_hold_out_is_counted(self, monkeypatch):
        answers = np.random.default_rng(3).integers(0, 2, (8, 6))
        all_six = cross_validate(answers, 5, 3, 6, seed=1).mse_per_rule["avg"]
        monkeypatch.setattr(sim, "RULES", {"avg": simple_average, "flaky": self.fails_on_call(3)})
        res = cross_validate(answers, 5, 3, 6, seed=1)
        assert (res.repetitions, res.failed_repetitions) == (5, 1)
        # avg's hold-out succeeded in the failed repetition, but is left out
        # with it: every rule's MSE is over the same five repetitions
        assert res.mse_per_rule["avg"] == res.mse_per_rule["flaky"]
        assert res.mse_per_rule["avg"] != all_six

    def test_failed_simulated_hold_out_is_counted(self, monkeypatch):
        # "ours" fails on the second d2 of the second repetition, after
        # "avg" has scored that repetition's first d2
        monkeypatch.setitem(sim.RULES, "ours", self.fails_on_call(4))
        results = simulated_cross_validate(PriorSpec(), 5, [2, 3], 4, 1, n_questions=6)
        for res in results:
            assert (res.repetitions, res.failed_repetitions) == (3, 1)
            assert res.mse_per_rule["ours"] == res.mse_per_rule["avg"]

    def test_threshold_table_shape(self):
        rng = np.random.default_rng(4)
        answers = rng.integers(0, 2, (8, 6))
        results = [cross_validate(answers, d1, d2, 10, seed=15)
                   for d1 in (4, 6) for d2 in (6, 2, 4)]
        table = cv_threshold_table(results)
        assert list(table) == [4, 6]
        for d1, v in table.items():
            wins = sorted(r.d2 for r in results
                          if r.d1 == d1 and r.mse_per_rule["ours"] < r.mse_per_rule["avg"])
            assert v == (wins[0] if wins else None)
        points = [CvResult(d1, d2, {"ours": ours, "avg": 0.2}, 1) for d1, d2, ours in
                  ((4, 6, 0.1), (4, 2, 0.3), (4, 4, 0.1), (6, 2, 0.2), (6, 4, 0.25))]
        assert cv_threshold_table(points) == {4: 4, 6: None}

    def test_simulated_cv_full_degree_zero(self):
        results = simulated_cross_validate(PriorSpec(), 4, [2, 5], 10, 16, n_questions=5)
        by_d2 = {r.d2: r for r in results}
        assert by_d2[5].mse_per_rule["ours"] == pytest.approx(0.0, abs=1e-12)
        assert by_d2[5].mse_per_rule["avg"] == pytest.approx(0.0, abs=1e-12)
        assert by_d2[2].mse_per_rule["avg"] > 0

    @pytest.mark.parametrize("d2", [0, 6])
    def test_simulated_cv_rejects_d2_outside_the_bank(self, d2):
        with pytest.raises(ParameterOutOfRangeError):
            simulated_cross_validate(PriorSpec(), 4, [2, d2], 2, 16, n_questions=5)

    def test_simulated_cv_rejects_a_prior_that_overflows(self):
        with pytest.raises(ParameterOutOfRangeError):
            simulated_cross_validate(PriorSpec(student_std=1e308), 3, [2], 2, 1, n_questions=3)
