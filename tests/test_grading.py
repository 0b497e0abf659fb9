import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fairgrade import (
    ExamResultGraph,
    GradeVector,
    MeritVector,
    NonConvergenceError,
    PairCase,
    PriorSpec,
    Roster,
    TaskAssignmentGraph,
    ZeroDegreeStudentError,
    generate_assignment,
    grade,
    is_strongly_connected,
    make_map_rule,
    mle_fit,
    per_student_error_bound,
    predict_matrix,
    sample_exam_result,
    simple_average,
    strongly_connected_components,
)
from fairgrade import grading

from conftest import brute_force_reachability, random_result_graph


class TestSimpleAverage:
    def test_row_means(self, running_example):
        g = running_example
        avg = simple_average(g)
        assert avg.values == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert avg.rule_name == "avg"

    def test_zero_degree_student_rejected(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        with pytest.raises(ZeroDegreeStudentError):
            simple_average(res)
        with pytest.raises(ZeroDegreeStudentError):
            grade(res)


class TestGradeVector:
    def test_rejects_out_of_range_and_nan(self):
        r = Roster.index_based(2, 1)
        for values in ([1.5, 0.5], [np.nan, 0.5]):
            with pytest.raises(ValueError):
                GradeVector(r, values, "avg")

    def test_keeps_a_private_copy(self):
        values = np.array([0.25, 0.75])
        grades = GradeVector(Roster.index_based(2, 1), values, "x")
        assert values.flags.writeable  # the caller's array is left as it was
        values[0] = 1.0
        assert grades.values.tolist() == [0.25, 0.75]
        assert not grades.values.flags.writeable


class TestPredictMatrix:
    def test_running_example_full_matrix(self, running_example):
        pm = predict_matrix(running_example)
        h, tags = pm.entries, pm.case_tags
        # observed outcomes kept verbatim
        for (i, j), bit in running_example.outcomes.items():
            assert h[i, j] == bit
            assert tags[i, j] is PairCase.EXISTING_EDGE
        # the top block's fitted merits are all zero, so nothing is case 2;
        # both block students dominate q2 via the chains below them
        assert h[0, 2] == 1.0 and tags[0, 2] is PairCase.STUDENT_ABOVE
        assert h[1, 2] == 1.0 and tags[1, 2] is PairCase.STUDENT_ABOVE
        # lower students are dominated by the unseen block question
        for i in (2, 3):
            assert h[i, 1] == 0.0 and tags[i, 1] is PairCase.QUESTION_ABOVE
        for i in (4, 5):
            assert h[i, 0] == 0.0 and tags[i, 0] is PairCase.QUESTION_ABOVE
        assert pm.grades == pytest.approx([2 / 3, 2 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3])

    def test_same_component_uses_fitted_merits(self):
        # one 6-vertex strongly connected block with holes at (0,2) and (2,0)
        r = Roster.index_based(3, 3)
        kept = {(0, 0): 1, (1, 0): 0, (1, 1): 1, (0, 1): 0,
                (2, 1): 0, (2, 2): 1, (1, 2): 0}
        g = TaskAssignmentGraph(r, tuple(kept))
        res = ExamResultGraph.from_outcomes(g, kept)
        assert is_strongly_connected(res)
        pm = predict_matrix(res, tol=1e-10)
        fit = mle_fit(res, range(r.n_vertices), tol=1e-10)
        from fairgrade import logistic

        for i, j in ((0, 2), (2, 0)):
            expected = logistic(fit.merits[i] - fit.merits[r.n_students + j])
            assert pm.case_tags[i, j] is PairCase.SAME_COMPONENT
            assert pm.entries[i, j] == pytest.approx(expected, abs=1e-9)

    def test_incomparable_uses_frozen_row_mean(self):
        # two disjoint blocks: (s0, q0) and (s1, q1); q2 unassigned
        r = Roster.index_based(2, 3)
        g = TaskAssignmentGraph(r, ((0, 0), (0, 1), (1, 0), (1, 1)))
        # orient so that s0 and s1 land in different, incomparable SCCs:
        # s0 answers both correctly, s1 both incorrectly -> s0 above, s1 below,
        # but q2 is isolated, hence incomparable to everyone.
        res = ExamResultGraph(g, np.array([1, 1, 0, 0]))
        pm = predict_matrix(res)
        assert pm.case_tags[0, 2] is PairCase.INCOMPARABLE
        assert pm.case_tags[1, 2] is PairCase.INCOMPARABLE
        # row mean over the four previously filled cells (the two observed)
        assert pm.entries[0, 2] == pytest.approx(1.0)
        assert pm.entries[1, 2] == pytest.approx(0.0)

    def test_case4_mean_excludes_case4_cells(self):
        # one observed 1 and one incomparable question: mean must be exactly 1
        r = Roster.index_based(1, 2)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        pm = predict_matrix(res)
        assert pm.case_tags[0, 1] is PairCase.INCOMPARABLE
        assert pm.entries[0, 1] == 1.0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_each_case_fills_its_cells(self, seed):
        rng = np.random.default_rng(seed)
        g = random_result_graph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        pm = predict_matrix(g)
        h, tags = pm.entries, pm.case_tags
        reach = brute_force_reachability(g)
        n, edges = g.roster.n_students, g.outcomes
        for i, j in np.ndindex(h.shape):
            down, up = reach[i, n + j], reach[n + j, i]
            expected = (PairCase.EXISTING_EDGE if (i, j) in edges
                        else PairCase.SAME_COMPONENT if down and up
                        else PairCase.STUDENT_ABOVE if down
                        else PairCase.QUESTION_ABOVE if up else PairCase.INCOMPARABLE)
            assert tags[i, j] is expected
        for (i, j), bit in g.outcomes.items():
            assert h[i, j] == bit
        assert (h[tags == PairCase.STUDENT_ABOVE] == 1.0).all()
        assert (h[tags == PairCase.QUESTION_ABOVE] == 0.0).all()
        incomparable = tags == PairCase.INCOMPARABLE
        for i, j in zip(*np.nonzero(incomparable)):
            assert h[i, j] == pytest.approx(h[i, ~incomparable[i]].mean(), abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_fits_exactly_the_components_with_same_component_cells(self, seed):
        rng = np.random.default_rng(seed)
        g = random_result_graph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        fitted = []

        def recorded(g, component, *args, **kwargs):
            fitted.append(frozenset(component))
            return mle_fit(g, component, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grading, "mle_fit", recorded)
            pm = predict_matrix(g)
        c = strongly_connected_components(g)
        rows = np.nonzero(pm.case_tags == PairCase.SAME_COMPONENT)[0]
        assert fitted == [c.components[k] for k in np.unique(c.component_of[rows])]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_entries_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        g = random_result_graph(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        pm = predict_matrix(g)
        assert np.all(pm.entries >= -1e-12) and np.all(pm.entries <= 1 + 1e-12)
        assert not np.isnan(pm.entries).any()


class TestEquivalenceWithAveraging:
    def equivalent(self, res):
        ours = grade(res, tol=1e-12, max_iter=100000).values
        avg = simple_average(res).values
        assert np.abs(ours - avg).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_complete_bipartite(self, seed):
        rng = np.random.default_rng(seed)
        n, q = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        r = Roster.index_based(n, q)
        g = TaskAssignmentGraph(r, tuple((i, j) for i in range(n) for j in range(q)))
        self.equivalent(ExamResultGraph(g, rng.integers(0, 2, n * q).astype(np.uint8)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_degree_one(self, seed):
        rng = np.random.default_rng(seed)
        n, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        r = Roster.index_based(n, q)
        edges = tuple((i, int(rng.integers(q))) for i in range(n))
        g = TaskAssignmentGraph(r, tuple(set(edges)))
        # dedupe may drop students; rebuild with unique (i, j) per student
        g = TaskAssignmentGraph(r, tuple((i, int(rng.integers(q))) for i in range(n)))
        self.equivalent(ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_disjoint_neighborhoods(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        q = n * d + int(rng.integers(0, 3))
        r = Roster.index_based(n, q)
        blocks = rng.permutation(q)[: n * d].reshape(n, d)
        edges = tuple((i, int(j)) for i in range(n) for j in blocks[i])
        g = TaskAssignmentGraph(r, edges)
        self.equivalent(ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8)))


class TestGrade:
    def test_rule_name_and_range(self, running_example):
        out = grade(running_example)
        assert out.rule_name == "ours"
        assert np.all(out.values >= 0) and np.all(out.values <= 1)

    def test_grade_is_prediction_row_mean(self, running_example):
        pm = predict_matrix(running_example)
        assert grade(running_example).values == pytest.approx(pm.grades)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_relabelling_equivariance(self, seed):
        # renaming students and questions permutes the grades the same way
        rng = np.random.default_rng(seed)
        n, q = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g = random_result_graph(rng, n, q)
        students, questions = rng.permutation(n), rng.permutation(q)
        outcomes = {(int(students[i]), int(questions[j])): b for (i, j), b in g.outcomes.items()}
        res = ExamResultGraph.from_outcomes(TaskAssignmentGraph(g.roster, tuple(outcomes)),
                                            outcomes)
        pm, relabelled = predict_matrix(g, tol=1e-12), predict_matrix(res, tol=1e-12)
        assert (relabelled.case_tags[np.ix_(students, questions)] == pm.case_tags).all()
        assert relabelled.grades[students] == pytest.approx(pm.grades, abs=1e-9)


class TestAnswerFlip:
    """Flipping every answer reverses every arc of the result graph and
    mirrors the model: merits negate and every chance p becomes 1 - p."""

    SWAP = {PairCase.STUDENT_ABOVE: PairCase.QUESTION_ABOVE,
            PairCase.QUESTION_ABOVE: PairCase.STUDENT_ABOVE}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(35, 22, 10), (60, 15, 5)]), st.integers(0, 2**32 - 1))
    def test_grades_mirror_cases_swap_and_merits_negate(self, shape, seed):
        n, q, d = shape
        rng = np.random.default_rng(seed)
        roster = Roster.index_based(n, q)
        u = MeritVector.for_roster(roster, rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, q))
        g = sample_exam_result(generate_assignment(roster, q, d, rng), u, rng)
        flipped = ExamResultGraph(g.assignment, 1 - g.w)
        # both prior means 0: the prior is symmetric under negating the merits
        map_rule = make_map_rule(PriorSpec(student_std=0.76, question_std=1.5))
        largest = max(strongly_connected_components(g).components, key=len)
        try:
            pm, pm_flipped = predict_matrix(g), predict_matrix(flipped)
            fits = [mle_fit(h, largest) for h in (g, flipped)] if len(largest) > 1 else []
            for rule in (grade, simple_average, map_rule):
                assert np.abs(rule(flipped).values - (1 - rule(g).values)).max() <= 1e-12
        except NonConvergenceError:
            reject()
        assert np.abs(pm_flipped.entries - (1 - pm.entries)).max() <= 1e-12
        assert [self.SWAP.get(c, c) for c in pm.case_tags.flat] == list(pm_flipped.case_tags.flat)
        if fits:
            vertices = sorted(largest)
            fitted, refitted = (fit.merits.at(vertices) for fit in fits)
            assert np.abs(refitted + fitted).max() <= 1e-12


class TestMapRule:
    def test_observed_cells_kept_verbatim(self):
        rng = np.random.default_rng(5)
        g = random_result_graph(rng, 3, 3)
        rule = make_map_rule(PriorSpec())
        out = rule(g)
        assert out.rule_name == "map"
        assert np.all(out.values >= 0) and np.all(out.values <= 1)

    def test_complete_graph_reduces_to_averaging(self):
        rng = np.random.default_rng(6)
        r = Roster.index_based(3, 3)
        g = TaskAssignmentGraph(r, tuple((i, j) for i in range(3) for j in range(3)))
        res = ExamResultGraph(g, rng.integers(0, 2, 9).astype(np.uint8))
        rule = make_map_rule(PriorSpec())
        assert rule(res).values == pytest.approx(simple_average(res).values)


class TestErrorBound:
    def test_bound_formula(self):
        fit_merits = MeritVector(np.array([0.5, -0.5, 0.0]), np.array([True, True, False]))
        truth = MeritVector(np.array([0.9, -0.9, 0.0]), np.array([True, True, False]))
        from fairgrade import FitReport

        bound = per_student_error_bound(FitReport(fit_merits, 0, 0.0, True), truth)
        assert bound == pytest.approx(0.25 * 0.4**2)

    def test_realized_deviation_within_bound(self):
        from fairgrade import benchmark

        rng = np.random.default_rng(0)
        r = Roster.index_based(6, 6)
        u = MeritVector.for_roster(r, rng.normal(0, 0.5, 6), rng.normal(0, 0.5, 6))
        g = generate_assignment(r, 6, 4, 1)
        opt = benchmark(u, r).values
        checked = 0
        for s in range(60):
            res = sample_exam_result(g, u, s)
            if not is_strongly_connected(res):
                continue
            fit = mle_fit(res, range(r.n_vertices), tol=1e-10)
            bound = per_student_error_bound(fit, u)
            dev2 = (grade(res, tol=1e-10).values - opt) ** 2
            assert dev2.max() <= bound + 1e-9
            checked += 1
        assert checked >= 5
