import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from fairgrade import (
    ExamResultGraph,
    MeritVector,
    MissingMeritError,
    NonConvergenceError,
    NotStronglyConnectedError,
    ParameterOutOfRangeError,
    PriorSpec,
    Roster,
    TaskAssignmentGraph,
    generate_assignment,
    grade,
    benchmark,
    edge_probabilities,
    is_strongly_connected,
    likelihood_equation_residual,
    logistic,
    map_fit,
    mle_fit,
    sample_exam_result,
    strongly_connected_components,
)
from fairgrade import model
from fairgrade.model import _log_likelihood, _newton_step, _schur_layout, mm_step
from fairgrade.rng import substream

from conftest import answer_probability, random_result_graph


def oracle_mle(g: ExamResultGraph, vertices):
    """Brute-force maximizer of the log-likelihood over `vertices`, mean-zero.

    Parameterized by the first k-1 coordinates with the last fixed to minus
    their sum, so the gauge is eliminated before optimization.
    """
    vertices = sorted(vertices)
    pos = {v: k for k, v in enumerate(vertices)}
    n = g.roster.n_students
    pairs = []
    for (i, j), bit in zip(g.assignment.edges, g.w):
        a, b = pos.get(i), pos.get(j + n)
        if a is None or b is None:
            continue
        pairs.append((a, b) if bit else (b, a))

    def neg_ll(free):
        u = np.append(free, -free.sum())
        return float(sum(np.logaddexp(0.0, -(u[a] - u[b])) for a, b in pairs))

    best = None
    for trial in range(3):
        x0 = np.zeros(len(vertices) - 1) if trial == 0 else \
            np.random.default_rng(trial).normal(0, 1, len(vertices) - 1)
        res = minimize(neg_ll, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        if best is None or res.fun < best.fun:
            best = res
    u = np.append(best.x, -best.x.sum())
    return dict(zip(vertices, u - u.mean()))


def connected_instance(seed, n=3, q=3, d=None):
    rng = np.random.default_rng(seed)
    roster = Roster.index_based(n, q)
    u = MeritVector.for_roster(roster, rng.normal(0, 0.7, n), rng.normal(0, 0.7, q))
    edges = tuple((i, j) for i in range(n) for j in range(q))
    g = TaskAssignmentGraph(roster, edges)
    for s in range(1000):
        res = sample_exam_result(g, u, (seed + 1) * 1000 + s)
        if is_strongly_connected(res):
            return res, u
    raise AssertionError("no connected sample found")


def log_logistic(x):
    """log(logistic(x)) in its `np.logaddexp` form: the reference for the
    objective term of `_log_likelihood`."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=float))


def log_likelihood(u: MeritVector, g: ExamResultGraph) -> float:
    """The fits' objective term `_log_likelihood` over g's observed edges, with
    merits read through `u.at`: an uncovered end raises MissingMeritError."""
    tail, head = g.directed_edges
    ends = np.concatenate((tail, head))
    merits = np.zeros(len(u.values))
    merits[ends] = u.at(ends)
    return float(_log_likelihood(merits, tail, head)[0])


def reference_logistic(x):
    """The two-branch formula over boolean masks: the reference for `logistic`."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out.reshape(np.shape(x))


def in_place_logistic(x):
    """Both quotients written into the buffers of e = exp(-|x|) and 1 + e, then
    a masked copy: a reference for `logistic` that, unlike the masked formula,
    also gives its NaN bit pattern (the sign that -|x| sets)."""
    arr = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(np.atleast_1d(arr)))
    denom = e + 1.0
    np.divide(e, denom, out=e)
    np.divide(1.0, denom, out=denom)
    np.copyto(e, denom, where=arr >= 0)
    return float(e[0]) if arr.ndim == 0 else e


LOGISTIC_INPUTS = st.one_of(st.floats(-800, 800), st.floats(allow_nan=False),
                            st.sampled_from([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0]))


class TestLogistic:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                      elements=LOGISTIC_INPUTS))
    def test_arrays_match_the_masked_formula_bit_for_bit(self, x):
        out, reference = logistic(x), reference_logistic(x)
        assert type(out) is type(reference)  # a 0-d array gives a float
        assert np.shape(out) == np.shape(reference)
        assert np.asarray(out).tobytes() == np.asarray(reference).tobytes()

    @given(LOGISTIC_INPUTS)
    def test_python_scalars_match_bit_for_bit(self, x):
        out = logistic(x)
        assert type(out) is float
        assert np.float64(out).tobytes() == np.float64(reference_logistic(x)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                      elements=st.one_of(LOGISTIC_INPUTS, st.floats(allow_nan=True),
                                         st.sampled_from([np.nan, 5e-324, -5e-324,
                                                          2.2e-308, -2.2e-308]))))
    def test_matches_the_in_place_form_bit_for_bit(self, x):
        out, reference = logistic(x), in_place_logistic(x)
        assert type(out) is type(reference)
        assert np.asarray(out).tobytes() == np.asarray(reference).tobytes()

    @given(st.floats(-700, 700))
    def test_complement_identity(self, x):
        assert abs(logistic(x) + logistic(-x) - 1.0) <= 1e-12

    def test_extremes_and_midpoint(self):
        assert logistic(0.0) == 0.5
        assert logistic(1000.0) == 1.0
        assert logistic(-1000.0) == pytest.approx(0.0, abs=1e-300)

    def test_array_shape(self):
        x = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = logistic(x)
        assert out.shape == x.shape
        assert out[0, 0] == 0.5

    @given(st.floats(-20, 20))
    def test_monotone(self, x):
        assert logistic(x + 1e-3) > logistic(x)


class TestMeritVector:
    def test_mean_zero_invariant_enforced(self):
        with pytest.raises(ValueError):
            MeritVector(np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            MeritVector(np.zeros(3), np.ones(2, dtype=bool))

    def test_missing_vertex(self):
        u = MeritVector(np.zeros(4), np.array([True, False, False, False]))
        for vertex in (1, 3, 4, -1):
            with pytest.raises(MissingMeritError):
                u[vertex]

    def test_rejects_fractional_vertices(self):
        u = MeritVector(np.array([1.0, 2.0, 3.0]))
        for lookup, value in ((lambda: u.at(0.5), "0.5"), (lambda: u[1.9], "1.9"),
                              (lambda: u.at([0, 2.5]), "2.5")):
            with pytest.raises(ValueError, match=f"^index {value} is not an integer$"):
                lookup()
        assert u[1.0] == 2.0 and u.at(np.array([2.0, 0.0])).tolist() == [3.0, 1.0]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.booleans()), min_size=1, max_size=12))
    def test_random_masks(self, entries):
        values = np.array([v for v, _ in entries])
        covered = np.array([c for _, c in entries])
        u = MeritVector(values, covered)
        roster = Roster.index_based(1, len(entries) - 1) if len(entries) > 1 else None
        for v, (value, known) in enumerate(entries):
            if known:
                assert type(u[v]) is float and u[v] == value
            else:
                with pytest.raises(MissingMeritError):
                    u[v]
        if roster is not None:
            if covered.all():
                assert u.array_for(roster).tolist() == values.tolist()
            else:
                with pytest.raises(MissingMeritError):
                    u.array_for(roster)

    def test_for_roster_layout(self):
        r = Roster.index_based(2, 2)
        u = MeritVector.for_roster(r, [1.0, 2.0], [3.0, 4.0])
        assert u.array_for(r).tolist() == [1.0, 2.0, 3.0, 4.0]
        assert answer_probability(u, r, 1, 0) == pytest.approx(logistic(-1.0))
        with pytest.raises(ValueError, match="^one ability per student required$"):
            MeritVector.for_roster(r, [1.0], [3.0, 4.0])
        with pytest.raises(ValueError, match="^one difficulty per question required$"):
            MeritVector.for_roster(r, [1.0, 2.0], [3.0, 4.0, 5.0])


class TestSamplingAndBenchmark:
    def test_edge_probabilities_order(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((0, 0), (1, 1)))
        u = MeritVector.for_roster(r, [1.0, -1.0], [0.0, 0.0])
        assert edge_probabilities(g, u) == pytest.approx(
            [logistic(1.0), logistic(-1.0)]
        )

    def test_sample_deterministic(self):
        r = Roster.index_based(3, 3)
        g = TaskAssignmentGraph(r, tuple((i, j) for i in range(3) for j in range(3)))
        u = MeritVector.for_roster(r, [0, 0, 0], [0, 0, 0])
        assert sample_exam_result(g, u, 5) == sample_exam_result(g, u, 5)

    def test_sample_frequency(self):
        r = Roster.index_based(1, 1)
        g = TaskAssignmentGraph(r, ((0, 0),))
        u = MeritVector.for_roster(r, [2.0], [0.0])
        hits = sum(int(sample_exam_result(g, u, s).w[0]) for s in range(2000))
        assert hits / 2000 == pytest.approx(logistic(2.0), abs=0.03)

    def test_benchmark_values(self):
        r = Roster.index_based(1, 2)
        u = MeritVector.for_roster(r, [0.0], [-1.0, 1.0])
        expected = (logistic(1.0) + logistic(-1.0)) / 2
        assert benchmark(u, r).values[0] == pytest.approx(expected, abs=1e-15)


class TestLogLikelihood:
    def test_matches_direct_sum(self):
        res, u = connected_instance(0)
        direct = 0.0
        for (i, j), bit in zip(res.assignment.edges, res.w):
            p = answer_probability(u, res.roster, i, j)
            direct += math.log(p if bit else 1 - p)
        assert log_likelihood(u, res) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_per_edge_loop(self, n, q, seed):
        rng = np.random.default_rng(seed)
        res = random_result_graph(rng, n, q)
        u = MeritVector(rng.normal(0, 3, res.roster.n_vertices))
        loop = 0.0
        for (i, j), bit in zip(res.assignment.edges.tolist(), res.w.tolist()):
            diff = u[i] - u[j + n]
            loop += float(log_logistic(diff if bit else -diff))
        assert log_likelihood(u, res) == pytest.approx(loop, rel=1e-12, abs=1e-12)
        missing = n + int(res.assignment.edges[0, 1])  # an assigned question
        with pytest.raises(MissingMeritError):
            log_likelihood(MeritVector(u.values, np.arange(n + q) != missing), res)

    def test_shift_invariant(self):
        res, u = connected_instance(1)
        shifted = MeritVector(u.values + 3.7)
        assert log_likelihood(shifted, res) == pytest.approx(
            log_likelihood(u, res), abs=1e-9
        )


def loop_residual(u: MeritVector, g: ExamResultGraph) -> float:
    """One pass over the edges, accumulating each covered vertex's defect in a
    dict: the reference for `likelihood_equation_residual`."""
    n = g.roster.n_students
    covered = set(np.flatnonzero(u.covered).tolist())
    defect = {v: 0.0 for v in covered}
    s_idx, q_idx = g.assignment.edge_arrays
    for i, j, bit in zip(s_idx, q_idx, g.w):
        a, b = int(i), int(j) + n
        if a not in covered or b not in covered:
            continue
        p = logistic(u[a] - u[b])
        defect[a] += bit - p
        defect[b] += (1 - bit) - (1 - p)
    return max((abs(v) for v in defect.values()), default=0.0)


class TestLikelihoodEquationResidual:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_the_per_edge_loop(self, n, q, seed):
        rng = np.random.default_rng(seed)
        res = random_result_graph(rng, n, q)
        values = rng.normal(0, 2, n + q)
        for covered in (np.ones(n + q, bool), rng.random(n + q) < 0.6):
            u = MeritVector(values, covered)
            fast = likelihood_equation_residual(u, res)
            assert type(fast) is float
            assert abs(fast - loop_residual(u, res)) <= 1e-15
        empty = MeritVector(values, np.zeros(n + q, bool))
        assert likelihood_equation_residual(empty, res) == 0.0 == loop_residual(empty, res)


class TestMleFit:
    def test_matches_oracle(self):
        res, _ = connected_instance(2)
        fit = mle_fit(res, range(res.roster.n_vertices), tol=1e-10)
        oracle = oracle_mle(res, range(res.roster.n_vertices))
        for v, val in oracle.items():
            assert fit.merits[v] == pytest.approx(val, abs=1e-3)

    def test_running_example_block_is_all_zero(self, running_example):
        # each vertex in the block has one win out of two comparisons, so the
        # all-equal merit vector solves the likelihood equation exactly
        r = running_example.roster
        block = [0, 1, r.n_students + 0, r.n_students + 1]
        fit = mle_fit(running_example, block)
        assert fit.converged
        for v in block:
            assert fit.merits[v] == pytest.approx(0.0, abs=1e-9)

    def test_residual_meets_tolerance(self):
        for seed in range(5):
            res, _ = connected_instance(seed, n=4, q=4)
            fit = mle_fit(res, range(res.roster.n_vertices), tol=1e-8)
            assert fit.converged
            assert fit.residual <= 1e-8
            assert likelihood_equation_residual(fit.merits, res) <= 1e-8 * 1.01

    def test_mean_zero_output(self):
        res, _ = connected_instance(3)
        fit = mle_fit(res, range(res.roster.n_vertices))
        assert fit.merits.covered.all()
        assert abs(fit.merits.values.sum()) <= 1e-9

    def test_sub_component_merits_sum_to_zero(self):
        # proper SCCs of random result graphs: the fit centres the merits over
        # the component alone and covers nothing else
        spans = []
        for seed in range(40):
            res = random_result_graph(np.random.default_rng(seed), 5, 5)
            for comp in strongly_connected_components(res).components:
                if len(comp) < 2 or len(comp) == res.roster.n_vertices:
                    continue
                fit = mle_fit(res, comp)
                assert np.flatnonzero(fit.merits.covered).tolist() == sorted(comp)
                merits = fit.merits.values[fit.merits.covered]
                assert abs(merits.sum()) <= 1e-12
                spans.append(np.ptp(merits))
        assert len(spans) >= 10 and max(spans) > 1

    def test_rejects_disconnected(self, running_example):
        r = Roster.index_based(1, 1)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        with pytest.raises(NotStronglyConnectedError):
            mle_fit(res, [0, 1])
        # connected, but s2..s5 and q2 sit below the s0, s1, q0, q1 block
        with pytest.raises(NotStronglyConnectedError):
            mle_fit(running_example, range(running_example.roster.n_vertices))

    def test_rejects_vertex_ids_that_are_not_integers(self):
        res, _ = connected_instance(2)
        with pytest.raises(ParameterOutOfRangeError, match="vertex 0.5 repeats or"):
            mle_fit(res, [v + 0.5 for v in range(res.roster.n_vertices)])

    @pytest.mark.parametrize("extra, message", [
        (0, r"vertex 0 repeats or is not in range\(6\)"),
        (6, "vertex 6 repeats or"),
        (-1, "vertex -1 repeats or"),
        (2.5, "vertex 2.5 repeats or"),
    ])
    def test_rejects_a_malformed_vertex_set(self, extra, message):
        res, _ = connected_instance(2)  # 3 students and 3 questions
        with pytest.raises(ParameterOutOfRangeError, match=message):
            mle_fit(res, [*range(6), extra])

    def test_accepts_any_collection_of_integer_vertices(self):
        res, _ = connected_instance(2)
        k = res.roster.n_vertices
        fits = [mle_fit(res, vertices).merits.values
                for vertices in (range(k), frozenset(range(k)), np.arange(k)[::-1],
                                 np.arange(k, dtype=np.int32))]
        for values in fits[1:]:
            assert np.array_equal(values, fits[0])

    def test_nonconvergence_carries_best_iterate(self):
        res, _ = connected_instance(4)
        with pytest.raises(NonConvergenceError) as exc:
            mle_fit(res, range(res.roster.n_vertices), tol=1e-12, max_iter=2)
        assert exc.value.report.converged is False
        assert exc.value.report.iterations == 2

    def test_mm_step_increases_likelihood(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            res, _ = connected_instance(seed)
            vertices = sorted(range(res.roster.n_vertices))
            n = res.roster.n_students
            ends = [(i, j + n) if bit else (j + n, i)
                    for (i, j), bit in zip(res.assignment.edges, res.w)]
            winner, loser = (np.array(side, dtype=np.intp) for side in zip(*ends))
            gamma = np.exp(rng.normal(0, 1, len(vertices)))
            before = _ll_from_gamma(res, gamma)
            after = _ll_from_gamma(res, mm_step(gamma, winner, loser))
            assert after >= before - 1e-12


def _ll_from_gamma(res, gamma):
    u = MeritVector(np.log(gamma))
    return log_likelihood(u, res)


class TestMapFit:
    def test_single_pair_matches_grid_oracle(self):
        # one student, one question, one correct answer, unit priors:
        # maximize log f(a-b) - a^2/2 - b^2/2 over a dense grid
        r = Roster.index_based(1, 1)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        fit = map_fit(res, PriorSpec(), tol=1e-10)
        grid = np.linspace(-2, 2, 2001)
        a, b = np.meshgrid(grid, grid, indexing="ij")
        obj = -np.logaddexp(0, -(a - b)) - a**2 / 2 - b**2 / 2
        ia, ib = np.unravel_index(np.argmax(obj), obj.shape)
        assert fit.merits[0] == pytest.approx(grid[ia], abs=3e-3)
        assert fit.merits[1] == pytest.approx(grid[ib], abs=3e-3)

    def test_gradient_residual(self):
        rng = np.random.default_rng(3)
        g = random_result_graph(rng, 5, 4)
        fit = map_fit(g, PriorSpec(0.0, 0.8, 0.1, 1.2), tol=1e-9)
        assert fit.converged and fit.residual <= 1e-9
        # near this exam's optimum a Newton step changes the objective by
        # less than its rounding error; the line search must still take it
        roster = Roster.index_based(35, 22)
        rng = substream(15, 7)
        u = MeritVector.for_roster(roster, rng.uniform(-1.486, 1.149, 35),
                                   rng.uniform(-3.090, 2.099, 22))
        res = sample_exam_result(generate_assignment(roster, 22, 3, rng), u, rng)
        fit = map_fit(res, PriorSpec(), tol=1e-12)
        assert fit.converged and fit.residual <= 1e-12

    def test_handles_disconnected_graphs(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((0, 0), (1, 1)))
        res = ExamResultGraph(g, np.array([1, 0]))
        fit = map_fit(res, PriorSpec())
        assert fit.converged
        assert fit.merits[0] > fit.merits[r.n_students + 0]

    @pytest.mark.parametrize("field", ["student_std", "question_std"])
    def test_prior_std_whose_precision_overflows_is_rejected(self, field):
        # 1e-160 ** -2 overflows a float, so map_fit could not use this prior
        with pytest.raises(ParameterOutOfRangeError, match=field):
            PriorSpec(**{field: 1e-160})
        with pytest.raises(ValueError, match=field):
            PriorSpec(**{field: 0.0})
        assert PriorSpec(**{field: 1e-150}) is not None

    @pytest.mark.parametrize("field", ["student_std", "question_std"])
    @pytest.mark.parametrize("std", [np.inf, np.nan])
    def test_non_finite_prior_std_is_rejected(self, field, std):
        # an infinite std is a zero precision, which leaves map_fit's Hessian singular
        with pytest.raises(ParameterOutOfRangeError, match=field):
            PriorSpec(**{field: std})

    @pytest.mark.parametrize("field", ["student_mean", "question_mean"])
    @pytest.mark.parametrize("mean", [np.inf, -np.inf, np.nan, pytest.param(10**400, id="10**400"),
                                      pytest.param(-10**400, id="-10**400")])
    def test_non_finite_prior_mean_is_rejected(self, field, mean):
        # map_fit would start from and pull toward this mean, and end in a singular Hessian;
        # an int too large for a float would raise OverflowError there
        with pytest.raises(ParameterOutOfRangeError, match=field):
            PriorSpec(**{field: mean})

    @pytest.mark.parametrize("field", ["student_mean", "student_std", "question_mean",
                                       "question_std"])
    def test_prior_int_too_long_to_print_is_rejected(self, field):
        # str() of an int of more than 4300 digits raises ValueError: the message
        # names the field and the type, not the value
        with pytest.raises(ParameterOutOfRangeError, match=f"^{field} .* type int$"):
            PriorSpec(**{field: 10**5000})

    @pytest.mark.parametrize("field", ["student_mean", "question_mean"])
    @pytest.mark.parametrize("mean", ["1", b"1", 1j])
    def test_prior_mean_that_is_no_real_number_raises_type_error(self, field, mean):
        # stored, such a mean would fail inside map_fit's arrays, far from the prior
        with pytest.raises(TypeError):
            PriorSpec(**{field: mean})

    @pytest.mark.parametrize("mean", [np.finfo(float).max, -int(np.finfo(float).max),
                                      np.float32(3), 2])
    def test_finite_prior_mean_is_accepted(self, mean):
        assert PriorSpec(student_mean=mean, question_mean=mean).student_mean == mean

    def test_prior_pull(self):
        # with a huge prior variance the fit tracks data; tiny variance pins means
        r = Roster.index_based(1, 1)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        tight = map_fit(res, PriorSpec(0.0, 1e-3, 0.0, 1e-3))
        assert abs(tight.merits[0]) < 1e-4
        loose = map_fit(res, PriorSpec(0.0, 10.0, 0.0, 10.0))
        assert loose.merits[0] - loose.merits[1] > 3.0


def _objective_evaluations(monkeypatch):
    """Log, in order, the point of every objective evaluation of the Newton
    loop (one `_log_likelihood` call each) and the merits each MM fallback
    moves to, as `mle_fit`'s fallback computes them from `mm_step`."""
    events = []
    likelihood, mm = model._log_likelihood, model.mm_step

    def evaluation(u, *args):
        events.append(("objective", u.copy()))
        return likelihood(u, *args)

    def fallback(gamma, *args):
        gamma = mm(gamma, *args)
        u = np.log(gamma)
        events.append(("fallback", u - u[0]))
        return gamma

    monkeypatch.setattr(model, "_log_likelihood", evaluation)
    monkeypatch.setattr(model, "mm_step", fallback)
    return events


def _split_evaluations(events, start):
    """(evaluations at an iterate no trial reached, line-search trials, fallbacks).

    The former are the evaluation at `start` and the one at the merits each
    fallback moved to, which must come next; every other evaluation is a trial.
    """
    points = [u for name, u in events if name == "objective"]
    for a, b in itertools.combinations(points, 2):
        assert not np.array_equal(a, b), "point evaluated twice"
    at_iterate, trials, fallbacks, iterate = 0, 0, 0, start
    for name, u in events:
        if name == "fallback":
            fallbacks, iterate = fallbacks + 1, u
        elif iterate is not None:
            assert np.array_equal(u, iterate), "start or fallback merits not evaluated next"
            at_iterate, iterate = at_iterate + 1, None
        else:
            trials += 1
    return at_iterate, trials, fallbacks


def published_exam(n, q, d, key):
    """An exam drawn as the benchmark draws its inputs: uniform merits in the
    published ranges, then the assignment, then the outcomes."""
    roster = Roster.index_based(n, q)
    rng = substream(11, key)
    u = MeritVector.for_roster(roster, rng.uniform(-1.486, 1.149, n),
                               rng.uniform(-3.090, 2.099, q))
    return sample_exam_result(generate_assignment(roster, q, d, rng), u, rng)


class TestSchurBuild:
    """Which build of the Schur complement a fit takes, and that the pair build
    gives the gemm build's fit. The gemm rounds by the BLAS thread count, so CI
    also runs these on one thread."""

    @staticmethod
    def fits(monkeypatch, g, pairs=None):
        """map_fit and the largest SCC's mle_fit, each with the builds it took."""
        taken, layout = [], model._schur_layout

        def recorded(*args):
            out = layout(*args, pairs=pairs)
            taken.append("pairs" if len(out[-1]) == 3 else "gemm")
            return out

        monkeypatch.setattr(model, "_schur_layout", recorded)
        map_report = map_fit(g, PriorSpec())
        largest = sorted(max(strongly_connected_components(g).components, key=len))
        mle_report = mle_fit(g, largest)
        monkeypatch.undo()
        return (map_report, mle_report), taken

    def test_sparse_fits_take_the_pair_build(self, monkeypatch):
        g = published_exam(1000, 200, 3, 0)
        reports, taken = self.fits(monkeypatch, g)
        assert taken == ["pairs", "pairs"]
        gemm, taken = self.fits(monkeypatch, g, pairs=False)
        assert taken == ["gemm", "gemm"]
        for report, reference in zip(reports, gemm):
            assert report.iterations == reference.iterations
            assert np.abs(report.merits.values - reference.merits.values).max() <= 1e-12

    # the MAP fits' gemm work is 44, 4.8, 225 and 278 times their pair counts; at
    # 1000x200 with d = 12 the pair arrays would outgrow twice the gemm build's array
    @pytest.mark.parametrize("n, q, d", [(1000, 200, 30), (35, 22, 10), (60, 30, 2),
                                         (1000, 200, 12)])
    def test_dense_fits_take_the_gemm_build(self, monkeypatch, n, q, d):
        assert self.fits(monkeypatch, published_exam(n, q, d, 1))[1] == ["gemm", "gemm"]


class TestObjectiveEvaluations:
    """A fit evaluates its objective once per line-search trial, plus once at
    the start and once after each fallback."""

    def test_mle_and_map_fits_evaluate_the_start_once(self, monkeypatch):
        events = _objective_evaluations(monkeypatch)
        res, _ = connected_instance(6, n=4, q=5)
        fit = mle_fit(res, range(res.roster.n_vertices), tol=1e-12)
        at_iterate, trials, fallbacks = _split_evaluations(events, np.zeros(9))
        assert fit.iterations >= 3 and fallbacks == 0
        assert at_iterate == 1 and trials >= fit.iterations
        events.clear()
        prior = PriorSpec(0.3, 1.0, -0.2, 1.0)
        fit = map_fit(random_result_graph(np.random.default_rng(3), 6, 5), prior, tol=1e-12)
        at_iterate, trials, _ = _split_evaluations(events, np.repeat([0.3, -0.2], [6, 5]))
        assert fit.iterations >= 3
        assert at_iterate == 1 and trials >= fit.iterations

    def test_each_fallback_adds_one_evaluation(self, monkeypatch):
        events = _objective_evaluations(monkeypatch)
        steps = []

        def newton_step(*args):
            steps.append(None)
            if len(steps) == 1:  # a singular Hessian
                raise np.linalg.LinAlgError("forced")
            step = _newton_step(*args)
            return -step if len(steps) == 2 else step  # downhill: every trial fails

        monkeypatch.setattr(model, "_newton_step", newton_step)
        res, _ = connected_instance(6, n=4, q=5)
        fit = mle_fit(res, range(res.roster.n_vertices), tol=1e-12)
        at_iterate, trials, fallbacks = _split_evaluations(events, np.zeros(9))
        assert fit.converged and fallbacks == 2
        assert at_iterate == 1 + fallbacks
        assert trials >= 28 + fit.iterations - 2  # the downhill step tried every length

    def test_map_fallbacks_raise_or_take_the_smallest_step(self, monkeypatch):
        events = _objective_evaluations(monkeypatch)
        res = random_result_graph(np.random.default_rng(3), 6, 5)
        prior = PriorSpec(0.3, 1.0, -0.2, 1.0)
        start = np.repeat([0.3, -0.2], [6, 5])

        def singular(*args):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(model, "_newton_step", singular)
        with pytest.raises(np.linalg.LinAlgError):
            map_fit(res, prior, tol=1e-12)
        events.clear()
        steps = []

        def newton_step(*args):
            steps.append(_newton_step(*args))
            if len(steps) == 1:  # downhill: every trial fails
                steps[0] = -steps[0]
            return steps[-1]

        monkeypatch.setattr(model, "_newton_step", newton_step)
        fit = map_fit(res, prior, tol=1e-12)
        points = [u for name, u in events if name == "objective"]
        for i in range(28):  # after the start, one trial per length down to 2**-27
            assert np.array_equal(points[1 + i], start + 2.0**-i * steps[0])
        # the smallest trial is kept with its objective: the next point is a new trial
        assert np.array_equal(points[29], start + 2**-27 * steps[0] + steps[1])
        assert fit.converged and len(steps) >= 2


EDGE_MARGINS = st.one_of(st.floats(-800, 800),
                         st.sampled_from([0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300]))


@st.composite
def margin_edges(draw):
    """(u, winner, loser): merits from EDGE_MARGINS plus a last vertex at 0,
    and every vertex paired with that one both ways, so each drawn value is
    itself a margin, plus random pairs."""
    values = draw(hnp.arrays(float, st.integers(1, 40), elements=EDGE_MARGINS))
    k = len(values) + 1
    extra = draw(hnp.arrays(np.intp, (2, draw(st.integers(0, 40))), elements=st.integers(0, k - 1)))
    own = np.arange(k - 1)
    zero = np.full(k - 1, k - 1)
    return (np.append(values, 0.0), np.concatenate((own, zero, extra[0])),
            np.concatenate((zero, own, extra[1])))


class TestLogLikelihoodTerms:
    """`_log_likelihood`, the Newton loop's one exp per edge, against the
    forms it replaces: `logistic` per gradient and `np.logaddexp` per trial."""

    @settings(max_examples=300, deadline=None)
    @given(margin_edges())
    def test_upset_is_logistic_of_the_reversed_margin_bit_for_bit(self, drawn):
        u, winner, loser = drawn
        _, upset = _log_likelihood(u, winner, loser)
        assert upset.tobytes() == logistic(u[loser] - u[winner]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(margin_edges())
    def test_objective_matches_the_logaddexp_form(self, drawn):
        u, winner, loser = drawn
        f, _ = _log_likelihood(u, winner, loser)
        reference = log_logistic(u[winner] - u[loser]).sum()
        assert abs(f - reference) <= 1e-15 * abs(reference)


class TestFitParameters:
    """Both fits reject a tolerance that is not positive and a negative
    iteration budget before they iterate."""

    @pytest.mark.parametrize("tol, max_iter", [(float("nan"), 100), (0.0, 100), (-1e-8, 100),
                                               (1e-8, -1)])
    def test_rejected_before_iterating(self, monkeypatch, tol, max_iter):
        res, _ = connected_instance(6, n=4, q=5)

        def no_iteration(*args):
            raise AssertionError("the fit iterated")

        monkeypatch.setattr(model, "_log_likelihood", no_iteration)
        with pytest.raises(ParameterOutOfRangeError, match="max_iter"):
            mle_fit(res, range(res.roster.n_vertices), tol=tol, max_iter=max_iter)
        with pytest.raises(ParameterOutOfRangeError, match="max_iter"):
            map_fit(res, PriorSpec(), tol=tol, max_iter=max_iter)

    def test_grade_with_nan_tol_raises_at_once(self):
        roster = Roster.index_based(35, 22)
        rng = substream(11, 0)
        u = MeritVector.for_roster(roster, rng.uniform(-1.486, 1.149, 35),
                                   rng.uniform(-3.090, 2.099, 22))
        res = sample_exam_result(generate_assignment(roster, 22, 10, rng), u, rng)
        with pytest.raises(ParameterOutOfRangeError):
            grade(res, tol=float("nan"))

    @pytest.mark.parametrize("tol, max_iter", [(float("nan"), 100), (-1.0, 100), (1e-8, -5)])
    def test_grade_checks_limits_when_nothing_needs_a_fit(self, tol, max_iter):
        # a complete exam: every cell is observed, so no SCC is fitted
        roster = Roster.index_based(3, 3)
        g = TaskAssignmentGraph(roster, np.indices((3, 3)).reshape(2, -1).T)
        res = ExamResultGraph(g, np.array([1, 1, 0, 0, 1, 1, 1, 0, 1]))
        assert is_strongly_connected(res)
        with pytest.raises(ParameterOutOfRangeError, match="max_iter"):
            grade(res, tol=tol, max_iter=max_iter)

    def test_zero_iterations_report_the_start(self):
        res, _ = connected_instance(6, n=4, q=5)
        with pytest.raises(NonConvergenceError) as exc:
            mle_fit(res, range(res.roster.n_vertices), max_iter=0)
        assert exc.value.report.iterations == 0
        assert not exc.value.report.merits.values.any()


def dense_hessian(k, winner, loser, weight, precision, gauge):
    """The negated Hessian built entry by entry, the reference for the Schur step."""
    hess = np.diag(np.zeros(k) + precision) + (gauge / k)
    for a, b, c in zip(winner, loser, weight):
        hess[a, a] += c
        hess[b, b] += c
        hess[a, b] -= c
        hess[b, a] -= c
    return hess


def dense_newton(winner, loser, precision, center, gauge):
    """Plain Newton iteration with dense solves, to the limit of rounding."""
    k = len(center)
    u = center.copy()
    for _ in range(100):
        upset = logistic(u[loser] - u[winner])
        grad = (np.bincount(winner, upset, k) - np.bincount(loser, upset, k)
                - precision * (u - center))
        if np.abs(grad).max() < 1e-13:
            return u
        u = u + np.linalg.solve(
            dense_hessian(k, winner, loser, upset * (1 - upset), precision, gauge), grad)
    raise AssertionError("dense reference did not converge")


@st.composite
def result_graphs(draw):
    """Random exams of 1-6 students and 1-9 questions (often more questions)."""
    n, q = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(i, int(j)) for i in range(n)
             for j in rng.permutation(q)[:rng.integers(1, q + 1)]]
    g = TaskAssignmentGraph(Roster.index_based(n, q), tuple(edges))
    return ExamResultGraph(g, rng.integers(0, 2, g.n_edges)), rng


def transposed(g):
    """The exam with students and questions swapped: a question that a student
    got wrong is a student who answered that question right."""
    edges = g.assignment.edges[:, ::-1]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    roster = Roster(g.roster.questions, g.roster.students)
    return ExamResultGraph(TaskAssignmentGraph(roster, edges[order]), 1 - g.w[order])


def _largest_scc_edges(g):
    """The largest SCC's sorted vertices, its student count and its edges as
    (winner, loser) positions in that order, as `mle_fit` builds them. A draw
    whose largest SCC is a single vertex is rejected."""
    vertices = sorted(max(strongly_connected_components(g).components, key=len))
    assume(len(vertices) >= 4)  # the smallest strongly connected piece is a 4-cycle
    pos = {v: k for k, v in enumerate(vertices)}
    winner, loser = (np.array(side, dtype=np.intp) for side in zip(*(
        (pos[a], pos[b]) for a, b in zip(*map(np.ndarray.tolist, g.directed_edges))
        if a in pos and b in pos)))
    return vertices, sum(v < g.roster.n_students for v in vertices), winner, loser


def _relative_gap(step, reference):
    return float(np.abs(step - reference).max() / np.abs(reference).max())


class TestNewtonStep:
    """The Schur-complement step equals a dense solve of the full Hessian, by
    either build of the complement, with either side eliminated."""

    @settings(max_examples=150, deadline=None)
    @given(result_graphs())
    def test_map_prior_step(self, drawn):
        g, rng = drawn
        for exam in (g, transposed(g)):
            n, k = exam.roster.n_students, exam.roster.n_vertices  # 1x1 gives 2 vertices
            winner, loser = exam.directed_edges
            u = rng.normal(0, 1.5, k)
            upset = logistic(u[loser] - u[winner])
            weight = upset * (1 - upset)
            precision = np.repeat(rng.uniform(0.1, 4.0, 2), [n, k - n])
            grad = rng.normal(0, 1, k)
            reference = np.linalg.solve(
                dense_hessian(k, winner, loser, weight, precision, False), grad)
            for pairs in (False, True):
                layout = _schur_layout(winner, loser, n, k, pairs=pairs)
                step = _newton_step(winner, loser, weight, precision, grad, layout)
                assert _relative_gap(step, reference) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(result_graphs())
    def test_mle_gauge_step(self, drawn):
        # mle_fit fixes the gauge by pinning its first vertex: precision e_0
        g, rng = drawn
        for exam in (g, transposed(g)):
            vertices, n_first, winner, loser = _largest_scc_edges(exam)
            k = len(vertices)
            u = rng.normal(0, 1.5, k)
            u -= u[0]
            upset = logistic(u[loser] - u[winner])
            weight = upset * (1 - upset)
            grad = np.bincount(winner, upset, k) - np.bincount(loser, upset, k)
            pin = np.eye(1, k)[0]
            reference = np.linalg.solve(
                dense_hessian(k, winner, loser, weight, pin, False), grad)
            for pairs in (False, True):
                layout = _schur_layout(winner, loser, n_first, k, pairs=pairs)
                step = _newton_step(winner, loser, weight, pin, grad, layout)
                assert _relative_gap(step, reference) <= 1e-12

    def test_zero_or_nan_pivot_raises(self, running_example):
        winner, loser = running_example.directed_edges
        n, k = running_example.roster.n_students, running_example.roster.n_vertices
        grad = np.ones(k)
        nan_weight = np.ones(len(winner))
        nan_weight[0] = np.nan
        for weight, precision in [(np.zeros(len(winner)), np.zeros(k)),
                                  (nan_weight, np.ones(k))]:
            for pairs in (False, True):
                layout = _schur_layout(winner, loser, n, k, pairs=pairs)
                with pytest.raises(np.linalg.LinAlgError, match="^zero or NaN pivot$"):
                    _newton_step(winner, loser, weight, precision, grad, layout)

    @settings(max_examples=150, deadline=None)
    @given(result_graphs())
    def test_pinned_mle_fit_is_the_mean_zero_maximizer(self, drawn):
        # the pinned fit, reported mean-zero, is the fit under the J/k gauge; the exam
        # and its transpose eliminate opposite sides unless the SCC's two are equal
        g, _ = drawn
        for exam in (g, transposed(g)):
            vertices, _, winner, loser = _largest_scc_edges(exam)
            k = len(vertices)
            fit = mle_fit(exam, vertices, tol=1e-12)
            merits = fit.merits.at(vertices)
            assert abs(merits.sum()) <= 1e-12 * k
            # the independent recomputation may round up to ~1e-15 above the fit's own
            assert likelihood_equation_residual(fit.merits, exam) <= 1e-12 + 1e-14
            reference = dense_newton(winner, loser, 0.0, np.zeros(k), True)
            assert merits == pytest.approx(reference, abs=1e-11)

    def test_fits_with_more_questions_than_students(self):
        # the student side is the smaller one here, so the questions are eliminated
        res, _ = connected_instance(5, n=3, q=8)
        k = res.roster.n_vertices
        winner, loser = res.directed_edges
        fit = mle_fit(res, range(k), tol=1e-12)
        reference = dense_newton(winner, loser, 0.0, np.zeros(k), True)
        assert fit.merits.array_for(res.roster) == pytest.approx(reference, abs=1e-11)
        prior = PriorSpec(0.2, 0.8, -0.1, 1.3)
        fit = map_fit(res, prior, tol=1e-12)
        mean = np.repeat([0.2, -0.1], [3, 8])
        precision = np.repeat([0.8**-2, 1.3**-2], [3, 8])
        reference = dense_newton(winner, loser, precision, mean, False)
        assert fit.merits.array_for(res.roster) == pytest.approx(reference, abs=1e-11)
