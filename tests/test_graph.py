import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairgrade import (
    ExamResultGraph,
    MeritVector,
    PairCase,
    ParameterOutOfRangeError,
    Roster,
    TaskAssignmentGraph,
    generate_assignment,
    is_strongly_connected,
    predict_matrix,
    sample_exam_result,
    strongly_connected_components,
)
from fairgrade.graph import ComponentStructure, _pair_cases
from fairgrade.rng import substream

from conftest import brute_force_reachability


@st.composite
def result_graphs(draw, max_students=4, max_questions=4):
    n = draw(st.integers(1, max_students))
    q = draw(st.integers(1, max_questions))
    pairs = list(itertools.product(range(n), range(q)))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    w = draw(st.lists(st.integers(0, 1), min_size=len(chosen), max_size=len(chosen)))
    g = TaskAssignmentGraph(Roster.index_based(n, q), tuple(chosen))
    outcomes = dict(zip(chosen, w))
    return ExamResultGraph.from_outcomes(g, outcomes)


def reference_pair_cases(forward, backward, edge):
    """`np.select` over the four conditions in priority order: the reference
    for `_pair_cases`."""
    return np.select(
        [edge, forward & backward, forward, backward],
        [PairCase.EXISTING_EDGE.value, PairCase.SAME_COMPONENT.value,
         PairCase.STUDENT_ABOVE.value, PairCase.QUESTION_ABOVE.value],
        PairCase.INCOMPARABLE.value,
    ).astype(np.int8)


@st.composite
def reach_matrices(draw):
    """(structure, edge mask): random forward reach, backward reach (as the
    transpose `strongly_connected_components` stores) and edges of 1-8
    students against 1-8 questions."""
    n, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    forward, edge = draw(hnp.arrays(bool, (n, q))), draw(hnp.arrays(bool, (n, q)))
    backward = draw(hnp.arrays(bool, (q, n))).T
    return ComponentStructure(np.zeros(n + q, dtype=np.intp), forward, backward), edge


class TestPairCasesKernel:
    @settings(max_examples=300, deadline=None)
    @given(reach_matrices())
    def test_matches_the_select_reference(self, drawn):
        c, edge = drawn
        codes = _pair_cases(c, np.nonzero(edge))
        assert codes.dtype == np.int8 and codes.shape == edge.shape
        assert codes.tobytes() == reference_pair_cases(c.forward, c.backward, edge).tobytes()


@st.composite
def exams(draw, sides):
    """Result graphs with fewer, as many or more students than bank
    questions (`sides` "<", "=" or ">"), up to 8 of each. Only m <= |Q| bank
    questions are assigned; each student answers a random subset of them
    (possibly none), all right, all wrong or mixed."""
    small = draw(st.integers(1, 7))
    large = small if sides == "=" else draw(st.integers(small + 1, 8))
    n, q = (small, large) if sides == "<" else (large, small)
    bank = draw(st.permutations(range(q)))[:draw(st.integers(1, q))]
    edges, w = [], []
    for i in range(n):
        asked = draw(st.lists(st.sampled_from(bank), unique=True))
        kind = draw(st.sampled_from(["right", "wrong", "mixed"]))
        edges += [(i, j) for j in asked]
        w += ([1] * len(asked) if kind == "right" else [0] * len(asked) if kind == "wrong"
              else draw(st.lists(st.integers(0, 1), min_size=len(asked), max_size=len(asked))))
    g = TaskAssignmentGraph(Roster.index_based(n, q), np.array(edges, dtype=np.intp).reshape(-1, 2))
    return ExamResultGraph(g, np.array(w, dtype=np.uint8))


def check_structure(g):
    """Reach, SCC partition, `components`, `_pair_cases` codes and
    `is_strongly_connected` against `brute_force_reachability`."""
    reach = brute_force_reachability(g)
    n = g.roster.n_students
    c = strongly_connected_components(g)
    assert np.array_equal(c.forward, reach[:n, n:])
    assert np.array_equal(c.backward, reach[n:, :n].T)
    comp = c.component_of
    assert np.array_equal(comp[:, None] == comp[None, :], reach & reach.T)
    assert c.n_components == len(c.components) == len(np.unique(comp))
    for cid, vertices in enumerate(c.components):
        assert sorted(vertices) == np.flatnonzero(comp == cid).tolist()
    s_idx, q_idx = g.assignment.edge_arrays
    edge = np.zeros((n, g.roster.n_questions), dtype=bool)
    edge[s_idx, q_idx] = True
    expected = reference_pair_cases(reach[:n, n:], reach[n:, :n].T, edge)
    assert _pair_cases(c, (s_idx, q_idx)).tobytes() == expected.tobytes()
    assert is_strongly_connected(g) == reach.all()


class TestRoster:
    def test_rejects_duplicates_and_overlap(self):
        for students, questions, message in [
            (("a", "a"), ("q",), "^duplicate student identifiers$"),
            (("a",), ("q", "q"), "^duplicate question identifiers$"),
            (("a",), ("a",), "^student and question identifiers must be disjoint$"),
            ((), ("q",), "^roster needs at least one student and one question$"),
        ]:
            with pytest.raises(ValueError, match=message):
                Roster(students, questions)

    def test_vertex_numbering_round_trips(self):
        r = Roster.index_based(3, 4)
        assert r.n_vertices == 7


class TestTaskAssignmentGraph:
    def test_edges_sorted_and_deduped(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((1, 1), (0, 0), (0, 1)))
        assert g.edges.tolist() == [[0, 0], [0, 1], [1, 1]]
        with pytest.raises(ValueError):
            TaskAssignmentGraph(r, ((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            TaskAssignmentGraph(r, ((0, 5),))

    def test_array_edges(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, np.array([[1, 1], [0, 0], [0, 1]]))
        assert g == TaskAssignmentGraph(r, ((1, 1), (0, 0), (0, 1)))
        assert g.edges.dtype == np.intp and g.edges.shape == (3, 2)
        assert [a.tolist() for a in g.edge_arrays] == [[0, 0, 1], [0, 1, 1]]
        edges = np.array([[0, 0], [0, 1], [1, 1]])  # sorted already: kept as a copy
        g = TaskAssignmentGraph(r, edges)
        edges[0] = 1
        assert g.edges.tolist() == [[0, 0], [0, 1], [1, 1]]
        for bad in ([[0, 0], [0, 0]], [[0, 2]], [[-1, 0]], [[0, 0, 1]]):
            with pytest.raises(ValueError):
                TaskAssignmentGraph(r, np.array(bad))

    @pytest.mark.parametrize("edges, value", [
        ([(0, 0.5), (1, 1)], "0.5"),  # not the edge (0, 0)
        ([(0, 1.9), (1, 0)], "1.9"),  # not the edge (0, 1)
        (np.array([[0.0, 1.0], [1.0, np.nan]]), "nan"),
    ])
    def test_rejects_fractional_ids(self, edges, value):
        with pytest.raises(ValueError, match=f"^index {value} is not an integer$"):
            TaskAssignmentGraph(Roster.index_based(2, 2), edges)

    def test_integral_floats_are_ids(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, [(0, 1.0), (1.0, 0)])
        assert g == TaskAssignmentGraph(r, [(0, 1), (1, 0)]) and g.edges.dtype == np.intp

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permuted_pairs_give_the_sorted_graph(self, data):
        n, q = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        pairs = data.draw(st.lists(
            st.sampled_from(list(itertools.product(range(n), range(q)))), unique=True))
        r = Roster.index_based(n, q)
        g = TaskAssignmentGraph(r, data.draw(st.permutations(pairs)))
        assert g == TaskAssignmentGraph(r, sorted(pairs))
        assert g.edges.tolist() == [list(p) for p in sorted(pairs)]
        assert g.n_edges == len(pairs)
        if pairs:
            assert g != TaskAssignmentGraph(r, sorted(pairs)[1:])
        for array in (g.edges, *g.edge_arrays):
            assert array.dtype == np.intp and not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_degrees(self):
        r = Roster.index_based(2, 3)
        g = TaskAssignmentGraph(r, ((0, 0), (0, 1), (1, 1)))
        assert g.student_degrees.tolist() == [2, 1]
        _, q_idx = g.edge_arrays
        assert np.bincount(q_idx, minlength=3).tolist() == [1, 2, 0]


class TestGenerateAssignment:
    def test_parameter_validation(self):
        r = Roster.index_based(2, 3)
        for m, d in [(4, 1), (2, 3), (2, 0)]:
            with pytest.raises(ParameterOutOfRangeError):
                generate_assignment(r, m, d, 0)

    def test_structure(self):
        r = Roster.index_based(5, 10)
        g = generate_assignment(r, 6, 4, 123)
        assert (g.student_degrees == 4).all()
        assert (np.bincount(g.edge_arrays[1]) > 0).sum() <= 6

    def test_deterministic_given_seed(self):
        r = Roster.index_based(4, 8)
        assert generate_assignment(r, 5, 3, 7) == generate_assignment(r, 5, 3, 7)
        assert generate_assignment(r, 5, 3, 7) != generate_assignment(r, 5, 3, 8)

    @pytest.mark.parametrize("n, q, m, d", [
        (1, 1, 1, 1), (3, 4, 4, 2), (10, 22, 22, 10), (7, 30, 12, 12), (50, 40, 20, 1),
        (4, 300, 300, 150),
    ])
    def test_matches_scalar_fisher_yates(self, n, q, m, d):
        """Same edges and the same generator state after the call as one
        scalar `rng.integers` call per swap."""

        def scalar_assignment(roster, rng):
            def sample(pool, k):
                idx = np.arange(pool)
                for t in range(k):
                    r = t + int(rng.integers(pool - t))
                    idx[t], idx[r] = idx[r], idx[t]
                return idx[:k]

            eligible = sample(roster.n_questions, m)
            edges = []
            for i in range(roster.n_students):
                edges.extend((i, int(eligible[k])) for k in sample(m, d))
            return TaskAssignmentGraph(roster, tuple(edges))

        r = Roster.index_based(n, q)
        for seed in range(30):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert generate_assignment(r, m, d, fast) == scalar_assignment(r, slow)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_question_subset_uniform(self):
        # with m=1 of 3 questions, each question is picked ~1/3 of the time
        r = Roster.index_based(1, 3)
        counts = np.zeros(3)
        for s in range(900):
            g = generate_assignment(r, 1, 1, s)
            counts[g.edges[0][1]] += 1
        assert (counts > 200).all()


class TestExamResultGraph:
    def test_outcome_alignment(self):
        r = Roster.index_based(2, 2)
        g = TaskAssignmentGraph(r, ((0, 0), (1, 1), (0, 1)))
        res = ExamResultGraph.from_outcomes(g, {(0, 0): 1, (0, 1): 0, (1, 1): 1})
        assert res.outcomes == {(0, 0): 1, (0, 1): 0, (1, 1): 1}
        assert res.w.tolist() == [1, 0, 1]  # in the sorted edge order

    def test_rejects_wrong_key_set_and_values(self):
        r = Roster.index_based(1, 2)
        g = TaskAssignmentGraph(r, ((0, 0),))
        for outcomes in ({(0, 1): 1}, {(0.5, 0): 1}, {(0, 0): 1, (0, 1): 1}):
            with pytest.raises(ValueError):
                ExamResultGraph.from_outcomes(g, outcomes)
        for w, message in [([2], "0 or 1"), ([0.7], "0 or 1"), ([1, 0], "one outcome bit"),
                           ([], "one outcome bit"), ([[1]], "one outcome bit")]:
            with pytest.raises(ValueError, match=message):
                ExamResultGraph(g, np.array(w))

    def test_caller_array_stays_writable(self):
        g = TaskAssignmentGraph(Roster.index_based(1, 1), ((0, 0),))
        w = np.array([1], dtype=np.uint8)
        res = ExamResultGraph(g, w)
        w[0] = 0
        assert res.w.tolist() == [1]
        assert not res.w.flags.writeable

    def test_adjacency_orientation(self):
        r = Roster.index_based(1, 2)
        g = TaskAssignmentGraph(r, ((0, 0), (0, 1)))
        res = ExamResultGraph.from_outcomes(g, {(0, 0): 1, (0, 1): 0})
        tail, head = res.directed_edges
        assert list(zip(tail.tolist(), head.tolist())) == [(0, 1), (2, 0)]  # s0 -> q0, q1 -> s0


class TestStronglyConnectedComponents:
    def test_running_example_partition(self, running_example):
        c = strongly_connected_components(running_example)
        assert c.n_components == 6
        roster = running_example.roster
        n = roster.n_students
        block = {0, 1, n + 0, n + 1}
        assert block in [set(comp) for comp in c.components]

    @settings(max_examples=150, deadline=None)
    @given(result_graphs())
    def test_matches_brute_force_reachability(self, g):
        check_structure(g)

    @pytest.mark.parametrize("sides", ["<", "=", ">"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_structure_matches_the_reference(self, sides, data):
        check_structure(data.draw(exams(sides)))

    def test_paper_scale_draws_match_the_reference(self):
        """1,200 draws of 35 students x 22 questions at four (m, d) settings."""
        roster = Roster.index_based(35, 22)
        for k in range(1200):
            rng = substream(20, k)
            u = MeritVector.for_roster(roster, rng.uniform(-1.5, 3.0, 35),
                                       rng.uniform(-3.09, 1.5, 22))
            m, d = [(22, 10), (22, 3), (15, 5), (22, 22)][k % 4]
            check_structure(sample_exam_result(generate_assignment(roster, m, d, rng), u, rng))

    def test_paths_through_every_vertex_are_closed(self):
        """One alternating path through all vertices, |n - |Q|| <= 1, in a
        random numbering: the longest paths, which need every squaring."""
        rng = np.random.default_rng(4)
        for k in range(1, 18):
            for n, q in ((k, k), (k + 1, k), (k, k + 1)):
                students, questions = rng.permutation(n), n + rng.permutation(q)
                lead, follow = (students, questions) if n >= q else (questions, students)
                path = np.empty(n + q, dtype=np.intp)
                path[0::2], path[1::2] = lead, follow
                path = path.tolist()
                outcomes = {(min(a, b), max(a, b) - n): int(a < n) for a, b in zip(path, path[1:])}
                roster = Roster.index_based(n, q)
                check_structure(ExamResultGraph.from_outcomes(
                    TaskAssignmentGraph(roster, tuple(outcomes)), outcomes))

    @settings(max_examples=100, deadline=None)
    @given(result_graphs())
    def test_is_strongly_connected_agrees(self, g):
        assert is_strongly_connected(g) == brute_force_reachability(g).all()

    @settings(max_examples=200, deadline=None)
    @given(result_graphs(), st.integers(0, 3))
    def test_is_strongly_connected_counts_one_component(self, g, unassigned):
        # extra bank questions that no student was assigned are isolated vertices
        roster = Roster.index_based(g.roster.n_students, g.roster.n_questions + unassigned)
        g = ExamResultGraph(TaskAssignmentGraph(roster, g.assignment.edges), g.w)
        assert is_strongly_connected(g) == (strongly_connected_components(g).n_components == 1)

    def test_isolated_bank_question_is_own_component(self):
        r = Roster.index_based(1, 2)
        g = TaskAssignmentGraph(r, ((0, 0),))
        res = ExamResultGraph(g, np.array([1]))
        c = strongly_connected_components(res)
        assert frozenset({r.n_students + 1}) in c.components


class TestClassifyPair:
    def test_running_example_cases(self, running_example):
        tags = predict_matrix(running_example).case_tags
        assert tags[0, 0] is PairCase.EXISTING_EDGE
        assert tags[0, 2] is PairCase.STUDENT_ABOVE
        assert tags[1, 2] is PairCase.STUDENT_ABOVE
        assert tags[2, 1] is PairCase.QUESTION_ABOVE
        assert tags[2, 2] is PairCase.EXISTING_EDGE

    def test_same_component_and_incomparable(self):
        r = Roster.index_based(2, 2)
        # s0<->q0 via s1: s0->q0 only through the 2-cycle s0,q0? build:
        # s0->q0, q0->s1, s1->q0 is multi; instead: s0->q0, q0->s0 gives SCC.
        g = TaskAssignmentGraph(r, ((0, 0), (1, 1)))
        res = ExamResultGraph.from_outcomes(g, {(0, 0): 1, (1, 1): 0})
        assert predict_matrix(res).case_tags[0, 1] is PairCase.INCOMPARABLE
        # 2-cycle through two edges needs two questions:
        g2 = TaskAssignmentGraph(r, ((0, 0), (0, 1), (1, 0), (1, 1)))
        res2 = ExamResultGraph.from_outcomes(
            g2, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
        )
        c2 = strongly_connected_components(res2)
        assert c2.n_components == 1
        tags = predict_matrix(res2).case_tags
        for i, j in ((0, 0), (0, 1)):
            assert tags[i, j] is PairCase.EXISTING_EDGE

    @settings(max_examples=100, deadline=None)
    @given(result_graphs())
    def test_total_and_exclusive(self, g):
        # a drawn student may have no question, which `predict_matrix` rejects
        s_idx, q_idx = g.assignment.edge_arrays
        edge = np.zeros((g.roster.n_students, g.roster.n_questions), dtype=bool)
        edge[s_idx, q_idx] = True
        codes = _pair_cases(strongly_connected_components(g), (s_idx, q_idx))
        assert set(codes.ravel().tolist()) <= {case.value for case in PairCase}
        assert np.array_equal(codes == PairCase.EXISTING_EDGE.value, edge)
