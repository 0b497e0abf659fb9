import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairgrade import (
    ExamResultGraph,
    PairCase,
    ParameterOutOfRangeError,
    Roster,
    TaskAssignmentGraph,
    generate_assignment,
    is_strongly_connected,
    predict_matrix,
    strongly_connected_components,
)
from fairgrade.graph import ComponentStructure, _pair_cases, _successor_lists, _tarjan

from conftest import brute_force_reachability, random_result_graph


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


def reference_successor_lists(k, tail, head):
    """One `np.split` piece per vertex: the reference for `_successor_lists`."""
    order = np.argsort(tail, kind="stable")
    bounds = np.cumsum(np.bincount(tail, minlength=k))[:-1]
    return [succ.tolist() for succ in np.split(head[order], bounds)]


def reference_tarjan(adj):
    """Tarjan with a (vertex, next successor position) work stack, which rescans
    a vertex's successors from that position on every return to it: the
    reference for `_tarjan`'s component ids and order."""
    n = len(adj)
    index, lowlink, on_stack, comp_of = [-1] * n, [0] * n, [False] * n, [-1] * n
    stack, comps, counter = [], [], 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(adj[v])):
                u = adj[v][k]
                if index[u] == -1:
                    work[-1] = (v, k + 1)
                    work.append((u, 0))
                    advanced = True
                    break
                if on_stack[u]:
                    lowlink[v] = min(lowlink[v], index[u])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp_of[u] = len(comps)
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return comp_of, comps


@st.composite
def digraphs(draw):
    """(k, tail, head): result graphs from 1x1 up, dense random digraphs with
    self-loops and repeated edges, and deep 1200-vertex paths with a few
    extra edges, each in a random vertex numbering and edge order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["result", "random", "path"]))
    if kind == "result":
        g = random_result_graph(rng, draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        return g.roster.n_vertices, *g.directed_edges
    k = draw(st.integers(1, 40)) if kind == "random" else 1200
    extra = rng.integers(0, k, (2, rng.integers(0, 3 * k if kind == "random" else 30)))
    path = rng.permutation(k)
    tail = np.concatenate((path[:-1], extra[0])) if kind == "path" else extra[0]
    head = np.concatenate((path[1:], extra[1])) if kind == "path" else extra[1]
    order = rng.permutation(len(tail))
    return k, tail[order], head[order]


class TestTarjanKernel:
    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_matches_the_rescanning_reference(self, drawn):
        k, tail, head = drawn
        adj = _successor_lists(k, tail, head)
        assert adj == reference_successor_lists(k, tail, head)
        assert _tarjan(k, tail, head) == reference_tarjan(adj)


def reference_pair_cases(c, edge, ci, cj):
    """`np.select` over the four conditions in priority order: the reference
    for `_pair_cases`."""
    forward, backward = c.reach[ci, cj], c.reach[cj, ci]
    return np.select(
        [edge, forward & backward, forward, backward],
        [PairCase.EXISTING_EDGE.value, PairCase.SAME_COMPONENT.value,
         PairCase.STUDENT_ABOVE.value, PairCase.QUESTION_ABOVE.value],
        PairCase.INCOMPARABLE.value,
    ).astype(np.int8)


@st.composite
def condensations(draw):
    """(structure, edge mask, student SCC ids, question SCC ids): the reach
    matrix of a random DAG on 1-12 SCCs in topological order, closed as
    `strongly_connected_components` closes it, and random SCC ids and edges."""
    c = draw(st.integers(1, 12))
    n, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    arcs = draw(hnp.arrays(bool, (c, c)))
    reach = np.triu(arcs, 1)[::-1, ::-1] | np.eye(c, dtype=bool)  # arcs to lower ids only
    for a in range(c):
        reach[a] = reach[reach[a]].any(axis=0)
    ids = draw(hnp.arrays(np.intp, n + q, elements=st.integers(0, c - 1)))
    structure = ComponentStructure(ids, tuple(frozenset() for _ in range(c)), reach)
    return structure, draw(hnp.arrays(bool, (n, q))), ids[:n], ids[n:]


class TestPairCasesKernel:
    @settings(max_examples=300, deadline=None)
    @given(condensations())
    def test_matches_the_select_reference(self, drawn):
        c, edge, ci, cj = drawn
        codes = _pair_cases(c, edge, ci[:, None], cj[None, :])
        reference = reference_pair_cases(c, edge, ci[:, None], cj[None, :])
        assert codes.dtype == np.int8 and codes.shape == edge.shape
        assert codes.tobytes() == reference.tobytes()
        i, j = len(ci) - 1, len(cj) - 1  # one pair: scalar arguments broadcast too
        assert int(_pair_cases(c, edge[i, j], ci[i], cj[j])) == reference[i, j]


class TestRoster:
    def test_rejects_duplicates_and_overlap(self):
        with pytest.raises(ValueError):
            Roster(("a", "a"), ("q",))
        with pytest.raises(ValueError):
            Roster(("a",), ("a",))
        with pytest.raises(ValueError):
            Roster((), ("q",))

    def test_vertex_numbering_round_trips(self):
        r = Roster.index_based(3, 4)
        assert r.n_vertices == 7
        assert r.vertex_label(2) == "s2"
        assert r.vertex_label(r.n_students + 3) == "q3"
        assert r.is_student_vertex(2) and not r.is_student_vertex(3)


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
        with pytest.raises(ValueError):
            ExamResultGraph(g, np.array([2]))
        with pytest.raises(ValueError):
            ExamResultGraph(g, [0.7])

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
        adj = res.directed_adjacency()
        assert adj[0] == [1]  # s0 -> q0 (correct)
        assert adj[2] == [0]  # q1 -> s0 (incorrect)


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
        c = strongly_connected_components(g)
        reach = brute_force_reachability(g.directed_adjacency())
        nv = g.roster.n_vertices
        for a in range(nv):
            for b in range(nv):
                same = reach[a][b] and reach[b][a]
                assert (c.component_of[a] == c.component_of[b]) == same
                assert c.reach[c.component_of[a], c.component_of[b]] == reach[a][b]

    @settings(max_examples=100, deadline=None)
    @given(result_graphs())
    def test_is_strongly_connected_agrees(self, g):
        reach = brute_force_reachability(g.directed_adjacency())
        expected = all(all(row) for row in reach)
        assert is_strongly_connected(g) == expected

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
        c = strongly_connected_components(g)
        comp = c.component_of
        edges = g.assignment.edges.tolist()
        for i in range(g.roster.n_students):
            for j in range(g.roster.n_questions):
                edge = [i, j] in edges
                case = PairCase(int(_pair_cases(c, edge, comp[i], comp[g.roster.n_students + j])))
                if edge:
                    assert case is PairCase.EXISTING_EDGE
