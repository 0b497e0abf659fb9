import numpy as np
import pytest

from fairgrade import ExamResultGraph, MeritVector, Roster, TaskAssignmentGraph, logistic

# 6 students, 3 questions; outcomes chosen so that s0,s1,q0,q1 form one
# strongly connected block, s2..s5 sit below it, and q2 sits below them.
RUNNING_OUTCOMES = {
    (0, 0): 1, (0, 1): 0,
    (1, 0): 0, (1, 1): 1,
    (2, 0): 0, (2, 2): 1,
    (3, 0): 0, (3, 2): 1,
    (4, 1): 0, (4, 2): 1,
    (5, 1): 0, (5, 2): 1,
}


@pytest.fixture
def running_example() -> ExamResultGraph:
    roster = Roster.index_based(6, 3)
    g = TaskAssignmentGraph(roster, tuple(RUNNING_OUTCOMES))
    return ExamResultGraph.from_outcomes(g, RUNNING_OUTCOMES)


@pytest.fixture
def small_population():
    roster = Roster.index_based(2, 3)
    u = MeritVector.for_roster(roster, [0.5, -0.5], [-1.0, 0.0, 1.0])
    return roster, u


def random_result_graph(rng: np.random.Generator, n: int, q: int) -> ExamResultGraph:
    """Random assignment + outcomes; every student gets >= 1 question."""
    edges = []
    for i in range(n):
        d = int(rng.integers(1, q + 1))
        edges.extend((i, int(j)) for j in rng.permutation(q)[:d])
    g = TaskAssignmentGraph(Roster.index_based(n, q), tuple(edges))
    return ExamResultGraph(g, rng.integers(0, 2, g.n_edges).astype(np.uint8))


def brute_force_reachability(adj):
    """Floyd-Warshall style closure; independent of the SCC code."""
    n = len(adj)
    reach = [[a == b for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in adj[a]:
            reach[a][b] = True
    for k in range(n):
        for a in range(n):
            if reach[a][k]:
                for b in range(n):
                    if reach[k][b]:
                        reach[a][b] = True
    return reach


def answer_probability(u: MeritVector, roster: Roster, i: int, j: int) -> float:
    """Chance that student i answers question j correctly (roster indices)."""
    return logistic(u[i] - u[roster.n_students + j])
