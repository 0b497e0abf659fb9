"""Grades and case tags pinned on 100 seeded random exams.

`pinned_grades.npz` holds, per exam, the `grade` and MAP-rule grades and the
`PairCase` value of every cell, as the Python-loop grading core computed
them. Rebuild it only on purpose: `PYTHONPATH=src python tests/test_pinned_grades.py`.
"""

from pathlib import Path

import numpy as np
import pytest

from fairgrade import (
    MeritVector,
    PriorSpec,
    Roster,
    generate_assignment,
    make_map_rule,
    predict_matrix,
    sample_exam_result,
)
from fairgrade.rng import substream

FIXTURE = Path(__file__).with_name("pinned_grades.npz")

# (key, students, questions, degree); every question is eligible (m = q)
EXAMS = (
    [(100 + i, 35, 22, (22, 10, 5, 3, 2, 1)[i % 6]) for i in range(84)]
    + [(184 + i, 60, 30, (30, 10, 5, 2)[i % 4]) for i in range(10)]
    + [(194 + i, 200, 100, (20, 10, 3)[i % 3]) for i in range(6)]
)

# Exams whose old maximum likelihood fit stopped just under tol = 1e-8 after
# its line search refused a full Newton step whose gain was below the
# objective's rounding error. The shared line search forgives that shortfall,
# takes the step and converges to ~1e-15, so these grades move by ~6e-10.
MOVED = {
    109: "at residual 2.0e-8 the full step was refused; a half step stopped at 9.9e-9",
    179: "at residual 4.1e-8 every step length was refused; one MM update and three "
         "damped steps (t = 1/16, 1/4, 1/4) stopped at 9.7e-9",
}
MOVED_TOLERANCE = 1e-9


def exam(key: int, n: int, q: int, d: int):
    """Merits in the published ranges, then assignment, then outcomes."""
    roster = Roster.index_based(n, q)
    rng = substream(7, key)
    u = MeritVector.for_roster(roster, rng.uniform(-1.486, 1.149, n),
                               rng.uniform(-3.090, 2.099, q))
    return sample_exam_result(generate_assignment(roster, q, d, rng), u, rng)


def outputs(key: int, n: int, q: int, d: int) -> dict[str, np.ndarray]:
    g = exam(key, n, q, d)
    pm = predict_matrix(g)
    return {
        f"grade_{key}": pm.grades,
        f"map_{key}": make_map_rule(PriorSpec())(g).values,
        f"cases_{key}": np.array([tag.value for tag in pm.case_tags.ravel()],
                                 dtype=np.int8).reshape(n, q),
    }


@pytest.fixture(scope="module")
def pinned():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("key, n, q, d", EXAMS,
                         ids=[f"{n}x{q}-d{d}-k{key}" for key, n, q, d in EXAMS])
def test_pinned_exam(pinned, key, n, q, d):
    got = outputs(key, n, q, d)
    tolerance = MOVED_TOLERANCE if key in MOVED else 1e-12
    np.testing.assert_array_equal(got[f"cases_{key}"], pinned[f"cases_{key}"])
    for name in (f"grade_{key}", f"map_{key}"):
        np.testing.assert_allclose(got[name], pinned[name], rtol=0, atol=tolerance)


if __name__ == "__main__":
    arrays = {}
    for spec in EXAMS:
        arrays.update(outputs(*spec))
    np.savez_compressed(FIXTURE, **arrays)
    print(f"wrote {len(EXAMS)} exams to {FIXTURE}")
