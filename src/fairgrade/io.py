"""Serialization: exam data, merit vectors, grades, predictions, reports.

Two exam formats are supported. The edge list is one row per assigned pair
(`student,question,correct`). The dense matrix has one row per student, one
column per question, and cells in {0, 1, NA} where NA means the pair was
never assigned.
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

import numpy as np

from .graph import ExamResultGraph, PairCase, Roster, TaskAssignmentGraph
from .grading import GradeVector, PredictionMatrix
from .model import MeritVector


class MalformedRowError(ValueError):
    """A data file row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateEdgeError(ValueError):
    """The same (student, question) pair appeared twice."""

    def __init__(self, line: int, pair: tuple[str, str]):
        super().__init__(f"line {line}: duplicate pair {pair}")
        self.line = line


class DimensionMismatchError(ValueError):
    """Row length or identifier set does not match the declared shape."""


EDGE_LIST = "edge-list"
DENSE_CSV = "dense-csv"
NA_TOKENS = {"NA", "", "NaN", "nan"}


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return [row for row in csv.reader(fh)]


def ingest(path, format: str) -> ExamResultGraph:
    """Load an exam result graph from disk in the named format."""
    if format == EDGE_LIST:
        return read_edge_list(path)
    if format == DENSE_CSV:
        return read_dense_matrix(path)
    raise ValueError(f"unknown format {format!r}")


def detect_format(path) -> str:
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
    return EDGE_LIST if header.split(",")[:3] == ["student", "question", "correct"] else DENSE_CSV


def read_edge_list(path) -> ExamResultGraph:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["student", "question", "correct"]:
        raise MalformedRowError(1, "expected header 'student,question,correct'")
    # dicts keep first-seen order, so ids are indexed in file order
    students: dict[str, int] = {}
    questions: dict[str, int] = {}
    seen: set[tuple[str, str]] = set()
    edges: list[tuple[int, int]] = []
    bits: list[int] = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(line, f"expected 3 fields, got {len(row)}")
        sid, qid, tok = (c.strip() for c in row)
        if tok not in ("0", "1"):
            raise MalformedRowError(line, f"correctness must be 0 or 1, got {tok!r}")
        if (sid, qid) in seen:
            raise DuplicateEdgeError(line, (sid, qid))
        seen.add((sid, qid))
        edges.append((students.setdefault(sid, len(students)),
                      questions.setdefault(qid, len(questions))))
        bits.append(int(tok))
    if not edges:
        raise MalformedRowError(len(rows) + 1, "no data rows")
    return _result_graph(Roster(tuple(students), tuple(questions)), edges, bits)


def _result_graph(roster: Roster, edges: list[tuple[int, int]], bits: list[int]):
    """Result graph from edges in file order and their outcome bits."""
    g = TaskAssignmentGraph(roster, tuple(edges))
    # the constructor sorts edges by (student, question); sort the bits alike
    s_idx, q_idx = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    w = np.asarray(bits, dtype=np.uint8)[np.lexsort((q_idx, s_idx))]
    return ExamResultGraph(g, w)


def read_dense_matrix(path) -> ExamResultGraph:
    rows = _read_rows(path)
    if len(rows) < 2:
        raise MalformedRowError(1, "need a header row and at least one student row")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] not in ("student", ""):
        raise MalformedRowError(1, "expected 'student' then question ids in the header")
    questions = tuple(header[1:])
    students: list[str] = []
    edges: list[tuple[int, int]] = []
    bits: list[int] = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DimensionMismatchError(
                f"line {line}: expected {len(header)} fields, got {len(row)}"
            )
        sid = row[0].strip()
        i = len(students)
        students.append(sid)
        for j, cell in enumerate(c.strip() for c in row[1:]):
            if cell in NA_TOKENS:
                continue
            if cell not in ("0", "1"):
                raise MalformedRowError(line, f"cell must be 0, 1, or NA, got {cell!r}")
            edges.append((i, j))
            bits.append(int(cell))
    return _result_graph(Roster(tuple(students), questions), edges, bits)


def write_edge_list(g: ExamResultGraph, path) -> None:
    roster = g.roster
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", "question", "correct"])
        for (i, j), bit in zip(g.assignment.edges, g.w):
            out.writerow([roster.students[i], roster.questions[j], int(bit)])


def write_dense_matrix(g: ExamResultGraph, path) -> None:
    roster = g.roster
    cells = np.full((roster.n_students, roster.n_questions), "NA", dtype=object)
    for (i, j), bit in zip(g.assignment.edges, g.w):
        cells[i, j] = str(int(bit))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", *roster.questions])
        for i, sid in enumerate(roster.students):
            out.writerow([sid, *cells[i]])


def write_merits(u: MeritVector, roster: Roster, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["vertex", "kind", "merit"])
        for v in sorted(u.values):
            kind = "student" if roster.is_student_vertex(v) else "question"
            out.writerow([roster.vertex_label(v), kind, repr(u[v])])


def read_merits(path, roster: Roster) -> MeritVector:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["vertex", "kind", "merit"]:
        raise MalformedRowError(1, "expected header 'vertex,kind,merit'")
    label_to_vertex = {
        **{s: roster.student_vertex(i) for i, s in enumerate(roster.students)},
        **{q: roster.question_vertex(j) for j, q in enumerate(roster.questions)},
    }
    values: dict[int, float] = {}
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(line, f"expected 3 fields, got {len(row)}")
        label, kind, tok = (c.strip() for c in row)
        if label not in label_to_vertex:
            raise MalformedRowError(line, f"unknown vertex {label!r}")
        if kind not in ("student", "question"):
            raise MalformedRowError(line, f"kind must be student or question, got {kind!r}")
        try:
            values[label_to_vertex[label]] = float(tok)
        except ValueError:
            raise MalformedRowError(line, f"bad merit value {tok!r}") from None
    return MeritVector(values, normalization=None)


def write_grades(grades: GradeVector, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", "grade", "rule"])
        for sid, v in zip(grades.roster.students, grades.values):
            out.writerow([sid, repr(float(v)), grades.rule_name])


def write_predictions(pm: PredictionMatrix, entries_path, tags_path) -> None:
    roster = pm.roster
    with open(entries_path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", *roster.questions])
        out.writerows([sid, *map(repr, row.tolist())]
                      for sid, row in zip(roster.students, pm.entries))
    names = {case: case.name for case in PairCase}
    with open(tags_path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", *roster.questions])
        out.writerows([sid, *map(names.__getitem__, row.tolist())]
                      for sid, row in zip(roster.students, pm.case_tags))


def write_tidy_report(rows: Iterable[dict], path) -> None:
    """Plot-ready long format: one row per (parameter, rule, statistic)."""
    rows = list(rows)
    fields = ["parameter", "value", "rule", "statistic", "estimate", "se"]
    with open(path, "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        out.writeheader()
        for row in rows:
            out.writerow({k: row.get(k, "") for k in fields})


def write_json_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
