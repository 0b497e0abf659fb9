"""Serialization: exam data, merit vectors, grades, predictions, reports.

Two exam formats are supported. The edge list is one row per assigned pair
(`student,question,correct`). The dense matrix has one row per student, one
column per question, and cells in {0, 1, NA} where NA means the pair was
never assigned.

Output contract of the writers: floats are written as their shortest
round-trip `repr`, ids are quoted as `csv.writer` quotes them (only when they
hold a comma, a quote or a line break), and every line ends with `\n`.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from types import SimpleNamespace
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
_CELL_CODES = {"0": 0, "1": 1, **dict.fromkeys(NA_TOKENS, 2)}  # 2: never assigned


def read_text(path) -> str:
    """The file's UTF-8 text without a byte order mark; a byte that is not
    UTF-8 raises MalformedRowError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRowError(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None


def _read_rows(path) -> list[list[str]]:
    reader = csv.reader(StringIO(read_text(path), newline=""))
    try:
        return list(reader)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise MalformedRowError(reader.line_num, str(exc)) from None


def ingest(path, format: str) -> ExamResultGraph:
    """Load an exam result graph from disk in the named format."""
    if format == EDGE_LIST:
        return read_edge_list(path)
    if format == DENSE_CSV:
        return read_dense_matrix(path)
    raise ValueError(f"unknown format {format!r}")


def detect_format(path) -> str:
    header = StringIO(read_text(path), newline=None).readline().strip()
    return EDGE_LIST if header.split(",")[:3] == ["student", "question", "correct"] else DENSE_CSV


def read_edge_list(path) -> ExamResultGraph:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["student", "question", "correct"]:
        raise MalformedRowError(1, "expected header 'student,question,correct'")
    body = [row for row in rows[1:] if row]
    if not body:
        raise MalformedRowError(len(rows) + 1, "no data rows")
    # checked column by column; a failed check rescans row by row for the first fault
    if set(map(len, body)) == {3}:
        sids, qids, toks = ([*map(str.strip, column)] for column in zip(*body))
        # dicts keep first-seen order, so ids are indexed in file order
        students, questions = (dict(zip(dict.fromkeys(ids), range(len(ids))))
                               for ids in (sids, qids))
        if set(toks) <= {"0", "1"} and students.keys().isdisjoint(questions):
            s_idx = np.fromiter(map(students.__getitem__, sids), np.intp, len(sids))
            q_idx = np.fromiter(map(questions.__getitem__, qids), np.intp, len(qids))
            codes = s_idx * len(questions) + q_idx
            order = np.argsort(codes, kind="stable")
            if np.diff(codes[order]).all():  # a duplicate pair sorts next to its twin
                bits = np.fromiter(map("1".__eq__, toks), np.uint8, len(toks))
                return _result_graph(Roster(tuple(students), tuple(questions)),
                                     s_idx[order], q_idx[order], bits[order])
    raise _edge_list_fault(rows)


def _edge_list_fault(rows: list[list[str]]) -> ValueError:
    """The data error of an edge list's first faulty row, in file order."""
    students, questions, seen = set(), set(), set()
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            return MalformedRowError(line, f"expected 3 fields, got {len(row)}")
        sid, qid, tok = (c.strip() for c in row)
        if tok not in ("0", "1"):
            return MalformedRowError(line, f"correctness must be 0 or 1, got {tok!r}")
        if (sid, qid) in seen:
            return DuplicateEdgeError(line, (sid, qid))
        seen.add((sid, qid))
        students.add(sid)
        questions.add(qid)
        if sid in questions or qid in students:
            shared = sid if sid in questions else qid
            return MalformedRowError(line, f"id {shared!r} is both a student and a question")
    raise AssertionError("the edge list failed a check but no row is faulty")


def _result_graph(roster: Roster, s_idx: np.ndarray, q_idx: np.ndarray, bits: np.ndarray):
    """Result graph from edges sorted by (student, question) and their outcome bits."""
    return ExamResultGraph(TaskAssignmentGraph(roster, np.column_stack((s_idx, q_idx))), bits)


def read_dense_matrix(path) -> ExamResultGraph:
    rows = _read_rows(path)
    body = [(line, row) for line, row in enumerate(rows[1:], start=2) if row]
    if not body:
        raise MalformedRowError(1, "need a header row and at least one student row")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] not in ("student", ""):
        raise MalformedRowError(1, "expected 'student' then question ids in the header")
    questions = dict.fromkeys(header[1:])
    if len(questions) != len(header) - 1:
        raise MalformedRowError(1, "duplicate question id in the header")
    students, cells = {}, []
    for line, row in body:
        if len(row) != len(header):
            raise DimensionMismatchError(f"line {line}: expected {len(header)} fields, "
                                         f"got {len(row)}")
        sid = row[0].strip()
        if sid in students or sid in questions:
            raise MalformedRowError(line, f"student id {sid!r} repeats a student or question id")
        students[sid] = None
        row_cells = [*map(str.strip, row[1:])]
        if not set(row_cells).issubset(_CELL_CODES):
            bad = next(c for c in row_cells if c not in _CELL_CODES)
            raise MalformedRowError(line, f"cell must be 0, 1, or NA, got {bad!r}")
        cells += row_cells
    codes = np.fromiter(map(_CELL_CODES.__getitem__, cells), np.uint8).reshape(len(students), -1)
    s_idx, q_idx = np.nonzero(codes < 2)  # row-major: sorted by (student, question)
    return _result_graph(Roster(tuple(students), tuple(questions)),
                         s_idx, q_idx, codes[s_idx, q_idx])


def write_edge_list(g: ExamResultGraph, path) -> None:
    roster = g.roster
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", "question", "correct"])
        s_idx, q_idx = g.assignment.edge_arrays
        out.writerows(zip(map(roster.students.__getitem__, s_idx.tolist()),
                          map(roster.questions.__getitem__, q_idx.tolist()), g.w.tolist()))


def write_dense_matrix(g: ExamResultGraph, path) -> None:
    roster = g.roster
    cells = np.full((roster.n_students, roster.n_questions), "NA", dtype=object)
    cells[g.assignment.edge_arrays] = np.array(["0", "1"], dtype=object)[g.w]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", *roster.questions])
        for i, sid in enumerate(roster.students):
            out.writerow([sid, *cells[i]])


def write_merits(u: MeritVector, roster: Roster, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["vertex", "kind", "merit"])
        for v, merit in zip(np.flatnonzero(u.covered).tolist(), u.values[u.covered].tolist()):
            kind = "student" if roster.is_student_vertex(v) else "question"
            out.writerow([roster.vertex_label(v), kind, repr(merit)])


def read_merits(path, roster: Roster) -> MeritVector:
    rows = _read_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["vertex", "kind", "merit"]:
        raise MalformedRowError(1, "expected header 'vertex,kind,merit'")
    label_to_vertex = {label: v for v, label in enumerate(roster.students + roster.questions)}
    values = np.zeros(roster.n_vertices)
    covered = np.zeros(roster.n_vertices, dtype=bool)
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise MalformedRowError(line, f"expected 3 fields, got {len(row)}")
        label, kind, tok = (c.strip() for c in row)
        if label not in label_to_vertex:
            raise MalformedRowError(line, f"unknown vertex {label!r}")
        v = label_to_vertex[label]
        expected = "student" if roster.is_student_vertex(v) else "question"
        if kind != expected:
            raise MalformedRowError(line, f"vertex {label!r} is a {expected}, got kind {kind!r}")
        if covered[v]:
            raise MalformedRowError(line, f"vertex {label!r} repeats an earlier row")
        try:
            values[v] = float(tok)
        except ValueError:
            raise MalformedRowError(line, f"bad merit value {tok!r}") from None
        if not np.isfinite(values[v]):
            raise MalformedRowError(line, f"merit must be finite, got {tok!r}")
        covered[v] = True
    return MeritVector(values, covered)


def write_grades(grades: GradeVector, path) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", "grade", "rule"])
        for sid, v in zip(grades.roster.students, grades.values):
            out.writerow([sid, repr(float(v)), grades.rule_name])


def _csv_fields(ids) -> list[str]:
    """Each id as `csv.writer` writes it within a row: quoted only where it must be."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (field, "") for field in ids)  # not alone: a lone empty field is written as ""
    return [line[:-2] for line in lines]


def write_predictions(pm: PredictionMatrix, entries_path, tags_path) -> None:
    header = ",".join(_csv_fields(["student", *pm.roster.questions])) + "\n"
    students = _csv_fields(pm.roster.students)
    names = {case: case.name for case in PairCase}
    for path, matrix, cell in ((entries_path, pm.entries, repr),
                               (tags_path, pm.case_tags, names.__getitem__)):
        with open(path, "w", newline="") as fh:
            fh.write(header)
            # row by row: a whole-matrix .tolist() raises peak memory
            fh.writelines(f"{sid},{','.join(map(cell, row.tolist()))}\n"
                          for sid, row in zip(students, matrix))


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
