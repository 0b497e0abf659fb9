"""Serialization: exam data, merit vectors, grades, predictions, reports.

Two exam formats are supported, and `ingest` picks the reader from line 1.
The edge list is one row per assigned pair (`student,question,correct`). The
dense matrix has one row per student, one column per question, and cells in
{0, 1, NA} where NA means the pair was never assigned. A file in its writer's
form is read without csv, to csv's result: a sheet with no quote or NUL in an
id, no padded cell and `\n` after every line, else read again through csv from
line 1; an edge list in ASCII with no quote, CR, NUL, blank line or padded
field and `\n` after every line, else, or at a fault, read by csv. Each csv
reader names a fault in the one pass that reads the rows, at the line its row
ends on; a csv fault or a non-UTF-8 byte anywhere wins.
A merit file is the header `vertex,kind,merit`, then one row per vertex: its
id, `student` or `question`, and merit as a finite ASCII decimal number; the
reader needs every roster vertex.

Output contract of the writers: floats are written as their shortest
round-trip `repr`, ids are quoted as `csv.writer` quotes them, only when they
hold a comma, a quote or a line break (CR too), and every line ends with `\n`.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from contextlib import contextmanager
from itertools import chain, compress, islice, repeat
from operator import attrgetter
from types import SimpleNamespace
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .graph import ExamResultGraph, Roster, TaskAssignmentGraph
from .grading import GradeVector, PredictionMatrix
from .model import MeritVector


class MalformedRowError(ValueError):
    """A data file row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateEdgeError(MalformedRowError):
    """The same (student, question) pair appeared twice."""

    def __init__(self, line: int, pair: tuple[str, str]):
        super().__init__(line, f"duplicate pair {pair}")


class DimensionMismatchError(ValueError):
    """Row length or identifier set does not match the declared shape."""


EDGE_LIST = "edge-list"
DENSE_CSV = "dense-csv"
NA_TOKENS = {"NA", "", "NaN", "nan"}
_CELL_CODES = {"0": 0, "1": 1, **dict.fromkeys(NA_TOKENS, 2)}  # 2: never assigned
_NA_TO_2 = bytes.maketrans(b"N2", b"2x")  # with A deleted: NA -> 2, and a 2 is no cell
_EDGE_HEADER = ["student", "question", "correct"]
_MERIT_HEADER = ["vertex", "kind", "merit"]


def read_text(path) -> str:
    """The file's UTF-8 text without a BOM; a non-UTF-8 byte is a MalformedRowError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b".").splitlines())  # lines end as for csv.reader
        raise MalformedRowError(line, f"byte {data[exc.start]:#04x} is not UTF-8") from None


@contextmanager
def _reader(path):
    """A `csv.reader` over the file as it is read, as UTF-8 without a byte order
    mark; `line_num` is the line its last row ended on. A csv.Error raises
    MalformedRowError at its line; a non-UTF-8 byte anywhere in the file wins."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield (rows := csv.reader(fh))
    except UnicodeDecodeError:
        read_text(path)
        raise
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        read_text(path)
        raise MalformedRowError(rows.line_num, str(exc)) from None


def _fail(rows, fault: ValueError) -> NoReturn:
    """Raise `fault` once the rest of `rows` is read: a later csv or byte fault wins."""
    deque(rows, maxlen=0)
    raise fault from None


def ingest(path) -> ExamResultGraph:
    """Load an exam result graph from disk with the reader `detect_format` picks."""
    return read_edge_list(path) if detect_format(path) == EDGE_LIST else read_dense_matrix(path)


def detect_format(path) -> str:
    """EDGE_LIST if line 1, read as CSV, is the edge-list header (exactly its
    three fields), else DENSE_CSV; later faults are the reader's."""
    with _reader(path) as rows:
        header = [c.strip() for c in next(rows, ())]
    return EDGE_LIST if header == _EDGE_HEADER else DENSE_CSV


def read_edge_list(path) -> ExamResultGraph:
    return _read_canonical_edges(path) or _read_edge_csv(path)


def _read_canonical_edges(path) -> ExamResultGraph | None:
    """A canonical edge list's graph, else None; it raises only what the csv reader would."""
    text = read_text(path)  # raises the csv reader's error at a byte that is not UTF-8
    if not text.isascii() or not text.endswith("\n") or any(c in text for c in '"\r\0'):
        return None
    lines, fields = text.count("\n"), text.replace("\n", ",\n,").split(",")  # 4 a line
    if (fields[:3] != _EDGE_HEADER or len(fields) != 4 * lines + 1
            or fields[3::4].count("\n") != lines):  # a line of other than 3 fields
        return None
    sids, qids, toks = fields[4:-1:4], fields[5::4], fields[6::4]
    del text, fields  # before the index arrays, where memory peaks
    return _edge_graph(sids, qids, toks)


def _read_edge_csv(path) -> ExamResultGraph:
    with _reader(path) as rows:
        if [c.strip() for c in next(rows, ())] != _EDGE_HEADER:
            _fail(rows, MalformedRowError(1, "expected header 'student,question,correct'"))
        fields, lines, fault = [], [], None
        for row in filter(None, rows):  # blank rows are skipped
            if len(row) != 3:
                fault = MalformedRowError(rows.line_num, f"expected 3 fields, got {len(row)}")
                deque(rows, maxlen=0)  # a later csv or byte fault wins
                break
            fields.extend(row)
            lines.append(rows.line_num)
    sids, qids, toks = ([*map(str.strip, fields[k::3])] for k in range(3))
    if not fault and (g := _edge_graph(sids, qids, toks)):
        return g
    students, questions, seen = set(), set(), set()  # the first faulty row's error
    for line, sid, qid, tok in zip(lines, sids, qids, toks):
        if tok not in ("0", "1"):
            raise MalformedRowError(line, f"correctness must be 0 or 1, got {tok!r}")
        if (sid, qid) in seen:
            raise DuplicateEdgeError(line, (sid, qid))
        seen.add((sid, qid))
        students.add(sid)
        questions.add(qid)
        if sid in questions or qid in students:
            shared = sid if sid in questions else qid
            raise MalformedRowError(line, f"id {shared!r} is both a student and a question")
    raise fault or MalformedRowError(rows.line_num + 1, "no data rows")


def _edge_graph(sids, qids, toks) -> ExamResultGraph | None:
    """The graph of edge rows given as ids and tokens, or None at a fault; an id that
    `str.strip` changes or a field over csv's limit is one too, which no row csv read has."""
    # dicts keep first-seen order, so ids are indexed in file order
    students, questions = (dict(zip(dict.fromkeys(ids), range(len(ids))))
                           for ids in (sids, qids))
    ids = [*students, *questions]
    if (not sids or not set(toks) <= {"0", "1"} or not students.keys().isdisjoint(questions)
            or ids != [*map(str.strip, ids)]
            or max(map(len, _EDGE_HEADER + ids)) > csv.field_size_limit()):
        return None
    if (questions.keys() <= _CELL_CODES.keys() and len(students) == len(sids)
            and students.keys().isdisjoint(_EDGE_HEADER[1:])):  # the dense reader accepts it too
        raise MalformedRowError(1, "reads both as an edge list and as a 2-question dense sheet")
    s_idx = np.fromiter(map(students.__getitem__, sids), np.intp, len(sids))
    q_idx = np.fromiter(map(questions.__getitem__, qids), np.intp, len(qids))
    codes = s_idx * len(questions) + q_idx
    order = np.argsort(codes, kind="stable")
    if not np.diff(codes[order]).all():  # a duplicate pair sorts next to its twin
        return None
    bits = np.frombuffer("".join(toks).encode(), np.uint8) - ord("0")
    return _result_graph(students, questions, s_idx[order], q_idx[order], bits[order])


def _result_graph(students, questions, s_idx: np.ndarray, q_idx: np.ndarray, bits: np.ndarray):
    """Result graph from ids in index order, edges sorted by (student, question) and their bits."""
    roster = Roster(tuple(students), tuple(questions))
    return ExamResultGraph(TaskAssignmentGraph(roster, np.column_stack((s_idx, q_idx))), bits)


def read_dense_matrix(path) -> ExamResultGraph:
    return _read_canonical(path) or _read_dense_csv(path)  # once the first has freed its buffers


def _read_canonical(path) -> ExamResultGraph | None:
    """The sheet's graph if every row is canonical, else None at the first row that is not."""
    with _reader(path) as rows, open(path, encoding="utf-8-sig", newline="") as fh:
        header = [c.strip() for c in next(rows, ())]
        width, sids, cells, pairs = 2 * len(header) - 2, [], bytearray(), 0  # width: NA as 1 byte
        for sid, _, row in (line.partition(",") for line in islice(fh, rows.line_num, None)):
            pairs += (na := row.count("NA"))
            if '"' in sid or "\0" in sid or len(row) - na != width:  # a CR, pad, quote, nan, ...
                return None  # ... ends the read here; csv before Python 3.11 rejects NUL
            sids.append(sid)
            cells += row.encode().translate(_NA_TO_2, b"A")  # a byte past ASCII fails below
    students, questions = dict.fromkeys(map(str.strip, sids)), dict.fromkeys(header[1:])
    if (len(header) < 2 or header[0] not in ("student", "") or len(questions) < len(header) - 1
            or not sids or len(students) < len(sids) or not students.keys().isdisjoint(questions)
            or max(2, *map(len, sids)) > csv.field_size_limit()  # a cell "NA" is 2 long
            or len(cells) != len(sids) * width or cells.count(b"2") != pairs):  # no lone N, A
        return None
    grid = np.frombuffer(cells, np.uint8).reshape(len(sids), width)
    codes, seps = grid[:, ::2] - ord("0"), np.frombuffer(b"," * (width // 2 - 1) + b"\n", np.uint8)
    if codes.max() > 2 or (grid[:, 1::2] != seps).any():  # n rows of q cells 0, 1, 2
        return None
    s_idx, q_idx = np.nonzero(codes < 2)  # row-major: sorted by (student, question)
    return _result_graph(students, questions, s_idx, q_idx, codes[s_idx, q_idx])


def _read_dense_csv(path) -> ExamResultGraph:
    with _reader(path) as rows:
        header = [c.strip() for c in next(rows, ())]
        questions = dict.fromkeys(header[1:])
        if len(header) < 2 or header[0] not in ("student", ""):
            fault = "expected 'student' then question ids in the header"
        else:
            fault = len(questions) < len(header) - 1 and "duplicate question id in the header"
        if fault and any(rows):  # with no student row, the empty-body error below wins
            _fail(rows, MalformedRowError(1, fault))
        students, parts = {}, []
        for row in filter(None, rows):  # blank rows are skipped
            if len(row) != len(header):
                _fail(rows, DimensionMismatchError(
                    f"line {rows.line_num}: expected {len(header)} fields, got {len(row)}"))
            sid = row[0].strip()
            if sid in students or sid in questions:
                _fail(rows, MalformedRowError(
                    rows.line_num, f"student id {sid!r} repeats a student or question id"))
            students[sid] = None
            try:
                parts.append(bytes(map(_CELL_CODES.__getitem__, islice(row, 1, None))))
            except KeyError:  # a padded cell, or one that is no token
                cells = [c.strip() for c in row[1:]]
                if bad := [c for c in cells if c not in _CELL_CODES]:
                    _fail(rows, MalformedRowError(
                        rows.line_num, f"cell must be 0, 1, or NA, got {bad[0]!r}"))
                parts.append(bytes(map(_CELL_CODES.__getitem__, cells)))
    if not students:
        raise MalformedRowError(1, "need a header row and at least one student row")
    codes = np.frombuffer(b"".join(parts), np.uint8).reshape(len(students), -1)
    s_idx, q_idx = np.nonzero(codes < 2)  # row-major: sorted by (student, question)
    return _result_graph(students, questions, s_idx, q_idx, codes[s_idx, q_idx])


def _csv_lines(rows: Iterable) -> Iterator[str]:
    """Each row as `csv.writer` writes it, ending in "\n", with a field quoted where it holds
    a comma, a quote or a line break (with "\n" as its terminator, csv leaves a CR bare)."""
    out = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n")  # writerow returns the line
    return (out.writerow(row)[:-2] + "\n" for row in rows)


def _write_csv(path, header, rows: Iterable) -> None:
    """A header row, then `rows`, as `_csv_lines`."""
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_lines(chain([header], rows)))


def write_edge_list(g: ExamResultGraph, path) -> None:
    roster, (s_idx, q_idx) = g.roster, g.assignment.edge_arrays
    sids, qids = _csv_fields(roster.students), _csv_fields(roster.questions)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_EDGE_HEADER) + "\n")
        fh.writelines(f"{sids[i]},{qids[j]},{w}\n"
                      for i, j, w in zip(s_idx.tolist(), q_idx.tolist(), g.w.tolist()))


def write_dense_matrix(g: ExamResultGraph, path) -> None:
    codes = np.full((g.roster.n_students, g.roster.n_questions), 2, np.uint8)
    codes[g.assignment.edge_arrays] = g.w
    _write_matrix(path, g.roster, codes, ("0", "1", "NA").__getitem__)


def _vertex_kinds(roster: Roster) -> dict[str, str]:
    """Each roster vertex's kind by its label, in vertex order: a merit row's first two fields."""
    return dict.fromkeys(roster.students, "student") | dict.fromkeys(roster.questions, "question")


def write_merits(u: MeritVector, roster: Roster, path) -> None:
    rows = zip(_vertex_kinds(roster).items(), map(repr, u.values.tolist()), strict=True)
    _write_csv(path, _MERIT_HEADER, ((*pair, merit) for pair, merit in compress(rows, u.covered)))


def read_merits(path, roster: Roster) -> MeritVector:
    """The merit of every roster vertex; leaving one out is a DimensionMismatchError."""
    kinds = _vertex_kinds(roster)
    merits: dict[str, float] = {}
    with _reader(path) as rows:
        if [c.strip() for c in next(rows, ())] != _MERIT_HEADER:
            _fail(rows, MalformedRowError(1, f"expected header {','.join(_MERIT_HEADER)!r}"))
        for row in filter(None, rows):  # blank rows are skipped
            line = rows.line_num
            if len(row) != 3:
                _fail(rows, MalformedRowError(line, f"expected 3 fields, got {len(row)}"))
            label, kind, tok = (c.strip() for c in row)
            if label not in kinds:
                _fail(rows, MalformedRowError(line, f"unknown vertex {label!r}"))
            if kind != kinds[label]:
                _fail(rows, MalformedRowError(
                    line, f"vertex {label!r} is a {kinds[label]}, got kind {kind!r}"))
            if label in merits:
                _fail(rows, MalformedRowError(line, f"vertex {label!r} repeats an earlier row"))
            try:
                merits[label] = float(tok)
            except ValueError:
                _fail(rows, MalformedRowError(line, f"bad merit value {tok!r}"))
            if not np.isfinite(merits[label]):
                _fail(rows, MalformedRowError(line, f"merit must be finite, got {tok!r}"))
            if "_" in tok or not tok.isascii():  # float() reads "1_0" and "١٢" too
                _fail(rows, MalformedRowError(line, f"bad merit value {tok!r}"))
    if missing := [label for label in kinds if label not in merits]:
        raise DimensionMismatchError(f"{path}: no merit for vertex {missing[0]!r}")
    return MeritVector([merits[label] for label in kinds])


def write_grades(grades: GradeVector, path) -> None:
    _write_csv(path, ["student", "grade", "rule"],
               zip(grades.roster.students, map(repr, grades.values.tolist()),
                   repeat(grades.rule_name)))


def _csv_fields(ids) -> list[str]:
    """Each id as `csv.writer` writes it within a row: quoted only where it must be."""
    # not alone: a lone empty field is written as ""
    return [line[:-2] for line in _csv_lines((field, "") for field in ids)]


def _write_matrix(path, roster: Roster, matrix: np.ndarray, cell) -> None:
    """A header row of question ids, then each student's id and `cell` of each entry in its row."""
    with open(path, "w", newline="") as fh:
        corner = "" if list(roster.questions) == _EDGE_HEADER[1:] else "student"  # no edge-list header
        fh.write(",".join(_csv_fields([corner, *roster.questions])) + "\n")
        # row by row: a whole-matrix .tolist() raises peak memory
        fh.writelines(f"{sid},{','.join(map(cell, row.tolist()))}\n"
                      for sid, row in zip(_csv_fields(roster.students), matrix))


def write_predictions(pm: PredictionMatrix, entries_path, tags_path) -> None:
    _write_matrix(entries_path, pm.roster, pm.entries, repr)
    # `_name_` is a PairCase's name; `.name` and dict lookups run Python-level Enum code
    _write_matrix(tags_path, pm.roster, pm.case_tags, attrgetter("_name_"))


def write_tidy_report(rows: Iterable[tuple], path) -> None:
    """Plot-ready long format: one row per (parameter, rule, statistic)."""
    _write_csv(path, ["parameter", "value", "rule", "statistic", "estimate", "se"], rows)


def write_json_summary(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
