"""Reader and writer properties: round trips, fuzzed rows against a per-line
oracle, and the matrix writers' bytes against `csv.writer` oracles."""

import csv

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fairgrade import (ExamResultGraph, MeritVector, PairCase, PredictionMatrix, Roster,
                       TaskAssignmentGraph)
from fairgrade import io as fio

NA = ("NA", "", "NaN", "nan")
# ids that csv must quote (comma, quote, line break), or that need no quoting
ID_TEXT = st.text(alphabet='ab,"\n x', max_size=4).filter(lambda s: s == s.strip())


def unique_ids(prefix: str, min_size: int):
    return st.lists(ID_TEXT.map(lambda s: prefix + s), min_size=min_size, max_size=5,
                    unique=True)


@st.composite
def exams(draw, students=unique_ids("s", 1), questions=unique_ids("q", 1)):
    students, questions = draw(students), draw(questions)
    mask = np.array(draw(st.lists(st.booleans(), min_size=len(students) * len(questions),
                                  max_size=len(students) * len(questions))), dtype=bool)
    s_idx, q_idx = np.nonzero(mask.reshape(len(students), len(questions)))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(s_idx), max_size=len(s_idx)))
    g = TaskAssignmentGraph(Roster(tuple(students), tuple(questions)),
                            tuple(zip(s_idx.tolist(), q_idx.tolist())))
    return ExamResultGraph(g, np.array(bits, dtype=np.uint8))


def labelled(g: ExamResultGraph) -> dict[tuple[str, str], int]:
    r = g.roster
    return {(r.students[i], r.questions[j]): b for (i, j), b in g.outcomes.items()}


# ids with no prefix, built from the headers' words, cell tokens, csv's special
# characters, a space and a letter past ASCII
BARE_ID = st.lists(st.sampled_from(["student", "question", "correct", "0", "1", "NA", ",", '"',
                                    "\n", "\r", " ", "é", "a"]), max_size=3).map("".join)
BARE_IDS = st.lists(BARE_ID.filter(lambda s: s == s.strip()), min_size=1, max_size=4,
                    unique=True)


@st.composite
def bare_exams(draw):
    """An exam whose student and question ids are drawn from BARE_IDS, disjoint."""
    students = draw(BARE_IDS)
    questions = draw(BARE_IDS.map(lambda ids: [q for q in ids if q not in students])
                     .filter(bool))
    return draw(exams(st.just(students), st.just(questions)))


class TestRoundTrip:
    """Each writer's file reads back as what it wrote, whatever the ids."""

    @settings(max_examples=200, deadline=None)
    @given(bare_exams())
    def test_edge_list(self, tmp_path_factory, g):
        if g.assignment.n_edges == 0:
            return  # an edge list without rows is rejected, see the fuzz tests
        path = tmp_path_factory.mktemp("rt") / "exam.csv"
        fio.write_edge_list(g, path)
        roster, (s_idx, q_idx) = g.roster, g.assignment.edge_arrays
        students, questions = ([ids[i] for i in dict.fromkeys(idx.tolist())]
                               for ids, idx in ((roster.students, s_idx),
                                                (roster.questions, q_idx)))
        if reads_as_dense(students, questions, g.assignment.n_edges):
            event("reads as both layouts")
            with pytest.raises(fio.MalformedRowError, match="^line 1: reads both as an edge"):
                fio.ingest(path)
        else:
            assert labelled(fio.ingest(path)) == labelled(g)

    @settings(max_examples=200, deadline=None)
    @given(bare_exams())
    def test_dense_matrix(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("rt") / "exam.csv"
        fio.write_dense_matrix(g, path)
        assert fio.ingest(path) == g

    @settings(max_examples=200, deadline=None)
    @given(bare_exams(), st.data())
    def test_merits(self, tmp_path_factory, g, data):
        roster = g.roster
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=roster.n_vertices, max_size=roster.n_vertices))
        path = tmp_path_factory.mktemp("rt") / "merits.csv"
        fio.write_merits(MeritVector(values), roster, path)
        assert fio.read_merits(path, roster).values.tolist() == values


def cells(line: str) -> list[str]:
    """One unquoted CSV line as `csv.reader` splits it; a blank line has no fields."""
    return line.split(",") if line else []


def edge_list_oracle(lines: list[str]):
    """("ok", students, questions, outcomes) or (error class, faulty line)."""
    if not lines or [c.strip() for c in cells(lines[0])] != ["student", "question", "correct"]:
        return fio.MalformedRowError, 1
    students, questions, outcomes = [], [], {}
    for line, text in enumerate(lines[1:], start=2):
        row = [c.strip() for c in cells(text)]
        if not row:
            continue
        if len(row) != 3:
            return fio.MalformedRowError, line
        sid, qid, tok = row
        if tok not in ("0", "1"):
            return fio.MalformedRowError, line
        if (sid, qid) in outcomes:
            return fio.DuplicateEdgeError, line
        outcomes[sid, qid] = int(tok)
        students += [sid] if sid not in students else []
        questions += [qid] if qid not in questions else []
        if sid in questions or qid in students:
            return fio.MalformedRowError, line
    if not outcomes:
        return fio.MalformedRowError, len(lines) + 1
    if reads_as_dense(students, questions, len(outcomes)):
        return fio.MalformedRowError, 1
    return "ok", students, questions, outcomes


def reads_as_dense(students, questions, rows: int) -> bool:
    """Whether an edge list of these stripped ids also reads as the dense sheet of the
    questions `question` and `correct`: each question id is a cell token, no student
    repeats, and no student is `question` or `correct`."""
    return (set(questions) <= {"0", "1", *NA} and len(students) == rows
            and not {"question", "correct"} & set(students))


def dense_oracle(lines: list[str]):
    rows = [cells(text) for text in lines]
    body = [(line, row) for line, row in enumerate(rows[1:], start=2) if row]
    if not body:
        return fio.MalformedRowError, 1
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] not in ("student", ""):
        return fio.MalformedRowError, 1
    questions = header[1:]
    if len(set(questions)) != len(questions):
        return fio.MalformedRowError, 1
    students, outcomes = [], {}
    for line, row in body:
        if len(row) != len(header):
            return fio.DimensionMismatchError, line
        sid = row[0].strip()
        if sid in students or sid in questions:
            return fio.MalformedRowError, line
        students.append(sid)
        for qid, cell in zip(questions, (c.strip() for c in row[1:])):
            if cell in ("0", "1"):
                outcomes[sid, qid] = int(cell)
            elif cell not in NA:
                return fio.MalformedRowError, line
    return "ok", students, questions, outcomes


def mostly(common, rare):
    """`common` three times in four, else `rare`."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else common)


def fuzzed_file(header, row):
    blank = st.sampled_from(["", "  "])
    return st.tuples(st.booleans(), header, st.lists(mostly(row, blank), max_size=6),
                     st.booleans())


def check_against_oracle(tmp_path_factory, reader, oracle, parts, sniff=False):
    bom, header, rows, final_newline = parts
    lines = [header, *rows]
    text = "\n".join(lines) + ("\n" if final_newline else "")
    path = tmp_path_factory.mktemp("fuzz") / "exam.csv"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
    expected = oracle(text.splitlines())
    event("read" if expected[0] == "ok" else expected[0].__name__)
    if expected[0] != "ok":
        error, line = expected
        with pytest.raises(error) as exc:
            reader(path)
        assert type(exc.value) is error
        assert str(exc.value).startswith(f"line {line}:")
        return
    _, students, questions, outcomes = expected
    g = reader(path)
    assert g.roster.students == tuple(students)
    assert g.roster.questions == tuple(questions)
    assert labelled(g) == outcomes
    if sniff:  # auto-detection sends the file to the same reader
        assert fio.ingest(path) == g


# " a" and "a" are one id once stripped; "a" as a question is shared with a student
STUDENTS = st.sampled_from(["a", "b", "c", "d", " a", "e "])
QUESTIONS = mostly(st.sampled_from(["x", "y", "z", "w", "x "]), st.just("a"))
BITS = mostly(st.sampled_from(["0", "1", " 1", "0 "]), st.sampled_from(["2", "", "x", "01"]))
EDGE_ROW = mostly(
    st.tuples(STUDENTS, QUESTIONS, BITS).map(",".join),
    st.lists(st.one_of(STUDENTS, BITS), min_size=1, max_size=4).map(",".join),  # ragged
)
EDGE_HEADER = mostly(st.sampled_from(["student,question,correct", " student , question,correct "]),
                     st.sampled_from(["student,question", "student,question,correct,x", ""]))

CELLS = mostly(st.sampled_from(["0", "1", " 1", *NA, " NA "]), st.sampled_from(["2", "na", "x"]))
DENSE_ROW = st.tuples(mostly(STUDENTS, QUESTIONS),
                      mostly(st.lists(CELLS, min_size=2, max_size=2),
                             st.lists(CELLS, max_size=3))).map(lambda r: ",".join([r[0], *r[1]]))
DENSE_HEADER = mostly(st.sampled_from(["student,x,y", ",x,y", " student , x ,y"]),
                      st.sampled_from(["student,x,x", "student,x", "student", "id,x,y"]))


class TestFuzzedRows:
    @settings(max_examples=400, deadline=None)
    @given(fuzzed_file(EDGE_HEADER, EDGE_ROW))
    def test_edge_list(self, tmp_path_factory, parts):
        check_against_oracle(tmp_path_factory, fio.read_edge_list, edge_list_oracle, parts,
                             sniff=True)

    @settings(max_examples=400, deadline=None)
    @given(fuzzed_file(DENSE_HEADER, DENSE_ROW))
    def test_dense_matrix(self, tmp_path_factory, parts):
        check_against_oracle(tmp_path_factory, fio.read_dense_matrix, dense_oracle, parts)


def csv_writer_dense_matrix(g: ExamResultGraph, path) -> None:
    """The dense matrix writer as it was when every row went through `csv.writer`."""
    roster = g.roster
    cells = np.full((roster.n_students, roster.n_questions), "NA", dtype=object)
    cells[g.assignment.edge_arrays] = np.array(["0", "1"], dtype=object)[g.w]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["student", *roster.questions])
        for i, sid in enumerate(roster.students):
            out.writerow([sid, *cells[i]])


@settings(max_examples=150, deadline=None)
@given(exams())
def test_dense_matrix_bytes_match_csv_writer(tmp_path_factory, g):
    d = tmp_path_factory.mktemp("dense")
    fio.write_dense_matrix(g, d / "exam.csv")
    csv_writer_dense_matrix(g, d / "exam_ref.csv")
    assert (d / "exam.csv").read_bytes() == (d / "exam_ref.csv").read_bytes()


def csv_writer_predictions(pm: PredictionMatrix, entries_path, tags_path) -> None:
    """The prediction writer as it was when every cell went through `csv.writer`."""
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


@settings(max_examples=150, deadline=None)
@given(unique_ids("", 1), unique_ids("q", 1), st.data())
def test_prediction_bytes_match_csv_writer(tmp_path_factory, students, questions, data):
    students = [s for s in students if s not in questions] or ["s"]
    shape = (len(students), len(questions))
    values = data.draw(st.lists(st.floats(0, 1), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    codes = data.draw(st.lists(st.sampled_from(list(PairCase)), min_size=len(values),
                               max_size=len(values)))
    pm = PredictionMatrix(Roster(tuple(students), tuple(questions)),
                          np.array(values).reshape(shape),
                          np.array(codes, dtype=object).reshape(shape))
    d = tmp_path_factory.mktemp("pred")
    fio.write_predictions(pm, d / "h.csv", d / "cases.csv")
    csv_writer_predictions(pm, d / "h_ref.csv", d / "cases_ref.csv")
    assert (d / "h.csv").read_bytes() == (d / "h_ref.csv").read_bytes()
    assert (d / "cases.csv").read_bytes() == (d / "cases_ref.csv").read_bytes()
