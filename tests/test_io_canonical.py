"""The dense reader's two paths: a canonical sheet, as `write_dense_matrix`
writes it, is read without csv; every other sheet goes to `_read_dense_csv`,
and both paths give the same graph, or the same error at the same line."""

import csv

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fairgrade import ExamResultGraph, MeritVector, Roster, TaskAssignmentGraph, graph, model
from fairgrade import io as fio

# ids that csv need not quote, with inner spaces and letters beyond ASCII
ID_TEXT = st.text(alphabet="ab 1é", max_size=3).map(str.strip)
LONG_ID = "s" * 40


def unique_ids(prefix: str):
    return st.lists(ID_TEXT.map(lambda s: prefix + s), min_size=1, max_size=5, unique=True)


@st.composite
def canonical_sheets(draw):
    """An exam whose sheet `write_dense_matrix` writes with a random share of NA cells."""
    students, questions = draw(unique_ids("s")), draw(unique_ids("q"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s_idx, q_idx = np.nonzero(rng.random((len(students), len(questions))) >= draw(st.floats(0, 1)))
    g = TaskAssignmentGraph(Roster(tuple(students), tuple(questions)),
                            tuple(zip(s_idx.tolist(), q_idx.tolist())))
    return ExamResultGraph(g, rng.integers(0, 2, len(s_idx)).astype(np.uint8))


# Each edit changes the sheet's lines (line 0 is the header) at body line `row`,
# drawing its choices from `data`.

def insert(char):
    def edit(lines, row, data):
        at = data.draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + char + lines[row][at:]
    return edit


def replace_cell(tokens):
    """Replace one cell `c` with one of `tokens`, each a format string of `c`."""
    def edit(lines, row, data):
        cells = lines[row].split(",")
        k = data.draw(st.integers(1, len(cells) - 1))
        cells[k] = data.draw(st.sampled_from(tokens)).format(c=cells[k])
        lines[row] = ",".join(cells)
    return edit


def replace_id(choose):
    """Replace the row's id with one drawn from `choose(lines)`."""
    def edit(lines, row, data):
        lines[row] = data.draw(st.sampled_from(choose(lines))) + "," + lines[row].partition(",")[2]
    return edit


def replace_separator(lines, row, data):
    at = data.draw(st.sampled_from([i for i, char in enumerate(lines[row]) if char == ","]))
    lines[row] = lines[row][:at] + data.draw(st.sampled_from(";\t ")) + lines[row][at + 1:]


def drop_cells(lines, row, data):
    lines[row] = lines[row].partition(",")[0]


def replace_header(lines, row, data):
    """A first cell csv reads alike, or one it does not; all questions, or only the first."""
    first = data.draw(st.sampled_from(["", " student ", '"student"', "pupil", "student,"]))
    rest = data.draw(st.sampled_from([lines[0].partition(",")[2], lines[0].split(",")[1]]))
    lines[0] = first + "," + rest


def move_cell(lines, row, data):
    """Move the row's last cell to the end of a row: the sheet's cell count stays."""
    lines[row], _, cell = lines[row].rpartition(",")
    lines[data.draw(st.integers(1, len(lines) - 1))] += "," + cell


EDITS = {
    "none": lambda lines, row, data: None,
    "quote": insert('"'),
    "cr": insert("\r"),
    "nul": insert("\0"),  # csv rejects it on Python 3.10 and reads it on later versions
    "padded-cell": replace_cell([" {c}", "{c} "]),
    "nan-cell": replace_cell(["nan"]),
    "empty-cell": replace_cell([""]),
    # tokens that a reader of bytes could take for 0, 1 or NA
    "other-cell": replace_cell(["2", "N", "A", "AN", "NAA", "NNA", "00", "é", "x"]),
    "ragged": replace_cell(["{c},{c}", "{c},"]),
    "separator": replace_separator,
    "cell-moved": move_cell,
    "id-alone": drop_cells,
    "blank-line": lambda lines, row, data: lines.insert(row, ""),
    "repeated-id": replace_id(lambda lines: [" " + line.partition(",")[0] for line in lines[1:]]),
    "clash": replace_id(lambda lines: lines[0].split(",")[1:]),
    "oversized-id": replace_id(lambda lines: [LONG_ID]),
    "header": replace_header,
}


def outcome(reader, path):
    try:
        return reader(path)
    except (fio.MalformedRowError, fio.DimensionMismatchError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("edit", EDITS)
@settings(max_examples=60, deadline=None)
@given(g=canonical_sheets(), bom=st.booleans(), data=st.data())
def test_both_paths_read_alike(tmp_path_factory, edit, g, bom, data):
    path = tmp_path_factory.mktemp("sheet") / "exam.csv"
    fio.write_dense_matrix(g, path)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    EDITS[edit](lines, data.draw(st.integers(1, len(lines) - 1)), data)
    path.write_bytes(("\ufeff" if bom else "").encode() + ("\n".join(lines) + "\n").encode())
    # an id as long as the field limit is read; one longer is a csv fault
    limit = len(LONG_ID) - data.draw(st.integers(0, 1)) if edit == "oversized-id" else None
    saved = csv.field_size_limit(limit) if limit else None
    try:
        fast, slow = outcome(fio.read_dense_matrix, path), outcome(fio._read_dense_csv, path)
    finally:
        if saved:
            csv.field_size_limit(saved)
    event(f"{edit}: {'read' if isinstance(slow, ExamResultGraph) else slow[0].__name__}")
    assert fast == slow
    if edit == "none":
        assert fast == g and fio._read_canonical(path) is not None


def test_written_sheet_never_reaches_csv(tmp_path, monkeypatch):
    roster = Roster.index_based(1000, 200)
    u = MeritVector.for_roster(roster, [0.0] * 1000, [0.0] * 200)
    g = model.sample_exam_result(graph.generate_assignment(roster, 200, 3, 0), u, 1)
    path, padded = tmp_path / "exam.csv", tmp_path / "padded.csv"
    fio.write_dense_matrix(g, path)
    padded.write_text(path.read_text().replace(",1,", ", 1,", 1))

    def refuse(path):
        raise AssertionError(f"{path.name} was read through csv")

    monkeypatch.setattr(fio, "_read_dense_csv", refuse)
    assert fio.read_dense_matrix(path) == g
    assert fio.ingest(path) == g
    with pytest.raises(AssertionError, match="padded.csv was read through csv"):
        fio.read_dense_matrix(padded)


@pytest.mark.parametrize("row", ["s0,0,1\r", '"s0",0,1', "s0, 0,1", "s0,0,nan", "s0,0"],
                         ids=["crlf", "quote", "padded", "nan", "ragged"])
def test_first_row_in_another_form_ends_the_fast_read(tmp_path, row):
    """The fast read stops at the first row it cannot take: a byte that is not
    UTF-8 far below that row is left for the csv reader to name."""
    path = tmp_path / "exam.csv"
    body = "".join(f"s{i},1,0\n" for i in range(1, 20000))
    path.write_bytes(f"student,q0,q1\n{row}\n{body}".encode() + b"s\xff,1,0\n")
    assert fio._read_canonical(path) is None
    with pytest.raises(fio.MalformedRowError, match="^line 20002: byte 0xff is not UTF-8"):
        fio.read_dense_matrix(path)
