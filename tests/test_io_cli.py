import csv
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fairgrade import (
    ExamResultGraph,
    MeritVector,
    Roster,
    TaskAssignmentGraph,
    generate_assignment,
    predict_matrix,
    sample_exam_result,
    simple_average,
)
from fairgrade import cli, graph, model
from fairgrade import io as fio
from fairgrade import simulation as sim
from fairgrade.cli import parse_int_list, load_config_file, run
from fairgrade.rng import substream

from conftest import RUNNING_OUTCOMES, random_result_graph


def write(path, text):
    path.write_text(text)
    return str(path)


RUNNING_CSV = "student,question,correct\n" + "".join(
    f"S{i+1},Q{j+1},{b}\n" for (i, j), b in sorted(RUNNING_OUTCOMES.items())
)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_result_graph(rng, 4, 5)
        path = tmp_path / "exam.csv"
        fio.write_edge_list(g, path)
        back = fio.ingest(path, fio.EDGE_LIST)
        assert back.outcomes == {
            (g.roster.students[i], g.roster.questions[j]): b
            for (i, j), b in g.outcomes.items()
        } or back == g  # identical ids when roster uses default labels
        assert back == g

    def test_rejects_bad_header_and_values(self, tmp_path):
        p = write(tmp_path / "a.csv", "foo,bar\n")
        with pytest.raises(fio.MalformedRowError):
            fio.read_edge_list(p)
        p = write(tmp_path / "b.csv", "student,question,correct\nS1,Q1,2\n")
        with pytest.raises(fio.MalformedRowError) as exc:
            fio.read_edge_list(p)
        assert exc.value.line == 2

    def test_rejects_duplicates(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "student,question,correct\nS1,Q1,1\nS1,Q1,0\n")
        with pytest.raises(fio.DuplicateEdgeError) as exc:
            fio.read_edge_list(p)
        assert exc.value.line == 3

    def test_rejects_id_that_is_student_and_question(self, tmp_path):
        p = write(tmp_path / "e.csv", "student,question,correct\na,b,1\nb,c,0\n")
        with pytest.raises(fio.MalformedRowError) as exc:
            fio.read_edge_list(p)
        assert exc.value.line == 3 and "'b'" in str(exc.value)

    def test_single_row(self, tmp_path):
        p = write(tmp_path / "d.csv", "student,question,correct\nA,B,1\n")
        g = fio.read_edge_list(p)
        assert g.roster.students == ("A",) and g.roster.questions == ("B",)
        assert g.assignment.n_edges == 1


class TestDenseMatrix:
    def test_round_trip_with_na(self, tmp_path):
        r = Roster.index_based(2, 3)
        g = TaskAssignmentGraph(r, ((0, 0), (0, 2), (1, 1)))
        res = ExamResultGraph(g, np.array([1, 0, 1]))
        path = tmp_path / "dense.csv"
        fio.write_dense_matrix(res, path)
        assert fio.ingest(path, fio.DENSE_CSV) == res

    def test_na_cells_are_non_edges(self, tmp_path):
        p = write(tmp_path / "m.csv", "student,q1,q2\nA,1,NA\nB,NA,0\n")
        g = fio.read_dense_matrix(p)
        assert g.assignment.edges.tolist() == [[0, 0], [1, 1]]
        assert g.w.tolist() == [1, 0]

    def test_rejects_bad_cell_with_line_number(self, tmp_path):
        p = write(tmp_path / "m.csv", "student,q1\nA,1\nB,2\n")
        with pytest.raises(fio.MalformedRowError) as exc:
            fio.read_dense_matrix(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("body, line", [
        ("student,q1,q2\ns1,1,0\ns1,0,1\n", 3),  # a repeated student row
        ("student,q1,q2\ns1,1,0\nq2,0,1\n", 3),  # a student id that is a question id
        ("student,q1,q1\ns1,1,0\n", 1),  # a repeated question id
        ("student,q1\n\n\n", 1),  # blank lines only
    ])
    def test_rejects_id_faults_with_line_number(self, tmp_path, body, line):
        p = write(tmp_path / "m.csv", body)
        with pytest.raises(fio.MalformedRowError) as exc:
            fio.read_dense_matrix(p)
        assert exc.value.line == line
        assert run_cli("grade", "--input", p, "--outdir", str(tmp_path / "out")) == 3

    def test_rejects_ragged_rows(self, tmp_path):
        p = write(tmp_path / "m.csv", "student,q1,q2\nA,1\n")
        with pytest.raises(fio.DimensionMismatchError):
            fio.read_dense_matrix(p)

    @pytest.mark.parametrize("body, error, line", [
        # two faults of different kinds: the one on the earlier line wins, whichever
        # whole-body check fails first
        ("student,q1,q2\ns1,x,0\ns2,1\n", fio.MalformedRowError, 2),
        ("student,q1,q2\ns1,1\ns1,0,1\n", fio.DimensionMismatchError, 2),
        # the padded cell passes the stripped retry, the bad cell after it does not
        ("student,q1,q2\ns1, 1,0\ns2,0,x\n", fio.MalformedRowError, 3),
    ])
    def test_first_fault_in_file_order(self, tmp_path, body, error, line):
        with pytest.raises(error, match=f"^line {line}:"):
            fio.read_dense_matrix(write(tmp_path / "m.csv", body))

    def test_padded_cells(self, tmp_path):
        p = write(tmp_path / "m.csv", "student,q1,q2\ns1, 1, NA \ns2,0 ,1\n")
        g = fio.read_dense_matrix(p)
        assert g.assignment.edges.tolist() == [[0, 0], [1, 0], [1, 1]]
        assert g.w.tolist() == [1, 0, 1]

    def test_complete_matrix(self, tmp_path):
        body = "student," + ",".join(f"q{j}" for j in range(4)) + "\n"
        rng = np.random.default_rng(1)
        for i in range(3):
            body += f"s{i}," + ",".join(str(int(b)) for b in rng.integers(0, 2, 4)) + "\n"
        g = fio.read_dense_matrix(write(tmp_path / "full.csv", body))
        assert g.assignment.n_edges == 12


@pytest.mark.parametrize("writer", [fio.write_edge_list, fio.write_dense_matrix])
def test_byte_order_mark_is_ignored(tmp_path, writer):
    g = random_result_graph(np.random.default_rng(5), 4, 3)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    writer(g, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    fmt = fio.detect_format(plain)
    assert fio.detect_format(marked) == fmt
    assert fio.ingest(marked, fmt) == fio.ingest(plain, fmt) == g


BIG = b"9" * (128 * 1024 + 1)  # one field over csv.field_size_limit()


class TestFaultsTheFuzzMisses:
    """Files that TestFuzzedRows does not generate. A csv or decoding fault
    anywhere in the file wins over a header or row fault."""

    @pytest.mark.parametrize("reader, body, error, message", [
        # a quoted comma or line break; a row fault names the line the row ends on
        ("edge", b'student,question,correct\n"s,1",q1,1\n"s\n2",q2,0\ns3,q3,2\n',
         fio.MalformedRowError, "line 5: correctness must be 0 or 1, got '2'"),
        ("dense", b'student,q1,q2\n"s,1",1,0\n"s\n2",0,NA\ns3,1,x\n',
         fio.MalformedRowError, "line 5: cell must be 0, 1, or NA, got 'x'"),
        ("merits", b'vertex,kind,merit\n"s\n0",student,0.5\nq0,question,x\n',
         fio.MalformedRowError, "line 4: bad merit value 'x'"),
        # lines that end in a bare carriage return
        ("edge", b"student,question,correct\rs1,q1,1\rs2,q2\rs3,q3,1\r",
         fio.MalformedRowError, "line 3: expected 3 fields, got 2"),
        ("dense", b"student,q1,q2\rs1,1,0\rs2,0,2\r",
         fio.MalformedRowError, "line 3: cell must be 0, 1, or NA, got '2'"),
        ("dense", b"student,q1\rs1,1\rs2,\xff\r",
         fio.MalformedRowError, "line 3: byte 0xff is not UTF-8"),
        # an oversized field wins over a ragged row, before it or after it
        ("dense", b"student,q1\ns1," + BIG + b"\ns2,1,0\n",
         fio.MalformedRowError, "line 2: field larger than field limit (131072)"),
        ("dense", b"student,q1\ns1,1,0\ns2," + BIG + b"\n",
         fio.MalformedRowError, "line 3: field larger than field limit (131072)"),
        ("edge", b"student,question,correct\ns1,q1\ns2,q2," + BIG + b"\n",
         fio.MalformedRowError, "line 3: field larger than field limit (131072)"),
        # a byte that is not UTF-8 wins over a bad cell, before it or after it
        ("dense", b"student,q1,q2\ns1,\xff,0\ns2,1,x\n",
         fio.MalformedRowError, "line 2: byte 0xff is not UTF-8"),
        ("dense", b"student,q1,q2\ns1,1,x\ns2,1,\xfe\n",
         fio.MalformedRowError, "line 3: byte 0xfe is not UTF-8"),
        ("edge", b"student,question,correct\ns1,q1,7\ns2,q\xe9,1\n",
         fio.MalformedRowError, "line 3: byte 0xe9 is not UTF-8"),
        ("dense", b"student,q1\ns1,x\n" + b"".join(b"s%d,1\n" % i for i in range(2, 3000))
         + b"s\xff,1\n", fio.MalformedRowError, "line 3001: byte 0xff is not UTF-8"),
        ("merits", b'vertex,kind,merit\n"s\n0",student,x\nq0,question,\xff\n',
         fio.MalformedRowError, "line 4: byte 0xff is not UTF-8"),
        # an oversized field wins over a bad header
        ("edge", b"name,question,correct\ns1,q1," + BIG + b"\n",
         fio.MalformedRowError, "line 2: field larger than field limit (131072)"),
        ("dense", b"pupil,q1\ns1," + BIG + b"\n",
         fio.MalformedRowError, "line 2: field larger than field limit (131072)"),
        # a header, then only blank lines
        ("edge", b"student,question,correct\n\n\n",
         fio.MalformedRowError, "line 4: no data rows"),
        ("dense", b"student,q1,q2\n\n\n",
         fio.MalformedRowError, "line 1: need a header row and at least one student row"),
    ], ids=["edge-quoted", "dense-quoted", "merits-quoted", "edge-cr", "dense-cr",
            "dense-cr-byte", "dense-big-then-ragged", "dense-ragged-then-big",
            "edge-ragged-then-big", "dense-byte-then-cell", "dense-cell-then-byte",
            "edge-cell-then-byte", "dense-cell-then-byte-past-8-KB", "merits-value-then-byte",
            "edge-header-and-big", "dense-header-and-big", "edge-blank-body", "dense-blank-body"])
    def test_error_and_line(self, tmp_path, reader, body, error, message):
        path = tmp_path / "exam.csv"
        path.write_bytes(body)
        read = {"edge": fio.read_edge_list, "dense": fio.read_dense_matrix,
                "merits": lambda p: fio.read_merits(p, Roster(("s\n0",), ("q0",)))}[reader]
        with pytest.raises(error) as exc:
            read(path)
        assert type(exc.value) is error and str(exc.value) == message
        assert exc.value.line == int(message.split(":")[0].removeprefix("line "))


def test_reading_holds_one_row_at_a_time(tmp_path):
    """A 1000 x 200 sheet (600 KB) reads in well under the 14 MB that a list of
    its rows takes, also when its last row is faulty, and sniffing its format
    decodes only its start."""
    roster = Roster.index_based(1000, 200)
    g = graph.generate_assignment(roster, 200, 3, 0)
    u = MeritVector.for_roster(roster, [0.0] * 1000, [0.0] * 200)
    path, faulty = tmp_path / "exam.csv", tmp_path / "faulty.csv"
    fio.write_dense_matrix(model.sample_exam_result(g, u, 1), path)
    faulty.write_text(path.read_text().rstrip("\n").rpartition(",")[0] + ",x\n")

    def read_faulty(path):
        with pytest.raises(fio.MalformedRowError, match="^line 1001: cell must be"):
            fio.read_dense_matrix(path)

    for call, file, bound in ((fio.read_dense_matrix, path, 2e6), (read_faulty, faulty, 2e6),
                              (fio.detect_format, path, 1e5)):
        tracemalloc.start()
        try:
            call(file)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (call.__name__, peak)


@pytest.mark.parametrize("header", ['"student",question,correct', " student , question,correct "])
def test_edge_header_is_read_as_csv(tmp_path, header):
    p = write(tmp_path / "exam.csv", header + "\n" + RUNNING_CSV.split("\n", 1)[1])
    assert fio.detect_format(p) == fio.EDGE_LIST
    assert run_cli("grade", "--input", p, "--outdir", str(tmp_path / "out")) == 0


class TestMeritsAndGrades:
    def test_merit_round_trip(self, tmp_path):
        r = Roster.index_based(2, 2)
        u = MeritVector.for_roster(r, [0.25, -0.75], [1.5, -1.0])
        path = tmp_path / "merits.csv"
        fio.write_merits(u, r, path)
        back = fio.read_merits(path, r)
        for v in range(r.n_vertices):
            assert back[v] == u[v]

    def test_merit_unknown_vertex(self, tmp_path):
        r = Roster.index_based(1, 1)
        p = write(tmp_path / "u.csv", "vertex,kind,merit\nnope,student,0.0\n")
        with pytest.raises(fio.MalformedRowError):
            fio.read_merits(p, r)

    @pytest.mark.parametrize("body, line", [
        ("s0,student,0.1\ns0,student,0.2\n", 3),  # a repeated vertex
        ("q0,question,0.0\ns0,question,0.1\n", 3),  # a student given as a question
        ("s0,student,nan\n", 2),
        ("q0,question,-inf\n", 2),
    ])
    def test_merit_row_faults(self, tmp_path, body, line):
        r = Roster.index_based(1, 1)
        p = write(tmp_path / "u.csv", "vertex,kind,merit\n" + body)
        with pytest.raises(fio.MalformedRowError) as exc:
            fio.read_merits(p, r)
        assert exc.value.line == line

    def test_merit_file_must_cover_the_roster(self, tmp_path):
        r = Roster.index_based(2, 1)
        p = write(tmp_path / "u.csv", "vertex,kind,merit\ns0,student,0.1\nq0,question,0.0\n")
        with pytest.raises(fio.DimensionMismatchError, match="no merit for vertex 's1'"):
            fio.read_merits(p, r)

    def test_grade_csv_format(self, tmp_path, running_example):
        grades = simple_average(running_example)
        path = tmp_path / "grades.csv"
        fio.write_grades(grades, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "student,grade,rule"
        assert lines[1] == "s0,0.5,avg"

    def test_prediction_export(self, tmp_path, running_example):
        pm = predict_matrix(running_example)
        fio.write_predictions(pm, tmp_path / "h.csv", tmp_path / "cases.csv")
        cases = (tmp_path / "cases.csv").read_text().splitlines()
        assert cases[0] == "student,q0,q1,q2"
        assert "STUDENT_ABOVE" in cases[2]  # s1's q2 cell


class TestCliHelpers:
    def test_readme_commands_parse(self, tmp_path, monkeypatch):
        """Every `fairgrade` line of README's sh blocks parses, so the docs
        name no flag or value the parser rejects. The parser checks that an
        input file exists, so the files the lines name are made, empty."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
        lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("fairgrade ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = shlex.split(line)[1:]
            for flag, value in zip(argv, argv[1:]):
                if flag in ("--input", "--merits"):
                    Path(value).touch()
            cli._parse(argv)

    def test_parse_int_list(self):
        assert parse_int_list("3") == [3]
        assert parse_int_list("1,4, 6") == [1, 4, 6]
        assert parse_int_list("2..5") == [2, 3, 4, 5]

    def test_config_file(self, tmp_path):
        p = write(tmp_path / "run.cfg", "seed = 7\n# comment\nreps=10\nd-values=1..3\n")
        cfg = load_config_file(p)
        assert cfg == {"seed": "7", "reps": "10", "d_values": "1..3"}


@pytest.fixture
def exam_file(tmp_path):
    return write(tmp_path / "exam.csv", RUNNING_CSV)


def run_cli(*argv):
    return run(list(argv))


@pytest.fixture
def complete_file(tmp_path):
    rng = np.random.default_rng(8)
    body = "student," + ",".join(f"q{j}" for j in range(5)) + "\n"
    for i in range(6):
        body += f"s{i}," + ",".join(map(str, rng.integers(0, 2, 5))) + "\n"
    return write(tmp_path / "full.csv", body)


class TestConfigFile:
    """A config file's lines are parsed as flags, by the same parser."""

    @pytest.mark.parametrize("command, line", [
        ("grade", "rule=ourz"),
        ("fit", "method=mlee"),
        ("grade", "tol=0"),
        ("grade", "max-iter=0"),
        ("simulate-bias", "reps=0"),
        ("sweep-degree", "d_values=1..3"),  # keys are flag names, not dests
        ("cv", "threshold_table=yes"),  # a switch is a bare key
        ("grade", "no-such-flag=1"),
        ("sweep-degree", "d=3..2"),  # an empty list
        ("simulate-bias", "rules=ours,bogus"),
        ("grade", "tol=inf"),
        ("simulate-bias", "seed=-1"),
        ("simulate-bias", "students=0"),
        ("sweep-bank", "difficulty-range=nan,1"),
        ("grade", "question-std=1e-160"),  # its inverse square overflows
        ("simulate-bias", "rules=ours,ours"),  # a repeated entry
        ("sweep-degree", "d=2,2"),
        ("sweep-degree", "d=3,,1"),  # an empty list entry
        ("sweep-degree", "d=3,"),
    ])
    def test_bad_values_exit_2(self, tmp_path, exam_file, capsys, command, line):
        base = {
            "grade": f"input={exam_file}\n",
            "fit": f"input={exam_file}\n",
            "simulate-bias": "students=3\nquestions=4\nm=4\nd=2\nseed=1\n",
            "sweep-degree": "students=3\nquestions=4\nm=4\nd=1..2\nseed=1\n",
            "sweep-bank": "students=3\nm=2..3\nd=2\nseed=1\n",
            "cv": f"input={exam_file}\nd1=2\nd2=2\nseed=1\n",
        }[command]
        cfg = write(tmp_path / "run.cfg", base + line + "\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", cfg, "--outdir", str(out)) == 2
        assert not (out / "manifest.json").exists()
        # the parser names the faulty flag
        assert f"--{line.partition('=')[0].replace('_', '-')}" in capsys.readouterr().err

    def test_config_flag_without_value_exits_2(self):
        assert run_cli("grade", "--config") == 2

    def test_undecodable_config_line_exits_2(self, tmp_path, exam_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"input={exam_file}\nrule=av\xe9\n".encode("latin-1"))
        assert run_cli("grade", "--config", str(cfg), "--outdir", str(tmp_path)) == 2
        assert "line 2: byte 0xe9 is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, lines", [
        (["cv", "--input", "{complete}", "--d1", "3..4", "--d2", "2,5", "--reps", "4",
          "--seed", "3"],
         "input={complete}\nd1=3..4\nd2=2,5\nreps=4\nseed=3\n"),
        (["sweep-degree", "--students", "3", "--questions", "4", "--m", "4", "--d", "1..3",
          "--graphs", "2", "--reps", "5", "--seed", "7"],
         "students=3\nquestions=4\nm=4\nd=1..3\ngraphs=2\nreps=5\nseed=7\n"),
        # a list value that starts with a minus sign follows its flag as is
        (["sweep-bank", "--students", "3", "--m", "2..3", "--d", "2", "--graphs", "2",
          "--reps", "3", "--abilities", "-0.5,0.25,-1", "--difficulty-range", "-3.09,2.099",
          "--seed", "4"],
         "students=3\nm=2..3\nd=2\ngraphs=2\nreps=3\nabilities=-0.5,0.25,-1\n"
         "difficulty-range=-3.09,2.099\nseed=4\n"),
    ], ids=["cv", "sweep-degree", "sweep-bank"])
    def test_file_matches_flags(self, tmp_path, complete_file, argv, lines):
        argv = [a.format(complete=complete_file) for a in argv]
        cfg = write(tmp_path / "run.cfg", lines.format(complete=complete_file))
        assert run_cli(*argv, "--outdir", str(tmp_path / "flags")) == 0
        assert run_cli(argv[0], "--config", cfg, "--outdir", str(tmp_path / "file")) == 0
        for name in ("report.csv", "summary.json"):
            assert ((tmp_path / "flags" / name).read_bytes()
                    == (tmp_path / "file" / name).read_bytes())

    def test_bare_key_is_a_switch(self, tmp_path, complete_file):
        cfg = write(tmp_path / "run.cfg", "d1=4\nd2=3,5\nreps=4\nseed=3\nthreshold-table\n")
        out = tmp_path / "out"
        assert run_cli("cv", "--config", cfg, "--input", complete_file,
                       "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["threshold_table"]) == {"4"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["threshold_table"] is True
        assert manifest["config"]["config"] == cfg


class TestCli:
    def test_grade_ours(self, exam_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("grade", "--input", exam_file, "--rule", "ours",
                       "--outdir", str(out)) == 0
        lines = (out / "grades.csv").read_text().splitlines()
        grades = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert grades["S2"] == pytest.approx(2 / 3)
        # the (S2, Q3) prediction is exactly 1
        preds = (out / "predictions.csv").read_text().splitlines()
        assert float(preds[2].split(",")[3]) == 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "grade"

    def test_grade_avg_complete_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        body = "student,q0,q1,q2\n"
        mat = rng.integers(0, 2, (3, 3))
        for i in range(3):
            body += f"s{i}," + ",".join(map(str, mat[i])) + "\n"
        path = write(tmp_path / "full.csv", body)
        out = tmp_path / "out"
        assert run_cli("grade", "--input", path, "--rule", "avg",
                       "--outdir", str(out)) == 0
        lines = (out / "grades.csv").read_text().splitlines()
        for i, row in enumerate(lines[1:]):
            assert float(row.split(",")[1]) == pytest.approx(mat[i].mean())

    def test_fit_and_exit_codes(self, exam_file, tmp_path):
        out = tmp_path / "out"
        # running example is not strongly connected -> numeric failure for mle
        assert run_cli("fit", "--input", exam_file, "--method", "mle",
                       "--outdir", str(out)) == 4
        assert run_cli("fit", "--input", exam_file, "--method", "map",
                       "--outdir", str(out)) == 0
        merits = (out / "merits.csv").read_text().splitlines()
        assert merits[0] == "vertex,kind,merit"
        assert len(merits) == 1 + 9

    def test_missing_input_is_config_error(self, tmp_path, capsys):
        nope = str(tmp_path / "nope.csv")
        population = ("--students", "3", "--questions", "3", "--m", "3", "--d", "2")
        for argv in [("grade", "--input", nope),
                     ("cv", "--input", nope, "--d1", "2", "--d2", "2", "--seed", "1"),
                     ("simulate-bias", *population, "--merits", nope, "--seed", "1"),
                     ("verify", *population, "--merits", nope),
                     ("grade", "--config", write(tmp_path / "run.cfg", f"input={nope}\n"))]:
            assert run_cli(*argv, "--outdir", str(tmp_path)) == 2, argv
            assert "expected an existing file" in capsys.readouterr().err
        # a path that exists but cannot be read as a file is a data error
        assert run_cli("grade", "--input", str(tmp_path), "--outdir", str(tmp_path)) == 3

    def test_bad_data_is_data_error(self, tmp_path):
        p = write(tmp_path / "bad.csv", "student,question,correct\nS1,Q1,7\n")
        assert run_cli("grade", "--input", p, "--outdir", str(tmp_path)) == 3

    def test_shared_id_in_edge_list_is_data_error(self, tmp_path):
        p = write(tmp_path / "shared.csv", "student,question,correct\na,b,1\nb,c,0\n")
        assert run_cli("grade", "--input", p, "--outdir", str(tmp_path)) == 3

    @pytest.mark.parametrize("body, message", [
        (b"student,question,correct\nS1,Q1,1\nS2,Q\xff,0\n", "line 3: byte 0xff is not UTF-8"),
        (b"student,q1\nS1,1\nS2," + b"1" * (128 * 1024 + 1) + b"\n",
         "line 3: field larger than field limit"),
    ], ids=["not-utf-8", "field-over-128-KiB"])
    def test_unreadable_text_is_data_error(self, tmp_path, capsys, body, message):
        path = tmp_path / "exam.csv"
        path.write_bytes(body)
        assert run_cli("grade", "--input", str(path), "--outdir", str(tmp_path)) == 3
        assert message in capsys.readouterr().err

    def test_programming_errors_propagate(self, exam_file, tmp_path, monkeypatch):
        for error in (ValueError, KeyError):
            def broken(args, outdir, error=error):
                raise error("a bug, not an input fault")

            monkeypatch.setattr(cli, "cmd_grade", broken)
            with pytest.raises(error, match="a bug"):
                run_cli("grade", "--input", exam_file, "--outdir", str(tmp_path))

    def test_fit_map_passes_max_iter(self, exam_file, tmp_path, monkeypatch):
        seen = []

        def spy(*args, original=cli.map_fit, **kwargs):
            seen.append(kwargs["max_iter"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "map_fit", spy)
        assert run_cli("fit", "--input", exam_file, "--method", "map", "--max-iter", "500",
                       "--outdir", str(tmp_path)) == 0
        assert seen == [500]

    def test_fit_mle_runs_reach_once(self, tmp_path, monkeypatch, capsys):
        calls = []

        def counted(n, q, *args, original=graph._reach):
            calls.append((n, q))
            return original(n, q, *args)

        monkeypatch.setattr(graph, "_reach", counted)
        cycle = write(tmp_path / "cycle.csv",
                      "student,question,correct\nA,X,1\nA,Y,0\nB,X,0\nB,Y,1\n")
        assert run_cli("fit", "--input", cycle, "--outdir", str(tmp_path / "a")) == 0
        assert calls == [(2, 2)]
        split = write(tmp_path / "split.csv", "student,question,correct\nA,X,1\nB,X,1\n")
        assert run_cli("fit", "--input", split, "--outdir", str(tmp_path / "b")) == 4
        assert "not strongly connected; use --method map" in capsys.readouterr().err
        assert calls == [(2, 2), (2, 1)]

    def test_seed_required(self, tmp_path):
        assert run_cli("simulate-bias", "--students", "3", "--questions", "4",
                       "--m", "4", "--d", "2", "--outdir", str(tmp_path)) == 2

    def test_simulate_bias_runs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate-bias", "--students", "3", "--questions", "4",
                       "--m", "4", "--d", "2", "--reps", "20", "--seed", "5",
                       "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"ours", "avg"}

    def test_verify_subcommand(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("verify", "--students", "2", "--questions", "3",
                       "--m", "3", "--d", "2", "--outdir", str(out)) == 0
        assert json.loads((out / "summary.json").read_text())["ex_ante_fair"] is True

    @pytest.mark.parametrize("s0_rows, code", [
        ("s0,student,0.1\n", 0),
        ("s0,student,0.1\ns0,student,0.2\n", 3),
        ("s0,question,0.1\n", 3),
        ("s0,student,nan\n", 3),
        ("", 3),  # s0 left out
    ])
    def test_verify_merit_file(self, tmp_path, s0_rows, code):
        rest = "s1,student,0.0\nq0,question,0.5\nq1,question,0.0\nq2,question,-0.5\n"
        merits = write(tmp_path / "u.csv", "vertex,kind,merit\n" + s0_rows + rest)
        assert run_cli("verify", "--students", "2", "--questions", "3", "--m", "3",
                       "--d", "2", "--merits", merits, "--outdir", str(tmp_path)) == code

    def test_merit_file_missing_a_vertex_is_data_error(self, tmp_path, capsys):
        merits = write(tmp_path / "u.csv", "vertex,kind,merit\ns0,student,0.1\n"
                       "q0,question,0.0\nq1,question,0.2\n")
        assert run_cli("simulate-bias", "--students", "2", "--questions", "2", "--m", "2",
                       "--d", "1", "--reps", "2", "--seed", "1", "--merits", merits,
                       "--outdir", str(tmp_path)) == 3
        assert f"data error: {merits}: no merit for vertex 's1'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--students", "2", "--questions", "3", "--m", "5", "--d", "2"],
        ["verify", "--students", "2", "--questions", "3", "--m", "2", "--d", "3"],
        ["cv-sim", "--students", "3", "--questions", "4", "--d2", "2,9", "--reps", "2",
         "--seed", "1"],
    ], ids=["verify-m-over-bank", "verify-d-over-m", "cv-sim-d2-over-bank"])
    def test_impossible_sample_sizes_exit_2(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli(*argv, "--outdir", str(out)) == 2
        assert not (out / "summary.json").exists()

    def test_verify_too_large_is_numeric_error(self, tmp_path):
        assert run_cli("verify", "--students", "6", "--questions", "9",
                       "--m", "9", "--d", "4", "--outdir", str(tmp_path)) == 4

    def test_config_file_with_flag_override(self, tmp_path, exam_file):
        cfg = write(tmp_path / "run.cfg", f"input={exam_file}\nrule=avg\n")
        out = tmp_path / "out"
        assert run_cli("grade", "--config", cfg, "--outdir", str(out)) == 0
        assert "avg" in (out / "grades.csv").read_text()
        out2 = tmp_path / "out2"
        assert run_cli("grade", "--config", cfg, "--rule", "ours",
                       "--outdir", str(out2)) == 0
        assert "ours" in (out2 / "grades.csv").read_text()

    def test_outdir_env_var(self, tmp_path, exam_file, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("FAIRGRADE_OUTDIR", str(target))
        assert run_cli("grade", "--input", exam_file, "--rule", "avg") == 0
        assert (target / "grades.csv").exists()

    def test_sweep_determinism(self, tmp_path):
        outs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            assert run_cli("sweep-degree", "--students", "3", "--questions", "4",
                           "--m", "4", "--d", "1..3", "--graphs", "2",
                           "--reps", "10", "--seed", "7",
                           "--outdir", str(out)) == 0
            outs.append(out)
        for name in ("report.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_decompose_subcommand(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("decompose", "--students", "4", "--questions", "5", "--m", "5",
                       "--d", "2", "--graphs", "2", "--reps", "10", "--seed", "5",
                       "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["all-same-merits", "spread-merits"]
        for table in summary.values():
            assert sorted(table) == ["avg", "ours"]
            for dec in table.values():
                assert abs(dec["bias"] + dec["variance"] - dec["error"]) <= 1e-12
        assert len((out / "report.csv").read_text().splitlines()) == 1 + 2 * 2 * 3

    def test_cv_subcommand(self, tmp_path):
        rng = np.random.default_rng(8)
        body = "student," + ",".join(f"q{j}" for j in range(5)) + "\n"
        for i in range(6):
            body += f"s{i}," + ",".join(map(str, rng.integers(0, 2, 5))) + "\n"
        path = write(tmp_path / "full.csv", body)
        out = tmp_path / "out"
        assert run_cli("cv", "--input", path, "--d1", "4", "--d2", "3,5",
                       "--reps", "10", "--seed", "3", "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        full = next(p for p in summary["points"] if p["d2"] == 5)
        assert full["mse"]["ours"] == pytest.approx(0.0, abs=1e-12)
        assert [p["failed_repetitions"] for p in summary["points"]] == [0, 0]

    def test_cv_threshold_table_reads_the_points(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        body = "student," + ",".join(f"q{j}" for j in range(6)) + "\n"
        for i in range(8):
            body += f"s{i}," + ",".join(map(str, rng.integers(0, 2, 6))) + "\n"
        path = write(tmp_path / "full.csv", body)
        calls = []

        def counted(*args, original=sim.cross_validate, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(sim, "cross_validate", counted)
        out = tmp_path / "out"
        assert run_cli("cv", "--input", path, "--d1", "4..8", "--d2", "2..6", "--reps", "4",
                       "--seed", "3", "--threshold-table", "--outdir", str(out)) == 0
        assert len(calls) == 25
        summary = json.loads((out / "summary.json").read_text())
        for d1 in range(4, 9):
            wins = [p["d2"] for p in summary["points"]
                    if p["d1"] == d1 and p["mse"]["ours"] < p["mse"]["avg"]]
            assert summary["threshold_table"][str(d1)] == min(wins, default=None)

    def test_cv_threshold_table_needs_both_rules(self, tmp_path, complete_file, capsys):
        assert run_cli("cv", "--input", complete_file, "--d1", "4", "--d2", "3",
                       "--reps", "2", "--seed", "3", "--rules", "avg", "--threshold-table",
                       "--outdir", str(tmp_path)) == 2
        assert "'ours' and 'avg'" in capsys.readouterr().err

    def test_cv_sim_subcommand(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("cv-sim", "--students", "4", "--questions", "5",
                       "--d2", "2,5", "--reps", "5", "--seed", "4",
                       "--outdir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [p["d2"] for p in summary["points"]] == [2, 5]
        assert [p["failed_repetitions"] for p in summary["points"]] == [0, 0]

    @pytest.mark.parametrize("argv", [
        ["simulate-bias", "--students", "4", "--questions", "5", "--m", "5", "--d", "2",
         "--reps", "3", "--rules", "ours"],
        ["cv-sim", "--students", "4", "--questions", "5", "--d2", "2,5", "--reps", "3"],
    ], ids=["simulate-bias", "cv-sim"])
    def test_every_draw_failing_exits_4(self, tmp_path, monkeypatch, capsys, argv):
        def stalled(res):
            raise model.NonConvergenceError("stalled", None)

        monkeypatch.setitem(sim.RULES, "ours", stalled)
        out = tmp_path / "out"
        assert run_cli(*argv, "--seed", "1", "--outdir", str(out)) == 4
        assert "every replication failed" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("argv, written", [
        (["grade", "--input", "{exam}", "--rule", "ours"],
         {"grades.csv", "predictions.csv", "cases.csv"}),
        (["grade", "--input", "{exam}", "--rule", "avg"], {"grades.csv"}),
        (["grade", "--input", "{exam}", "--rule", "map"], {"grades.csv"}),
        (["fit", "--input", "{cycle}", "--method", "mle"], {"merits.csv"}),
        (["fit", "--input", "{exam}", "--method", "map"], {"merits.csv"}),
        (["simulate-bias", "--students", "3", "--questions", "4", "--m", "4", "--d", "2",
          "--reps", "2", "--seed", "1"], {"report.csv"}),
        (["decompose", "--students", "3", "--questions", "4", "--m", "4", "--d", "2",
          "--graphs", "1", "--reps", "2", "--seed", "1"], {"report.csv"}),
        (["sweep-degree", "--students", "3", "--questions", "4", "--m", "4", "--d", "1,2",
          "--graphs", "1", "--reps", "2", "--seed", "1"], {"report.csv"}),
        (["sweep-bank", "--students", "3", "--m", "2,3", "--d", "2", "--graphs", "1",
          "--reps", "2", "--seed", "1"], {"report.csv"}),
        (["cv", "--input", "{complete}", "--d1", "4", "--d2", "3", "--reps", "2",
          "--seed", "1"], {"report.csv"}),
        (["cv-sim", "--students", "3", "--questions", "4", "--d2", "2", "--reps", "2",
          "--seed", "1"], {"report.csv"}),
        (["verify", "--students", "2", "--questions", "3", "--m", "3", "--d", "2"], set()),
    ], ids=["grade-ours", "grade-avg", "grade-map", "fit-mle", "fit-map", "simulate-bias",
            "decompose", "sweep-degree", "sweep-bank", "cv", "cv-sim", "verify"])
    def test_files_each_command_writes(self, tmp_path, exam_file, complete_file, argv, written):
        cycle = write(tmp_path / "cycle.csv",
                      "student,question,correct\nA,X,1\nA,Y,0\nB,X,0\nB,Y,1\n")
        argv = [a.format(exam=exam_file, cycle=cycle, complete=complete_file) for a in argv]
        out = tmp_path / "out"
        assert run_cli(*argv, "--outdir", str(out)) == 0
        assert {p.name for p in out.iterdir()} == written | {"summary.json", "manifest.json"}

    def test_entry_point_installed(self, exam_file, tmp_path):
        proc = subprocess.run(
            ["fairgrade", "grade", "--input", exam_file, "--rule", "avg",
             "--outdir", str(tmp_path / "cli_out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr


# One child process per BLAS thread setting: OpenBLAS reads it once, at load.
_CHILD = """
import sys
from fairgrade.cli import run
exam, out = sys.argv[1:]
for name, argv in [("ours", ["grade"]), ("map", ["grade", "--rule", "map"]),
                   ("fit", ["fit", "--method", "map"])]:
    assert run([*argv, "--input", exam, "--outdir", f"{out}/{name}"]) == 0
"""


def _csv_cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_reproducibility_contract_across_blas_threads(tmp_path):
    """Outputs are bit-identical at one thread setting. Across thread counts
    cases.csv is byte-identical and every number of the other CSV files,
    grades, predictions and merits, agrees within 1e-12."""
    roster = Roster.index_based(1000, 200)
    rng = substream(1, 2, 0)
    u = MeritVector.for_roster(roster, rng.uniform(*sim.DEFAULT_ABILITY_RANGE, 1000),
                               rng.uniform(*sim.DEFAULT_DIFFICULTY_RANGE, 200))
    exam = tmp_path / "exam.csv"
    fio.write_dense_matrix(sample_exam_result(generate_assignment(roster, 200, 3, rng), u, rng),
                           exam)
    package_root = str(Path(cli.__file__).parents[1])
    outs = {}
    for label, threads in [("one", "1"), ("one-again", "1"), ("two", "2")]:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root,
                                                           os.environ.get("PYTHONPATH")]))}
        outs[label] = tmp_path / label
        subprocess.run([sys.executable, "-c", _CHILD, str(exam), str(outs[label])],
                       env=env, check=True)
    files = sorted(p.relative_to(outs["one"]) for p in outs["one"].rglob("*.*"))
    assert files == sorted(p.relative_to(outs["two"]) for p in outs["two"].rglob("*.*"))
    assert len(files) == 11  # ours: grades, predictions, cases, summary, manifest; 3 each else
    for name in files:
        again = (outs["one-again"] / name).read_bytes()
        if name.name == "manifest.json":
            again = again.replace(b"one-again", b"one")
        assert again == (outs["one"] / name).read_bytes(), name
        if name.name == "cases.csv":
            assert (outs["two"] / name).read_bytes() == (outs["one"] / name).read_bytes()
        elif name.suffix == ".csv":
            one, two = (_csv_cells(outs[label] / name) for label in ("one", "two"))
            assert [len(row) for row in one] == [len(row) for row in two], name
            for a, b in zip(itertools.chain(*one), itertools.chain(*two)):
                assert a == b or abs(float(a) - float(b)) <= 1e-12, (name, a, b)
