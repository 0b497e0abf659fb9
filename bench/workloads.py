"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks that turn a wrong output into a failed operation.

Exam workloads grade one generated exam file per operation through the
in-process CLI entry point `fairgrade.cli.run`. The Monte-Carlo workload runs
the paper's criterion-9 and criterion-10 configurations on one graph per
operation through `fairgrade.simulation`. Operations cycle through a pool of
`Spec.pool` inputs; in the exam workloads the first input is always the
reference exam, whose grades are pinned in `reference.json`.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fairgrade  # noqa: E402
import fairgrade.cli  # noqa: E402
import fairgrade.grading  # noqa: E402
import fairgrade.io as fio  # noqa: E402
import fairgrade.simulation  # noqa: E402
from fairgrade.rng import substream  # noqa: E402

from tracing import NULL_SPAN  # noqa: E402

# the published merit ranges
ABILITY_RANGE = (-1.486, 1.149)
DIFFICULTY_RANGE = (-3.090, 2.099)

REFERENCE_SEED = 0
REFERENCE_FILE = BENCH / "reference.json"
GRADE_TOLERANCE = 1e-12  # reference grades and the bias + variance == error identity
CASE_NAMES = {case.name for case in fairgrade.PairCase}


@dataclass(frozen=True)
class Spec:
    name: str
    key: int  # substream key that keeps the workloads' inputs apart
    students: int
    questions: int
    m: int
    d: int
    pool: int  # distinct inputs; operations cycle through them
    file_format: str = ""  # exam workloads only
    rules: tuple[str, ...] = ()  # exam workloads: `fairgrade grade --rule` values, in order
    replications: int = 0  # Monte-Carlo workload: replications per graph and rule


WORKLOADS = {
    "exam-dense": Spec("exam-dense", 1, 1000, 200, 200, 30, pool=3,
                       file_format=fio.EDGE_LIST, rules=("ours",)),
    "exam-sparse": Spec("exam-sparse", 2, 1000, 200, 200, 3, pool=3,
                        file_format=fio.DENSE_CSV, rules=("ours", "map")),
    "mc-published": Spec("mc-published", 3, 35, 22, 22, 10, pool=3, replications=200),
}

# Same code paths at sizes that run in about a second, for the self-test.
SELFTEST = {
    "tiny-exam-dense": replace(WORKLOADS["exam-dense"], name="tiny-exam-dense",
                               students=40, questions=12, m=12, d=6, pool=2),
    "tiny-exam-sparse": replace(WORKLOADS["exam-sparse"], name="tiny-exam-sparse",
                                students=60, questions=15, m=15, d=3, pool=2),
    "tiny-mc-published": replace(WORKLOADS["mc-published"], name="tiny-mc-published",
                                 pool=1, replications=40),
}


def find_spec(name: str) -> Spec:
    return WORKLOADS.get(name) or SELFTEST[name]


def prepare(spec: Spec, seed: int, workdir: Path):
    """Generate (and for exams, write) the workload's inputs; this is set-up."""
    roster = fairgrade.Roster.index_based(spec.students, spec.questions)
    if spec.file_format:
        write = fio.write_edge_list if spec.file_format == fio.EDGE_LIST else fio.write_dense_matrix
        paths = []
        for k in range(spec.pool):
            rng = substream(REFERENCE_SEED if k == 0 else seed, spec.key, k)
            u = _uniform_merits(roster, rng)
            g = fairgrade.generate_assignment(roster, spec.m, spec.d, rng)
            paths.append(workdir / f"exam{k}.csv")
            write(fairgrade.sample_exam_result(g, u, rng), paths[-1])
        return paths
    graphs = [
        fairgrade.generate_assignment(roster, spec.m, spec.d, substream(seed, spec.key, 1, k))
        for k in range(spec.pool)
    ]
    seeds = [int(substream(seed, spec.key, 2, k).integers(2**62)) for k in range(spec.pool)]
    spread = _uniform_merits(roster, substream(seed, spec.key, 0))
    constant = fairgrade.MeritVector.for_roster(
        roster, [0.0] * spec.students, [0.0] * spec.questions
    )
    return roster, spread, constant, graphs, seeds


def _uniform_merits(roster, rng):
    return fairgrade.MeritVector.for_roster(
        roster,
        rng.uniform(*ABILITY_RANGE, roster.n_students),
        rng.uniform(*DIFFICULTY_RANGE, roster.n_questions),
    )


def load(spec: Spec, seed: int, workdir: Path):
    return (ExamWorkload if spec.file_format else MonteCarloWorkload)(spec, seed, workdir)


def span(tracer, name):
    return NULL_SPAN if tracer is None else tracer.span(name)


@dataclass
class Outcome:
    exams: int  # exams graded, each by every rule of the workload
    evaluations: int  # grading-rule evaluations that completed
    failures: list[str]  # work that did not complete: exit codes, failed replications
    detail: object


# --- exam workloads -------------------------------------------------------


@dataclass
class ExamInput:
    path: Path
    students: list[str]
    questions: list[str]
    observed: dict[str, dict[str, int]]  # student -> question -> input bit
    n_edges: int


def read_observed(path: Path, file_format: str) -> ExamInput:
    """The input bits, parsed by the benchmark independently of fairgrade.io."""
    observed: dict[str, dict[str, int]] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        if file_format == fio.EDGE_LIST:
            questions: dict[str, None] = {}
            for sid, qid, bit in rows:
                observed.setdefault(sid, {})[qid] = int(bit)
                questions[qid] = None
            bank = list(questions)
        else:
            bank = header[1:]
            for row in rows:
                observed[row[0]] = {q: int(c) for q, c in zip(bank, row[1:]) if c != "NA"}
    n_edges = sum(len(bits) for bits in observed.values())
    return ExamInput(path, list(observed), bank, observed, n_edges)


class ExamWorkload:
    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.inputs = [read_observed(p, spec.file_format) for p in prepare(spec, seed, workdir)]
        self.outdirs = {rule: workdir / f"out-{rule}" for rule in spec.rules}
        self.reference = json.loads(REFERENCE_FILE.read_text()).get(spec.name)

    def label(self, k: int) -> str:
        return f"{self.spec.name}/e{k % self.spec.pool}"

    def reset(self) -> None:
        for outdir in self.outdirs.values():
            shutil.rmtree(outdir, ignore_errors=True)

    def execute(self, k: int, tracer=None) -> Outcome:
        exam = self.inputs[k % self.spec.pool]
        codes = {}
        for rule, outdir in self.outdirs.items():
            argv = ["grade", "--input", str(exam.path), "--rule", rule, "--outdir", str(outdir)]
            with span(tracer, "cli"):
                codes[rule] = fairgrade.cli.run(argv)
        failures = [f"{rule}: exit code {code}" for rule, code in codes.items() if code]
        return Outcome(1, len(codes) - len(failures), failures, codes)

    def check(self, k: int, outcome: Outcome) -> list[str]:
        """Wrong outputs of the rules that completed."""
        exam = self.inputs[k % self.spec.pool]
        problems = []
        for rule, outdir in self.outdirs.items():
            if outcome.detail[rule]:
                continue
            reference = self.reference[rule] if self.reference and k % self.spec.pool == 0 else None
            problems += [f"{rule}: {p}" for p in check_grades(outdir / "grades.csv", exam, reference)]
            if rule == "ours":
                problems += [f"{rule}: {p}" for p in check_predictions(outdir, exam)]
        return problems

    def check_run(self) -> list[str]:
        return []


def read_grades(path: Path) -> list[tuple[str, float]]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["student", "grade", "rule"]:
            raise ValueError(f"{path.name}: unexpected header")
        return [(sid, float(value)) for sid, value, _ in rows]


def check_grades(path: Path, exam: ExamInput, reference: dict[str, float] | None) -> list[str]:
    """Finite grades in [0, 1], one row per student, and the reference if given."""
    rows = read_grades(path)
    grades = dict(rows)
    problems = []
    if len(rows) != len(exam.students) or set(grades) != set(exam.students):
        problems.append(f"{len(rows)} grade rows for {len(exam.students)} students")
    bad = [sid for sid, v in rows if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} grades not finite in [0, 1]")
    if reference is not None:
        off = [sid for sid, v in reference.items()
               if not abs(grades.get(sid, math.nan) - v) <= GRADE_TOLERANCE]
        if off:
            problems.append(f"{len(off)} grades differ from the reference by more than "
                            f"{GRADE_TOLERANCE}")
    return problems


def check_predictions(outdir: Path, exam: ExamInput) -> list[str]:
    """Observed cells equal the input bits; case tags partition the matrix."""
    with open(outdir / "predictions.csv", newline="") as fp, \
            open(outdir / "cases.csv", newline="") as fc:
        predictions, cases = csv.reader(fp), csv.reader(fc)
        header = next(predictions)
        if next(cases) != header or header[0] != "student" or sorted(header[1:]) != sorted(exam.questions):
            return ["predictions.csv and cases.csv headers do not match the bank"]
        columns = header[1:]
        students, cells, existing, wrong_bits, misplaced, bad_tags = [], 0, 0, 0, 0, 0
        for prow, crow in zip(predictions, cases, strict=True):
            if len(prow) != len(header) or crow[0] != prow[0]:
                return [f"malformed row for student {prow[0]!r}"]
            students.append(prow[0])
            observed = exam.observed.get(prow[0], {})
            for qid, value, tag in zip(columns, prow[1:], crow[1:]):
                cells += 1
                bit = observed.get(qid)
                existing += tag == "EXISTING_EDGE"
                bad_tags += tag not in CASE_NAMES
                misplaced += (tag == "EXISTING_EDGE") != (bit is not None)
                wrong_bits += bit is not None and float(value) != bit
    problems = []
    if sorted(students) != sorted(exam.students):
        problems.append("prediction rows do not match the students")
    if cells != len(exam.students) * len(exam.questions) or bad_tags:
        problems.append(f"{cells} tagged cells ({bad_tags} unknown tags) for an "
                        f"{len(exam.students)}x{len(exam.questions)} matrix")
    if existing != exam.n_edges or misplaced:
        problems.append(f"{existing} EXISTING_EDGE cells for {exam.n_edges} edges, "
                        f"{misplaced} misplaced")
    if wrong_bits:
        problems.append(f"{wrong_bits} observed cells differ from the input bits")
    return problems


# --- Monte-Carlo workload -------------------------------------------------


class RuleCheck:
    """A grading rule as handed to the simulation harness.

    Counts calls, and failures: calls that raised or returned grades that
    are not one finite value in [0, 1] per student. When traced, each call
    is a span tagged with its replication.
    """

    def __init__(self, name: str, rule, span_name: str, tracer=None):
        self.name = name
        self.rule = rule if tracer is None else tracer.wrap(span_name, rule)
        self.tracer = tracer
        self.calls = self.failed = 0

    def __call__(self, g):
        self.calls += 1
        tracer = self.tracer
        if tracer is not None:
            tag = tracer.tag
            tracer.tag = f"{tag}/{self.name}/r{self.calls}"
        valid = False
        try:
            grades = self.rule(g)
            values = grades.values
            valid = values.shape == (g.roster.n_students,) and bool(
                np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 1.0
            )
            return grades
        finally:
            self.failed += not valid
            if tracer is not None:
                tracer.tag = tag
                tracer.counts["simulation.replications"] += 1
                tracer.counts["simulation.replications_failed"] += not valid


class MonteCarloWorkload:
    def __init__(self, spec: Spec, seed: int, workdir: Path):
        self.spec = spec
        self.roster, self.spread, self.constant, self.graphs, self.seeds = prepare(spec, seed, workdir)
        self.max_bias: list[tuple[float, float]] = []  # (ours, avg) per graph checked

    def label(self, k: int) -> str:
        return f"{self.spec.name}/g{k % self.spec.pool}"

    def reset(self) -> None:
        pass

    def execute(self, k: int, tracer=None) -> Outcome:
        """Criterion 9's sweep and criterion 10's decomposition on one graph."""
        spec, i = self.spec, k % self.spec.pool
        rules = {
            "ours": RuleCheck("ours", fairgrade.grading.grade, "grading.grade", tracer),
            "avg": RuleCheck("avg", fairgrade.grading.simple_average,
                             "grading.simple_average", tracer),
        }
        with span(tracer, "simulation.runner"):
            sweep = fairgrade.simulation.sweep_degree(
                self.roster, self.spread, spec.m, [spec.d], 1, spec.replications,
                self.seeds[i], rules=rules,
            )
        with span(tracer, "simulation.runner"):
            decomposed = {
                name: fairgrade.simulation.decompose_error(
                    rule, [self.graphs[i]], self.constant, spec.replications, self.seeds[i]
                )
                for name, rule in rules.items()
            }
        evaluations = sum(rule.calls - rule.failed for rule in rules.values())
        failures = [f"{r.name}: {r.failed} of {r.calls} replications raised or gave invalid grades"
                    for r in rules.values() if r.failed]
        return Outcome(2 * spec.replications, evaluations, failures, (sweep, decomposed))

    def check(self, k: int, outcome: Outcome) -> list[str]:
        """Criterion 10's identity; criterion 9 is checked over the whole run."""
        sweep, decomposed = outcome.detail
        stats = sweep.points[0].per_rule
        self.max_bias.append((stats["ours"].max_bias, stats["avg"].max_bias))
        problems = []
        for name, dec in decomposed.items():
            gap = abs(dec.bias + dec.variance - dec.error)
            if not gap <= GRADE_TOLERANCE:
                problems.append(f"{name}: bias + variance - error = {gap:.3e}")
        return problems

    def check_run(self) -> list[str]:
        """Criterion 9: mean `ours` max bias <= mean `avg` max bias / 10.

        Like the criterion, this holds for the mean over graphs, not for
        every graph: single graphs reach a ratio of 0.115.
        """
        if not self.max_bias:
            return []
        ours, avg = (statistics.fmean(column) for column in zip(*self.max_bias))
        if ours <= avg / 10:
            return []
        return [f"criterion 9: mean ours max bias {ours:.3e} > mean avg max bias / 10 = "
                f"{avg / 10:.3e} over {len(self.max_bias)} graphs"]
