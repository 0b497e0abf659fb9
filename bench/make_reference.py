"""Write reference.json: the grades of each exam workload's reference exam.

    python3 bench/make_reference.py

Every exam-workload run grades the reference exam (input 0 of its pool,
generated from `REFERENCE_SEED`) and fails the operation if any grade moves
by more than 1e-12 from the values stored here. Regenerate the file only
with a change that is meant to alter grades, and say so in that change.
"""

from __future__ import annotations

import json
import shutil

import run  # noqa: F401  (pins BLAS threads before numpy loads)
import workloads


def main() -> None:
    reference = {}
    for name, spec in workloads.WORKLOADS.items():
        if not spec.file_format:
            continue
        workdir = workloads.BENCH / ".work" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            workload = workloads.load(spec, workloads.REFERENCE_SEED, workdir)
            failures = workload.execute(0).failures
            if failures:
                raise RuntimeError(f"{name}: grading the reference exam failed: {failures}")
            reference[name] = {
                rule: dict(workloads.read_grades(outdir / "grades.csv"))
                for rule, outdir in workload.outdirs.items()
            }
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
