import json
import os
import platform

import numpy as np

from fairgrade import cli
from fairgrade.cli import environment, run


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    """What a bit-identical rerun needs beside the configuration."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    argv = ["verify", "--students", "2", "--questions", "3", "--m", "3", "--d", "2"]
    assert run([*argv, "--outdir", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["env"]
    assert env["threads"]["OPENBLAS_NUM_THREADS"] == "3"
    assert all(name.endswith("_NUM_THREADS") for name in env["threads"])
    assert (env["python"], env["numpy"], env["cpu_count"]) == (
        platform.python_version(), np.__version__, os.cpu_count())
    assert set(env["blas"]) == {"name", "version"}
    assert env == environment()


def test_environment_without_numpy_config_dicts(monkeypatch):
    """numpy before 1.25 takes no `mode` argument: the BLAS fields are then None."""
    def show_config():
        pass

    monkeypatch.setattr(cli.np, "show_config", show_config)
    assert environment()["blas"] == {"name": None, "version": None}
