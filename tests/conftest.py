"""Session fixtures: the scripts of ``tools/`` as modules, and the report of
every default run of ``tools/report_digest.py``, each run once per session
and shared by the acceptance criteria and the golden-digest test."""

import functools
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@functools.cache
def load_tool(name):
    """The module of ``tools/<name>.py``, loaded once."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class DefaultReports(dict):
    """Reports by run name (``report_digest.runs``), each run on first read."""

    def __init__(self):
        super().__init__()
        self.configs = dict(load_tool("report_digest").runs())

    def __missing__(self, name):
        from carlab.lab import run_experiment

        self[name] = run_experiment(self.configs[name])
        return self[name]


@pytest.fixture(scope="session")
def tool():
    return load_tool


@pytest.fixture(scope="session")
def default_reports():
    return DefaultReports()
