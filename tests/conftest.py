import dataclasses
import os

import numpy as np
import pytest
from hypothesis import settings

import specsplit.analysis as analysis_module
from specsplit.cli import main

# CI runs select the "ci" profile: derandomized, with no example database, so
# that a result never depends on examples saved by an earlier run.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def zero_a_integrals(monkeypatch):
    """Make split's A_+ and A_- integrals zero, so the projection traces are 0."""
    side_integrals = analysis_module._side_integrals

    def zero_a(*args):
        out = side_integrals(*args)
        return {**out, "A": dataclasses.replace(out["A"], value=np.zeros_like(out["A"].value))}

    monkeypatch.setattr(analysis_module, "_side_integrals", zero_a)


@pytest.fixture
def cli_csv(capsys):
    """Run the CLI with ``--format csv`` and return the rows of its CSV block,
    header first (the JSON summary after the blank line is dropped)."""

    def run(*argv):
        assert main([*argv, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        return out[: out.index("\n\n")].splitlines()

    return run
