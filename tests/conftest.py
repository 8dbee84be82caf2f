"""Fixtures shared across test modules."""

import warnings

import pytest

from trirefine.cli import main

# On a failing property test, Hypothesis's pytest plugin imports this
# module to suggest a patch.  Where libcst is installed, that import warns
# (libcst declares a deprecated ``mypy_extensions.TypedDict``), and
# pyproject's ``filterwarnings = ["error"]`` would turn the warning into an
# INTERNALERROR that ends the session without the falsifying example.
# Importing it once here, with that warning ignored, keeps the global
# filter as it is.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def verify_report(tmp_path_factory):
    """``verify --depth D --sweep S --seed R`` through the command line, run
    once per argument triple in a session; returns (exit code, report
    bytes).  The default-parameter suite takes seconds, and both the golden
    report hash and the all-checks-pass test read it."""
    runs = {}

    def run(depth: str, sweep: str, seed: str) -> tuple[int, bytes]:
        if (depth, sweep, seed) not in runs:
            report = tmp_path_factory.mktemp("verify") / "report.json"
            code = main(["verify", "--depth", depth, "--sweep", sweep,
                         "--seed", seed, "--report", str(report)])
            runs[depth, sweep, seed] = code, report.read_bytes()
        return runs[depth, sweep, seed]

    return run
