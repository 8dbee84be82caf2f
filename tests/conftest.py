"""Fixtures shared across test modules."""

import pytest

from trirefine.cli import main


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
