"""Shared pytest plumbing for the suite.

test_acceptance.py registers one verdict per acceptance criterion through
record_criterion; after the run a summary block prints one PASS/FAIL line
per criterion (criteria whose test crashed before recording show NOT RUN).

Property tests run under a derandomized hypothesis profile with no example
database, so every run draws the same examples and tier-1 stays
deterministic.

This process runs its BLAS on one thread, as the suite's pool workers do:
EP's LAPACK calls gain little from threads here and slow down several-fold
when another process holds a CPU.
"""

from hypothesis import settings

from tuma.harness import _one_blas_thread

settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")
_one_blas_thread()

_EXPECTED_CRITERIA = range(1, 9)
_CRITERIA = {}


def record_criterion(number, passed, detail):
    """Store the verdict of one acceptance criterion for the summary block."""
    _CRITERIA[int(number)] = (bool(passed), str(detail))


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in _EXPECTED_CRITERIA:
        if number in _CRITERIA:
            passed, detail = _CRITERIA[number]
            verdict = "PASS" if passed else "FAIL"
        else:
            verdict, detail = "NOT RUN", "test did not reach its verdict"
        terminalreporter.write_line(
            f"ACCEPTANCE: criterion {number} {verdict} - {detail}")
