"""Shared Hypothesis profile, and one pass/fail line per acceptance
criterion after the run."""

import re

from hypothesis import settings

# every property test replays the same examples, keeps no example database
# and has no per-example deadline; a file sets only its own max_examples
settings.register_profile("adicspec", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("adicspec")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from test_acceptance import CRITERIA
    except ImportError:
        return
    outcomes = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance.*criterion_(\d+)", nodeid)
            if m:
                outcomes[int(m.group(1))] = passed
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(outcomes):
        word = "PASS" if outcomes[num] else "FAIL"
        terminalreporter.write_line(
            f"criterion {num:2d}: {word} - {CRITERIA[num]}")
