"""Collects acceptance-criterion results and prints them after the run, and
makes property tests deterministic: every run draws the same examples, with
no deadline, and no example database is written."""

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

ACCEPTANCE_LINES: list[str] = []

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from source files; keep
    # that cache under .pytest_cache (absent with -p no:cacheprovider) rather
    # than in a .hypothesis/ directory
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
