"""Session record for criterion 11.

Criterion 11 checks that the five property suites pass. When the session
collects all five whole, criterion 11 runs after every other test and reads
their outcomes from this session instead of running them a second time.
Run alone, or beside only part of a suite, it runs the suites in a
subprocess.
"""

from pathlib import Path

import pytest

PROPERTY_SUITES = (
    "tests/test_qscalar.py",
    "tests/test_geometry.py",
    "tests/test_lattice.py",
    "tests/test_rotation.py",
    "tests/test_search.py",
)
_CRITERION_11 = "test_criterion_11_property_suites"
_PLUGIN = "property-suite-record"


def _in_suite(nodeid: str) -> bool:
    return nodeid.split("::", 1)[0] in PROPERTY_SUITES


class _SuiteRecord:
    """Outcomes of the property suites' tests in one session."""

    def __init__(self):
        self.deselected = False  # some suite item was deselected
        self.expected: set[str] = set()  # node ids of the suites' items
        self.ran: set[str] = set()
        self.failed: set[str] = set()
        self.seconds = 0.0

    def pytest_deselected(self, items):
        if any(_in_suite(item.nodeid) for item in items):
            self.deselected = True

    def pytest_collection_finish(self, session):
        self.expected = {item.nodeid for item in session.items if _in_suite(item.nodeid)}

    def pytest_runtest_logreport(self, report):
        if not _in_suite(report.nodeid):
            return
        self.seconds += report.duration
        if report.failed:
            self.failed.add(report.nodeid)
        if report.when == "call" or report.skipped or report.failed:
            self.ran.add(report.nodeid)

    def outcomes(self, config) -> tuple[int, int, float] | None:
        suites = {nodeid.split("::", 1)[0] for nodeid in self.expected}
        whole = not self.deselected and suites == set(PROPERTY_SUITES) and _collected_whole(config)
        if not whole or self.ran != self.expected:
            return None
        return len(self.ran), len(self.failed), self.seconds


def _collected_whole(config) -> bool:
    """Whether each suite lies under a path argument that names no test."""
    missing = set(PROPERTY_SUITES)
    for arg in config.args:
        if "::" in arg:
            continue
        base = Path(config.invocation_params.dir, arg).resolve()
        for suite in list(missing):
            target = (config.rootpath / suite).resolve()
            if target == base or base in target.parents:
                missing.discard(suite)
    return not missing


def pytest_configure(config):
    config.pluginmanager.register(_SuiteRecord(), _PLUGIN)


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    last = [item for item in items if item.name == _CRITERION_11]
    items[:] = [item for item in items if item.name != _CRITERION_11] + last


@pytest.fixture
def property_suite_outcomes(request):
    """(tests run, tests failed, seconds) of the five suites in this session,
    or None when the session does not run all five whole."""
    return request.config.pluginmanager.get_plugin(_PLUGIN).outcomes(request.config)
