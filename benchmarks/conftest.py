"""Session-scoped fixtures shared by the figure benchmarks.

The six-platform comparison on the standard workload is the most expensive
computation and feeds Figures 9, 10, 11, 12, 13 and 14 -- it runs once per
session.
"""

import pytest

from benchmarks.common import standard_workload, sweep_runner, sweep_workload
from repro.system import run_platform_comparison


def pytest_collection_modifyitems(items):
    """Every benchmark carries the ``bench`` marker (nightly tier)."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def std_workload():
    return standard_workload()


@pytest.fixture(scope="session")
def std_comparison(std_workload):
    """All six platforms on the standard workload, recorded in the shared
    trace cache that Figure 4's sweep of the same workload reads."""
    return run_platform_comparison(sweep_runner(std_workload))


@pytest.fixture(scope="session")
def swp_workload():
    return sweep_workload()
