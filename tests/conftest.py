import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import SyntheticCategory, densify_recipe  # noqa: E402

from morphfit import (  # noqa: E402
    cpd_nonrigid, dataset, evaluation, geometry, sample_mesh_surface, viewpoint_sphere,
)


@pytest.fixture(autouse=True)
def forget_prepared_instance():
    # The process keeps one entry of each part in geometry._KEPT: the parsed
    # input files, the prepared instance (its cloud, dense samples and
    # registration), the space's kernel products, the last warp's or CPD's
    # kernel and the canonical baseline.  Each test starts without them, so
    # sample, CPD and kernel call counts and patched target fields see every
    # draw, registration and kernel the test itself causes.
    geometry._KEPT.clear()


@pytest.fixture
def cpd_calls(monkeypatch):
    """One entry per `cpd_nonrigid` call made from `dataset` or `evaluation`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cpd_nonrigid(*args, **kwargs)

    for module in (dataset, evaluation):
        monkeypatch.setattr(module, "cpd_nonrigid", counted)
    return calls


@pytest.fixture
def sample_calls(monkeypatch):
    """One entry per `sample_mesh_surface` call, each a cloud's or a densify's draw."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sample_mesh_surface(*args, **kwargs)

    monkeypatch.setattr(dataset, "sample_mesh_surface", counted)
    return calls


@pytest.fixture
def densify():
    """The tests' small-render densify recipe (``helpers.densify_recipe``) for one test."""
    with densify_recipe():
        yield


@pytest.fixture(scope="session")
def category() -> SyntheticCategory:
    # Shared across the whole suite; construction does real kernel work, so
    # build it once.
    return SyntheticCategory()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Surface the acceptance PASS/FAIL lines even when stdout is captured.
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def eval_views(category):
    # Reduced resolution keeps the end-to-end sweeps inside the suite's
    # time budget without changing any pipeline semantics.
    width = 96
    focal = 275.0 * width / 256.0
    return viewpoint_sphere(
        20, radius=4.0 * category.radius,
        focal=(focal, focal), resolution=(width, 72),
    )
