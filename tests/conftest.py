"""Shared fixtures plus the acceptance-criteria scoreboard.

Acceptance tests record one verdict per criterion through the ``acceptance``
fixture; the terminal summary then prints a single PASS/FAIL line for each,
so the per-criterion outcome is visible even when a later assert trips.
"""

from __future__ import annotations

import numpy as np
import pytest

from oscillab import GridDomain, Measure, Weight, build_base, lattice

_SCOREBOARD: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _SCOREBOARD[number] = (bool(ok), detail)


@pytest.fixture(scope="session")
def acceptance():
    """Recorder callable: acceptance(number, ok, detail)."""
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_SCOREBOARD):
        ok, detail = _SCOREBOARD[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


@pytest.fixture(autouse=True)
def _empty_geometry_pool(monkeypatch):
    """Each test starts with an empty geometry pool, so that a test that
    counts set-up calls or patches ``_GATHER_CELLS`` sees its own builds."""
    monkeypatch.setattr(lattice, "_GEOMETRIES", lattice.BoundedCache(
        lattice.POOL_BYTES, lattice._GEOMETRIES.size))


# ---------------------------------------------------------------------------
# small shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def line8():
    dom = GridDomain((8,))
    mea = Measure.uniform(dom)
    return dom, mea, build_base(dom, mea, "dyadic-cubes")


@pytest.fixture
def square4():
    dom = GridDomain((4, 4))
    mea = Measure.uniform(dom)
    return dom, mea, build_base(dom, mea, "dyadic-cubes")


@pytest.fixture
def two_cell():
    dom = GridDomain((2,))
    mea = Measure.uniform(dom)
    base = build_base(dom, mea, "dyadic-cubes")
    w = Weight(dom, np.array([1.0, 2.0]), {"kind": "fixture"})
    return dom, mea, base, w


@pytest.fixture
def alternating8(line8):
    dom, mea, base = line8
    w = Weight(dom, np.array([1.0, 2.0] * 4), {"kind": "fixture"})
    return dom, mea, base, w
