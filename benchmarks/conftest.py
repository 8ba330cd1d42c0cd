"""Shared fixtures for the benchmark harness.

Each benchmark file regenerates one table/figure row group of the paper
(see DESIGN.md §2 for the experiment index).  Benchmarks are executed with

    pytest benchmarks/ --benchmark-only

and print a measured-vs-paper comparison table in addition to the
pytest-benchmark timing statistics.  Simulation sizes are chosen so the
whole harness completes in a few minutes of pure-Python time; the *shape*
(growth exponents, protocol ordering) is what is being reproduced, not the
paper's absolute step counts.
"""

from __future__ import annotations

import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tests`` for the shared reference oracles
# (``shard_oracle``) that some benchmarks gate against.
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def pytest_addoption(parser):
    """``--engine`` switches every benchmark between execution engines.

    ``auto`` (default) uses the compiled engine where possible; ``reference``
    forces the pure-Python interpreter (the escape hatch for semantic
    comparisons); ``compiled`` requires compilation and fails loudly when a
    protocol cannot be compiled.  The ``REPRO_ENGINE`` environment variable
    provides the default so CI matrices can set it without editing
    commands.  Measured *values* are identical across engines for a fixed
    seed — only the wall-clock differs.
    """
    parser.addoption(
        "--engine",
        action="store",
        default=os.environ.get("REPRO_ENGINE", "auto"),
        choices=["auto", "compiled", "reference"],
        help="execution engine for all benchmarks (default: auto)",
    )


@pytest.fixture
def engine(request):
    """The engine selected via ``--engine`` / ``REPRO_ENGINE``."""
    return request.config.getoption("--engine")


@pytest.fixture
def report(capsys):
    """Print a report section even under pytest's output capture."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
