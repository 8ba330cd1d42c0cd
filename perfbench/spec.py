"""Workload shapes, the default seed, and the pinned output digests.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

#: Seed under which outputs are compared with :data:`DIGESTS`.
DEFAULT_SEED = 0

#: ``paper-repro``: every Table-1 row group on a grid larger than the
#: registered ``table1-*`` smoke grids, plus both figure series.
PAPER_GRID = {
    "families": {
        "clique": (24, 36, 52, 76, 100),
        "cycle": (12, 18, 24, 36),
        "dense-gnp": (16, 24, 36, 52),
        "random-regular": (16, 24, 36, 52),
        "torus": (16, 36, 64, 100),
        "renitent-star": (48, 64, 96),
        "star": (16, 32, 64, 128),
    },
    "repetitions": 4,
    "figure_families": ("clique", "cycle", "torus"),
    "figure_sizes": (16, 36, 64, 100),
}
PAPER_SMOKE = {
    "families": {
        "clique": (8, 12),
        "cycle": (8, 12),
        "dense-gnp": (8, 12),
        "random-regular": (8, 12),
        "torus": (9, 16),
        "renitent-star": (48, 64),
        "star": (8, 16),
    },
    "repetitions": 2,
    "figure_families": ("clique", "cycle"),
    "figure_sizes": (8, 12),
}

#: ``elect-stack``: the token protocol on a clique and a torus of a few
#: hundred nodes, many trials per call; one pass makes one call per graph.
#: Each process runs one unmeasured warm-up pass, then
#: :data:`ELECT_PASSES` measured passes.
ELECT = {
    "graphs": (("clique", 300), ("torus", 256)),
    "trials": 128,
}
ELECT_SMOKE = {
    "graphs": (("clique", 24), ("torus", 25)),
    "trials": 4,
}
ELECT_PASSES = 10

#: ``torus-million`` runs the registered scenario; the smoke run shrinks it.
TORUS_SMOKE_SIZES = (4096,)

#: ``service-resubmit``: the registered Table-1 clique scenario on larger
#: cliques with 4 trials per unit (4 sizes x 3 protocols x 4 units = 48
#: units, 192 trials), served by one worker process.  A unit then simulates
#: for some 35 ms on average, several times its trip over the wire and into
#: the store, and one worker leaves a core for the server and the client, so
#: the cold submit's time follows the program rather than how quickly a
#: 2-core host wakes four busy processes (README).
SERVICE_SCENARIO = "table1-clique"
SERVICE_SIZES = (200, 300, 400, 500)
SERVICE_REPETITIONS = 16
SERVICE_TRIALS_PER_UNIT = 4
SERVICE_RESUBMITS = 40
SERVICE_WORKERS = 1
SERVICE_SMOKE = {"sizes": (8, 12), "repetitions": 2, "resubmits": 3}

#: sha256 of each workload's canonical output under :data:`DEFAULT_SEED`
#: (first iteration of a run).  A mismatch fails the run.
DIGESTS = {
    "paper-repro": "dc10dfc2ec0552730a603fdf90803b8ffad52e3dfb8f70ffc956d97f0dcf4626",
    "elect-stack": "8eb339a60c79d6236218aa11c2e4f0a2ea6b739a21abb4b06193c5596b12c5a1",
    "torus-million": "0b4b6b2d06fc65338396c8263d1166430b0c721d87a510f46eadccf4927b2bc6",
    "service-resubmit": "b8b593a205e81a3d70fbb1ca691abf3809bb21d81692818d4c794cf5781d50a3",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rounded(value: Any) -> Any:
    """``value`` with every float cut to 10 significant digits.

    Linear-algebra results can differ in their last bits between BLAS
    builds; rounding keeps the pinned digests about the program, not the
    machine.
    """
    if isinstance(value, float):
        return float(f"{value:.10g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [rounded(item) for item in value]
    return value
