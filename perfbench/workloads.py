"""Seeded operation streams for the benchmark workloads.

Every input is derived from the workload seed with the standard library's
``random.Random``, so a seed names the same inputs on every machine and
numpy version.  Separable correlator tables are computed here from Bloch
vectors, independently of the program's simulator, and reach the program
only as JSON text.

Each operation carries its known answer: entangled states at visibility in
[0.95, 1] are NONLOCAL (GHZ's certified threshold is about 0.926, W's about
0.848, the graph states' lower still), while separable mixtures, basis
states and GHZ pinned only up to two-body correlators must stay
INCONCLUSIVE.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, product

NONLOCAL = "NONLOCAL"
INCONCLUSIVE = "INCONCLUSIVE"

WORKLOADS = ("certify-322", "certify-332", "robustness-322")

VISIBILITY_RANGE = (0.95, 1.0)
ROBUSTNESS_TOLERANCE = 1e-2
MAX_MIXTURE = 3

_R2 = 1.0 / math.sqrt(2.0)
# Bloch-sphere axes of the program's standard suites, setting by setting:
# X, Z and the tilted (Z + X)/sqrt(2).
SUITE_AXES = {
    "w": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    "ghz": ((1.0, 0.0, 0.0), (_R2, 0.0, _R2)),
    "graph": ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (_R2, 0.0, _R2)),
}

# One block of each certify workload, shuffled per block by the seed.  On
# certify-322 half the requests need a certificate and half are feasible.
CERTIFY_322_BLOCK = ("w",) * 3 + ("ghz",) * 3 + ("separable", "basis", "ghz-2body") * 2
CERTIFY_332_BLOCK = ("graph-linear", "graph-loop", "separable")


@dataclass(frozen=True)
class Op:
    """One benchmark operation and its known answer.

    ``kind`` names how the input was built.  Simulated requests carry a
    ``state``/``suite``/``visibility``; measured ones carry the table as the
    JSON text the program ingests.  Robustness operations use ``state`` and
    ``suite`` only.
    """

    kind: str
    expect: str | None
    parties: int
    settings: int
    state: str | None = None
    suite: str | None = None
    visibility: float = 1.0
    max_bodies: int | None = None
    table_json: str | None = None
    mixture: tuple = ()


def observable_keys(parties: int, settings: int):
    """Every moment key with at most one letter per party, in sorted order."""
    keys = []
    for size in range(1, parties + 1):
        for group in combinations(range(1, parties + 1), size):
            for choice in product(range(settings), repeat=size):
                keys.append(tuple(zip(group, choice)))
    return sorted(keys)


def _unit_vector(rng: random.Random):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            return tuple(x / norm for x in v)


def random_mixture(rng: random.Random, parties: int):
    """Up to MAX_MIXTURE product pure states, as (weight, Bloch vectors)."""
    count = rng.randint(1, MAX_MIXTURE)
    raw = [-math.log(1.0 - rng.random()) for _ in range(count)]
    total = sum(raw)
    return tuple(
        (w / total, tuple(_unit_vector(rng) for _ in range(parties))) for w in raw
    )


def mixture_values(mixture, suite: str, parties: int, settings: int):
    """Correlators of a product-state mixture measured along a suite's axes."""
    axes = SUITE_AXES[suite]
    values = {}
    for key in observable_keys(parties, settings):
        value = 0.0
        for weight, blochs in mixture:
            term = weight
            for party, setting in key:
                a, b = axes[setting], blochs[party - 1]
                term *= a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            value += term
        values[key] = max(-1.0, min(1.0, value))
    return values


def separable_table_json(mixture, suite: str, parties: int, settings: int) -> str:
    """The table document text of a separable mixture, via the program's schema."""
    from momentcert import CorrelatorTable, Scenario, table_document

    values = mixture_values(mixture, suite, parties, settings)
    table = CorrelatorTable.from_values(Scenario(parties, settings), values)
    return json.dumps(table_document(table))


def _visibility(rng: random.Random) -> float:
    lo, hi = VISIBILITY_RANGE
    return lo + (hi - lo) * rng.random()


def _certify_op(kind: str, rng: random.Random, parties: int, settings: int) -> Op:
    if kind in ("w", "ghz", "graph-linear", "graph-loop"):
        suite = "graph" if kind.startswith("graph") else kind
        return Op(kind, NONLOCAL, parties, settings, state=kind, suite=suite,
                  visibility=_visibility(rng))
    if kind == "ghz-2body":
        return Op(kind, INCONCLUSIVE, parties, settings, state="ghz", suite="ghz",
                  visibility=_visibility(rng), max_bodies=2)
    if kind == "basis":
        bits = "".join(rng.choice("01") for _ in range(parties))
        return Op(kind, INCONCLUSIVE, parties, settings, state=f"basis:{bits}",
                  suite=rng.choice(("w", "ghz")))
    if kind == "separable":
        suite = "graph" if settings == 3 else rng.choice(("w", "ghz"))
        mixture = random_mixture(rng, parties)
        return Op(kind, INCONCLUSIVE, parties, settings, suite=suite, mixture=mixture,
                  table_json=separable_table_json(mixture, suite, parties, settings))
    raise ValueError(f"unknown operation kind {kind!r}")


def generate(workload: str, seed: int, count: int) -> list[Op]:
    """The first ``count`` operations of a workload's stream for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "robustness-322":
        order = ["w", "ghz"]
        rng.shuffle(order)
        return [Op("robustness", None, 3, 2, state=s, suite=s)
                for s in (order * count)[:count]]
    if workload == "certify-322":
        block, settings = CERTIFY_322_BLOCK, 2
    elif workload == "certify-332":
        block, settings = CERTIFY_332_BLOCK, 3
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops: list[Op] = []
    while len(ops) < count:
        kinds = list(block)
        rng.shuffle(kinds)
        ops.extend(_certify_op(kind, rng, 3, settings) for kind in kinds)
    return ops[:count]
