"""Frozen inputs for the two lowest layers, timed outside any workload.

L0: `Cyclo` multiply and inverse on seeded dense values at fixed conductors.
L1: two recorded `Echelon` systems replayed into a fresh `Echelon`: the trace
form of a seeded D3 full fiber, and the `Echelon.add` inputs of one case-ii
graded endomorphism system (degree 4 at truncation cap 10, the first system
`auslander --case ii --degree 4 --guard 6` solves at that degree), captured
by wrapping `Echelon.add`.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

CONDUCTORS = (1, 3, 4, 6, 10)
_VALUES = 48       # seeded dense values per conductor
_REPEATS = 5       # timed repetitions; the median is reported


def _dense_values(rng, conductor: int) -> list:
    from qks.cyclotomic import Cyclo, euler_phi

    out = []
    while len(out) < _VALUES:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(euler_phi(conductor))]
        value = Cyclo(conductor, coeffs)
        if not value.is_zero():
            out.append(value)
    return out


def _per_op_us(body, ops: int) -> float:
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        body()
        times.append(perf_counter() - t0)
    return statistics.median(times) / ops * 1e6


def cyclo_timings(seed: int) -> dict:
    """Microseconds per multiply and per inverse at each conductor."""
    rng = random.Random(seed)
    out = {}
    for n in CONDUCTORS:
        values = _dense_values(rng, n)
        pairs = list(zip(values, values[1:] + values[:1])) * 8

        def mul(pairs=pairs):
            for a, b in pairs:
                a * b

        def inv(values=values):
            for a in values:
                a.inverse()

        out[f"cyclotomic.mul_us.c{n}"] = _per_op_us(mul, len(pairs))
        out[f"cyclotomic.inv_us.c{n}"] = _per_op_us(inv, len(values))
    return out


def _replay_ms(rows: list) -> float:
    from qks.linalg import Echelon

    times = []
    for _ in range(3):
        t0 = perf_counter()
        ech = Echelon()
        for row in rows:
            ech.add(row)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def trace_form_system(seed: int) -> list:
    """Rows of the trace form of a seeded D3 full fiber (dim 144)."""
    from qks.catalog import make_case, recipe_for, sample_point
    from qks.fiber import build_fiber, trace_form_matrix

    case = make_case("iii", n=3, localization="full")
    point = sample_point(case, random.Random(seed))
    return trace_form_matrix(build_fiber(case.ring, point, recipe_for(case, point)))


def hom_system() -> list:
    """`Echelon.add` inputs of the case-ii hom system at degree 4, cap 10."""
    from qks import scans
    from qks.catalog import make_case
    from qks.linalg import Echelon

    case = make_case("ii", localization="none")
    algebra, group = case.ring.algebra, case.ring.group
    gens = scans._invariant_algebra_generators(algebra, group, 12)
    recorded = []
    original = Echelon.add

    def add(ech, vec):
        recorded.append(dict(vec))
        return original(ech, vec)

    Echelon.add = add
    try:
        scans._hom_dimension(algebra, group, gens, 4, 10)
    finally:
        Echelon.add = original
    return recorded


def linalg_timings(seed: int) -> dict:
    return {"linalg.replay_ms.hom-ii": _replay_ms(hom_system()),
            "linalg.replay_ms.trace-D3": _replay_ms(trace_form_system(seed))}
