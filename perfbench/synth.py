"""Seeded synthetic dataset for the partition-synth workload.

Shaped like the 985 study (m=2 inputs, s=3 outputs).  The extreme units
lie on the boundary of the convex cone ||y||_2 <= sqrt(x1 * x2), which is
strictly curved across rays, so no convex combination of the others can
dominate one of them and each passes the extreme test.  Every other unit
is a convex combination of three extreme units with its inputs inflated
and its outputs deflated: a dominating combination without the unit
exists, so its test value is 0.  The extreme count, and with it the
number of subsets enumerated, C(|E|, s+m-1), is therefore fixed.

The units themselves come from one fixed draw (GEOMETRY_SEED); the
workload seed draws the unit of measure of every column.  DEA results do
not depend on units, so every seed has the same facets and the same
enumeration work, while every number in the file changes with the seed.
A seed that also drew the geometry would change the work per operation
by about 30% between seeds: the count of subsets with a positive normal,
and how far each support scan runs before it finds a violating unit,
both depend on it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EXTREMES = 24
DOMINATED = 16
M, S = 2, 3
SUBSETS = math.comb(EXTREMES, S + M - 1)
GEOMETRY_SEED = 0


def generate(seed: int) -> tuple[list[str], np.ndarray, np.ndarray, frozenset[str]]:
    """(names, inputs m x n, outputs s x n, names of the extreme units)."""
    rng = np.random.default_rng([0x5EED, GEOMETRY_SEED])
    x = rng.uniform(100.0, 1000.0, size=(M, EXTREMES))
    g = rng.uniform(0.2, 1.0, size=(S, EXTREMES))
    y = g / np.linalg.norm(g, axis=0) * np.sqrt(x[0] * x[1])
    xd = np.empty((M, DOMINATED))
    yd = np.empty((S, DOMINATED))
    for k in range(DOMINATED):
        idx = rng.choice(EXTREMES, size=3, replace=False)
        w = rng.dirichlet(np.ones(3))
        xd[:, k] = (x[:, idx] @ w) * (1.0 + rng.uniform(0.05, 0.3))
        yd[:, k] = (y[:, idx] @ w) * (1.0 - rng.uniform(0.05, 0.3))
    order = rng.permutation(EXTREMES + DOMINATED)
    units = np.random.default_rng([0x0417, seed])
    inputs = np.hstack([x, xd])[:, order] * 10.0 ** units.uniform(-2.0, 2.0, size=(M, 1))
    outputs = np.hstack([y, yd])[:, order] * 10.0 ** units.uniform(-2.0, 2.0, size=(S, 1))
    names = [f"U{j:02d}" for j in range(EXTREMES + DOMINATED)]
    extremes = frozenset(names[j] for j in range(len(order)) if order[j] < EXTREMES)
    return names, inputs, outputs, extremes


def write_csv(path: Path, names: list[str], inputs: np.ndarray, outputs: np.ndarray) -> None:
    """Dataset CSV as FORMATS.md describes it, values at repr precision."""
    header = ["dmu"] + [f"in:x{i + 1}" for i in range(M)] + [f"out:y{r + 1}" for r in range(S)]
    lines = [",".join(header)]
    for j, name in enumerate(names):
        cells = [name] + [repr(float(v)) for v in inputs[:, j]] + [repr(float(v)) for v in outputs[:, j]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
