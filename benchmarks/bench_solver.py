#!/usr/bin/env python3
"""Benchmark the compiled pivot kernel against the pure-NumPy fallback.

Two workloads, each solved identically on both kernels:

  random-lp   a seeded batch of dense LPs (the solver in isolation)
  pipeline    the full 985-style report pipeline on the bundled dataset

The coverage simulator is not timed here: it solves no LPs.

Usage: python benchmarks/bench_solver.py [--lps N]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import numpy as np

import facetbench as fb
from facetbench import lp
from facetbench.profiles import PAPER_985_EXTREMES

DATA = Path(__file__).resolve().parents[1] / "data"


def random_lp_batch(count: int, seed: int = 20240901):
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        nvar = int(rng.integers(3, 12))
        nrow = int(rng.integers(2, 9))
        A = rng.uniform(-1.0, 2.0, size=(nrow, nvar))
        b = rng.uniform(0.5, 8.0, size=nrow)
        c = rng.uniform(-1.0, 1.0, size=nvar)
        rels = tuple(rng.choice(["<=", ">=", "="]) if rng.random() < 0.3 else "<=" for _ in range(nrow))
        problems.append(fb.LpProblem("min", c, A, rels, b))
    return problems


def bench_random_lps(count: int) -> dict[str, float]:
    problems = random_lp_batch(count)
    out = {}
    for kernel in lp.available_kernels():
        lp.set_kernel(kernel)
        t0 = time.perf_counter()
        statuses = [fb.solve_lp(p).status for p in problems]
        out[kernel] = time.perf_counter() - t0
        assert statuses  # keep the loop honest
    return out


def bench_pipeline() -> dict[str, float]:
    ds = fb.load_dataset(DATA / "universities_985.csv")
    out = {}
    for kernel in lp.available_kernels():
        lp.set_kernel(kernel)
        t0 = time.perf_counter()
        ext = fb.extreme_set(ds, override=PAPER_985_EXTREMES)
        fs = fb.enumerate_facets(ds, ext.indices, "extremes")
        part = fb.partition_robust(fs)
        fb.batch_evaluate(ds, part)
        for o in range(ds.n):
            fb.russell_farthest(ds, o)
            fb.closest_on_efpps(fs, ds, o)
        out[kernel] = time.perf_counter() - t0
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lps", type=int, default=500, help="random LP count")
    args = ap.parse_args()

    print(f"kernels available: {lp.available_kernels()}")
    rows = [
        ("random-lp", bench_random_lps(args.lps)),
        ("pipeline", bench_pipeline()),
    ]
    print(f"{'workload':<12}" + "".join(f"{k:>12}" for k in lp.available_kernels()) + f"{'speedup':>10}")
    for name, res in rows:
        cells = "".join(f"{res[k]:>11.3f}s" for k in lp.available_kernels())
        if "cython" in res and "python" in res:
            cells += f"{res['python'] / res['cython']:>9.2f}x"
        print(f"{name:<12}{cells}")
    lp.set_kernel("auto")


if __name__ == "__main__":
    main()
