#!/usr/bin/env python3
"""Record the reference digests the output checks compare against.

    python3 perfbench/record_reference.py

Runs the CLI from `src/` on every workload input (coverage for seeds
0..REFERENCE_SEEDS-1; partition once, as its seeds change only units) and
writes perfbench/reference.json.
Record only from a commit whose outputs are known good: a program change
that alters these outputs must say so, and re-recording hides it
otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import synth
import workloads
from workloads import DATA_985, PROFILE, ROOT, digest, report_digest

REFERENCE_SEEDS = 32


def cli(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "facetbench.cli", *args], cwd=ROOT, env=env,
                         check=True, capture_output=True)
    return json.loads(out.stdout)


def main() -> None:
    report = cli(["report", "--data", DATA_985, "--profile", PROFILE, "--format", "json"])
    ref = {
        "report-985": report_digest(report),
        "facets-985": digest(report["facets"]),
        "coverage-985": {},
    }
    _, raw_in, _, _ = workloads.read_csv(ROOT / DATA_985)
    xbar = ",".join(raw_in[workloads.COVERAGE_XBAR_DMU])
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for seed in range(REFERENCE_SEEDS):
            cov = cli(["coverage", "--data", DATA_985, "--profile", PROFILE, "--xbar", xbar,
                       "--trials", str(workloads.COVERAGE_TRIALS), "--seed", str(seed)])
            ref["coverage-985"][str(seed)] = digest(cov)
        path = Path(tmp) / "synth.csv"
        synth.write_csv(path, *synth.generate(0)[:3])
        part = cli(["partition", "--data", str(path.relative_to(ROOT))])
        ref["partition-synth"] = digest(part["partition"])
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
