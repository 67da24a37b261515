#!/usr/bin/env python3
"""facetbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Each workload is a single-client closed loop: one operation is
outstanding at a time, from one process.

With --trace 0 every operation runs module facetbench.cli as __main__ in
a fresh interpreter (what `python -m facetbench.cli ...` runs, behind a
short prologue that records the process's own peak RSS), timed from spawn
to exit, and the end-to-end metrics are printed.  With --trace 1 the CLI's
own `main` runs in-process on the same arguments, alternating untraced and
traced operations, and the per-layer metrics are printed.  Every output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

End-to-end metrics of one run:

  setup_s      median wall time of fresh interpreters that import facetbench
               and load the workload's CSV, sampled through the run
  op_s_min     fastest successful operation, spawn to exit
  peak_rss_mb  median over operations of the child's own peak RSS (VmHWM,
               which starts afresh at exec, so the runner's memory is not
               a floor under it)

items_per_s (work items in one operation, DMUs, trials or subsets, divided
by op_s_min), the median and tail operation times, and failed_ratio are
printed but not gated.  On a shared two-vCPU host the core speed changes
by up to 2x with other tenants' load, over seconds to minutes; that moves
the median and the tail between runs of one commit by more than any useful
bound, and the fastest operation least.
"""

import os

# Pinned before NumPy loads, here and in every child, so that the SVDs in
# facet enumeration cannot start BLAS threads on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 7        # at least this many fresh interpreters timed per run for setup_s
SETUP_EVERY = 5          # one set-up sample before every fifth operation
OP_TIMEOUT_S = 100.0
SHOWN_FAILURES = 3

ENV_CODE = (
    "import json, platform, sys, numpy, facetbench\n"
    "from facetbench import lp\n"
    "facetbench.load_dataset(sys.argv[1])\n"
    "k = getattr(lp, 'kernel_name', None)\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
    "                  'kernel': k() if k else 'missing', 'facetbench': facetbench.__file__}))\n"
)
SETUP_CODE = "import sys, facetbench; facetbench.load_dataset(sys.argv[1])"
# Runs facetbench.cli as __main__ and, at exit, writes the process's own
# peak RSS in kB to the file named by the first argument.  VmHWM belongs to
# the memory map made at exec; ru_maxrss from wait4 would also carry the
# runner's resident size over from the fork.
CLI_CODE = (
    "import atexit, runpy, sys\n"
    "out = sys.argv.pop(1)\n"
    "def record():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = next(line.split()[1] for line in f if line.startswith('VmHWM:'))\n"
    "    with open(out, 'w') as f:\n"
    "        f.write(kb)\n"
    "atexit.register(record)\n"
    "runpy.run_module('facetbench.cli', run_name='__main__', alter_sys=True)\n"
)


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Child:
    seconds: float
    code: int
    out: bytes
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, errpath: Path) -> Child:
    """Run one process to completion; wall time from spawn to reaping.  On
    a timeout, or when the runner itself is interrupted, the child is
    killed and reaped."""
    with errpath.open("w+b") as err:
        t0 = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=err, timeout=OP_TIMEOUT_S)
            code, out = done.returncode, done.stdout
        except subprocess.TimeoutExpired:
            code, out = -signal.SIGKILL, b""
        seconds = time.perf_counter() - t0
        err.seek(0)
        tail = err.read()[-2000:].decode("utf-8", "replace")
    return Child(seconds, code, out, tail)


def cli_json(args: list[str], env: dict, errpath: Path) -> dict:
    """One untimed CLI command whose JSON output the checks start from."""
    c = run_child([sys.executable, "-m", "facetbench.cli", *args], env, errpath)
    if c.code != 0:
        raise BenchError(f"facet-bench {' '.join(args)} exited {c.code}: {c.err}")
    return json.loads(c.out)


def tail_percentile(n: int) -> int | None:
    """The highest of the usual tail percentiles with at least ten of n
    samples beyond it, or None when none has."""
    return max((p for p in (75, 90, 95, 99) if n - math.ceil(p / 100.0 * n) >= 10), default=None)


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """(value at the percentile, number of samples beyond it)."""
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


def environment_line(info: dict, prep, args) -> str:
    return (f"env: python={info['python']} numpy={info['numpy']} kernel={info['kernel']} "
            f"nproc={len(os.sched_getaffinity(0))} workload={prep.workload} seed={prep.seed} "
            f"seconds={args.seconds} trace={args.trace} "
            f"threads=OPENBLAS/OMP/MKL={os.environ['OPENBLAS_NUM_THREADS']}")


def check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"facetbench imported from {path}, not from {SRC}")


def run_end_to_end(prep, args, env, work: Path) -> dict:
    errpath = work / "stderr.txt"
    csv = prep.csv
    info_child = run_child([sys.executable, "-c", ENV_CODE, csv], env, errpath)  # also warms __pycache__
    if info_child.code != 0:
        raise BenchError(f"importing facetbench failed: {info_child.err}")
    info = json.loads(info_child.out)
    check_source(info["facetbench"])
    print(environment_line(info, prep, args))

    def setup_sample() -> float:
        c = run_child([sys.executable, "-c", SETUP_CODE, csv], env, errpath)
        if c.code != 0:
            raise BenchError(f"setup child failed: {c.err}")
        return c.seconds

    rss_path = work / "vmhwm.txt"
    argv = [sys.executable, "-c", CLI_CODE, str(rss_path), *prep.argv]
    setup, times, rss, attempted, failures = [], [], [], 0, []
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        if attempted % SETUP_EVERY == 0:
            setup.append(setup_sample())
        attempted += 1
        rss_path.unlink(missing_ok=True)
        c = run_child(argv, env, errpath)
        problem = None
        if c.code != 0:
            problem = f"exit code {c.code}: {c.err.strip()}"
        else:
            try:
                prep.check(json.loads(c.out))
                rss_mb = int(rss_path.read_text()) / 1024.0
            except Exception as exc:  # any malformed or wrong output is a failed operation
                problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
            continue
        times.append(c.seconds)
        rss.append(rss_mb)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    for problem in failures[:SHOWN_FAILURES]:
        print(f"failed operation: {problem}", file=sys.stderr)

    metrics = {"setup_s": (statistics.median(setup), "s")}
    print(f"operations: {attempted} attempted, {len(failures)} failed, "
          f"failed_ratio = {len(failures) / attempted:.4g}; setup_s is the median of {len(setup)} "
          "fresh interpreters spread through the run")
    if times:
        best = min(times)
        metrics.update({
            "op_s_min": (best, "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        })
        pct = tail_percentile(len(times))
        runner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"items_per_s = {prep.items / best:.6g} 1/s: {prep.items} {prep.item_name} per operation "
              "at the fastest operation (reported, not gated)")
        print(f"peak_rss_mb is each child's own VmHWM; the runner's own peak RSS is {runner_mb:.1f} MB")
        if pct is None:
            tail_text = "too few for a tail percentile with ten samples beyond it"
        else:
            tail, beyond = nearest_rank(times, pct)
            tail_text = f"op_s_p{pct} = {tail:.6g} s with {beyond} beyond it"
        print(f"op_s_p50 = {statistics.median(times):.6g} s; {tail_text}: "
              f"{len(times)} operations (reported, not gated)")
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


COUNT_KEYS = ("lp.calls", "lp.pivots", "lp.optimal", "lp.infeasible", "lp.degenerate",
              "measures.extreme.lps", "measures.closest.lps", "measures.russell.lps",
              "signpattern.lps", "facets.subsets", "scenario.lps")


def cli_in_process(argv: list[str]) -> dict:
    """Run facetbench.cli's main on argv in this process; its parsed JSON
    output.  A non-zero exit raises."""
    from facetbench import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def run_traced(prep, args) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy

    import facetbench
    from facetbench import lp

    import spans

    check_source(facetbench.__file__)
    kernel = getattr(lp, "kernel_name", None)
    info = {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernel": kernel() if kernel else "missing"}
    print(environment_line(info, prep, args))
    cli_in_process(prep.argv)  # lazy set-up and caches, untimed

    untraced, traced, per_op, walls, tracers, failures = [], [], [], [], [], []
    summary = None
    missing: list[str] = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        order = (False, True) if attempted % 4 == 0 else (True, False)
        for with_trace in order:
            attempted += 1
            tracer = spans.Tracer(op=attempted) if with_trace else spans.NullTracer()
            restore = []
            try:
                if with_trace:
                    restore, missing = spans.install(tracer)
                t0 = time.perf_counter()
                with tracer.span("op"):
                    payload = cli_in_process(prep.argv)
                elapsed = time.perf_counter() - t0
                prep.check(payload)
            except Exception as exc:  # a program error or a wrong output is a failed operation
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                spans.uninstall(restore)
            if not with_trace:
                untraced.append(elapsed)
                continue
            op_summary = spans.summarize(tracer.spans)
            op_metrics = spans.layer_metrics(op_summary, missing)
            if per_op and any(op_metrics.get(k) != per_op[0].get(k) for k in COUNT_KEYS):
                failures.append("deterministic counts differ between traced operations")
                continue
            if summary is None:
                summary = op_summary
            traced.append(elapsed)
            tracers.append(tracer)
            per_op.append(op_metrics)
            walls.append(op_summary["wall"])
    for problem in failures[:SHOWN_FAILURES]:
        print(f"failed operation: {problem}", file=sys.stderr)

    metrics = {}
    if per_op and untraced:
        for name, first in per_op[0].items():
            unit = spans.UNITS[name]
            # counts are equal in every traced operation (checked above)
            value = first if unit == "count" else statistics.median(m[name] for m in per_op)
            metrics[name] = (value, unit)
        # fastest against fastest, for the reason op_s_min is the gated time
        metrics["trace.overhead_ratio"] = (min(traced) / min(untraced), "ratio")
        print(spans.table(summary, {k: statistics.median(w[k] for w in walls) for k in summary["wall"]}))
        spans_path = WORK / f"spans-{prep.workload}.jsonl"
        spans.write_spans(spans_path, tracers)
        print(f"traced {len(traced)} and untraced {len(untraced)} in-process operations; "
              f"spans written to {spans_path.relative_to(ROOT)}")
    if missing:
        print(f"missing wrap targets (their metrics are left out): {', '.join(missing)}")
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "facetbench" / "__init__.py").is_file() or not (ROOT / workloads.DATA_985).is_file():
        print(f"no facetbench source tree at {ROOT} (need src/facetbench and data/)", file=sys.stderr)
        return 2

    # Unwind on SIGTERM too, so the finally clauses stop the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    env = child_env()
    try:
        prep = workloads.prepare(args.workload, args.seed, work,
                                 lambda a: cli_json(a, env, work / "stderr.txt"))
        if args.trace:
            result = run_traced(prep, args)
        else:
            result = run_end_to_end(prep, args, env, work)
    except (BenchError, workloads.CheckError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
