"""finkite's benchmark: four seeded closed-loop workloads, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One process, one thread, one client: each op starts when the previous
one has finished and its oracle has run.  A run repeats whole passes
over the workload's fixed multiset of ops, each pass in a fresh seeded
order, until `--seconds` have elapsed, so every run has the same op mix.

`setup_s` comes from cold set-ups in fresh interpreters
(bench/cold_start.py), spread evenly over the timed loop and run
between its passes, outside op time.  `--trace 0` prints the end-to-end
metrics.  `--trace 1` runs the same
loop untraced and then traced, and prints the per-layer metrics (per
pass) and the tracing overhead; the spans go to bench/out/.  `--smoke`
runs one pass of every workload at tiny sizes, traced, with every
oracle on and no timing gate.  The last line of stdout is the result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (WORKLOADS, OracleFailure, cli_call,  # noqa: E402
                       first_of_each_type, known_defect_requests)

SETUPS = 9          # cold set-ups per run; setup_s is their median
MODULES = LAYERS + ("gallery",)


def import_finkite() -> SimpleNamespace:
    """A fresh import of finkite from this checkout's src/, so that the
    tracer of an earlier smoke workload does not carry over."""
    for name in [n for n in sys.modules
                 if n == "finkite" or n.startswith("finkite.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"finkite.{name}")
            for name in MODULES}
    where = Path(mods["finmaps"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"finkite imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload, seed, scale, workdir):
    """Import, input generation and warm-up: one run of the first op of
    each type, oracle included.  Returns the modules, the ops and the
    warm-up's failures."""
    m = import_finkite()
    ops = WORKLOADS[workload](m, random.Random(f"{workload}/{seed}"), scale,
                              workdir)
    warm = Loop()
    warm.run_pass(first_of_each_type(ops), random.Random(0))
    return m, ops, warm.failures


class ColdStarts:
    """SETUPS cold set-ups of the workload, each in a fresh interpreter,
    due at even steps of the loop's op time so that they sample the same
    stretch of the host's time as the ops do."""

    def __init__(self, workload, seed, workdir, seconds):
        self.argv = [sys.executable, str(BENCH / "cold_start.py"), workload,
                     str(seed), workdir]
        self.due = [seconds * (i + 0.5) / SETUPS for i in range(SETUPS)]
        self.times: list[float] = []

    def __call__(self, elapsed):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            out = subprocess.run(self.argv, capture_output=True, text=True,
                                 timeout=120, check=True)
            self.times.append(float(out.stdout))


class Loop:
    """Latencies and oracle verdicts of the ops run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, ops, order_rng, tracer=None):
        order = list(ops)
        order_rng.shuffle(order)
        for op in order:
            if tracer:
                tracer.op_id += 1
            start = perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:    # a raising op is a failed op
                out, error = None, exc
            self.latencies.append(perf_counter() - start)
            if error is None:
                try:
                    op.check(out)
                except (OracleFailure, LookupError, TypeError, ValueError,
                        AttributeError) as exc:
                    error = exc
            if error is not None:
                self.failures.append(f"{op.kind}: {type(error).__name__}: "
                                     f"{error}")
        self.passes += 1

    def run_for(self, ops, seconds, order_rng, tracer=None, between=None):
        """Whole passes until `seconds` of loop time have elapsed.
        `between(elapsed)` runs after each pass, outside loop time."""
        elapsed = 0.0
        while elapsed < seconds:
            start = perf_counter()
            self.run_pass(ops, order_rng, tracer)
            elapsed += perf_counter() - start
            if between:
                between(elapsed)
        return self


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "finkite").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "commit": git_commit(),
            "src_sha256": digest.hexdigest(), "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "seconds": args.seconds, "trace": args.trace}


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def known_defects(m, workdir) -> list[dict]:
    """Requests with a known wrong exit at the parent commit; reported on
    their own line, outside the timed loop."""
    out = []
    for argv in known_defect_requests(workdir):
        try:
            code = cli_call(m, argv)[0]
        except Exception as exc:
            code = type(exc).__name__
        out.append({"argv": [Path(a).name for a in argv], "expected_exit": 2,
                    "got": code, "fixed": code == 2})
    return out


def measure(args) -> int:
    workload = args.workload
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        m, ops, warm_failures = set_up(workload, args.seed, "full", workdir)
        print(json.dumps({"provenance": provenance(args)}))
        order_rng = random.Random(f"{workload}/{args.seed}/order")
        cold = ColdStarts(workload, args.seed,
                          tempfile.mkdtemp(prefix="cold-", dir=workdir),
                          args.seconds)
        gc.collect()
        loop = Loop().run_for(ops, args.seconds, order_rng, between=cold)
        loop.failures += warm_failures
        metrics, summary = summarise(workload, loop, cold.times)
        if args.trace:
            tracer = Tracer()
            tracer.install(vars(m))
            traced = Loop().run_for(ops, args.seconds, order_rng, tracer)
            trace_path = OUT / f"trace-{workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            untraced_rate = metrics["ops_per_s"]["value"]
            traced_rate = len(traced.latencies) / sum(traced.latencies)
            metrics = _with_units({
                **tracer.metrics(traced.passes),
                "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
                "trace.ops_per_s_traced": (traced_rate, "1/s"),
                "trace.overhead_ratio": (untraced_rate / traced_rate, "ratio"),
            })
            loop.latencies += traced.latencies
            loop.failures += traced.failures
            print(json.dumps({"trace_file": str(trace_path.relative_to(ROOT)),
                              "spans": len(tracer.spans),
                              "spans_dropped": tracer.dropped,
                              "traced_passes": traced.passes}))
        print(json.dumps({"summary": summary}))
        if workload == "cli_requests":
            print(json.dumps({"known_defects": known_defects(m, workdir)}))
        for line in loop.failures[:20]:
            print(f"FAILED {line}", file=sys.stderr)
        failed = len(loop.failures)
        print(json.dumps({"correct": failed == 0,
                          "attempted": len(loop.latencies), "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def summarise(workload, loop, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, and a summary line that adds failed_ratio
    and the sample counts."""
    lat = sorted(loop.latencies)
    n = len(lat)
    p90 = percentile(lat, 90)
    metrics = _with_units({
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    })
    summary = {"workload": workload, "ops": n, "passes": loop.passes,
               "ops_per_pass": n // loop.passes,
               "samples_beyond_p90": sum(1 for v in lat if v > p90),
               "failed_ratio": {"value": len(loop.failures) / n, "unit": "1"},
               "setup_s_each": setups, **metrics}
    return metrics, summary


def _with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def smoke() -> int:
    """One traced pass of every workload at tiny sizes, oracles on."""
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=OUT)
    failures = []
    try:
        for workload in WORKLOADS:
            m, ops, warm_failures = set_up(workload, 1, "smoke", workdir)
            tracer = Tracer()
            tracer.install(vars(m))
            loop = Loop()
            loop.failures += warm_failures
            loop.run_pass(ops, random.Random(1), tracer)
            layers = {layer: tracer.layer_calls[layer] for layer in LAYERS}
            print(json.dumps({"workload": workload, "ops": len(ops),
                              "failed": loop.failures, "layer_calls": layers}))
            failures += loop.failures
            if workload == "cli_requests":
                print(json.dumps({"known_defects": known_defects(m, workdir)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"smoke": "ok" if not failures else "failed",
                      "failed": len(failures)}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "finkite" / "__init__.py").is_file():
        print(f"error: no finkite sources at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required without --smoke")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
