"""Seeded benchmark of logcone's report pipeline and library path.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload report-witness --seed 1 --seconds 24 --trace 0

With ``--trace 0`` it measures end-to-end metrics: one process, one thread,
a closed loop that starts the next op when the previous one returns, in
whole passes over the workload's seeded inputs for at least ``--seconds``
seconds.  With ``--trace 1`` it runs one pass untraced and one pass with
every layer's public functions wrapped (see spans.py), and reports
per-layer call counts, self times and work counters; the spans go to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl.gz``.

Every op's output is checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when the outputs are correct (the known obstruction defect is counted as
failed ops but tolerated, see ops.py) and the input digest matches the
recorded one; 1 otherwise; 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
SETUP_RUNS = 7
WARMUP_OPS = 3
MIN_P90_SAMPLES = 100  # p90 needs at least 10 samples beyond it


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package() -> None:
    package = SRC / "logcone"
    if not (package / "__init__.py").is_file():
        _die(f"no logcone package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import logcone

    if Path(logcone.__file__).resolve().parent != package.resolve():
        _die(f"imported logcone from {logcone.__file__}, not from {package}")


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    makes the first schema-checked load.  One unmeasured run first fills
    the bytecode cache, as an installed package would have it."""
    data = SRC / "logcone" / "data"
    code = (
        "import logcone.cli\n"
        "from logcone import serialize\n"
        f"serialize.load_graph({str(data / 'd1rd22pt.json')!r})\n"
        f"serialize.load_context({str(data / 'd1rd22pt.ctx.json')!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


class Checker:
    """Checks each op's output; an item's later outputs are compared with
    its first one instead of being checked again."""

    def __init__(self, workload):
        import ops

        self.check = ops.check_report if workload.op == "report" else ops.check_library
        self.classify_error = ops.classify_error
        self.known = {kind: 0 for kind in ops.KNOWN_DEFECTS}
        self.first: dict[int, tuple] = {}
        self.attempted = self.failed = self.unexpected = 0
        self.messages: list[str] = []  # the first few unexpected failures

    def record(self, index, item, output, error) -> None:
        self.attempted += 1
        if error is not None:
            problems = self.classify_error(item, error)
        elif index in self.first and self.first[index][0] == output:
            problems = self.first[index][1]
        else:
            problems = self.check(item, output)
            if index in self.first:
                problems = problems + ["output differs from the item's first output"]
            else:
                self.first[index] = (output, problems)
        if not problems:
            return
        self.failed += 1
        if len(problems) == 1 and problems[0] in self.known:
            self.known[problems[0]] += 1
            return
        self.unexpected += 1
        if len(self.messages) < 20:
            self.messages.append(f"{item.label}: {'; '.join(problems)}")


def _op_for(workload):
    import ops

    return ops.report_op if workload.op == "report" else ops.library_op


def _run_one(op, item):
    start = time.perf_counter()
    try:
        output, error = op(item), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        output, error = None, exc
    return time.perf_counter() - start, output, error


def _warm_up(op, items) -> None:
    for item in items[:WARMUP_OPS]:
        op(item)


def run_untraced(workload, items, seconds: float):
    """Closed loop over the inputs in whole passes, until at least
    ``seconds`` have gone by and p90 has 10 samples beyond it; whole passes
    keep the mix of inputs the same whatever the machine's speed."""
    op = _op_for(workload)
    checker = Checker(workload)
    _warm_up(op, items)
    latencies = []
    start = time.perf_counter()
    i = 0
    while True:
        index = i % len(items)
        if index == 0 and len(latencies) >= MIN_P90_SAMPLES and time.perf_counter() - start >= seconds:
            break
        item = items[index]
        elapsed, output, error = _run_one(op, item)
        latencies.append(elapsed)
        checker.record(index, item, output, error)
        i += 1
    return latencies, checker


def end_to_end(workload, items, seconds: float) -> tuple[dict, Checker, list[str]]:
    latencies, checker = run_untraced(workload, items, seconds)
    notes = [f"samples {len(latencies)} ops: {len(latencies) // len(items)} passes over {len(items)} inputs"]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    metrics = {
        "graphs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
    }
    return metrics, checker, notes


def _pass(op, items, tracer=None):
    """One pass over the inputs; returns its wall time and (output, error)
    per input."""
    results = []
    start = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.op = index
        _, output, error = _run_one(op, item)
        results.append((output, error))
    return time.perf_counter() - start, results


def _probe_counts() -> dict:
    """Calls made by one report of two corpus graphs, the baseline that
    "compute each invariant once" is stated against."""
    import ops
    import spans
    import workloads

    out = {}
    corpus = {item.label: item for item in workloads.corpus_items()}
    for name, keys in (
        ("d1rd22pt", ("intlinalg.smith_normal_form", "lattice.build_rho", "simplex.solve_lp")),
        ("ex32", ("simplex.solve_lp",)),
    ):
        item = corpus[f"corpus:{name}"]
        workloads.prepare(item)
        with spans.Tracer() as tracer:
            ops.report_op(item)
        for key in keys:
            out[f"{name}.{key}.calls"] = (tracer.calls[key], "count")
    return out


def traced(workload, items, seed: int) -> tuple[dict, Checker, list[str]]:
    import spans

    op = _op_for(workload)
    metrics = _probe_counts()
    _warm_up(op, items)
    untraced_s, _ = _pass(op, items)
    with spans.Tracer() as tracer:
        traced_s, results = _pass(op, items, tracer)
    # checks call library functions, so they run after the tracer is removed
    checker = Checker(workload)
    for index, (item, (output, error)) in enumerate(zip(items, results)):
        checker.record(index, item, output, error)

    for name in spans.FUNCTIONS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_ms"] = (tracer.self_s[name] * 1000, "ms")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "bits" if name.endswith("_bits") else "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with gzip.open(path, "wt") as fh:
        for i, (name, start, end, parent, op_index) in enumerate(tracer.spans):
            fh.write(json.dumps([i, parent, op_index, name, start - origin, end - origin]) + "\n")
    notes = [
        f"one pass over {len(items)} inputs: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    return metrics, checker, notes


def main(argv=None) -> int:
    _import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    items = workload.build(args.seed)
    input_digest = workloads.digest(items)
    recorded = json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(args.seed))
    digest_problems = []
    if workloads.digest(workload.build(args.seed)) != input_digest:
        digest_problems.append("inputs differ between two generations from the same seed")
    if recorded is not None and recorded != input_digest:
        digest_problems.append(f"input digest {input_digest} != recorded {recorded}")
    for item in items:
        workloads.prepare(item)

    if args.trace:
        metrics, checker, notes = traced(workload, items, args.seed)
    else:
        setup_s = measure_setup()
        metrics, checker, notes = end_to_end(workload, items, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"python {platform.python_version()}  cpu_count {os.cpu_count()}")
    status = "no record for this seed" if recorded is None else "recorded" if recorded == input_digest else "MISMATCH"
    print(f"input sha256 {input_digest} ({status})")
    for note in notes:
        print(note)
    error_rate = checker.failed / checker.attempted
    print(f"attempted {checker.attempted}  failed {checker.failed}  error_rate {error_rate} ratio")
    for kind, count in checker.known.items():
        if count:
            print(f"{count} failed: {kind}")
    if checker.unexpected:
        print(f"{checker.unexpected} failed unexpectedly, first ones:")
    for problem in digest_problems + checker.messages:
        print(f"FAILED {problem}")
    if args.trace:
        metrics["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    correct = not checker.unexpected and not digest_problems
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
