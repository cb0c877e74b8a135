"""The treewiener benchmark: seeded CLI workloads, checked against references.

    python3 benchmarks/run.py --workload closed-form-large --seed 1 \
        --seconds 20 --trace 0

Every request goes through `treewiener.cli.main(argv)` in this process, one
at a time (a closed loop with one client), with stdout captured and checked
against `reference`.  A pass runs the workload's fixed request list once;
passes repeat while the next one still fits in --seconds.  wall_s is the
median pass; the latency percentiles are over every request of every pass.
A request fails when it raises, exits non-zero, or prints something other
than the reference; failures are timed like any other request.  The program
runs with the interpreter's default str(int) digit limit, so W values past
4300 digits fail today, and count.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: self time and calls per
public function from `tracer`, counts derived from arguments and results,
and the tracing overhead.  The spans of the first traced pass are written
to .bench_out/spans-<workload>.tsv.

Lines before the last describe the environment and each metric with its
sample count; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when any request
printed output that disagrees with the reference.  --smoke runs tiny request
lists, for the benchmark's own tests (selftest.py).
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_CODE = f"""\
import sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
import treewiener.cli
treewiener.cli.build_parser()
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SELF_TIMED = ("cli.main", "exact.fib", "exact.fib_table", "exact.exact_div",
              "formulas.wiener_binomial", "formulas.wiener_binomial_recurrence",
              "formulas.wiener_fib", "formulas.wiener_binfib", "formulas.d_binfib",
              "compose.replay_family", "compose.join", "trees.generate",
              "trees.serialize", "trees.parse", "oracle.wiener_bfs",
              "oracle.wiener_linear")
CALL_COUNTED = ("exact.fib", "exact.exact_div", "formulas.d_binfib", "compose.join")

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    **{f"{name}.self_s": "s" for name in SELF_TIMED if name != "cli.main"},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    "formulas.max_result_bits": "bits",
    "trees.nodes_materialized": "count",
    "trees.edge_list_bytes": "bytes",
    "oracle.wiener_bfs.vertex_visits": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    """Outcome of running a request list once."""

    wall: float
    latencies: list
    failed: int
    wrong: int  # failed requests whose printed output disagreed with the reference
    stdout_bytes: int


def run_pass(cli, requests) -> Pass:
    """Run every request through cli.main, then check the outputs."""
    latencies, results = [], []
    begin = perf_counter()
    for req in requests:
        out = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:  # a crash is a failed request, not a benchmark error
            code = "raised"
        latencies.append(perf_counter() - t0)
        results.append((code, out.getvalue()))
    wall = perf_counter() - begin
    failed = wrong = stdout_bytes = 0
    for req, (code, stdout) in zip(requests, results):
        stdout_bytes += len(stdout.encode())
        good_output = req.output_ok(stdout)
        failed += code != 0 or not good_output
        # A crash or error exit that printed nothing is a failure; printed
        # output that disagrees with the reference is a wrong answer.
        wrong += not good_output and (code == 0 or stdout != "")
    return Pass(wall, latencies, failed, wrong, stdout_bytes)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup(samples: int) -> list:
    """Seconds for `import treewiener.cli` plus build_parser(), each in a
    fresh interpreter; one unmeasured run first writes the bytecode cache."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(proc.stdout))
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, requests) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "requests_per_pass": len(requests),
        "trace": args.trace,
        "smoke": args.smoke,
    }


def repeat(seconds, step):
    """Call step() at least once, and again while another call of the
    median duration so far still fits in `seconds`."""
    begin = perf_counter()
    durations = []
    while True:
        t0 = perf_counter()
        step()
        durations.append(perf_counter() - t0)
        if perf_counter() - begin + statistics.median(durations) > seconds:
            return


def end_to_end(cli, requests, args):
    setup = measure_setup(2 if args.smoke else 15)
    passes = []
    repeat(args.seconds, lambda: passes.append(run_pass(cli, requests)))
    latencies = [t for p in passes for t in p.latencies]
    attempted = len(requests) * len(passes)
    failed = sum(p.failed for p in passes)
    n = len(latencies)
    above = n - math.ceil(0.9 * n)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes),
                   f"median of {len(passes)} passes"),
        "latency_p50_s": (statistics.median(latencies), f"n={n} requests"),
        "latency_p90_s": (nearest_rank(latencies, 0.9),
                          f"n={n} requests, {above} above"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "this process"),
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} fresh interpreters"),
    }
    return passes, attempted, failed, metrics


def per_layer(cli, modules, requests, args):
    t = tracer.Tracer(modules)
    for missing in t.missing:
        print(f"note: {missing} not found, not traced")
    plain, traced, layer_runs, counters = [], [], [], {}
    spans_out = ROOT / ".bench_out" / f"spans-{args.workload}.tsv"

    def step():
        plain.append(run_pass(cli, requests))
        t.install()
        try:
            traced.append(run_pass(cli, requests))
        finally:
            t.uninstall()
        layer_runs.append(t.self_times())
        if len(traced) == 1:
            counters.update(t.counters)
            spans_out.parent.mkdir(exist_ok=True)
            t.write_spans(spans_out)

    repeat(args.seconds, step)
    passes = plain + traced
    attempted = len(requests) * len(passes)
    failed = sum(p.failed for p in passes)
    metrics = {}
    for name in SELF_TIMED:
        key = "cli.self_s" if name == "cli.main" else f"{name}.self_s"
        metrics[key] = (statistics.median(r[name][1] for r in layer_runs),
                        f"median of {len(layer_runs)} traced passes")
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = (layer_runs[0][name][0], "first traced pass")
    metrics["cli.stdout_bytes"] = (traced[0].stdout_bytes, "first traced pass")
    for name in tracer.COUNTERS:
        metrics[name] = (counters[name], "first traced pass")
    metrics["oracle.wiener_bfs.vertex_visits"] = (
        counters["oracle.wiener_bfs.vertex_visits"], "computed as the sum of n^2 over calls")
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain),
        f"traced minus untraced wall_s, {len(traced)} pairs of passes")
    return passes, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "treewiener" / "cli.py").is_file():
        print(f"error: no treewiener sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treewiener.cli as cli
    from treewiener import compose, formulas, oracle, trees
    modules = {"cli": cli, "compose": compose, "formulas": formulas,
               "oracle": oracle, "trees": trees}

    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        requests = workloads.WORKLOADS[args.workload](rng, args.smoke, Path(workdir))
        print("env " + json.dumps(environment(args, requests)))
        if args.trace:
            passes, attempted, failed, metrics = per_layer(cli, modules, requests, args)
            units = PER_LAYER_UNITS
        else:
            passes, attempted, failed, metrics = end_to_end(cli, requests, args)
            units = END_TO_END_UNITS

    for name, (value, note) in metrics.items():
        print(f"metric {name} {value!r} {units[name]} ({note})")
    print(f"metric error_rate {failed / attempted!r} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
