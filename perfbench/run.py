"""Benchmark of graphfp: four closed-loop workloads, one client, at most one
child process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a graphfp checkout; it imports graphfp from ``src/``.
With ``--trace 0`` it sets the workload up, then runs whole passes over the
workload's fixed op list until ``--seconds`` have passed, checks every result
against ``oracles`` (or the golden transcripts) and prints the end-to-end
metrics.  With ``--trace 1`` it makes one profiled pass instead and prints the
per-layer metrics.  The last line of stdout is the JSON result; a copy goes
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import profiling
import workloads
from workloads import OP_TIMEOUT_S

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

# Set-ups measured per timed run, each in a fresh interpreter but the last,
# which is the run's own; setup_s is their median.
SETUP_SAMPLES = 3

# Ops that fail on every attempt because of a fault in graphfp (see
# README.md).  They count in `failed`; any other failure also clears
# `correct`.
KNOWN_FAULTS = {"pair.tri.same_vertex"}


class Failed:
    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Failed({self.reason})"


def _alarm(_signum, _frame):
    raise TimeoutError(f"operation ran past {OP_TIMEOUT_S} s")


def run_in_process(op, trace):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return profiling.profiled(op.run) if trace else (op.run(), [])
    except Exception as exc:  # the op failed; the run goes on
        return Failed(repr(exc)), []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_forked(op, trace):
    """Run the op in a child forked from this process, which imported graphfp
    but computed nothing, so every op starts with empty caches."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            result, rows = profiling.profiled(op.run) if trace else (op.run(), [])
            payload = {"result": result, "rows": rows}
        except BaseException as exc:  # reported to the parent, which goes on
            payload = {"error": repr(exc)}
        with os.fdopen(write_fd, "w") as pipe:
            json.dump(payload, pipe)
        os._exit(0)
    os.close(write_fd)
    deadline = time.monotonic() + OP_TIMEOUT_S
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return Failed("timed out"), []
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.waitpid(pid, 0)
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return Failed("child sent no result"), []
    if "error" in payload:
        return Failed(payload["error"]), []
    return payload["result"], payload["rows"]


def run_cli(op, trace):
    if not trace:
        try:
            return op.run(), []
        except subprocess.TimeoutExpired as exc:
            return Failed(repr(exc)), []
    rows_path = OUT / f"trace-{op.label}.rows.json"
    rows_path.unlink(missing_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, "-c", profiling.CLI_CHILD.format(here=str(HERE)),
             str(rows_path), *op.argv],
            cwd=ROOT,
            env=workloads.cli_env(ROOT),
            capture_output=True,
            timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return Failed(repr(exc)), []
    rows = json.loads(rows_path.read_text()) if rows_path.exists() else []
    return [done.returncode, done.stdout], rows


RUNNERS = {
    "cli_golden": run_cli,
    "cumulant_cold": run_forked,
    "freeness_scan": run_in_process,
    "moment_chain": run_in_process,
}


def setup(workload, seed):
    start = time.perf_counter()
    ops = workloads.build(workload, seed, ROOT)
    return ops, time.perf_counter() - start


def setup_in_fresh_interpreter(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def check(ops, results):
    """(failed, correct): ops that raised, timed out or disagree with their
    oracle, and whether every such op is a known fault."""
    expected = {}
    failed = 0
    unexpected = set()
    for i, result in results:
        op = ops[i]
        if i not in expected:
            expected[i] = op.expect()
        if isinstance(result, Failed) or result != expected[i]:
            failed += 1
            if op.label not in KNOWN_FAULTS and op.label not in unexpected:
                unexpected.add(op.label)
                print(f"perfbench: {op.label} failed: got {result!r:.300}, "
                      f"want {expected[i]!r:.300}", file=sys.stderr)
    return failed, not unexpected


def _cpu_s():
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def _peak_rss_mb():
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def timed(workload, seed, seconds):
    samples = [setup_in_fresh_interpreter(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    ops, own = setup(workload, seed)
    samples.append(own)
    runner = RUNNERS[workload]
    results, times = [], []
    cpu_start = _cpu_s()
    start = time.perf_counter()
    passes = 0
    # Whole passes, ending at the pass boundary nearest to `seconds`.
    while True:
        for i, op in enumerate(ops):
            t = time.perf_counter()
            result, _rows = runner(op, False)
            times.append(time.perf_counter() - t)
            results.append((i, result))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu_start
    failed, correct = check(ops, results)
    n = len(results)
    metrics = {
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "cpu_per_op_s": (cpu / n, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(samples), "s"),
    }
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload, seed):
    ops, _setup_s = setup(workload, seed)
    runner = RUNNERS[workload]
    totals = profiling.Totals()
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        result, rows = runner(op, True)
        totals.add(rows)
        results.append((i, result))
    wall = time.perf_counter() - start
    failed, correct = check(ops, results)
    print(f"perfbench: traced pass of {len(ops)} ops took {wall:.3f} s "
          f"({len(ops) / wall:.4f} ops/s)", file=sys.stderr)
    import_s, import_fock_s = profiling.import_times(workloads.cli_env(ROOT))
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": totals.metrics(import_s, import_fock_s),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphfp" / "__init__.py").is_file() or not (
        ROOT / "tests" / "golden"
    ).is_dir():
        print("perfbench: run from the root of a graphfp checkout "
              "(src/graphfp and tests/golden not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        print(setup(args.workload, args.seed)[1])
        return 0
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced(args.workload, args.seed)
    else:
        result = timed(args.workload, args.seed, args.seconds)
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
