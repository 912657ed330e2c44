"""Benchmark of parafusion's command line, run from one process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  The benchmark imports `parafusion.cli` once and then forks one
child per request, which calls `parafusion.cli.main(argv)` with its output
sent to a pipe.  So each request sees the program as a fresh `parafusion`
process does (no lru cache entry left over from an earlier request, and
memory that starts from the import), yet no interpreter start falls inside
the timed span.  The timed span runs from the fork until the report is read
and the child reaped.  Requests run one at a time: a closed loop with one
client.

A run repeats the workload's fixed batch of requests (a round), in a new
seeded order each round, as long as the next round is expected to end
within `--seconds`, and makes at least MIN_ROUNDS rounds.  Each round
starts with SETUP_SPAWNS_PER_ROUND set-up spawns.  Every report is checked
against the reference code as soon as it arrives, outside the timed spans,
and then dropped.

The machine this was built on is a shared VM.  Under sustained full load
it is throttled, so the client rests after each request, spawn and
calibration for as long as it took (REST), which keeps the load at half a
CPU.  Other tenants still slow it, by tens of percent, in spells of a
second to minutes.  So right before each request and each spawn the client
times a calibration: a forked child that runs a fixed loop of tuple and
dict work and calls no program code.  Each time is then scaled to the
speed at which that loop takes CAL_NOMINAL_S, the speed being the median
of the CAL_HALF_WINDOW calibrations on each side (stats.speed_corrected).
A change to the program moves the times and not the calibration; a slow
spell of the machine moves both.

With `--trace 0` the last line of output holds the end-to-end metrics, all
times speed-corrected:

* setup_s      time for a fresh interpreter to import parafusion.cli and
               build its argument parser: the median over every spawn;
* wall_s       the batch time: the sum over the requests of each one's
               median over the rounds;
* req_p50_s    the median of every request of every round;
* req_tail_s   the tail percentile of the same samples: the one with ten
               samples beyond it when the run makes MIN_ROUNDS rounds
               (see stats.py);
* peak_rss_mb  the largest peak resident set of any request's process.

With `--trace 1` the run makes each request once untraced and once with
the wrappers of tracing.py installed; the last line holds the
per-layer metrics of the traced requests, the import times from
`python -X importtime`, and the tracing overhead (traced minus untraced
time).  Spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# perfbench/ is on sys.path: it is this script's directory
import checks
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_ROUNDS = 3  # a batch of 20 requests or more then gives at least 60 samples
REST = 1.0  # idle time after each request, spawn or calibration, as a share of its time
SETUP_SPAWNS_PER_ROUND = 3
CAL_LOOPS = 30_000  # the calibration child: about 20 ms of fork, tuple and dict work
CAL_NOMINAL_S = 0.020  # times are reported at the speed where it takes this
CAL_HALF_WINDOW = 4  # calibration times on each side that set a sample's speed
IMPORTTIME_SPAWNS = 5
READY = "import parafusion.cli as cli; cli.build_parser()"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import parafusion.cli from this checkout's src/, and nothing else."""
    if not (SRC / "parafusion" / "cli.py").is_file():
        fail(f"no program source at {SRC}/parafusion; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import parafusion.cli

    if Path(parafusion.cli.__file__).resolve().parent != SRC / "parafusion":
        fail(f"imported {parafusion.cli.__file__}, not the checkout's copy")
    return parafusion.cli


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(args: list[str], env: dict) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode:
        fail(f"{args} exited {done.returncode}: {done.stderr.strip()}")
    return done


def setup_spawn() -> float:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    env = _program_env()
    start = time.perf_counter()
    _spawn(["-c", READY], env)
    seconds = time.perf_counter() - start
    time.sleep(REST * seconds)
    return seconds


def calibrate() -> float:
    """Seconds for a forked child to run a fixed loop of tuple and dict work
    and exit: how fast the shared machine runs a request-like process right
    now.  The child calls no program code."""
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            seen: dict[tuple[int, int], int] = {}
            for i in range(CAL_LOOPS):
                key = (i % 251, i % 241)
                seen[key] = seen.get(key, 0) + i
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    seconds = time.perf_counter() - start
    time.sleep(REST * seconds)
    return seconds


def measure_imports() -> dict:
    """Import times from `python -X importtime`, medians over spawns: the
    self time of each parafusion module, everything (total) and the part
    outside parafusion (stdlib)."""
    env = _program_env()
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_SPAWNS):
        err = _spawn(["-X", "importtime", "-c", READY], env).stderr
        own = total = 0.0
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = [f.strip() for f in line[len("import time:"):].split("|")]
            if not fields[0].isdigit():
                continue  # the header line
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            if name == "parafusion.cli":
                total = cumulative_us / 1e6
            if name == "parafusion" or name.startswith("parafusion."):
                samples.setdefault(f"import.{name}_s", []).append(self_us / 1e6)
                own += self_us / 1e6
        samples.setdefault("import.total_s", []).append(total)
        samples.setdefault("import.stdlib_s", []).append(total - own)
    return {name: (statistics.median(v), "s") for name, v in samples.items()}


def build_batch(workload: str, seed: int) -> list:
    """The workload's requests, drawn in a child process so that the memory
    the drawing uses never becomes part of a request's resident set."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            batch = workloads.build(workload, seed)
            with os.fdopen(write_end, "wb") as out:
                out.write(pickle.dumps(batch))
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        fail(f"could not build the {workload} workload")
    return pickle.loads(data)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def run_request(cli, argv: list[str], traced: bool = False):
    """Run one request in a forked child, traced or not.

    Returns (seconds, peak RSS in KiB, exit status, stdout bytes, trace payload).
    The wrappers are installed in the child, so the benchmark's own process
    never runs traced code.
    """
    out_r, out_w = os.pipe()
    trace_r, trace_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(out_r)
            os.close(trace_r)
            os.dup2(out_w, 1)
            os.close(out_w)
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                status = exc.code if isinstance(exc.code, int) else 2
            sys.stdout.flush()
            os.close(1)
            if tracer is not None:
                with os.fdopen(trace_w, "wb") as out:
                    out.write(pickle.dumps(tracer.payload()))
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            os._exit(status)
    os.close(out_w)
    os.close(trace_w)
    report = _read_all(out_r)
    payload = _read_all(trace_r)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return (seconds, usage.ru_maxrss, os.waitstatus_to_exitcode(status), report,
            pickle.loads(payload) if payload else None)


SETUP = -1  # the timeline key of a set-up spawn


class Run:
    """Samples and verdicts of one benchmark run."""

    def __init__(self, cli, batch):
        self.cli, self.batch = cli, batch
        # (request index or SETUP, seconds, calibration seconds just before)
        self.timeline: list[tuple[int, float, float]] = []
        self.rounds = 0
        self.peak_kib = 0
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def request(self, index: int, traced: bool = False, aggregate=None, spans_out=None):
        """Run and check one request; its seconds, or None if it failed."""
        req = self.batch[index]
        seconds, rss_kib, status, stdout, payload = run_request(self.cli, req.argv, traced)
        time.sleep(REST * seconds)
        self.attempted += 1
        if aggregate is not None and payload is not None:
            aggregate.add(index, payload, spans_out)
        try:
            report = json.loads(stdout)
        except ValueError:
            self.failed += 1
            print(f"request failed (exit {status}, no report): {req.argv}", file=sys.stderr)
            return None
        self.peak_kib = max(self.peak_kib, rss_kib)
        for problem in checks.check(req.kind, req.expect, status, report):
            self.problems.append(f"{' '.join(req.argv)}: {problem}")
        return seconds

    def timed(self, key: int, measure) -> None:
        """One calibration, then one sample of `measure`, on the timeline."""
        calibration = calibrate()
        seconds = measure()
        if seconds is not None:
            self.timeline.append((key, seconds, calibration))

    def round(self, order: random.Random) -> None:
        """SETUP_SPAWNS_PER_ROUND set-up spawns, then the batch in a new order."""
        for _ in range(SETUP_SPAWNS_PER_ROUND):
            self.timed(SETUP, setup_spawn)
        indices = list(range(len(self.batch)))
        order.shuffle(indices)
        for index in indices:
            self.timed(index, lambda: self.request(index))
        self.rounds += 1

    def corrected(self) -> tuple[list[list[float]], list[float]]:
        """Speed-corrected seconds: per request, and of the set-up spawns."""
        keys, seconds, calibration = zip(*self.timeline)
        fixed = stats.speed_corrected(seconds, calibration, CAL_NOMINAL_S, CAL_HALF_WINDOW)
        per_request: list[list[float]] = [[] for _ in self.batch]
        setup = []
        for key, value in zip(keys, fixed):
            (setup if key == SETUP else per_request[key]).append(value)
        return per_request, setup


def conform(metrics: dict, traced: bool) -> dict:
    """The metrics that BENCHMARK.json lists for this mode, in its order and
    units.  An import time of a module the program no longer has is 0 s;
    any other metric that is missing, or in another unit, is a fault of
    the benchmark, so the run fails rather than print a wrong result."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for entry in manifest["per_layer" if traced else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics and name.startswith("import."):
            metrics[name] = (0.0, unit)
        if name not in metrics:
            fail(f"metric {name} was not measured")
        if metrics[name][1] != unit:
            fail(f"metric {name} is in {metrics[name][1]}, BENCHMARK.json says {unit}")
        out[name] = metrics[name]
    return out


def emit(run: Run, metrics: dict) -> None:
    for problem in run.problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def traced_metrics(run: Run, tag: str) -> dict:
    """Each request once untraced and once traced, back to back, so that the
    overhead is measured over the same spell of the machine."""
    aggregate = tracing.Aggregate()
    untraced = traced = 0.0
    with open(RESULTS / f"spans-{tag}.csv", "w") as spans_out:
        spans_out.write("request,span,parent,name,start,end\n")
        for index in range(len(run.batch)):
            plain = run.request(index)
            timed = run.request(index, True, aggregate, spans_out)
            if plain is not None and timed is not None:
                untraced += plain
                traced += timed
    metrics = aggregate.metrics()
    metrics.update(measure_imports())
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    print(f"tracing overhead {traced - untraced:.3f} s on {untraced:.3f} s "
          f"of {len(run.batch)} untraced requests")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description="Benchmark parafusion's CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_program()
    setup_spawn()  # writes the bytecode cache
    batch = build_batch(args.workload, args.seed)
    if not tracing.caches_empty():
        fail("an lru cache holds entries before the first request")
    run = Run(cli, batch)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    if args.trace:
        metrics = traced_metrics(run, tag)
    else:
        order = random.Random(f"order:{args.seed}")
        begin = last = time.perf_counter()
        while True:
            run.round(order)
            now = time.perf_counter()
            # stop before a round that would end after --seconds
            if run.rounds >= MIN_ROUNDS and 2 * now - last - begin > args.seconds:
                break
            last = now
        per_request, setup = run.corrected()
        summary = stats.summarize([x for s in per_request for x in s],
                                  MIN_ROUNDS * sum(1 for s in per_request if s))
        calibration = [c for _, _, c in run.timeline]
        print(f"{args.workload}: {run.rounds} rounds of {len(batch)} requests; "
              f"calibration loop median {statistics.median(calibration):.6f} s, "
              f"range {min(calibration):.6f}-{max(calibration):.6f} s; "
              + summary.describe())
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (sum(statistics.median(s) for s in per_request if s), "s"),
            "req_p50_s": (summary.p50, "s"),
            "req_tail_s": (summary.tail, "s"),
            "peak_rss_mb": (run.peak_kib / 1024, "MB"),
        }
    (RESULTS / f"{tag}-trace{args.trace}.json").write_text(json.dumps({
        "requests": [req.argv for req in batch],
        "timeline": run.timeline,
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }))
    emit(run, conform(metrics, bool(args.trace)))


if __name__ == "__main__":
    main()
