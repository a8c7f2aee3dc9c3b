"""Time-to-verdict benchmark for semiortho.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.

Load model: closed loop, one client, one request in flight.  This process
is the only client.  In-process workloads send each round, as one list, to
one fresh worker process (worker.py), which answers its requests one after
another; imports and the library's caches start cold once per run and are
never cleared.  replay-cli starts one fresh ``python -m semiortho.cli``
process per request.  A run is a whole number of rounds of equal
composition (see workloads.py): at least MIN_ROUNDS rounds and MIN_SAMPLES
verdicts, then more while the next round is expected to end within S
seconds of the start, counting the setup_s samples taken between rounds.

--trace 0 prints the end-to-end metrics, each over all verdicts of the run.
verdict_ms.p50 and .p90 are the median and nearest-rank 90th percentile of
the time per verdict (the worker's own time per request, or the process
wall time for replay-cli); verdicts_per_s is the number of verdicts over
the summed wall time of the rounds.  Taking them over the whole run, not
per round, averages the host's speed over the run and the seeded inputs
over all rounds.  setup_s is the median wall time of fresh ``import
semiortho.cli`` processes, sampled before and between rounds; peak_rss_mb
is the largest child process's peak RSS.  failed_frac gets a line of its
own.
--trace 1 sends every round first to an untraced and then to a traced
worker (tracer.py), for about S seconds in all, checks that both give the
same verdicts, and prints the per-layer metrics and trace.overhead_frac.

Every verdict is checked, untimed, against an independent answer.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Known CLI contract defects recorded in golden.json count in
failed_frac but not in "failed"; any other wrong verdict counts in both.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from math import ceil
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SAMPLES = 100
MIN_ROUNDS = 5
SETUP_PROCESSES = 9
DEADLINE_S = 170

END_TO_END_UNITS = {
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name, unit).  calls/busy_s come from the spans, the
# rest from counters recorded at the same boundaries.
PER_LAYER = (
    ("startup.interpreter_s", "s"), ("startup.import_s", "s"),
    ("intpoly.eval.calls", "count"), ("intpoly.eval.busy_s", "s"),
    ("intpoly.construct.calls", "count"), ("intpoly.construct.busy_s", "s"),
    ("exactmat.det.calls", "count"), ("exactmat.det.busy_s", "s"),
    ("exactmat.det.max_n", "count"),
    ("exactmat.inverse.calls", "count"), ("exactmat.inverse.busy_s", "s"),
    ("exactmat.matrix_order.calls", "count"), ("exactmat.matrix_order.busy_s", "s"),
    ("eulerform.gram.calls", "count"), ("eulerform.gram.busy_s", "s"),
    ("eulerform.serre.calls", "count"), ("eulerform.serre.busy_s", "s"),
    ("sonb.search.calls", "count"), ("sonb.search.busy_s", "s"),
    ("sonb.search.placements", "count"), ("sonb.search.pairing_rejections", "count"),
    ("sonb.search.dependent_rejections", "count"), ("sonb.search.useful_ratio", "ratio"),
    ("sonb.enumerate.calls", "count"), ("sonb.enumerate.busy_s", "s"),
    ("sonb.enumerate.vectors_scanned", "count"), ("sonb.enumerate.candidates", "count"),
    ("sonb.orbits.busy_s", "s"),
    ("sonb.verify.calls", "count"), ("sonb.verify.busy_s", "s"),
    ("cyclotomic.mul.calls", "count"), ("cyclotomic.mul.busy_s", "s"),
    ("cyclotomic.inverse.calls", "count"), ("cyclotomic.inverse.busy_s", "s"),
    ("reptheory.character_table.busy_s", "s"), ("reptheory.character_table.cache_hits", "count"),
    ("reptheory.v3_matrix.calls", "count"), ("reptheory.v3_matrix.busy_s", "s"),
    ("reptheory.inner_product.calls", "count"), ("reptheory.inner_product.busy_s", "s"),
    ("lefschetz.solve_hlfp0.busy_s", "s"),
    ("lefschetz.h0_trace.calls", "count"), ("lefschetz.h0_trace.busy_s", "s"),
    ("atlas.load.calls", "count"), ("atlas.load.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.render.busy_s", "s"), ("cli.render.bytes", "count"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def check_module(path):
    if not Path(path).resolve().is_relative_to(SRC):
        raise BenchError(f"semiortho was imported from {path}, not from {SRC}")


class SetupTimer:
    """Wall time of fresh interpreters importing semiortho.cli.

    Samples are taken before the first round and after each round, so their
    median spans the whole run.  One unmeasured process goes first, so a
    fresh checkout's bytecode compilation is not counted.
    """

    ARGV = (sys.executable, "-c", "import semiortho, semiortho.cli")

    def __init__(self, first):
        self.samples = []
        self._run()
        self.samples.clear()
        for _ in range(first):
            self._run()

    def _run(self):
        start = time.perf_counter()
        done = subprocess.run(self.ARGV, cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
        self.samples.append(time.perf_counter() - start)
        if done.returncode:
            raise BenchError("import semiortho.cli failed:\n" + done.stderr.decode())

    def after_round(self):
        self._run()

    def median(self, at_least):
        while len(self.samples) < at_least:
            self._run()
        return statistics.median(self.samples)


class InProcess:
    """One worker.py process; requests are answered strictly one at a time."""

    def __init__(self, traced):
        self.traced = traced

    def __enter__(self):
        argv = [sys.executable, str(HERE / "worker.py"), "serve"] + (["--trace"] if self.traced else [])
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            ready = self._read()
            check_module(ready["module"])
        except BaseException:
            self.__exit__()
            raise
        self.interpreter_s = ready["started"] - spawned
        self.import_s = ready["import_s"]
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker exited unexpectedly")
        return json.loads(line)

    def ask(self, message):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def run_round(self, batch):
        """(replies, seconds per request, round wall seconds) of one round."""
        answer = self.ask(batch)
        replies = answer["replies"]
        return replies, [r["t"] for r in replies], answer["wall"]

    def checks(self, requests):
        return [self.ask(r) for r in requests]

    def peak_rss_kb(self):
        return self.ask({"op": "peak_rss_kb"})["result"]

    def summary(self):
        summary = self.ask({"op": "trace_summary"})["result"]
        summary["interpreter_s"] = [self.interpreter_s]
        summary["import_s"] = [self.import_s]
        return summary


class CliProcesses:
    """Runs each request as a fresh CLI process; traced ones go through worker.py."""

    def __init__(self, traced):
        self.traced = traced
        self.summaries = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def run_round(self, batch):
        start = time.perf_counter()
        replies, times = [], []
        for entry in batch:
            reply, elapsed = self.request(entry)
            replies.append(reply)
            times.append(elapsed)
        return replies, times, time.perf_counter() - start

    def request(self, entry):
        argv = entry["argv"]
        if not self.traced:
            return self._run([sys.executable, "-m", "semiortho.cli", *argv], None)
        read_end, write_end = os.pipe()
        try:
            cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(write_end), *argv]
            reply, elapsed = self._run(cmd, write_end)
        finally:
            os.close(write_end)
            with os.fdopen(read_end) as f:
                trace = f.read()
        if trace:
            summary = json.loads(trace)
            check_module(summary["module"])
            summary["interpreter_s"] = summary["started"] - reply.pop("spawned")
            self.summaries.append(summary)
        return reply, elapsed

    def _run(self, cmd, pass_fd):
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, pass_fds=(pass_fd,) if pass_fd is not None else (),
        )
        try:
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        elapsed = time.perf_counter() - start
        return {"exit": proc.returncode, "stdout": stdout, "stderr": stderr, "spawned": start}, elapsed

    def checks(self, requests):
        return []

    def peak_rss_kb(self):
        # Largest reaped child.  ru_maxrss also covers this process's memory
        # at spawn time, which stays below a CLI process's own peak here.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def summary(self):
        merged = {"spans": 0, "layers": {}, "counters": {}, "interpreter_s": [], "import_s": []}
        for s in self.summaries:
            merged["spans"] += s["spans"]
            for name, v in s["layers"].items():
                m = merged["layers"].setdefault(name, {"calls": 0, "busy_s": 0.0})
                m["calls"] += v["calls"]
                m["busy_s"] += v["busy_s"]
            for name, v in s["counters"].items():
                old = merged["counters"].get(name, 0)
                merged["counters"][name] = max(old, v) if name.endswith(".max_n") else old + v
            merged["interpreter_s"].append(s["interpreter_s"])
            merged["import_s"].append(s["import_s"])
        return merged


def run_passes(workload, seed, seconds, modes=(False,), min_rounds=1, min_samples=MIN_SAMPLES,
               between=None):
    """Closed-loop passes over the same whole rounds, one per entry of `modes`.

    Each mode (traced or not) gets its own runner, and every round is run by
    each runner in turn, so the passes see the same inputs at nearly the same
    time; only one request is ever in flight.  A new round starts while fewer
    than `min_rounds` rounds or `min_samples` verdicts are done, or while the
    time since the first round started plus the last round's time (all
    passes and `between`, which runs after each round, unmeasured) stays
    within `seconds`.
    """
    runner_cls = CliProcesses if workload.name == "replay-cli" else InProcess
    with ExitStack() as stack:
        runners = [stack.enter_context(runner_cls(traced)) for traced in modes]
        passes = [{"items": [], "round_times": [], "round_walls": []} for _ in modes]
        first = passes[0]
        started = time.perf_counter()
        last = 0.0
        r = 0
        while True:
            done = r >= min_rounds and len(first["items"]) >= min_samples
            if done and time.perf_counter() - started + last > seconds:
                break
            round_start = time.perf_counter()
            batch = workload.round(random.Random(seed * 1_000_003 + r))
            for runner, result in zip(runners, passes):
                replies, times, wall = runner.run_round(batch)
                result["items"].extend(zip(batch, replies))
                result["round_times"].append(times)
                result["round_walls"].append(wall)
            if between:
                between()
            last = time.perf_counter() - round_start
            r += 1
        for runner, result in zip(runners, passes):
            result["check_replies"] = runner.checks(workload.check_requests(result["items"]))
            result["summary"] = runner.summary() if runner.traced else None
            result["peak_rss_kb"] = runner.peak_rss_kb()
    return passes


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(ceil(q * len(ordered)) - 1, 0)]


def verdict_counts(workload, result):
    """(failure messages, number of recorded known defects) of a pass."""
    verdicts = workload.judge(result["items"], result["check_replies"])
    failures = [v for v in verdicts if v not in ("ok", "known-defect")]
    return failures, verdicts.count("known-defect")


def comparable(replies):
    """Replies without timings, error text reduced to its last line."""
    out = []
    for reply in replies:
        reply = {k: v for k, v in reply.items() if k not in ("t", "spawned")}
        if "error" in reply:
            reply["error"] = reply["error"].strip().splitlines()[-1]
        if "stderr" in reply:
            reply["stderr"] = "Traceback" in reply["stderr"]
        out.append(reply)
    return out


def layer_metrics(summary, overhead, failed_frac):
    layers, counters = summary["layers"], summary["counters"]
    values = {
        "startup.interpreter_s": statistics.median(summary["interpreter_s"]),
        "startup.import_s": statistics.median(summary["import_s"]),
        "trace.overhead_frac": overhead,
        "failed_frac": failed_frac,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        layer, _, key = name.rpartition(".")
        if key in ("calls", "busy_s"):
            values[name] = layers.get(layer, {}).get(key, 0)
        elif key == "useful_ratio":
            tried = sum(counters.get(f"{layer}.{k}", 0) for k in
                        ("placements", "pairing_rejections", "dependent_rejections"))
            values[name] = counters.get(f"{layer}.placements", 0) / tried if tried else 0.0
        else:
            values[name] = counters.get(name, 0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semiortho" / "__init__.py").is_file():
        raise BenchError(f"no semiortho package under {SRC}")
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    workload = WORKLOADS[args.workload]()

    if args.trace == 0:
        setup = SetupTimer(first=3)
        [result] = run_passes(workload, args.seed, args.seconds,
                              min_rounds=MIN_ROUNDS, between=setup.after_round)
        failures, known = verdict_counts(workload, result)
        times = [t for round_times in result["round_times"] for t in round_times]
        n = len(times)
        metrics = {
            "verdict_ms.p50": statistics.median(times) * 1000,
            "verdict_ms.p90": nearest_rank(times, 0.9) * 1000,
            "verdicts_per_s": n / sum(result["round_walls"]),
            "setup_s": setup.median(at_least=SETUP_PROCESSES),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        correct = not failures
        print(f"workload {workload.name} seed {args.seed}: {n} verdicts in "
              f"{len(result['round_walls'])} rounds, {sum(result['round_walls']):.3f} s")
        for name, value in metrics.items():
            samples = f" ({n} samples)" if name.startswith("verdict_ms") else ""
            print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{samples}")
        print(f"failed_frac = {(len(failures) + known) / n:.6g} ({len(failures)} wrong, "
              f"{known} known CLI contract defects, of {n} verdicts)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        plain, traced = run_passes(workload, args.seed, args.seconds, modes=(False, True), min_samples=0)
        failures, known = verdict_counts(workload, plain)
        same = (
            comparable(r for _, r in plain["items"]) == comparable(r for _, r in traced["items"])
            and comparable(plain["check_replies"]) == comparable(traced["check_replies"])
        )
        n = len(plain["items"])
        overhead = sum(traced["round_walls"]) / sum(plain["round_walls"]) - 1
        correct = not failures and same
        if not same:
            print("traced verdicts differ from untraced verdicts")
        result = plain
        metrics = layer_metrics(traced["summary"], overhead, (len(failures) + known) / n)
        print(f"workload {workload.name} seed {args.seed}: {n} verdicts traced, "
              f"{traced['summary']['spans']} spans")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    for message in failures[:20]:
        print(f"FAILED {message}")
    for line in workload.counters(result["items"]):
        print(f"counters {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
