"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about half a minute:
  * the same seed gives the same requests;
  * two fresh workers give exactly equal search counters on the same round;
  * a planted wrong answer in each workload is judged a failure, so it
    raises failed_frac (and "failed");
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits 0 when every check passes.
"""

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import WORKLOADS

failures = 0


def check(name, ok):
    global failures
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def same_seed_same_requests():
    for name, cls in WORKLOADS.items():
        w = cls()
        check(f"{name}: seed determines requests",
              w.round(random.Random(7)) == w.round(random.Random(7)))


def counters_repeat():
    for name in ("search-exhaustive", "profiles-found"):
        w = WORKLOADS[name]()
        first, second = run.run_passes(w, 11, 0, modes=(False, False))
        a, b = w.counters(first["items"]), w.counters(second["items"])
        check(f"{name}: {len(a)} instances give equal counters in two workers", bool(a) and a == b)


def planted_wrong_answer():
    cases = {
        "search-exhaustive": lambda req, rep: req["symmetry"] is False,
        "profiles-found": lambda req, rep: req["op"] == "detlaw",
        "algebra": lambda req, rep: req["op"] == "decompose",
    }
    for name, pick in cases.items():
        w = WORKLOADS[name]()
        [result] = run.run_passes(w, 5, 0)
        items, replies = result["items"], result["check_replies"]
        clean, _ = run.verdict_counts(w, result)
        i = next(i for i, (req, rep) in enumerate(items) if pick(req, rep))
        planted = copy.deepcopy(items)
        res = planted[i][1]["result"]
        if name == "search-exhaustive":
            d = len(planted[i][0]["form"])
            res["basis"] = None if res["basis"] else [[int(r == c) for c in range(d)] for r in range(d)]
        elif name == "profiles-found":
            res["det"] = str(int(res["det"]) + 1)
        else:
            res["C"] = str(int(res["C"]) + 1)
        wrong, _ = run.verdict_counts(w, {"items": planted, "check_replies": replies})
        check(f"{name}: planted wrong answer raises failed from {len(clean)} to {len(wrong)}",
              not clean and len(wrong) == 1)
    w = WORKLOADS["replay-cli"]()
    items = [(e, {"exit": e["exit"], "stdout": e["stdout"], "stderr": ""}) for e in w.commands]
    clean, _ = run.verdict_counts(w, {"items": items, "check_replies": []})
    items[0][1]["stdout"] += "extra\n"
    wrong, _ = run.verdict_counts(w, {"items": items, "check_replies": []})
    check(f"replay-cli: changed stdout raises failed from {len(clean)} to {len(wrong)}",
          not clean and len(wrong) == 1)


def refuses_without_program():
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        shutil.copytree(run.HERE, f"{tmp}/perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        done = subprocess.run(
            bench["command"] + ["--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check("without src/semiortho: non-zero exit and no result line",
          done.returncode != 0 and '"correct"' not in done.stdout)


if __name__ == "__main__":
    same_seed_same_requests()
    counters_repeat()
    planted_wrong_answer()
    refuses_without_program()
    sys.exit(1 if failures else 0)
