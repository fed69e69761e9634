#!/usr/bin/env bash
#===- bench_compare.sh - Parent vs change gate on the repo benchmark -----===#
#
# Part of the USpec reproduction (PLDI 2019). MIT license.
#
# The repo's one performance gate (README "Benchmarks"). It runs the repo
# benchmark, perfbench/run.py, on two checkouts on the same machine:
#
#   1. copies the change's perfbench/ and BENCHMARK.json over PARENT_DIR, so
#      both sides run the same benchmark code against their own sources;
#   2. for every workload in BENCHMARK.json, runs 3 pairs of
#        python3 perfbench/run.py --workload W --seed 3 --seconds S
#      (S is BENCHMARK.json's run_seconds), alternating which side goes
#      first, and prints each run's result as one JSON line;
#   3. prints a parent/change table of every end_to_end metric's median and
#      fails (exit 1) when
#        - a change median is worse than the parent's by more than the
#          metric's bound, in the metric's `better` direction;
#        - any run prints "correct": false, or no result line at all (a
#          run that run.py rejects because its load generator fell behind
#          is measured again, up to 3 attempts);
#        - the change's share of failed operations is higher than the
#          parent's.
#
# PARENT_DIR is modified (step 1); use a scratch checkout or worktree.
# Each side builds into its own .bench_build/. A gate run takes about
# 12 x run_seconds plus the runs' set-up and the two builds.
#
# Usage: scripts/bench_compare.sh PARENT_DIR CHANGE_DIR
#
#===----------------------------------------------------------------------===#
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: scripts/bench_compare.sh PARENT_DIR CHANGE_DIR" >&2
  exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
if [ "$PARENT" = "$CHANGE" ]; then
  echo "error: PARENT_DIR and CHANGE_DIR are the same directory" >&2
  exit 2
fi

rm -rf "$PARENT/perfbench"
cp -R "$CHANGE/perfbench" "$PARENT/perfbench"
cp "$CHANGE/BENCHMARK.json" "$PARENT/BENCHMARK.json"

python3 - "$PARENT" "$CHANGE" <<'EOF'
import json, os, subprocess, sys
from statistics import median

sides = {"parent": sys.argv[1], "change": sys.argv[2]}
with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
    spec = json.load(f)
PAIRS, SEED, ATTEMPTS = 3, 3, 3
runs, problems = {}, []


def measure(w, side, pair):
    """One run's result line, or None. A run that run.py rejects because
    its load generator fell behind (a busy host, not the program) is
    measured again, up to ATTEMPTS times in all."""
    for attempt in range(1, ATTEMPTS + 1):
        p = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", w, "--seed",
             str(SEED), "--seconds", str(spec["run_seconds"])],
            cwd=sides[side], capture_output=True, text=True)
        sys.stderr.write(p.stderr)
        r = json.loads(p.stdout.splitlines()[-1]) if p.returncode == 0 else None
        print(json.dumps({"workload": w, "side": side, "pair": pair,
                          "attempt": attempt, "exit": p.returncode,
                          "result": r}), flush=True)
        if r is not None or "run rejected" not in p.stderr:
            return r, p.returncode
    return None, p.returncode


for w in [w["name"] for w in spec["workloads"]]:
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            r, code = measure(w, side, pair)
            if r is None:
                problems.append(f"{w}: {side} run {pair} printed no result "
                                f"(exit {code})")
                continue
            if not r["correct"]:
                problems.append(f'{w}: {side} run {pair} printed '
                                '"correct": false')
            runs.setdefault((w, side), []).append(r)

print(f"\n{'':4} {'metric':28} {'parent':>12} {'change':>12} {'delta':>8}"
      f" {'bound':>6}")
for w in [w["name"] for w in spec["workloads"]]:
    par, chg = runs.get((w, "parent")), runs.get((w, "change"))
    if not par or not chg:
        continue
    for m in spec["end_to_end"]:
        pm = median(r["metrics"][m["name"]]["value"] for r in par)
        cm = median(r["metrics"][m["name"]]["value"] for r in chg)
        delta = (cm - pm) / pm if pm else 0.0
        worse = delta if m["better"] == "lower" else -delta
        bad = worse > m["bound"]
        label = f"{w}/{m['name']}"
        print(f"{'FAIL' if bad else 'ok':4} {label:28} {pm:12.4f} {cm:12.4f}"
              f" {delta:+8.1%} {m['bound']:6.0%}")
        if bad:
            problems.append(f"{label}: change median {cm:.4f} is worse than "
                            f"parent {pm:.4f} by more than {m['bound']:.0%}")
    share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"]
             for r in rs)) for s, rs in (("parent", par), ("change", chg))}
    bad = share["change"] > share["parent"]
    print(f"{'FAIL' if bad else 'ok':4} {w + '/failed_share':28} "
          f"{share['parent']:12.4f} {share['change']:12.4f}")
    if bad:
        problems.append(f"{w}: change failed a larger share of operations")

for p in problems:
    print(f"FAIL {p}")
print("bench_compare: " + ("FAIL" if problems else "ok, change within "
                          "every bound of its parent"))
sys.exit(1 if problems else 0)
EOF
