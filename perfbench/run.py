#!/usr/bin/env python3
"""USpec's end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train|serve_hit \
        --seed N --seconds S --trace 0|1

Builds `uspec` and the helper `pbtool` from the checkout's sources
(perfbench/CMakeLists.txt), makes the workload's inputs from --seed, runs
the real `uspec` binary the way a user does, checks every output, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with nothing
traced. With --trace 1 they are the per-layer ones: counters read from
outside the processes (/proc, the replicas' `metrics` verb) after an
untraced run, plus busy times from an in-process replay that pbtool traces
with its own spans (written as Chrome-trace JSON to
.bench_run/<workload>-trace.json). perfbench/README.md defines every
metric and workload.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
from statistics import median
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
RUN_DIR = ROOT / ".bench_run"

TRAIN_PROGRAMS = 20000
TRAIN_THREADS = 4
TRAIN_SETUP_REPEATS = 3

# serve_hit: the served model, the fleet shape and the load. A hot set of
# default-size programs that fits the caches is drawn Zipf-like after a
# warm-up pass that sends each once, so every timed request is a cache hit.
MODEL_PROGRAMS = 4000
REPLICAS = 2
WORKERS = 2
CACHE = 256
SETUP_REPEATS = 15
HOT = 128
ZIPF_S = 0.5  # not 1: the top program would set one replica's share (README)
SEQUENCE = 20000  # Zipf draws after the warm-up pass
RATE = 1000.0  # fixed offered rate, requests/s
FIXED_SHARE = 0.6  # of --seconds, spent at the fixed rate
BLOCK = 1000  # fixed-rate requests per round (one pbtool p50 block)
CLOSED = 6000  # closed-loop requests, over all rounds
SATURATE = 12000  # requests in the saturation bursts, over all rounds
TRACE_COUNT = 5000  # requests after the warm-up in the traced replay
LATE_SHARE = 0.01  # void if more fixed-rate requests went out late
REF_SAMPLES = 16

CHILDREN = []  # every process started, stopped on exit


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(cmd, cwd, **kw):
    p = subprocess.Popen([str(c) for c in cmd], cwd=cwd,
                         stdin=subprocess.DEVNULL, **kw)
    CHILDREN.append(p)
    return p


def reap(p, timeout=20.0):
    try:
        p.wait(timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
    if p in CHILDREN:
        CHILDREN.remove(p)


def run(cmd, cwd, what, capture=False):
    p = spawn(cmd, cwd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
              stderr=subprocess.PIPE, text=True)
    out, err = p.communicate()
    reap(p)
    if p.returncode != 0:
        raise BenchError(f"{what} failed ({p.returncode}): {err[-2000:]}")
    return out


def build():
    """Configures (once) and builds uspec + pbtool inside the checkout."""
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    src = ROOT / "perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("no USpec sources in this directory (src/ is missing)")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "perfbench-build.log", "w") as logf:
        if not (bdir / "CMakeCache.txt").exists():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(["cmake", "-S", str(src), "-B", str(bdir)] + gen,
                                 stdout=logf, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError(f"cmake configure failed; see {bdir}/perfbench-build.log")
        rc = subprocess.call(["cmake", "--build", str(bdir), "--target", "uspec",
                              "pbtool", "-j", "4"],
                             stdout=logf, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError(f"build failed; see {bdir}/perfbench-build.log")
    return bdir / "tools" / "uspec", bdir / "pbtool"


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def run_train(seed, seconds, trace, uspec, pbtool, work):
    n = TRAIN_PROGRAMS
    run([uspec, "gen", "--profile", "java", "-n", n, "--seed", seed, "-o",
         "corpus"], work, "uspec gen")
    files = [f"corpus/prog{i}.mini" for i in range(n)]
    # Writing 20000 files leaves the disk busy for seconds; start every
    # timing with no dirty pages queued behind the artifact's fsync.
    os.sync()
    # Set-up is the reference the timed runs are checked against: `uspec
    # train --threads 1` (the 1-thread == N-thread contract), made
    # TRAIN_SETUP_REPEATS times from the cold corpus. All must agree.
    setup_s, refs = [], set()
    for k in range(TRAIN_SETUP_REPEATS):
        t0 = time.perf_counter()
        run([uspec, "train", *files, "-o", "ref.uspb", "--threads", "1"], work,
            "reference uspec train")
        setup_s.append(time.perf_counter() - t0)
        refs.add((work / "ref.uspb").read_bytes())
    if len(refs) != 1:
        raise BenchError("--threads 1 runs on one corpus wrote different "
                         "artifacts")
    ref = refs.pop()

    if trace:
        (work / "files.txt").write_text("\n".join(files) + "\n")
        out = run([pbtool, "trace-train", "--files", "files.txt", "--reference",
                   "ref.uspb", "--out", "replay.uspb", "--trace-out",
                   RUN_DIR / "train-trace.json"], work, "pbtool trace-train",
                  capture=True)
        layer = json.loads(out.strip().splitlines()[-1])
        if layer["trace.unattributed_pct"] > 10.0:
            raise BenchError("traced train replay leaves more than 10% of its "
                             "wall time unattributed")
        return dict(attempted=int(layer["trace.checks"]),
                    failed=int(layer["trace.failed"]), layer=layer, samples={})

    walls, rss = [], []
    attempted = failed = 0
    start = time.monotonic()
    while len(walls) < 3 or time.monotonic() - start < seconds:
        out_path = work / "out.uspb"
        if out_path.exists():
            out_path.unlink()
        t0 = time.perf_counter()
        p = spawn([uspec, "train", *files, "-o", "out.uspb", "--threads",
                   TRAIN_THREADS], work, stdout=subprocess.DEVNULL,
                  stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        CHILDREN.remove(p)
        attempted += 1
        if p.returncode != 0 or out_path.read_bytes() != ref:
            failed += 1
            log(f"train run {attempted}: exit {p.returncode} or artifact "
                "differs from the --threads 1 reference")
        walls.append(wall)
        rss.append(usage.ru_maxrss / 1024.0)
    e2e = {
        "programs_per_s": median([n / w for w in walls]),
        "p50_ms": median(walls) * 1e3,
        "peak_rss_mb": median(rss),
        "setup_s": median(setup_s),
    }
    samples = {"programs_per_s": len(walls), "p50_ms": len(walls),
               "peak_rss_mb": len(rss),
               "setup_s": len(setup_s)}
    return dict(attempted=attempted, failed=failed, e2e=e2e, samples=samples)


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------

def round_trip(path, line, timeout=10.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(str(path))
        s.sendall(line.encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return buf.decode().strip()


def wait_answer(path, line, deadline):
    while True:
        try:
            resp = round_trip(path, line)
            if '"ok":true' in resp:
                return resp
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise BenchError(f"no answer from {path}")
        time.sleep(0.0002)


def copy_stderr(p, logf, listening):
    """Copies a fleet process's stderr to the fleet's log and sets
    `listening` at its "listening on" line, which `uspec serve` and `uspec
    route` print just before they bind their socket."""
    for line in p.stderr:
        logf.write(line)
        if "listening on" in line:
            listening.set()
    listening.set()  # at EOF too: the socket check then reports the death


class Fleet:
    """REPLICAS `uspec serve --socket` replicas behind one `uspec route`."""

    def __init__(self, uspec, work, idx, model, probe_line):
        self.dir = work / f"fleet{idx}"
        self.dir.mkdir()
        rel = self.dir.relative_to(ROOT)
        socks = [f"r{i}.sock" for i in range(REPLICAS)]
        self.replica_socks = [rel / s for s in socks]
        self.router_sock = rel / "router.sock"
        self.errs = open(self.dir / "stderr.log", "w")
        t0 = time.perf_counter()
        self.replicas = [
            spawn([uspec, "serve", "--model", model, "--workers", WORKERS,
                   "--cache", CACHE, "--socket", s], self.dir,
                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            for s in socks]
        self.router = spawn([uspec, "route", "--socket", "router.sock",
                             "--replicas", ",".join(socks)], self.dir,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
        self.copiers = []
        for p in self.replicas + [self.router]:
            listening = threading.Event()
            t = threading.Thread(target=copy_stderr,
                                 args=(p, self.errs, listening), daemon=True)
            t.start()
            self.copiers.append((t, listening))
        # Block on the processes' own "listening" lines, so that polling the
        # sockets does not take CPU from the starting processes; the polls
        # below only bridge the gap from that line to the bind.
        deadline = time.monotonic() + 60
        for _, listening in self.copiers:
            if not listening.wait(max(0.0, deadline - time.monotonic())):
                raise BenchError("a fleet process did not start listening")
        if not self.alive():
            raise BenchError("a fleet process exited while starting")
        # The router marks a replica down for good (no --supervise) when a
        # forward fails, so the first routed request waits for the replicas.
        for s in self.replica_socks:
            wait_answer(s, '{"verb":"stats"}', deadline)
        wait_answer(self.router_sock, probe_line, deadline)
        self.setup_s = time.perf_counter() - t0

    def pids(self):
        return [p.pid for p in self.replicas], self.router.pid

    def alive(self):
        return all(p.poll() is None for p in self.replicas + [self.router])

    def stop(self):
        for p in [self.router] + self.replicas:
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in [self.router] + self.replicas:
            reap(p)
        for t, _ in self.copiers:
            t.join()
        self.errs.close()


def process_cpu_s(pid):
    """CPU seconds of every thread of `pid`, exited ones too, to the
    nanosecond: the process CPU-time clock that clock_getcpuclockid(3)
    names, ((~pid) << 3) | CPUCLOCK_SCHED on Linux. /proc/<pid>/stat's
    utime+stime count in 10 ms ticks, too coarse for a 100 ms burst."""
    try:
        return time.clock_gettime(((~pid) << 3) | 2)
    except OSError:
        raise BenchError(f"fleet process {pid} died")


def proc_sample(pid):
    cpu_s = process_cpu_s(pid)
    status = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            k, _, v = line.partition(":")
            status[k] = v.split()
    if "VmSize" not in status:
        raise BenchError(f"fleet process {pid} died")
    return dict(cpu_s=cpu_s,
                vmsize_mb=int(status["VmSize"][0]) / 1024.0,
                hwm_mb=int(status["VmHWM"][0]) / 1024.0,
                threads=int(status["Threads"][0]),
                fds=len(os.listdir(f"/proc/{pid}/fd")))


def replica_counters(sock):
    """Exact counters from a replica's `metrics` verb (Prometheus text)."""
    resp = json.loads(round_trip(sock, '{"id":1,"verb":"metrics"}'))
    if not resp.get("ok"):
        raise BenchError(f"metrics verb failed on {sock}: {resp}")
    out = {}
    for line in resp["result"].splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return {k: out.get(f"uspec_{k}_total", 0.0)
            for k in ("cache_hits", "cache_misses")}


def write_serve_inputs(seed, uspec, work):
    """Model, request templates, template sequence and reference payloads."""
    run([uspec, "gen", "--profile", "java", "-n", MODEL_PROGRAMS, "--seed", seed,
         "-o", "model_corpus"], work, "uspec gen (model corpus)")
    run([uspec, "train", *[f"model_corpus/prog{i}.mini" for i in range(MODEL_PROGRAMS)],
         "-o", "model.uspb", "--threads", TRAIN_THREADS], work,
        "uspec train (served model)")
    run([uspec, "gen", "--profile", "java", "-n", HOT, "--seed", seed + 1,
         "-o", "requests"], work, "uspec gen (hot set)")
    rng = random.Random(seed)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(HOT)]
    perm = list(range(HOT))
    rng.shuffle(perm)
    sequence = perm + rng.choices(perm, weights=weights, k=SEQUENCE)
    (work / "sequence.txt").write_text("\n".join(map(str, sequence)) + "\n")
    bodies = []
    for i in range(HOT):
        src = (work / "requests" / f"prog{i}.mini").read_text()
        bodies.append(',"verb":"analyze","program":' + json.dumps(src) + "}")
    (work / "templates.txt").write_text("\n".join(bodies) + "\n")
    refs = []
    for i in sorted(rng.sample(range(HOT), REF_SAMPLES)):
        payload = run([uspec, "analyze", f"requests/prog{i}.mini", "--json",
                       "--model", "model.uspb"], work, "uspec analyze --json",
                      capture=True).rstrip("\n")
        refs.append(f"{i}\t{payload}")
    (work / "refs.txt").write_text("\n".join(refs) + "\n")
    probe_src = (work / "model_corpus" / "prog0.mini").read_text()
    return '{"id":0,"verb":"analyze","program":' + json.dumps(probe_src) + "}"


def load(pbtool, fleet, work, args, peaks=None):
    """Runs `pbtool load` against the fleet's router. While it runs, the
    fleet's thread and open-fd counts are sampled into `peaks` (maxima)."""
    cmd = [pbtool, "load", "--socket", fleet.router_sock, "--templates",
           work / "templates.txt", "--sequence", work / "sequence.txt",
           "--refs", work / "refs.txt", *args]
    p = spawn(cmd, ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
              text=True)
    while True:
        try:
            out, err = p.communicate(timeout=0.25)
            break
        except subprocess.TimeoutExpired:
            for pid, peak in (peaks or {}).items():
                sample = proc_sample(pid)
                for k in ("threads", "fds"):
                    peak[k] = max(peak[k], sample[k])
    reap(p)
    if p.returncode != 0:
        raise BenchError(f"pbtool load failed ({p.returncode}): {err[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if res["broken"]:
        raise BenchError(f"load generator lost its connections: {res}")
    return res


def run_serve(seed, seconds, trace, uspec, pbtool, work):
    probe = write_serve_inputs(seed, uspec, work)
    model = work / "model.uspb"
    os.sync()
    # The fleets, the generator and this script share one CPU from here on.
    # Spread over a shared host's vCPUs, every request's chain of thread
    # wake-ups crosses vCPUs that the host may have descheduled, and p50
    # and throughput moved by 30% from run to run; on one CPU they moved by
    # a few percent (README, Noise).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setups = []
    for k in range(SETUP_REPEATS):
        fleet = Fleet(uspec, work, k, model.resolve(), probe)
        setups.append(fleet.setup_s)
        if k + 1 < SETUP_REPEATS:
            fleet.stop()
    # The timed window is a run of rounds, each a fixed-rate block, a closed
    # loop and a burst, so that every figure is spread over the whole window
    # rather than over the few seconds of the host's load one phase sees.
    rounds = max(1, int(RATE * FIXED_SHARE * seconds) // BLOCK)
    cursor = HOT
    fixed, bursts, burst_cpu_s = [], [], 0.0
    try:
        w = load(pbtool, fleet, work, ["--warmup", HOT])
        replica_pids, router_pid = fleet.pids()
        pids = replica_pids + [router_pid]
        before = {pid: proc_sample(pid) for pid in pids}
        counters0 = [replica_counters(s) for s in fleet.replica_socks]
        peaks = {pid: dict(threads=0, fds=0) for pid in pids}
        for _ in range(rounds):
            fixed.append(load(pbtool, fleet, work, [
                "--start", cursor, "--fixed-rate", RATE, "--fixed-requests",
                BLOCK, "--closed", CLOSED // rounds], peaks))
            cursor += fixed[-1]["attempted"]
            t0 = {pid: proc_sample(pid) for pid in pids}
            bursts.append(load(pbtool, fleet, work, [
                "--start", cursor, "--saturate", SATURATE // rounds], peaks))
            t1 = {pid: proc_sample(pid) for pid in pids}
            cursor += bursts[-1]["attempted"]
            burst_cpu_s += sum(t1[p]["cpu_s"] - t0[p]["cpu_s"] for p in pids)
        after = {pid: proc_sample(pid) for pid in pids}
        counters1 = [replica_counters(s) for s in fleet.replica_socks]
        if not fleet.alive():
            raise BenchError("a fleet process died during the run")
    finally:
        fleet.stop()
    timed_runs = fixed + bursts
    attempted = w["attempted"] + sum(r["attempted"] for r in timed_runs)
    failed = w["failed"] + sum(r["failed"] for r in timed_runs)
    if failed:
        log(f"serve_hit: failures {[r['fail_kinds'] for r in [w] + timed_runs]}")
    late = sum(r["fixed"]["late_count"] for r in fixed)
    fixed_samples = sum(r["fixed"]["samples"] for r in fixed)
    closed_samples = sum(r["closed"]["samples"] for r in fixed)
    if late > LATE_SHARE * fixed_samples:
        raise BenchError(f"generator sent {late} of {fixed_samples} requests "
                         f"more than {fixed[0]['fixed']['late_limit_ms']} ms "
                         "late; run rejected")
    timed = attempted - w["attempted"]
    burst_requests = sum(r["attempted"] for r in bursts)
    if burst_cpu_s <= 0:
        raise BenchError("the fleet used no CPU time in the bursts")
    e2e = {
        # Capacity on one CPU: burst answers per CPU-second the fleet spent
        # on them. Time the host steals from the CPU is not charged to the
        # processes, so unlike the bursts' wall-clock rate this does not
        # follow the other tenants' load (README, Noise).
        "programs_per_s": burst_requests / burst_cpu_s,
        # The latency one client sees with nothing else in flight. At the
        # fixed rate the CPU idles between requests, and waking the idle
        # vCPU on a busy host doubled the p50 (README, Noise).
        "p50_ms": median(r["closed"]["p50_ms"] for r in fixed),
        "peak_rss_mb": sum(after[p]["hwm_mb"] for p in after),
        "setup_s": median(setups),
    }
    samples = {"programs_per_s": burst_requests, "p50_ms": closed_samples,
               "peak_rss_mb": len(after), "setup_s": len(setups)}

    def delta(key):
        return sum(c1[key] - c0[key] for c0, c1 in zip(counters0, counters1))

    hits, misses = delta("cache_hits"), delta("cache_misses")

    def cpu_us_per_req(pids):
        return 1e6 * sum(after[p]["cpu_s"] - before[p]["cpu_s"]
                         for p in pids) / timed

    layer = {
        "service.cache_hit_ratio": hits / max(1.0, hits + misses),
        "service.replica_cpu_us_per_req": cpu_us_per_req(replica_pids),
        "service.replica_vmsize_mb": sum(after[p]["vmsize_mb"] for p in replica_pids),
        "service.replica_threads": sum(peaks[p]["threads"] for p in replica_pids),
        "service.replica_fds": sum(peaks[p]["fds"] for p in replica_pids),
        "distrib.router_cpu_us_per_req": cpu_us_per_req([router_pid]),
        "distrib.router_threads": peaks[router_pid]["threads"],
        "loadgen.p50_ms": median(r["fixed"]["p50_ms"] for r in fixed),
        "loadgen.p99_ms": median(r["fixed"]["p99_ms"] for r in fixed),
        "loadgen.late_max_ms": max(r["fixed"]["late_max_ms"] for r in fixed),
        "loadgen.burst_wall_per_s": median(r["saturate"]["achieved"]
                                           for r in bursts),
        "loadgen.requests": timed,
    }
    log(f"serve_hit: closed-loop p50 {e2e['p50_ms']:.3f} ms over "
        f"{closed_samples} requests; fixed-rate p50 "
        f"{layer['loadgen.p50_ms']:.3f} ms, p99 "
        f"{layer['loadgen.p99_ms']:.3f} ms over {fixed_samples} requests; "
        f"bursts {e2e['programs_per_s']:.0f} per CPU-s, "
        f"{layer['loadgen.burst_wall_per_s']:.0f}/s of wall time; hit ratio "
        f"{layer['service.cache_hit_ratio']:.3f}; checked payloads "
        f"{sum(r['checked'] for r in timed_runs)}")
    if trace:
        out = run([pbtool, "trace-serve", "--model", model, "--templates",
                   work / "templates.txt", "--sequence", work / "sequence.txt",
                   "--warmup", HOT, "--count", TRACE_COUNT, "--cache", CACHE,
                   "--workers", WORKERS, "--replicas", REPLICAS,
                   "--sockdir", (work / "trace").relative_to(ROOT),
                   "--trace-out", RUN_DIR / "serve_hit-trace.json"],
                  ROOT, "pbtool trace-serve", capture=True)
        layer.update(json.loads(out.strip().splitlines()[-1]))
        attempted += int(layer["trace.checks"])
        failed += int(layer["trace.failed"])
    return dict(attempted=attempted, failed=failed, e2e=e2e, samples=samples,
                layer=layer)


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve_hit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    uspec, pbtool = build()
    work = RUN_DIR / a.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if a.workload == "train":
            r = run_train(a.seed, a.seconds, a.trace, uspec, pbtool, work)
        else:
            r = run_serve(a.seed, a.seconds, a.trace, uspec, pbtool, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # BENCHMARK.json names every metric and its unit; a layer a workload
    # does not run reads 0 there.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if a.trace:
        metrics = {m["name"]: {"value": float(r["layer"].get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": float(r["e2e"][m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
    for name, m in metrics.items():
        samples = r["samples"].get(name)
        print(f"{a.workload:>10} {name:>30} = {m['value']:14.4f} {m['unit']:5}"
              + (f" (samples: {samples})" if samples else ""))
    print(f"{a.workload:>10} {'error_rate':>30} = "
          f"{r['failed'] / max(1, r['attempted']):14.4f}       "
          f"({r['failed']} of {r['attempted']} operations failed)")
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so every child is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    code = 1
    try:
        main()
        code = 0
    except BenchError as e:
        log(f"perfbench: {e}")
    finally:
        for p in list(CHILDREN):
            if p.poll() is None:
                p.kill()
            p.wait()
    sys.exit(code)
