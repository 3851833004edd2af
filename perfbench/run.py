#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload echo_keepalive --seed 1 --seconds 30 --trace 0

Run from the repository root.  Builds perfbench/perfbench.exe with dune,
then runs it SUBRUNS times, each a fresh process given seconds/SUBRUNS
and its own seed derived from --seed.  Each process sets the runtime up,
runs the light, heavy and sat phases and tears down.

Each process, with the load generator it forks, runs on one CPU alone
(the highest-numbered one this process may use), so inside it nproc is
1.  On a small shared VM, work that crosses vCPUs -- waking an idle
vCPU, a TLB shootdown -- costs whatever the host's scheduler makes it
cost that minute; on one vCPU the figures repeat (README.md has the
numbers).

Every metric is the median over the sub-runs, with two exceptions:
ok_ratio pools every op of the run, and loadgen.slow_ops is the run's
total.  Each sub-run's host steal (CPU time other tenants took from the
VM, from /proc/stat) is printed next to it, because it slows every
wall-clock figure of that sub-run.  Metric names and units come from
BENCHMARK.json.

  --trace 0  end-to-end metrics, untraced.
  --trace 1  per-layer metrics, from traced processes.

Human-readable lines (run metadata, per-phase summaries) come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exits non-zero when the build fails, a process
fails or a leak is found.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SUBRUNS = 30
RUN_TIMEOUT_S = 60


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def cpu_ticks():
    """(stolen, total) CPU ticks of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return (0, 0)
    return (fields[7], sum(fields))


def run_program(args, cpu):
    """Run perfbench.exe on CPU [cpu] alone, in its own session; return
    its result object."""
    proc = subprocess.Popen(
        [EXE, "run"] + args, cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("the program timed out")
    finally:
        # the load-generator child shares the session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = out.decode().strip().splitlines()
    if not lines:
        die(f"the program printed nothing (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        print(json.dumps({"leaks": result.get("leaks")}), file=sys.stderr)
        die(f"the program exited {proc.returncode}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if a.trace else "end_to_end"]}
    cpu = max(os.sched_getaffinity(0))
    print(f"pinned to cpu {cpu}")
    results = []
    for i in range(SUBRUNS):
        steal0, total0 = cpu_ticks()
        res = run_program([
            "--workload", a.workload, "--seed", str(a.seed * 100 + i),
            "--seconds", repr(a.seconds / SUBRUNS), "--trace", str(a.trace)], cpu)
        steal1, total1 = cpu_ticks()
        results.append(res)
        if i == 0:
            print("meta " + json.dumps(res["meta"]))
        steal = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
        print(f"sub-run {i} host_steal={steal:.1f}%")
        for label, s in res["phases"].items():
            print(f"sub-run {i} phase {label}: n={s['n']} "
                  f"attempted={s['attempted']} failed={s['failed']} "
                  f"p10={s['p10_ms']:.4f}ms p50={s['p50_ms']:.4f}ms "
                  f"p90={s['p90_ms']:.4f}ms "
                  f"p{s['tail_pct']:g}={s['tail_ms']}ms "
                  f"late_p99={s['late_p99_ms']:.4f}ms "
                  f"ops/s={s['ops_per_s']:.1f} slow={s['slow']:g}")
        if res["failures"]:
            print(f"sub-run {i} failures " + json.dumps(res["failures"]))

    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    metrics = {}
    for name, unit in units.items():
        vals = [(r["e2e"] if a.trace == 0 else r["layers"]).get(name)
                for r in results]
        if any(v is None for v in vals):
            die(f"metric {name} missing or not a number")
        if name == "ok_ratio":
            v = (attempted - failed) / attempted if attempted else 0.0
        elif name == "loadgen.slow_ops":
            v = sum(vals)
        else:
            v = statistics.median(vals)
        metrics[name] = {"value": v, "unit": unit}
        print(f"{name} = {v:.6g} {unit} (sub-runs: "
              + " ".join(f"{x:.4g}" for x in vals) + ")")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
