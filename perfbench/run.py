#!/usr/bin/env python3
"""The cyclecoh benchmark: fixed CLI jobs, timed end to end, traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, timed and traced
    python3 perfbench/run.py --smoke          # tiny variants, same code path

Run from anywhere; the program is taken from `src/` next to this
directory.  Load model: a closed loop with one client.  Each job is a
fresh `cyclecoh` process (interpreter start, imports and cold module
caches included) with CYCLECOH_THREADS=1; the next job starts when the
previous one has been reaped.  Jobs are started for `--seconds`, at
least one, and a run reports medians over its jobs.

`--trace 0` reports the end-to-end metrics: wall_s, cpu_s and
peak_rss_mb of each job (from `os.wait4`, so they belong to that job),
and setup_s, the median wall time of SETUP_PROBES fresh
`cyclecoh --version` processes.  `--trace 1` runs the jobs under
`tracer.py` and reports the per-layer metrics.  Every answer is checked
against the paper's closed formulas, computed here without cyclecoh.

The last line of stdout is one JSON object; the exit code is 0 when
every job passed its check, 1 when one failed, 2 when the program to
benchmark is missing.  Run records and spans go to `.perfbench-out/`.
See perfbench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from math import gcd

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
LAUNCH = "import sys; from cyclecoh.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_PROBES = 7
RUN_LIMIT_S = 150  # every run ends well inside the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    smoke: tuple  # a tiny variant through the same code path


# why each workload is here: perfbench/README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "full-v16",
            ("cohomology", "--p", "2", "--nu", "2", "--eta", "4", "--coeff", "2,8",
             "--degree", "2", "--method", "full", "--timing"),
            ("cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2,4",
             "--degree", "2", "--method", "full", "--timing"),
        ),
        Workload(
            "reduced-v16",
            ("cohomology", "--p", "2", "--nu", "2", "--eta", "4", "--coeff", "8",
             "--degree", "2", "--method", "reduced", "--timing"),
            ("cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2",
             "--degree", "2", "--method", "reduced", "--timing"),
        ),
        Workload(
            "sweep-v9",
            ("table", "--max-v", "9", "--coeff", "2,4,9", "--method", "all", "--timing"),
            ("table", "--max-v", "4", "--coeff", "2", "--method", "all", "--timing"),
        ),
        Workload(
            "extensions-v16",
            ("extensions", "--p", "2", "--nu", "2", "--eta", "4", "--coeff", "4",
             "--method", "theorem", "--timing"),
            ("extensions", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2",
             "--method", "theorem", "--timing"),
        ),
    )
}

END_TO_END_METRICS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# expected answers, from the paper's closed formulas (no cyclecoh code)
# ---------------------------------------------------------------------------


def _prime_powers(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append((d, q))
        d += 1
    if n > 1:
        out.append((n, n))
    return out


def invariant_factors(orders):
    """Invariant factors d1 | d2 | ... of the direct sum of Z/n over orders."""
    by_prime = {}
    for n in orders:
        if n < 1:
            raise ValueError("only finite coefficient groups are benchmarked")
        for p, q in _prime_powers(n):
            by_prime.setdefault(p, []).append(q)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = [1] * length
    for qs in by_prime.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[length - 1 - i] *= q
    return factors


def closed_h(p, nu, eta, orders, degree):
    """H^degree of the cyclic cycle set with coefficients sum Z/n.

    For cyclic G = Z/n both the m-torsion G_m and G/mG are Z/gcd(m, n).
    H^1 = G_u; H^2 = G_v + G/vG if u = v, G/uG + G_u if 2 < u < v,
    G/2G + G_2 + G_2 if u = 2 and v = 4.
    """
    u, v = p**nu, p**eta
    if degree == 1:
        copies, m = 1, u
    elif u == v:
        copies, m = 2, v
    elif u > 2:
        copies, m = 2, u
    else:
        copies, m = 3, 2
    return invariant_factors([gcd(m, n) for n in orders] * copies)


def family(max_v):
    """(p, nu, eta) with p prime, p^eta <= max_v and 0 < nu <= eta <= 2 nu."""
    out = []
    for p in range(2, max_v + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        eta = 1
        while p**eta <= max_v:
            out.extend((p, nu, eta) for nu in range((eta + 1) // 2, eta + 1))
            eta += 1
    return sorted(out, key=lambda m: (m[0], m[1], m[2]))


def _options(argv):
    return {argv[i][2:].replace("-", "_"): argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def expected_answer(argv):
    """What a correct report of the job says, from the closed formulas."""
    opt = _options(argv)
    orders = [int(x) for x in opt["coeff"].split(",")]
    if argv[0] == "table":
        degrees = [int(opt["degree"])] if "degree" in opt else [1, 2]
        return [
            {"p": p, "nu": nu, "eta": eta, "degree": n, "invariant_factors": closed_h(p, nu, eta, orders, n)}
            for p, nu, eta in family(int(opt["max_v"]))
            for n in degrees
        ]
    p, nu, eta = int(opt["p"]), int(opt["nu"]), int(opt["eta"])
    if argv[0] == "extensions":
        classes = 1
        for f in closed_h(p, nu, eta, orders, 2):
            classes *= f
        return classes
    return closed_h(p, nu, eta, orders, int(opt.get("degree", 2)))


def check_report(argv, expected, code, stdout):
    """None if the job's report is right, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("agreement", {}).get("all") is not True:
        return "agreement.all is not true"
    results = report.get("results", [])
    if argv[0] == "table":
        got = [{k: r.get(k) for k in ("p", "nu", "eta", "degree", "invariant_factors")} for r in results]
        if got != expected:
            return "table rows differ from the closed formulas"
        if any(r.get("agreement") != "all-agree" for r in results):
            return "a table row is not all-agree"
    elif argv[0] == "extensions":
        if not results or any(r.get("classes") != expected for r in results):
            return f"class count differs from {expected}"
    elif not results or any(r.get("invariant_factors") != expected for r in results):
        return f"invariant factors differ from {expected}"
    return None


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class JobResult:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def job_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CYCLECOH_THREADS"] = "1"
    return env


def run_job(cmd, timeout):
    """Run cmd to completion; wall, CPU and peak RSS are this process's own.

    The child is reaped with os.wait4, whose rusage covers only that
    child (RUSAGE_CHILDREN would keep a maximum over all of them).  On
    timeout it is killed and reported with code -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=job_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {}
    readers = [
        threading.Thread(target=lambda key, pipe: chunks.__setitem__(key, pipe.read()), args=(key, pipe))
        for key, pipe in (("out", proc.stdout), ("err", proc.stderr))
    ]
    for r in readers:
        r.start()
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(timeout, 0))
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:  # interrupted: leave no job running
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen never waits on the reused pid
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return JobResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=chunks["out"].decode(),
        stderr=chunks["err"].decode(),
    )


def run_pass(argv, expected, seconds, deadline, traced, tag):
    """Jobs of one workload for `seconds` (at least one), timed or traced.

    Returns one record per job: its accounting, and for a traced job its
    per-layer metrics.  A job is not started when the previous one says it
    would run past `seconds`.
    """
    records = []
    begin = time.perf_counter()
    last = 0.0
    while not records or time.perf_counter() - begin + last <= seconds:
        job_id = len(records)
        if traced:
            spans_path = os.path.join(OUT_DIR, f"spans-{tag}-{job_id}.json")
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"),
                   "--spans", spans_path, "--job", str(job_id), "--", *argv]
        else:
            cmd = [sys.executable, "-c", LAUNCH, *argv]
        res = run_job(cmd, deadline - time.perf_counter())
        last = res.wall_s
        record = {
            "job": job_id,
            "code": res.code,
            "wall_s": res.wall_s,
            "cpu_s": res.cpu_s,
            "peak_rss_mb": res.peak_rss_mb,
            "failure": check_report(argv, expected, res.code, res.stdout),
        }
        if record["failure"]:
            record["stderr"] = res.stderr[-2000:]
        if traced:
            if os.path.exists(spans_path):
                with open(spans_path) as fh:
                    trace = json.load(fh)
                os.remove(spans_path)
                record["spans"] = trace["spans"]
                record["layers"] = tracer.layer_metrics(trace, res.wall_s)
            elif not record["failure"]:
                record["failure"] = "traced job wrote no spans"
        records.append(record)
        if time.perf_counter() >= deadline:
            break
    return records


def setup_probes(deadline):
    """Wall seconds of fresh `cyclecoh --version` processes."""
    walls = []
    for _ in range(SETUP_PROBES):
        res = run_job([sys.executable, "-c", LAUNCH, "--version"], deadline - time.perf_counter())
        if res.code != 0 or not res.stdout.strip():
            raise RuntimeError(f"cyclecoh --version failed with exit code {res.code}: {res.stderr[-500:]}")
        walls.append(res.wall_s)
    return walls


# ---------------------------------------------------------------------------
# run record and reporting
# ---------------------------------------------------------------------------


def machine_record(seed):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": commit,
        "git_dirty": dirty,
        "env": {"CYCLECOH_THREADS": "1"},
    }


def median(values):
    return statistics.median(values) if values else None


def end_to_end(records, setup_walls):
    ok = [r for r in records if not r["failure"]]
    return {
        "wall_s": median([r["wall_s"] for r in ok]),
        "cpu_s": median([r["cpu_s"] for r in ok]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "setup_s": median(setup_walls),
    }


def run_workload(name, argv, seconds, deadline, passes, tag):
    """The requested passes of one workload; returns its summary."""
    expected = expected_answer(argv)
    out = {"workload": name, "argv": list(argv), "load_before": os.getloadavg()[0]}
    for kind in passes:
        if kind == "timed":
            out["setup_walls"] = setup_probes(deadline)
            out["timed"] = run_pass(argv, expected, seconds, deadline, False, tag)
        else:
            out["traced"] = run_pass(argv, expected, seconds, deadline, True, tag)
    out["load_after"] = os.getloadavg()[0]
    jobs = out.get("timed", []) + out.get("traced", [])
    out["attempted"] = len(jobs)
    out["failed"] = sum(1 for r in jobs if r["failure"])
    if "timed" in out:
        out["metrics"] = end_to_end(out["timed"], out["setup_walls"])
    good_traces = [r["layers"] for r in out.get("traced", []) if not r["failure"]]
    if good_traces:
        out["layers"] = tracer.median_metrics(good_traces)
    return out


def print_summary(summary):
    w = summary["workload"]
    timed = [r for r in summary.get("timed", []) if not r["failure"]]
    if "metrics" in summary:
        for name, unit in END_TO_END_METRICS.items():
            value = summary["metrics"][name]
            n = len(summary["setup_walls"]) if name == "setup_s" else len(timed)
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"{w}  {name:<12} {shown:>10} {unit:<5} median of {n}")
    print(f"{w}  load average (1 min) {summary['load_before']:.2f} before, {summary['load_after']:.2f} after")
    fail_frac = summary["failed"] / summary["attempted"]
    print(f"{w}  {'fail_frac':<12} {fail_frac:>10.4f} {'ratio':<5} {summary['failed']} of {summary['attempted']} jobs")
    for r in summary.get("timed", []) + summary.get("traced", []):
        if r["failure"]:
            print(f"{w}  job {r['job']} failed: {r['failure']}")
    if "layers" in summary:
        for name, value in summary["layers"].items():
            print(f"{w}  {name:<48} {value:>14.6g} {tracer.PER_LAYER_METRICS[name][0]}")
        if "metrics" in summary and summary["metrics"]["wall_s"] is not None:
            overhead = summary["layers"]["trace.wall_s"] - summary["metrics"]["wall_s"]
            print(f"{w}  tracing overhead {overhead:.4f} s (traced wall_s minus untraced wall_s)")


def write_record(name, record):
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description="the cyclecoh benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0, help="orders the workloads and passes of an 'all' run")
    parser.add_argument("--seconds", type=float, default=25, help="jobs are started for this long per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="one workload: 1 reports per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="run each workload's tiny variant")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # unwinds through run_job

    if not os.path.exists(os.path.join(ROOT, "src", "cyclecoh", "cli.py")):
        print(f"perfbench: no cyclecoh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    rng = random.Random(args.seed)
    record = machine_record(args.seed)
    print("record " + json.dumps(record, sort_keys=True))

    if args.workload == "all":
        names = list(WORKLOADS)
        rng.shuffle(names)
    else:
        names = [args.workload]
    summaries = []
    for name in names:
        work = WORKLOADS[name]
        if args.workload == "all":
            passes = ["timed", "traced"]
            rng.shuffle(passes)
        else:
            passes = ["traced" if args.trace else "timed"]
        deadline = time.perf_counter() + RUN_LIMIT_S
        tag = f"{name}-seed{args.seed}-{'smoke' if args.smoke else 'full'}-{'-'.join(passes)}"
        summary = run_workload(name, work.smoke if args.smoke else work.argv, args.seconds, deadline, passes, tag)
        summary["record"] = record
        write_record(f"run-{tag}.json", summary)
        print_summary(summary)
        summaries.append(summary)

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if args.workload == "all":
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "workloads": {s["workload"]: {k: s.get(k) for k in ("metrics", "layers")} for s in summaries},
        }
    else:
        s = summaries[0]
        if args.trace:
            metrics = {k: {"value": v, "unit": tracer.PER_LAYER_METRICS[k][0]} for k, v in (s.get("layers") or {}).items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_METRICS[k]} for k, v in s["metrics"].items() if v is not None}
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
