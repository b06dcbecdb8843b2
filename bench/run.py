#!/usr/bin/env python3
"""Benchmark of the cavityblockade package: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the package under
``src/`` of that checkout.  Workloads: cli-session, blockade-solve,
time-domain, large-sweep (see bench/README.md).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced repeat of the same timed phase.  Every run also writes that
record, with the seed and a description of the machine, to
``.bench_runs/`` at the root of the checkout.

This driver process never imports the package.  Each set-up is a fresh
worker process (``--role setup``) that imports, builds the seeded inputs
and runs one warm-up operation; the last one (``--role run``) goes on into
the timed phase and reports back on a pipe.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_runs"

WORKLOADS = ("cli-session", "blockade-solve", "time-domain", "large-sweep")
#: Cold set-ups per run; setup_s is their median.
SETUPS = 3
#: A run that has not finished by then is stopped and reports no result.
DEADLINE_S = 170.0
READY = "READY"

#: op_p95_ms is reported only by runs with at least this many operations.
P95_MIN_OPS = 200
#: Least time between two probes of the host's speed in a timed phase.
PROBE_EVERY_S = 1.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: every array here is small or element-wise, and a
    # fixed count keeps the figures steady.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


# --------------------------------------------------------------------------
# worker side (imports the package)


def timed_phase(ops, rounds: int) -> dict:
    """Run ``rounds`` rounds of ``ops``, timing each operation on its own.

    Between operations, at most every ``PROBE_EVERY_S``, ``hostspeed.probe``
    measures the speed of the host.  Each operation's wall and CPU time is
    scaled by the factor of the two probes around it, and each operation of
    a round has a typical latency and CPU time: its median over the rounds.
    ``round_wall``/``round_cpu`` sum these over the round, and ``op_p50``
    is the median of the typical latencies; the ``_raw`` figures are the
    same without the scaling.  ``scale`` is the factor of the median probe.
    """
    import resource

    import hostspeed

    def cpu_now() -> float:
        return sum(
            getattr(resource.getrusage(who), f)
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            for f in ("ru_utime", "ru_stime")
        )

    records, latencies, cpus, probes, probe_before = [], [], [], [], []
    probed = -math.inf
    start = time.perf_counter()
    for _ in range(rounds):
        for label, fn in ops:
            if time.perf_counter() - probed >= PROBE_EVERY_S:
                probes.append(hostspeed.probe())
                probed = time.perf_counter()
            probe_before.append(len(probes) - 1)
            c, t = cpu_now(), time.perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t)
            cpus.append(cpu_now() - c)
            records.append((label, out, err))
    probes.append(hostspeed.probe())
    wall = time.perf_counter() - start
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    factors = [hostspeed.factor(probes[k], probes[k + 1]) for k in probe_before]

    def typical(samples: list[float], scaled: bool) -> list[float]:
        if scaled:
            samples = [x * f for x, f in zip(samples, factors)]
        n = len(ops)
        return [statistics.median(samples[k::n]) for k in range(n)]

    out = {"wall": wall, "lat": latencies, "cpu": cpus, "factors": factors,
           "scale": hostspeed.scale(probes), "probes": probes, "records": records, "peak": peak}
    for suffix, scaled in (("", True), ("_raw", False)):
        lat = typical(latencies, scaled)
        out["round_wall" + suffix] = sum(lat)
        out["round_cpu" + suffix] = sum(typical(cpus, scaled))
        out["op_p50" + suffix] = statistics.median(lat)
    return out


def traced_phase(wl, ops, rounds: int, tmp: Path) -> tuple[dict, list[dict]]:
    import spans

    if wl.name == "cli-session":
        wl.spans_dir = tmp / "spans"
        wl.spans_dir.mkdir()
        phase = timed_phase(ops, rounds)
        collected: list[dict] = []
        for path in sorted(wl.spans_dir.glob("*.json")):
            offset = len(collected)
            for span in json.loads(path.read_text()):
                if span["parent"] is not None:
                    span["parent"] += offset
                collected.append(span)
        return phase, collected
    tracer = spans.Tracer()
    tracer.install()
    return timed_phase(ops, rounds), tracer.spans


def worker(args) -> int:
    import warnings

    sys.path.insert(0, str(HERE))
    warnings.simplefilter("ignore")
    import cavityblockade

    if Path(cavityblockade.__file__).resolve().parent != (SRC / "cavityblockade").resolve():
        print(f"imported {cavityblockade.__file__}, not the checkout's package", file=sys.stderr)
        return 3
    import workloads

    tmp = Path(args.tmp)
    ctx = workloads.Context(tmp, child_env(), workloads.default_jobs())
    wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
    wl.warm_up()
    print(READY, flush=True)
    if args.role == "setup":
        return 0

    rounds = max(wl.min_rounds, int(args.seconds // wl.nominal_round_s))
    ops = wl.ops()
    # A traced run times half the rounds untraced, only for trace.overhead_s,
    # so that both phases together stay within the run's time limit.
    phase = timed_phase(ops, max(1, rounds // 2) if args.trace else rounds)
    per_layer = None
    if args.trace:
        import spans

        traced, span_list = traced_phase(wl, ops, rounds, tmp)
        per_layer = spans.layer_metrics(span_list)
        per_layer["trace.overhead_s"] = (traced["round_wall"] - phase["round_wall"], "s")

    failures, unexpected = [], []
    for label, out, err in phase["records"]:
        problem = err or wl.check(label, out)
        if problem:
            failures.append((label, problem))
            if label not in wl.known_faults:
                unexpected.append((label, problem))
    final = wl.final_problems()
    checked = len(phase["records"]) // len(ops)
    import numpy
    import scipy

    report = {
        "rounds": checked,
        "attempted": len(phase["records"]),
        "failed": len(failures),
        "correct": not unexpected and not final,
        "failures": sorted({f"{label}: {problem}" for label, problem in failures}),
        "run_problems": final,
        "known_faults": wl.known_faults,
        "phase_wall_s": phase["wall"],
        "round_wall_s": phase["round_wall"],
        "round_cpu_s": phase["round_cpu"],
        "op_p50_s": phase["op_p50"],
        "measured": {"wall_s": phase["round_wall_raw"], "cpu_s": phase["round_cpu_raw"],
                     "op_p50_s": phase["op_p50_raw"]},
        "latencies_s": phase["lat"],
        "cpus_s": phase["cpu"],
        "scale": phase["scale"],
        "factors": phase["factors"],
        "probes_s": phase["probes"],
        "labels": [label for label, _, _ in phase["records"]],
        "peak_rss_mb": phase["peak"],
        "points": wl.points(checked),
        "diagnostics": wl.diagnostics(checked),
        "per_layer": per_layer,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    print(json.dumps(report), flush=True)
    return 0


# --------------------------------------------------------------------------
# driver side (no package imports)


def start_worker(args, role: str, tmp: Path) -> tuple[subprocess.Popen, float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--tmp", str(tmp),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc, start


def await_ready(proc: subprocess.Popen, start: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != READY:
        raise RuntimeError(f"worker did not become ready (read {line!r})")
    return time.perf_counter() - start


def machine(versions: dict) -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        **versions,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
        with open("/proc/meminfo") as fh:
            info["memory"] = fh.readline().split(":", 1)[1].strip()
    except OSError:
        pass
    return info


def import_metrics() -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(HERE))
    from spans import import_breakdown

    env = child_env()
    starts, totals, scipys = [], [], []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append((time.perf_counter() - t) * 1e3)
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavityblockade"],
            env=env, capture_output=True, text=True, check=True, cwd=ROOT,
        )
        total, scipy_ms = import_breakdown(proc.stderr)
        totals.append(total)
        scipys.append(scipy_ms)
    return {
        "interpreter.start_ms": (statistics.median(starts), "ms"),
        "import.total_ms": (statistics.median(totals), "ms"),
        "import.scipy_ms": (statistics.median(scipys), "ms"),
    }


def drive(args) -> int:
    if not (SRC / "cavityblockade" / "__init__.py").is_file():
        print(f"no package at {SRC / 'cavityblockade'}; run from a checkout", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    procs: list[subprocess.Popen] = []
    watchdog = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in procs if p.poll() is None])
    watchdog.daemon = True
    watchdog.start()
    try:
        setups = []
        for _ in range(0 if args.trace else SETUPS - 1):
            proc, start = start_worker(args, "setup", tmp)
            procs.append(proc)
            setups.append(await_ready(proc, start))
            if proc.wait() != 0:
                raise RuntimeError("set-up worker failed")
        proc, start = start_worker(args, "run", tmp)
        procs.append(proc)
        setups.append(await_ready(proc, start))
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        report = json.loads(lines[-1])
        per_layer = None
        if args.trace:
            per_layer = {**report["per_layer"], **import_metrics()}
    except (RuntimeError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            p.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)

    lat = [x * f for x, f in zip(report["latencies_s"], report["factors"])]
    measured = {
        "setup_s": statistics.median(setups),
        **report["measured"],
        "phase_wall_s": report["phase_wall_s"],
    }
    if args.trace:
        metrics = per_layer
    else:
        metrics = {
            "setup_s": (statistics.median(setups) * report["scale"], "s"),
            "wall_s": (report["round_wall_s"], "s"),
            "cpu_s": (report["round_cpu_s"], "s"),
            "op_p50_ms": (report["op_p50_s"] * 1e3, "ms"),
            "peak_rss_mb": (report["peak_rss_mb"], "MB"),
            "points_per_s": (report["points"] / report["rounds"] / report["round_wall_s"], "1/s"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    # A tail percentile only where at least 10 samples lie beyond it; it is
    # printed and recorded, not part of the result line.
    extra = {}
    if not args.trace and len(lat) >= P95_MIN_OPS:
        extra["op_p95_ms"] = {"value": statistics.quantiles(lat, n=20)[18] * 1e3, "unit": "ms"}

    print(f"workload {args.workload}, seed {args.seed}, {report['rounds']} round(s): "
          f"{report['attempted']} operations attempted, {report['failed']} failed")
    for label, fault in report["known_faults"].items():
        print(f"  expected failure {label}: {fault}")
    for line in report["failures"] + report["run_problems"]:
        print(f"  problem: {line}")
    for key, value in report["diagnostics"].items():
        print(f"  {key} = {value}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  timings above are scaled to the reference host (median factor "
              f"{report['scale']:.4g}); unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in measured.items()))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": report["rounds"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "correct": report["correct"],
        "failures": report["failures"],
        "run_problems": report["run_problems"],
        "diagnostics": report["diagnostics"],
        "setup_samples_s": setups,
        "scale": report["scale"],
        "probes_s": report["probes_s"],
        "measured": measured,
        "operations": [
            {"label": label, "wall_s": w, "cpu_s": c, "factor": f}
            for label, w, c, f in zip(report["labels"], report["latencies_s"],
                                      report["cpus_s"], report["factors"])
        ],
        "metrics": {**metrics, **extra},
        "machine": machine(report["versions"]),
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"BENCH_{stamp}_{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.role:
        return worker(args)
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())
