#!/usr/bin/env python3
"""Benchmark of record for the CWA reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sharded --seed 1 --seconds 30 --trace 0

Builds ``perfbench/`` (its own Cargo package) into ``$CARGO_TARGET_DIR``
(default ``.bench_build``), then measures the named workload:

* ``--trace 0``: interleaves one-process ``setup`` samples (one
  ``Simulation::prepare()``, timed inside the process with its CPU clock,
  between two runs of a calibration kernel) with one-process ``rep``
  samples (one ``Study`` call with its output checks) until ``--seconds``
  are used, and reports the end-to-end metrics as medians over the
  samples. A rep's CPU time and peak memory come from its process's
  ``wait4`` usage. CPU times are scaled to a reference host speed by the
  calibration kernel's times (see ``CAL_REF_S``).
* ``--trace 1``: one ``trace`` process that rebuilds the pipeline from
  each layer's public functions, times every call, checks its record
  stream against the program's, and reports the per-layer metrics.

Human-readable lines (every metric with unit and sample count, the
provenance, the run order) come first; the last line of stdout is the
JSON result. Metric names, units and directions live in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = "perfbench/Cargo.toml"
DEFAULT_SEED = 0x2020_0616
# A run repeats this pattern, ends with a setup and takes at least
# MIN_SAMPLES reps. A setup sample (about 1 s) varies more than a rep
# (3-7 s), so a run takes twice as many.
PATTERN = ("setup", "setup", "rep")
MIN_SAMPLES = 3
MAX_SAMPLES = 150
WORKER_TIMEOUT_S = 170
# The host's speed drifts by tens of percent over minutes (other guests
# contend for its shared cache). Each setup sample runs a fixed
# calibration kernel just before and just after prepare(); the gated CPU
# times are scaled by CAL_REF_S / (the kernel's CPU time next to the
# sample), i.e. reported as CPU seconds on a host where the kernel takes
# CAL_REF_S. A rep uses the kernel times of the setups on either side.
CAL_REF_S = 0.065
# The open-loop reader's per-request timeout (perfbench/src/main.rs).
FAILED_REQUEST_MS = 2000.0
# Per-layer metrics that only exist on some workloads; on the others the
# layer does not run and reads 0. Matched by name prefix.
ONLY_ON = {
    "merge.": {"paper-sharded"},
    "shard.0": {"paper-sharded"},
    "shard.recv_idle_share": {"paper-sharded"},
    "live.": {"live-serve"},
    "http.": {"live-serve"},
    "analysis.": {"paper-sharded", "coarse-serial"},
}
# Above this share of traced wall outside every layer row, the traced run
# refuses to report shares.
MAX_UNATTRIBUTED = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 2)
    if done.returncode != 0:
        fail("build failed (the benchmark needs the repository's crates next to perfbench/)", 2)
    return target / "release" / "perfbench-worker"


def run_worker(binary, args):
    """Runs one worker process. Returns (result dict or None, rusage)."""
    proc = subprocess.Popen([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"perfbench: worker {args[0]} exited with {proc.returncode}")
        return None, rusage
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), rusage
    except (ValueError, IndexError):
        log(f"perfbench: worker {args[0]} printed no result")
        return None, rusage


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        paths += (ROOT / top).rglob("*")
    for p in sorted(paths):
        if p.is_file() and "target" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        return done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        return None


def failed_checks(result):
    return [c for c in result.get("checks", []) if not c["ok"]]


def latencies(samples, group=None):
    """Open-loop latencies, ms. A failed request counts as lasting at
    least the reader's timeout, so failures land in the tail."""
    return [s[1] if s[3] else max(s[1], FAILED_REQUEST_MS)
            for s in samples if group is None or s[0] == group]


def http_summary(samples):
    """Latency percentiles over open-loop samples."""
    lat = latencies(samples)
    out = {"n": len(lat), "failed": sum(1 for s in samples if not s[3])}
    if lat:
        out["p50"] = stats.percentile(lat, 0.5)
        out["p99"] = stats.percentile(lat, 0.99) if stats.supports(len(lat), 0.99) else None
        out["tail_level"], out["tail"] = stats.tail(lat)
        out["late_max"] = max(s[2] for s in samples)
    return out


def emit(table, provenance, order, result):
    for name, value, unit, n in table:
        print(f"{name:<36} {value:>16.6g} {unit:<6} n={n}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("run order: " + json.dumps(order))
    print(json.dumps(result, allow_nan=False))


def timed_run(binary, bench, args, provenance):
    wl = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    order, setups, reps, samples = [], [], [], []
    fingerprints = set()
    attempted = failed = 0
    correct = True
    cost = {"setup": [], "rep": []}
    last_cal, waiting = None, []  # reps waiting for the next setup's calibration
    for step in range(MAX_SAMPLES):
        kind = PATTERN[step % len(PATTERN)]
        t = time.monotonic() - started
        result, ru = run_worker(binary, [kind, *wl])
        cost[kind].append(time.monotonic() - started - t)
        attempted += 1
        order.append({"kind": kind, "start_s": round(t, 3)})
        if result is None:
            failed += 1
            correct = False
        elif kind == "setup":
            for rep in waiting:
                rep["cal"].append(result["cal_before_s"])
            waiting, last_cal = [], result["cal_after_s"]
            cal = (result["cal_before_s"] + result["cal_after_s"]) / 2
            setups.append({"wall_s": result["wall_s"], "cpu_s": result["cpu_s"], "cal_s": cal})
            order[-1].update(wall_s=result["wall_s"], cpu_s=result["cpu_s"], cal_s=cal)
        else:
            # The open-loop reader thread (live-serve) is the benchmark's
            # load, not the program's work.
            cpu = ru.ru_utime + ru.ru_stime - result["reader_cpu_s"]
            order[-1].update(wall_s=result["wall_s"], cpu_s=cpu)
            bad = failed_checks(result)
            # Every rep of one workload and seed must produce the same
            # report (wall-clock timings aside).
            fingerprint = result.get("fingerprint")
            if fingerprint is not None:
                fingerprints.add(fingerprint)
                if len(fingerprints) > 1:
                    bad.append({"name": "same_report",
                                "detail": f"report {fingerprint} differs from an earlier rep's"})
            if bad:
                failed += 1
                correct = False
                for c in bad:
                    log(f"perfbench: check {c['name']} failed: {c['detail']}")
            reps.append({
                "wall_s": result["wall_s"],
                "records": result["records"],
                "cpu_s": cpu,
                "peak_rss_mb": ru.ru_maxrss / 1024.0,
                "cal": [] if last_cal is None else [last_cal],
            })
            waiting.append(reps[-1])
            provenance["config_hash"] = result.get("config_hash")
            provenance["verdicts"] = result.get("verdicts")
            samples += result.get("http", [])
        # Stop only after a setup, so that setups bracket every rep.
        if PATTERN[(step + 1) % len(PATTERN)] == "rep":
            expected = sum(stats.median(c) for c in cost.values() if c)
            enough = len(reps) >= MIN_SAMPLES and len(setups) > MIN_SAMPLES
            if enough and time.monotonic() - started + expected > args.seconds:
                break
        if failed > MIN_SAMPLES:
            break
    if not reps or not setups or any(not r["cal"] for r in reps):
        fail("no successful sample")

    http = http_summary(samples)
    attempted += http["n"]
    failed += http["failed"]
    records = stats.median([r["records"] for r in reps])
    cpu = stats.median([r["cpu_s"] * CAL_REF_S * len(r["cal"]) / sum(r["cal"]) for r in reps])
    values = {
        "cpu_s": cpu,
        "records_per_cpu_s": records / cpu,
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reps]),
        "setup_s": stats.median([s["cpu_s"] * CAL_REF_S / s["cal_s"] for s in setups]),
    }
    metrics, table = {}, []
    for m in bench["end_to_end"]:
        n = len(setups) if m["name"] == "setup_s" else len(reps)
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        table.append((m["name"], values[m["name"]], m["unit"], n))
    # The CPU times as read, before scaling to the reference host speed,
    # and the calibration kernel's own CPU time.
    table.append(("cpu_raw_s", stats.median([r["cpu_s"] for r in reps]), "s", len(reps)))
    table.append(("setup_raw_s", stats.median([s["cpu_s"] for s in setups]), "s", len(setups)))
    table.append(("cal_s", stats.median([s["cal_s"] for s in setups]), "s", len(setups)))
    # Wall-clock figures, printed but not gated: on a shared VM they move
    # with the CPU time the hypervisor takes away, which CPU time excludes.
    wall = stats.median([r["wall_s"] for r in reps])
    table.append(("wall_s", wall, "s", len(reps)))
    table.append(("records_per_s", records / wall, "1/s", len(reps)))
    table.append(("setup_wall_s", stats.median([s["wall_s"] for s in setups]), "s", len(setups)))
    if http["n"]:
        table.append(("http_ms.p50", http["p50"], "ms", http["n"]))
        if http["p99"] is not None:
            table.append(("http_ms.p99", http["p99"], "ms", http["n"]))
        else:
            table.append((f"http_ms.p{100 * http['tail_level']:.1f}", http["tail"], "ms", http["n"]))
        table.append(("http.gen_late_ms.max", http["late_max"], "ms", http["n"]))
    table.append(("fail_ratio", failed / attempted, f"{failed}/{attempted}", attempted))
    provenance["records"] = records
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    emit(table, provenance, order, result)


def traced_run(binary, bench, args, provenance):
    wl = ["--workload", args.workload, "--seed", str(args.seed)]
    result, _ = run_worker(binary, ["trace", *wl, "--seconds", str(args.seconds)])
    if result is None:
        fail("traced run failed")
    values = dict(result["metrics"])
    unattributed = values["trace.unattributed_share"]
    if unattributed > MAX_UNATTRIBUTED:
        fail(f"{unattributed:.1%} of traced wall is outside every layer row "
             f"(limit {MAX_UNATTRIBUTED:.0%}); refusing to report shares")
    samples = result.get("http", [])
    if samples:
        for group in ("report", "figures", "progress", "metrics"):
            lat = latencies(samples, group)
            if lat:
                level, tail = stats.tail(lat)
                values[f"http.{group}_ms.p50"] = stats.percentile(lat, 0.5)
                values[f"http.{group}_ms.ptail"] = tail if level is not None else max(lat)
        values["http.gen_late_ms.max"] = max(s[2] for s in samples)
    http = http_summary(samples)

    names = {m["name"]: m for m in bench["per_layer"]}
    unknown = sorted(set(values) - set(names))
    if unknown:
        fail(f"traced run reported metrics BENCHMARK.json does not list: {unknown}")
    metrics, table = {}, []
    for name, m in names.items():
        if name not in values:
            only = next((w for p, w in ONLY_ON.items() if name.startswith(p)), None)
            if only is None or args.workload in only:
                fail(f"traced run did not report {name}")
            values[name] = 0.0
        metrics[name] = {"value": values[name], "unit": m["unit"]}
        table.append((name, values[name], m["unit"], result["passes"]))
    bad = failed_checks(result)
    for c in bad:
        log(f"perfbench: check {c['name']} failed: {c['detail']}")
    provenance["digest"] = result["digest"]
    provenance["untraced_wall_ms"] = result["untraced_wall_ms"]
    attempted = len(result["checks"]) + http["n"]
    failed = len(bad) + http["failed"]
    out = {"correct": not bad and failed == 0, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    emit(table, provenance, [{"kind": "trace", "passes": result["passes"]}], out)


def main():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    binary = build()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cpus": os.cpu_count(),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    if args.trace:
        traced_run(binary, bench, args, provenance)
    else:
        timed_run(binary, bench, args, provenance)


if __name__ == "__main__":
    main()
