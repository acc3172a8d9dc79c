#!/usr/bin/env python3
"""Benchmark of the Max-WE lifetime simulator's host cost.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and with it the maxwe
library) into .bench_build, then runs fresh-process passes of one workload
for about --seconds seconds, checks every run's outputs against
perfbench/references.json, and prints one JSON result as the last line of
standard output. --trace 0 reports the end-to-end metrics; --trace 1 runs
untraced and traced passes in turn and reports the per-layer metrics.
The line before the result is the full record: machine, build, every
pass's timings and resource usage.

    python3 perfbench/run.py --record-references [--workload <name>]

adds references for workload seeds that have none yet; it never replaces
an existing reference. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = {
    # name: (contract, device runs per pass)
    "uaa_event_sweep": ("bit_identical", 3),
    "zipf_large": ("distribution_equivalent", 1),
    "bpa_wearlevel": ("bit_identical", 16),
    "fleet_zipf": ("distribution_equivalent", 1),
}

# --seed n runs workload seed SEED_POOL[n % len(SEED_POOL)]: references are
# recorded for exactly these seeds. 42 is the paper configuration's seed.
SEED_POOL = [42] + list(range(1, 16))

# Relative band for distribution-equivalent outputs: the band the repo's
# fastpath contract gates zipf/random lifetimes with (BENCH_fastpath.json).
DIST_BAND = 0.20

HEADLINE = ("uaa_event_sweep", 42, "maxwe@0.10", "27.0185")

MIN_PASSES = 3
MIN_TRACE_PASSES = 2

PER_LAYER = [
    ("nvm.map_build_s", "s"), ("nvm.write_s", "s"),
    ("spare.alloc_s", "s"), ("spare.resolve_calls", "count"),
    ("spare.resolve_s", "s"), ("spare.rescues", "count"),
    ("spare.rescue_s", "s"), ("engine.resolve_hit_rate", "frac"),
    ("engine.resolve_flushes", "count"),
    ("attack.draw_s", "s"), ("attack.draw_calls", "count"),
    ("attack.writes_per_draw", "writes"),
    ("wl.on_write_calls", "count"), ("wl.on_write_s", "s"),
    ("wl.horizon_zero_frac", "frac"), ("wl.overhead_writes", "count"),
    ("engine.run_s", "s"), ("engine.self_s", "s"),
    ("engine.perwrite_writes", "count"), ("engine.batch_writes", "count"),
    ("engine.counts_writes", "count"),
    ("event.run_s", "s"), ("event.rescue_s", "s"), ("event.self_s", "s"),
    ("proc.minor_faults", "count"), ("proc.sys_s", "s"), ("proc.user_s", "s"),
    ("fleet.device_s_mean", "s"), ("fleet.device_s_max", "s"),
    ("fleet.setup_s", "s"), ("fleet.merge_s", "s"),
    ("fleet.worker_busy_frac", "frac"),
    ("trace.overhead_frac", "frac"), ("trace.unattributed_frac", "frac"),
    ("failed_frac", "frac"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure and build the pass binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(
            "perfbench: the maxwe sources (CMakeLists.txt, src/) are not next "
            "to perfbench/; run from a full checkout")
    out = build_dir()
    # Keep the compiler's temporary files inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_pass", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return out / "perfbench_pass"


def run_process(argv):
    """Run argv to completion; returns (exit status, stdout, rusage)."""
    read_fd, write_fd = os.pipe()
    pid = os.posix_spawn(argv[0], argv, os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1),
                                       (os.POSIX_SPAWN_CLOSE, read_fd)])
    os.close(write_fd)
    chunks = []
    with os.fdopen(read_fd, "rb") as pipe:
        for chunk in iter(lambda: pipe.read(65536), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), b"".join(chunks), usage


def run_pass(binary, workload, wseed, mode):
    """One fresh-process pass; returns its JSON output plus process usage,
    or None when the process failed."""
    code, out, usage = run_process([str(binary), workload, str(wseed), mode])
    if code != 0:
        log(f"{workload} seed {wseed} {mode} pass exited with {code}")
        return None
    try:
        record = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"{workload} seed {wseed} {mode} pass printed no JSON")
        return None
    record["mode"] = mode
    record["rusage"] = {
        "ru_maxrss_kb": usage.ru_maxrss,
        "ru_minflt": usage.ru_minflt,
        "ru_majflt": usage.ru_majflt,
        "ru_utime_s": usage.ru_utime,
        "ru_stime_s": usage.ru_stime,
    }
    return record


def load_references():
    path = BENCH_DIR / "references.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def headline_note(runs):
    """The paper's headline: Max-WE at 10% spares reads 27.0185% under UAA."""
    hit = [r for r in runs if r["name"] == HEADLINE[2]]
    if hit and f"{100 * hit[0]['result']['normalized']:.4f}" == HEADLINE[3]:
        return None
    return f"{HEADLINE[2]} does not read {HEADLINE[3]}%"


def contract_failures(workload, wseed, runs, reference):
    """{run name: note} for runs whose outputs break the workload's
    contract against the recorded reference."""
    contract, _ = WORKLOADS[workload]
    if reference is None:
        return {r["name"]: "no recorded reference" for r in runs}
    expected = {r["name"]: r for r in reference}
    failures = {}
    for name in set(expected) ^ {r["name"] for r in runs}:
        failures[name] = "missing from the pass or from the reference"
    for run in runs:
        ref = expected.get(run["name"])
        if ref is None:
            continue
        if contract == "bit_identical":
            if run["result"] != ref["result"]:
                failures[run["name"]] = "differs from the reference"
        elif workload == "zipf_large":
            got = run["result"]["user_writes"]
            want = ref["result"]["user_writes"]
            if not run["result"]["failed"]:
                failures[run["name"]] = "run did not end in device failure"
            elif abs(got - want) > DIST_BAND * want:
                failures[run["name"]] = (
                    f"user writes {got} outside {DIST_BAND:.0%} of {want}")
        else:
            got, want = run["fleet"], ref["fleet"]
            if (got["devices"] != want["devices"] or not got["complete"] or
                    abs(got["lifetime_mean"] - want["lifetime_mean"]) >
                    DIST_BAND * want["lifetime_mean"]):
                failures[run["name"]] = f"{got} outside the band of {want}"
    if (workload, wseed) == HEADLINE[:2]:
        note = headline_note(runs)
        if note:
            failures[HEADLINE[2]] = note
    return failures


def identity_failures(traced, plain):
    """{run name: note} for composed (traced) runs that do not reproduce
    the untraced library entry point's outputs exactly."""
    want = {r["name"]: r for r in plain["runs"]}
    return {r["name"]: "traced run differs from the untraced run"
            for r in traced["runs"] if want.get(r["name"]) != r}


def machine_block(first_pass):
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "compiler": first_pass.get("compiler") if first_pass else None,
        "build_type": first_pass.get("build_type") if first_pass else None,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(binary, workload, wseed, seconds, trace):
    """Run passes for about `seconds`; returns (passes, attempted, failed,
    failure notes)."""
    reference = load_references().get(workload, {}).get(str(wseed))
    runs_per_pass = WORKLOADS[workload][1]
    passes, notes = [], []
    attempted = failed = 0
    need = MIN_TRACE_PASSES if trace else MIN_PASSES
    start = time.monotonic()
    plain_count = traced_count = 0
    while True:
        elapsed = time.monotonic() - start
        # Stop before an iteration that would end past `seconds`.
        iteration = elapsed / plain_count if plain_count else 0.0
        if elapsed + iteration > seconds and plain_count >= need and \
                (not trace or traced_count >= need):
            break
        setup = run_pass(binary, workload, wseed, "setup")
        plain = run_pass(binary, workload, wseed, "plain")
        plain_count += 1
        attempted += runs_per_pass
        if setup is None or plain is None:
            failed += runs_per_pass
            notes.append("plain or setup pass failed")
            continue
        plain["setup_s"] = setup["setup_s"]
        passes.append(plain)
        bad = contract_failures(workload, wseed, plain["runs"], reference)
        failed += len(bad)
        notes += [f"{name}: {note}" for name, note in bad.items()]
        if not trace:
            continue
        traced = run_pass(binary, workload, wseed, "traced")
        traced_count += 1
        attempted += runs_per_pass
        if traced is None:
            failed += runs_per_pass
            notes.append("traced pass failed")
            continue
        passes.append(traced)
        bad = identity_failures(traced, plain)
        failed += len(bad)
        notes += [f"{name}: {note}" for name, note in bad.items()]
    return passes, attempted, failed, notes


def end_to_end(passes):
    plain = [p for p in passes if p["mode"] == "plain"]
    cpu = [p["rusage"]["ru_utime_s"] + p["rusage"]["ru_stime_s"]
           for p in plain]
    return {
        "wall_s": metric(median([p["wall_s"] for p in plain]), "s"),
        "setup_s": metric(median([p["setup_s"] for p in plain]), "s"),
        "sim_writes_per_s": metric(
            median([p["user_writes"] / p["wall_s"] for p in plain]),
            "writes/s"),
        "devices_per_s": metric(
            median([p["devices"] / p["wall_s"] for p in plain]), "1/s"),
        "cpu_s": metric(median(cpu), "s"),
        "peak_rss_mb": metric(
            median([p["rusage"]["ru_maxrss_kb"] / 1024 for p in plain]), "MB"),
    }


def per_layer(passes, attempted, failed):
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    values = {}
    for name, _ in PER_LAYER:
        # Layers a workload does not reach (wrapper counts inside run_fleet,
        # fleet rows of single-device runs) read 0.
        values[name] = median([p["layers"].get(name, 0) for p in traced])
    values["proc.minor_faults"] = median(
        [p["rusage"]["ru_minflt"] for p in plain])
    values["proc.sys_s"] = median([p["rusage"]["ru_stime_s"] for p in plain])
    values["proc.user_s"] = median([p["rusage"]["ru_utime_s"] for p in plain])
    plain_wall = median([p["wall_s"] for p in plain])
    traced_wall = median([p["wall_s"] for p in traced])
    values["trace.overhead_frac"] = (
        traced_wall / plain_wall - 1 if plain_wall > 0 else 0.0)
    values["failed_frac"] = failed / attempted if attempted else 0.0
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


def record_references(binary, workloads):
    path = BENCH_DIR / "references.json"
    refs = load_references()
    for workload in workloads:
        table = refs.setdefault(workload, {})
        for wseed in SEED_POOL:
            if str(wseed) in table:
                continue
            plain = run_pass(binary, workload, wseed, "plain")
            if plain is None:
                raise SystemExit(f"perfbench: {workload} seed {wseed} failed")
            table[str(wseed)] = plain["runs"]
            log(f"recorded {workload} seed {wseed}")
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    headline = refs.get(HEADLINE[0], {}).get(str(HEADLINE[1]))
    if headline is not None and headline_note(headline):
        raise SystemExit(f"perfbench: {headline_note(headline)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.record_references:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.record_references:
        record_references(binary, [args.workload] if args.workload
                          else sorted(WORKLOADS))
        return
    wseed = SEED_POOL[args.seed % len(SEED_POOL)]
    passes, attempted, failed, notes = measure(
        binary, args.workload, wseed, args.seconds, args.trace)
    metrics = (per_layer(passes, attempted, failed) if args.trace
               else end_to_end(passes))
    for note in notes:
        log(note)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": wseed,
        "trace": args.trace,
        "machine": machine_block(passes[0] if passes else None),
        "passes": [{k: v for k, v in p.items() if k != "runs"}
                   for p in passes],
        "failures": notes,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
