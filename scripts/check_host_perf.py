#!/usr/bin/env python3
"""Compare a bench_host_perf run against the checked-in baseline.

Usage:
    check_host_perf.py <baseline.json> <current.json>... [max_regression]
                       [--limit name=ratio ...]
                       [--min-scaling name=factor ...]
                       [--max-allocs name=allocs_per_event ...]
                       [--history bench/BENCH_host_perf.history.json]
                       [--markdown trajectory.md]

Fails (exit 1) if any benchmark's events/second dropped by more than its
limit. The default limit (max_regression, 5x) is generous and tolerates
host and CI noise: a smoke test against gross kernel regressions. Per-
benchmark --limit overrides tighten the gate where it matters, e.g.
--limit maple_spmv=1.15 guards the full-system figure-8 run (the number
that actually bounds how long the paper's experiments take) against even
moderate slowdowns.

Several current.json files (from repeated runs) may be given; each
benchmark scores its best run. A tight limit on a single noisy --quick
run would flake; a true regression slows every repetition, so best-of-N
keeps the gate honest while screening out scheduler noise.

--history appends this run's best-of-N numbers (plus commit and timestamp)
to a JSON history file, and --markdown renders the perf trajectory -- one
row per recorded run, one column per benchmark -- so simulator-throughput
drift is visible across commits, not just against the single baseline.

Benchmarks run with more than one host thread (bench_host_perf
--threads-sweep) carry a "threads" field and are keyed "<name>@<N>t";
single-thread entries keep the bare name, so existing baselines stay
valid. The trajectory table gets a trailing "scaling" column showing each
sharded benchmark's best multi-thread speedup over its own 1-thread run,
and --min-scaling gates that speedup (e.g. --min-scaling grid_spmv=2.5
fails unless some grid_spmv@Nt entry reaches 2.5x the 1-thread rate).

--max-allocs gates a benchmark's allocs_per_event (global operator new
calls per kernel event, counted by bench_host_perf): e.g. --max-allocs
maple_spmv=0.214 fails if any run allocates more per event. Single-thread
tiers repeat their allocation count exactly, so unlike the throughput
limits this gate does not depend on host speed. A run whose build bypassed
the coroutine frame pool ("frame_pool": false, an AddressSanitizer build)
allocates a frame per call by design; the gate is skipped for it.
"""
import datetime
import json
import os
import subprocess
import sys


def entry_key(bench):
    """Stable key: bare name at 1 thread, "<name>@<N>t" beyond."""
    threads = bench.get("threads", 1)
    return bench["name"] if threads == 1 else f"{bench['name']}@{threads}t"


def split_key(key):
    """Inverse of entry_key: (name, threads)."""
    if "@" in key and key.endswith("t"):
        name, threads = key.rsplit("@", 1)
        try:
            return name, int(threads[:-1])
        except ValueError:
            pass
    return key, 1


def load(path):
    with open(path) as f:
        return {entry_key(b): b["events_per_sec"]
                for b in json.load(f)["benchmarks"]}


def load_allocs(path):
    """{key: allocs_per_event}, or None if the build bypassed the frame
    pool. Benchmarks without an allocation count are left out."""
    with open(path) as f:
        report = json.load(f)
    if not report.get("frame_pool", True):
        return None
    return {entry_key(b): b["allocs_per_event"]
            for b in report["benchmarks"] if "allocs_per_event" in b}


def scaling_of(current):
    """{name: (speedup, threads)} for each benchmark with both a 1-thread
    entry and at least one multi-thread entry: the best multi-thread rate
    over the benchmark's own 1-thread rate."""
    out = {}
    for key, eps in current.items():
        name, threads = split_key(key)
        if threads == 1 or name not in current or current[name] <= 0:
            continue
        speedup = eps / current[name]
        if name not in out or speedup > out[name][0]:
            out[name] = (speedup, threads)
    return out


def parse_args(argv):
    positional, limits, opts = [], {}, {
        "history": None, "markdown": None, "min_scaling": {},
        "max_allocs": {}}
    it = iter(argv)
    for arg in it:
        if arg == "--limit" or arg.startswith("--limit="):
            spec = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not spec or "=" not in spec:
                sys.exit("--limit expects name=ratio (e.g. maple_spmv=1.15)")
            name, ratio = spec.split("=", 1)
            limits[name] = float(ratio)
        elif arg == "--min-scaling" or arg.startswith("--min-scaling="):
            spec = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not spec or "=" not in spec:
                sys.exit("--min-scaling expects name=factor "
                         "(e.g. grid_spmv=2.5)")
            name, factor = spec.split("=", 1)
            opts["min_scaling"][name] = float(factor)
        elif arg == "--max-allocs" or arg.startswith("--max-allocs="):
            spec = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if not spec or "=" not in spec:
                sys.exit("--max-allocs expects name=allocs_per_event "
                         "(e.g. maple_spmv=0.214)")
            name, bound = spec.split("=", 1)
            opts["max_allocs"][name] = float(bound)
        elif arg == "--history" or arg.startswith("--history="):
            opts["history"] = (arg.split("=", 1)[1] if "=" in arg
                               else next(it, None))
            if not opts["history"]:
                sys.exit("--history expects a path")
        elif arg == "--markdown" or arg.startswith("--markdown="):
            opts["markdown"] = (arg.split("=", 1)[1] if "=" in arg
                                else next(it, None))
            if not opts["markdown"]:
                sys.exit("--markdown expects a path")
        else:
            positional.append(arg)
    return positional, limits, opts


def git_commit():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_history(path, current):
    """Append this run's best-of-N numbers; atomic tmp+rename like the
    campaign's own result files, so an interrupted CI job can't truncate
    the history."""
    entries = []
    if os.path.exists(path):
        with open(path) as f:
            entries = json.load(f)["runs"]
    entries.append({
        "commit": git_commit(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
        "benchmarks": {name: round(eps, 1)
                       for name, eps in sorted(current.items())},
    })
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"runs": entries}, f, indent=2)
        f.write("\n")
    os.rename(tmp, path)
    print(f"appended run {len(entries)} to {path}")
    return entries


def write_trajectory(path, entries):
    """Perf-trajectory table: one row per recorded run, Mev/s per column,
    plus a trailing column with each run's multi-thread scaling."""
    names = sorted({n for e in entries for n in e["benchmarks"]})
    with open(path, "w") as f:
        f.write("# Host-performance trajectory\n\n")
        f.write("| run | commit | date | " + " | ".join(names)
                + " | scaling |\n")
        f.write("|---|---|---|" + "---:|" * len(names) + "---|\n")
        for i, e in enumerate(entries, 1):
            cells = []
            for n in names:
                eps = e["benchmarks"].get(n)
                cells.append(f"{eps / 1e6:.2f}M" if eps is not None else "-")
            scaling = scaling_of(e["benchmarks"])
            cells.append(", ".join(
                f"{n} x{s:.2f}@{t}t"
                for n, (s, t) in sorted(scaling.items())) or "-")
            date = e["timestamp"].split("T")[0]
            f.write(f"| {i} | {e['commit']} | {date} | "
                    + " | ".join(cells) + " |\n")
    print(f"wrote {path}")


def check_allocs(paths, bounds):
    """Gate allocs_per_event; each benchmark scores its worst run."""
    worst = {}
    for path in paths:
        allocs = load_allocs(path)
        if allocs is None:
            print(f"skip --max-allocs: {path} was built without the "
                  "frame pool")
            return []
        for name, ape in allocs.items():
            worst[name] = max(worst.get(name, 0.0), ape)
    failures = []
    for name, bound in sorted(bounds.items()):
        ape = worst.get(name)
        if ape is None:
            failures.append(f"{name}: no allocs_per_event in current run")
            continue
        status = "FAIL" if ape > bound else "ok"
        print(f"{status:4} {name:24} {ape:.4f} allocs/event "
              f"(max {bound:.4f})")
        if ape > bound:
            failures.append(f"{name}: {ape:.4f} allocs/event, above the "
                            f"{bound:.4f} bound")
    return failures


def main():
    positional, limits, opts = parse_args(sys.argv[1:])
    if len(positional) < 2:
        sys.exit(__doc__)
    baseline = load(positional[0])
    default_limit = 5.0
    current_paths = positional[1:]
    try:
        default_limit = float(positional[-1])
        current_paths = positional[1:-1]
    except ValueError:
        pass
    if not current_paths:
        sys.exit(__doc__)
    current = {}
    for path in current_paths:
        for name, eps in load(path).items():
            current[name] = max(current.get(name, 0.0), eps)
    if opts["history"]:
        entries = append_history(opts["history"], current)
        if opts["markdown"]:
            write_trajectory(opts["markdown"], entries)
    elif opts["markdown"]:
        sys.exit("--markdown requires --history (it renders the history)")
    unknown = set(limits) - set(baseline)
    if unknown:
        sys.exit("--limit names not in baseline: " + ", ".join(sorted(unknown)))

    failures = []
    for name, base_eps in sorted(baseline.items()):
        limit = limits.get(name, default_limit)
        eps = current.get(name)
        if eps is None:
            failures.append(f"{name}: missing from current run")
            continue
        ratio = base_eps / eps if eps > 0 else float("inf")
        status = "FAIL" if ratio > limit else "ok"
        print(f"{status:4} {name:24} {eps / 1e6:8.2f}M ev/s  "
              f"(baseline {base_eps / 1e6:8.2f}M, {ratio:.2f}x slower, "
              f"limit {limit:.2f}x)")
        if ratio > limit:
            failures.append(
                f"{name}: {eps:.0f} ev/s vs baseline {base_eps:.0f} "
                f"({ratio:.1f}x slower, limit {limit:.1f}x)")
    scaling = scaling_of(current)
    for name, factor in sorted(opts["min_scaling"].items()):
        got = scaling.get(name)
        if got is None:
            failures.append(f"{name}: no multi-thread entry to gate scaling")
            continue
        speedup, threads = got
        status = "FAIL" if speedup < factor else "ok"
        print(f"{status:4} {name:24} x{speedup:.2f} scaling @{threads}t "
              f"(min x{factor:.2f})")
        if speedup < factor:
            failures.append(
                f"{name}: x{speedup:.2f} scaling at {threads} threads, "
                f"below the x{factor:.2f} floor")
    if opts["max_allocs"]:
        failures += check_allocs(current_paths, opts["max_allocs"])
    if failures:
        sys.exit("host-perf regression:\n" + "\n".join(failures))
    print("host-perf smoke ok")


if __name__ == "__main__":
    main()
