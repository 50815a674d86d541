#!/usr/bin/env python3
"""Benchmark of the MAPLE simulator: the paper's figure grids and a coherent
64-core chip, timed end to end and per layer.

    python3 perfbench/run.py --workload fpga_figs --seed 0 --seconds 30 --trace 0

Builds perfbench_driver from source (into $CARGO_TARGET_DIR, default
.bench_build), runs it on one workload, checks every simulation's output and
the paper-shape properties, and prints one JSON object as the last line of
stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics, and adds one round of runs with the simulator's tracer on. The
paper-vs-measured table of the figures' headline ratios is printed above the
JSON line. See perfbench/README.md.
"""

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fpga_figs", "prior_hw", "msi_manycore")

# Headline ratios the paper reports, by the per-layer metric that measures
# each one (Figs 8, 9, 11 and 12).
PAPER = {
    "fig.maple_decouple_x": 1.51,
    "fig.maple_over_sw_x": 2.27,
    "fig.lima_x": 1.73,
    "fig.lima_over_sw_x": 2.35,
    "fig.lima_latency_cut_x": 1.85,
    "fig.maple_over_desc_x": 1.72,
    "fig.maple_over_droplet_x": 1.82,
}

# Paper-shape properties checked on every round, by workload.
PROPERTIES = {
    "fpga_figs": [
        "fig8.sw_decouple_below_doall", "fig8.maple_decouple_above_doall",
        "fig8.maple_above_sw_decouple", "fig8.spmm_falls_back",
        "fig9.lima_above_sw_prefetch", "fig10.sw_prefetch_adds_loads",
        "fig10.lima_load_ratio_below_1", "fig11.lima_latency_below_no_prefetch",
        "fig11.lima_latency_below_sw_prefetch"],
    "prior_hw": [
        "fig12.maple_above_desc", "fig12.maple_above_droplet",
        "fig12.spmm_falls_back", "fig12.desc_above_maple_on_spmv",
        "fig12.desc_below_maple_on_bfs"],
    "msi_manycore": [],
}

# Host-time spans: simulation runs grouped by the layer whose code does the
# technique-specific work.
HOST_SPANS = {
    "workloads.core_only_s": ("doall", "no-prefetch", "sw-prefetch"),
    "core.maple_s": ("maple-decouple", "maple-lima"),
    "baselines.swqueue_s": ("sw-decouple",),
    "baselines.desc_s": ("desc",),
    "baselines.droplet_s": ("droplet",),
}

# stallAttribution buckets of the trace JSON, by per-layer metric.
STALLS = {
    "core.queue_full_cy": "queue_full",
    "core.queue_empty_cy": "queue_empty",
    "core.produce_buffer_cy": "produce_buffer",
    "core.mem_wait_cy": "dram",
    "core.tlb_wait_cy": "tlb_miss",
    "noc.backpressure_cy": "noc_backpressure",
}

# Fields of a run record that the simulation alone determines; they must be
# identical in every round and with tracing on.
EXACT_FIELDS = ("cycles", "instructions", "loads", "stores", "load_latency",
                "events", "valid", "fell_back", "error")


def metric_units(section):
    """Names and units of the metrics in one list of BENCHMARK.json
    ("end_to_end" or "per_layer"), the single place they are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def log_error(measured, paper):
    return abs(math.log(measured / paper))


def run_ok(rec):
    """A simulation run passes when it finished and matched the golden."""
    return rec["valid"] and not rec["error"]


# ---------------------------------------------------------------- traces

def parse_stalls(json_path, tail_bytes=1 << 16):
    """stallAttribution of a Chrome trace the tracer wrote. The object sits at
    the end of the file, after every event, so only the tail is read."""
    with open(json_path, "rb") as f:
        f.seek(0, os.SEEK_END)
        f.seek(max(0, f.tell() - tail_bytes))
        tail = f.read().decode("utf-8", "replace")
    key = '"stallAttribution":'
    at = tail.rfind(key)
    if at < 0:
        raise ValueError(f"{json_path}: no stallAttribution")
    obj, _ = json.JSONDecoder().raw_decode(tail, at + len(key))
    return {k: int(v) for k, v in obj.items()}


def parse_probes(csv_path):
    """Sums over the probe CSV's sample rows: NoC flits sent (a cumulative
    counter, so its last sample), LLC slice-0 MSHRs in use, and directory
    lines busy summed over the slices (0 with no directory)."""
    with open(csv_path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][:1] != ["cycle"]:
        raise ValueError(f"{csv_path}: not a probe CSV")
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    for need in ("noc.flits", "llc.mshrs"):
        if need not in col:
            raise ValueError(f"{csv_path}: no {need} column")
    busy = [i for name, i in col.items()
            if name.startswith("dir.") and name.endswith(".busy")]
    out = {"rows": len(body), "flits": 0.0, "llc_mshrs": 0.0,
           "dir_busy": 0.0, "dir_rows": 0}
    for row in body:
        out["llc_mshrs"] += float(row[col["llc.mshrs"]])
        if busy:
            out["dir_busy"] += sum(float(row[i]) for i in busy)
            out["dir_rows"] += 1
    if body:
        out["flits"] = float(body[-1][col["noc.flits"]])
    return out


# ------------------------------------------------------- paper shapes

def _by_key(runs):
    return {(r["dataset"], r["app"], r["tech"]): r for r in runs}


def _apps(runs):
    seen = []
    for r in runs:
        if r["app"] not in seen:
            seen.append(r["app"])
    return seen


def _speedups(cells, apps, base, tech, dataset=0):
    return [cells[(dataset, a, base)]["cycles"] / cells[(dataset, a, tech)]["cycles"]
            for a in apps]


def paper_shape(workload, runs):
    """The figures' ratios and the paper-shape properties on one round.

    Returns (ratios, properties): ratios maps fig.* metrics to values,
    properties maps each name in PROPERTIES[workload] to whether it holds.
    """
    cells, apps = _by_key(runs), _apps(runs)
    if workload == "fpga_figs":
        sw = geomean(_speedups(cells, apps, "doall", "sw-decouple"))
        mp = geomean(_speedups(cells, apps, "doall", "maple-decouple"))
        swp = geomean(_speedups(cells, apps, "no-prefetch", "sw-prefetch"))
        lima = geomean(_speedups(cells, apps, "no-prefetch", "maple-lima"))

        def loads(a, t):
            return cells[(0, a, t)]["loads"]

        def lat(a, t):
            return cells[(0, a, t)]["load_latency"]

        ratios = {
            "fig.maple_decouple_x": mp,
            "fig.maple_over_sw_x": mp / sw,
            "fig.lima_x": lima,
            "fig.lima_over_sw_x": lima / swp,
            "fig.lima_latency_cut_x": geomean(
                lat(a, "sw-prefetch") / lat(a, "maple-lima") for a in apps),
        }
        props = {
            "fig8.sw_decouple_below_doall": sw < 1,
            "fig8.maple_decouple_above_doall": mp > 1,
            "fig8.maple_above_sw_decouple": mp > sw,
            "fig8.spmm_falls_back": all(
                cells[(0, "spmm", t)]["fell_back"]
                for t in ("sw-decouple", "maple-decouple")),
            "fig9.lima_above_sw_prefetch": lima > swp,
            "fig10.sw_prefetch_adds_loads": all(
                loads(a, "sw-prefetch") > loads(a, "no-prefetch") for a in apps),
            "fig10.lima_load_ratio_below_1": geomean(
                loads(a, "maple-lima") / loads(a, "no-prefetch") for a in apps) < 1,
            "fig11.lima_latency_below_no_prefetch": all(
                lat(a, "maple-lima") < lat(a, "no-prefetch") for a in apps),
            "fig11.lima_latency_below_sw_prefetch":
                ratios["fig.lima_latency_cut_x"] > 1,
        }
        return ratios, props
    if workload == "prior_hw":
        datasets = sorted({r["dataset"] for r in runs})
        techs = ("droplet", "desc", "maple-decouple")
        # Fig 12: each app's bar is the geomean over its datasets.
        per_app = {t: {a: geomean(cells[(d, a, "doall")]["cycles"]
                                  / cells[(d, a, t)]["cycles"] for d in datasets)
                       for a in apps} for t in techs}
        geo = {t: geomean(per_app[t].values()) for t in techs}
        ratios = {
            "fig.maple_over_desc_x": geo["maple-decouple"] / geo["desc"],
            "fig.maple_over_droplet_x": geo["maple-decouple"] / geo["droplet"],
        }
        props = {
            "fig12.maple_above_desc": ratios["fig.maple_over_desc_x"] > 1,
            "fig12.maple_above_droplet": ratios["fig.maple_over_droplet_x"] > 1,
            "fig12.spmm_falls_back": all(
                cells[(d, "spmm", t)]["fell_back"]
                for d in datasets for t in ("desc", "maple-decouple")),
            "fig12.desc_above_maple_on_spmv":
                per_app["desc"]["spmv"] > per_app["maple-decouple"]["spmv"],
            "fig12.desc_below_maple_on_bfs":
                per_app["desc"]["bfs"] < per_app["maple-decouple"]["bfs"],
        }
        return ratios, props
    return {}, {}


def round_properties(workload, runs):
    """Paper-shape properties of one round. When a run of the round failed,
    its cycles mean nothing, so every property counts as failed."""
    if not all(map(run_ok, runs)):
        return dict.fromkeys(PROPERTIES.get(workload, ()), False)
    props = paper_shape(workload, runs)[1]
    assert list(props) == PROPERTIES.get(workload, [])
    return props


def paper_table(ratios):
    lines = [f"{'metric':<28}{'paper':>8}{'measured':>10}{'|ln err|':>10}"]
    for name, value in ratios.items():
        lines.append(f"{name:<28}{PAPER[name]:>8.2f}{value:>10.3f}"
                     f"{log_error(value, PAPER[name]):>10.3f}")
    if ratios:
        lines.append(f"{'fig.paper_err':<28}{'':>8}{'':>10}"
                     f"{paper_err(ratios):>10.3f}")
    return "\n".join(lines)


def paper_err(ratios):
    if not ratios:
        return 0.0
    return statistics.fmean(log_error(v, PAPER[k]) for k, v in ratios.items())


# ------------------------------------------------------------ summary

def summarize(workload, records, problems):
    """Metrics, operation counts and checks over a driver's records.

    Appends a message to @p problems for every check that makes the run
    incorrect (as opposed to an operation that fails and is counted).
    """
    setups = [r["s"] for r in records if r["kind"] == "setup"]
    runs = [r for r in records if r["kind"] == "run"]
    ends = [r for r in records if r["kind"] == "end"]
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    rounds = {}
    for r in untraced:
        rounds.setdefault(r["round"], []).append(r)
    if not setups or not rounds or len(ends) != 1:
        problems.append("driver output incomplete")
        return None

    first = list(rounds.values())[0]
    all_rounds = list(rounds.values()) + ([traced] if traced else [])
    keys = [(r["dataset"], r["app"], r["tech"]) for r in first]
    for rnd in all_rounds:
        if [(r["dataset"], r["app"], r["tech"]) for r in rnd] != keys:
            problems.append("rounds ran different jobs")
            return None
        for a, b in zip(first, rnd):
            diff = [f for f in EXACT_FIELDS if a[f] != b[f]]
            if diff:
                problems.append(
                    f"{a['app']}/{a['tech']}/d{a['dataset']}: "
                    f"{', '.join(diff)} differ between rounds"
                    + (" (traced)" if b["traced"] else ""))

    attempted = failed = 0
    failures = set()
    for rnd in all_rounds:
        for r in rnd:
            attempted += 1
            if not run_ok(r):
                failed += 1
                failures.add(f"{r['app']}/{r['tech']}/d{r['dataset']}"
                             + (f": {r['error'].splitlines()[0]}" if r["error"] else ""))
        for name, holds in round_properties(workload, rnd).items():
            attempted += 1
            if not holds:
                failed += 1
                failures.add(name)

    walls = [sum(r["wall_s"] for r in rnd) for rnd in rounds.values()]
    instructions = sum(r["instructions"] for r in first)
    events = sum(r["events"] for r in first)
    loads = sum(r["loads"] for r in first)
    setup = statistics.median(setups)
    e2e = {
        "wall_s": statistics.median(walls),
        "sim_mips": statistics.median(instructions / w / 1e6 for w in walls),
        "setup_s": setup,
        "peak_rss_mb": ends[0]["peak_rss_mb"],
    }

    layer = {"workloads.gen_s": setup}
    for name, techs in HOST_SPANS.items():
        layer[name] = statistics.median(
            sum(r["wall_s"] for r in rnd if r["tech"] in techs)
            for rnd in rounds.values())
    layer["sim.events"] = events
    layer["sim.ns_per_event"] = statistics.median(w / events * 1e9 for w in walls)
    layer["sim.cycles"] = sum(r["cycles"] for r in first)
    layer["cpu.instructions"] = instructions
    layer["cpu.loads"] = loads
    layer["cpu.stores"] = sum(r["stores"] for r in first)
    layer["cpu.load_latency_cy"] = (
        sum(r["load_latency"] * r["loads"] for r in first) / loads if loads else 0.0)
    if traced:
        for name, bucket in STALLS.items():
            layer[name] = sum(r["stalls"][bucket] for r in traced)
        rows = sum(r["probes"]["rows"] for r in traced)
        dir_rows = sum(r["probes"]["dir_rows"] for r in traced)
        layer["noc.flits"] = sum(r["probes"]["flits"] for r in traced)
        layer["mem.llc_mshrs_mean"] = (
            sum(r["probes"]["llc_mshrs"] for r in traced) / rows if rows else 0.0)
        layer["mem.dir_busy_mean"] = (
            sum(r["probes"]["dir_busy"] for r in traced) / dir_rows
            if dir_rows else 0.0)
        layer["trace.overhead_x"] = (sum(r["wall_s"] for r in traced)
                                     / statistics.median(walls))
    ratios = paper_shape(workload, first)[0] if all(map(run_ok, first)) else {}
    for name in PAPER:
        layer[name] = ratios.get(name, 0.0)
    layer["fig.paper_err"] = paper_err(ratios)
    return {"attempted": attempted, "failed": failed,
            "failures": sorted(failures), "end_to_end": e2e,
            "per_layer": layer, "ratios": ratios}


# ------------------------------------------------------ build and run

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configure and build perfbench_driver; returns its path, or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    steps = [["cmake", "-S", HERE, "-B", out],
             ["cmake", "--build", out, "--target", "perfbench_driver",
              "-j", str(min(4, os.cpu_count() or 1))]]
    with open(log_path, "w") as log:
        failed = next((cmd for cmd in steps if subprocess.run(
            cmd, stdout=log, stderr=subprocess.STDOUT).returncode), None)
    if failed:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        sys.stderr.write(f"perfbench: build failed: {' '.join(failed)}\n")
        return None
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace_dir):
    """Run the driver and collect its records. Trace files are parsed and
    deleted as each traced run reports, so at most one run's files exist."""
    cmd = [driver, workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    # The simulator overlays MAPLE_* environment knobs on every SoC; the
    # benchmark's configurations are fixed in the driver, so none leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAPLE_")}
    records = []
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            for line in proc.stdout:
                if not line.startswith("{"):
                    sys.stderr.write(line)  # the simulator's own info: lines
                    continue
                rec = json.loads(line)
                if rec["kind"] == "run" and rec["traced"]:
                    rec["stalls"] = parse_stalls(rec["trace_json"])
                    rec["probes"] = parse_probes(rec["trace_csv"])
                    os.remove(rec["trace_json"])
                    os.remove(rec["trace_csv"])
                records.append(rec)
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="dataset seed; 0 gives the figures' datasets")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    driver = build()
    if driver is None:
        return 1
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(build_dir(), f"trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
    try:
        records = run_driver(driver, args.workload, args.seed, args.seconds,
                             trace_dir)
    except (RuntimeError, ValueError, OSError, KeyError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    finally:
        if trace_dir:
            shutil.rmtree(trace_dir, ignore_errors=True)

    problems = []
    s = summarize(args.workload, records, problems)
    if s is None:
        sys.stderr.write("perfbench: " + "; ".join(problems) + "\n")
        return 1
    for p in problems:
        sys.stderr.write(f"perfbench: check failed: {p}\n")
    for f in s["failures"]:
        sys.stderr.write(f"perfbench: failed operation: {f}\n")
    if s["ratios"]:
        print(paper_table(s["ratios"]))
    chosen = s["per_layer"] if args.trace else s["end_to_end"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(chosen) != set(units):
        sys.stderr.write("perfbench: metrics computed differ from BENCHMARK.json: "
                         f"{sorted(set(chosen) ^ set(units))}\n")
        return 1
    metrics = {name: {"value": chosen[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not problems, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
