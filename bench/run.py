"""Benchmark of tropalg: four seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload fit-1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20          # every workload
    python3 bench/run.py --workload solve --trace 1           # per-layer metrics

Runs against ``src/`` of the checkout it sits in, without installing it.  For
each workload it times ``import tropalg.cli`` in fresh processes (``setup_s``),
generates the inputs from ``--seed``, and runs the workload as a closed loop in
a child process (``loop.py``).  It prints every metric with unit and sample
count, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json, or its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from workloads import SIZES, WORKLOADS, describe_size

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# seeds from here on are never used while developing a change; a claimed gain
# is confirmed on seed + CONFIRM_OFFSET
CONFIRM_OFFSET = 1_000_000

SETUP_REPEATS = {"full": 5, "tiny": 1}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tropalg.cli; "
    "print(time.perf_counter() - t); print(tropalg.cli.__file__)"
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: ``src`` first on the path, at most nproc threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(env: dict, blas_threads) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    allocator_vars = {k: v for k, v in env.items()
                      if k.startswith("MALLOC_") or k in ("LD_PRELOAD", "GLIBC_TUNABLES")}
    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "thread_env": {v: env[v] for v in THREAD_VARS},
        # the program runs with the allocator users get: the benchmark never
        # calls mallopt (tests/oracles.py pin_allocator_thresholds is not used)
        "allocator": "default, mallopt not called",
        "allocator_env": allocator_vars,
    }


def measure_setup(env: dict, repeats: int) -> list[float]:
    """Seconds for a cold ``import tropalg.cli`` in fresh processes, after one
    discarded import that compiles the byte code."""
    times = []
    for k in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, path = out.stdout.split()
        if Path(path).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"tropalg.cli imported from {path}, not from {SRC}")
        if k:
            times.append(float(seconds))
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of ``times`` with at least ten samples above it,
    as (value, percentile, samples above); the maximum when there are too few."""
    ordered = sorted(times)
    k = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[k - 1], 100.0 * k / len(ordered), len(ordered) - k


def median_by_key(records: list[dict], field: str) -> float:
    """Median over distinct inputs (``key``) of a deterministic per-input value."""
    per_key = {}
    for r in records:
        per_key.setdefault(r["key"], r[field])
    return statistics.median(per_key.values())


def run_workload(name: str, args, env: dict) -> dict:
    wl = WORKLOADS[name]
    stem = f"{name}-seed{args.seed}-{args.size}-trace{args.trace}"
    workdir = WORK / f"{stem}-{os.getpid()}"
    inputs, outputs = workdir / "inputs", workdir / "outputs"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    inputs.mkdir(parents=True)
    outputs.mkdir()
    try:
        setup = measure_setup(env, SETUP_REPEATS[args.size])
        wl.generate(np.random.default_rng(args.seed), inputs, SIZES[args.size][name])
        spec = {
            "workload": name, "src": str(SRC), "inputs": str(inputs), "outputs": str(outputs),
            "seconds": args.seconds, "trace": bool(args.trace),
            "result": str(workdir / "result.json"), "spans": str(WORK / "results" / f"{stem}.spans.npz"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        subprocess.run([sys.executable, str(BENCH / "loop.py"), str(spec_path)], env=env, cwd=ROOT,
                       stdout=sys.stderr, timeout=3 * args.seconds + 60, check=True)
        raw = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in raw["errors"]:
        print(err, file=sys.stderr)
    summary = summarize(name, args, setup, raw, env)
    (WORK / "results" / f"{stem}.json").write_text(json.dumps({**summary, "raw": raw}), encoding="utf-8")
    return summary


def summarize(name: str, args, setup: list[float], raw: dict, env: dict) -> dict:
    recs = raw["records"]
    ok = [r for r in recs if r["ok"]]
    plain = [r for r in ok if r["phase"] == "untraced"]
    if not plain:
        raise RuntimeError(f"{name}: no iteration succeeded")
    times = [r["t"] for r in plain]
    # the mean, not the median: the host's slow phases make iteration times
    # bimodal, and the median of a run jumps between the modes (bench/README.md)
    wall = statistics.fmean(times)
    tail_value, tail_pct, beyond = tail(times)
    n = len(times)
    attempted, failed = len(recs), len(recs) - len(ok)
    e2e = {
        "setup_s": (statistics.median(setup), len(setup), f"median of {len(setup)} cold `import tropalg.cli`"),
        "wall_s": (wall, n, f"mean iteration, warm-up excluded; median {statistics.median(times):.6g}"),
        "wall_s_tail": (tail_value, n, f"p{tail_pct:.1f}, {beyond} samples beyond"),
        "throughput": (raw["work_items"] / wall, n, f"{raw['items']}/s at {raw['work_items']} {raw['items']}"),
        "peak_rss_mb": (raw["maxrss_kb"] / 1024, 1, "peak RSS of the workload process"),
        "result_linf": (median_by_key(ok, "linf"), len({r["key"] for r in ok}), "l_inf residual"),
        "result_rms": (median_by_key(ok, "rms"), len({r["key"] for r in ok}), "rms residual"),
        "error_rate": (failed / attempted, attempted, f"{failed} failed of {attempted} attempted"),
    }
    layers = {}
    if args.trace:
        traced = [r for r in ok if r["phase"] == "traced"]
        per_iter = list(raw["layers"].values())
        keys = per_iter[0].keys() if per_iter else []
        layers = {k: statistics.median(m[k] for m in per_iter) for k in keys}
        layers["regression.active_term_ratio"] = statistics.median(r.get("active_ratio", 0.0) for r in ok)
        layers["cli.bytes_written"] = statistics.median(r["bytes_written"] for r in ok)
        layers["proc.minor_faults"] = statistics.median(r["minflt"] for r in plain)
        layers["proc.cpu_s"] = statistics.median(r["cpu"] for r in plain)
        layers["trace.overhead_s"] = (statistics.fmean(r["t"] for r in traced) - wall) if traced else 0.0
        layers["trace.samples"] = len(per_iter)
    return {
        "workload": name, "seed": args.seed, "confirm_seed": args.seed + CONFIRM_OFFSET,
        "size": f"{args.size} ({describe_size(name, args.size)})", "trace": args.trace,
        "iterations": {"warmup": 1, "measured": len(recs) - 1},
        "env": environment(env, raw["blas_threads"]),
        "e2e": e2e, "layers": layers,
        "attempted": attempted, "failed": failed,
    }


def print_summary(s: dict, units: dict, per_layer: list[str]) -> None:
    print(f"== tropalg benchmark: workload={s['workload']} seed={s['seed']} "
          f"confirm_seed={s['confirm_seed']} size={s['size']} trace={s['trace']}")
    print(f"   closed loop, 1 client, own process; {s['iterations']['warmup']} warm-up + "
          f"{s['iterations']['measured']} measured iterations")
    print("   env: " + json.dumps(s["env"], sort_keys=True))
    print(f"   {'metric':<34} {'value':>14}  {'unit':<8} {'samples':>7}  note")
    for key, (value, count, note) in s["e2e"].items():
        print(f"   {key:<34} {value:>14.6g}  {units.get(key, 'ratio'):<8} {count:>7}  {note}")
    if s["layers"]:
        traced_wall = s["e2e"]["wall_s"][0] + s["layers"]["trace.overhead_s"]
        count = s["layers"]["trace.samples"]
        for key in per_layer:
            value = s["layers"][key]
            note = f"{100 * value / traced_wall:.1f}% of traced wall_s" if key.endswith("_s") else ""
            print(f"   {key:<34} {value:>14.6g}  {units[key]:<8} {count:>7}  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "tropalg" / "__init__.py").is_file():
        print(f"run.py: no tropalg sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(name, args, env) for name in names]
    for s in summaries:
        print_summary(s, units, per_layer)

    wanted = per_layer if args.trace else [m["name"] for m in spec["end_to_end"]]
    metrics = {}
    for s in summaries:
        values = {**{k: v[0] for k, v in s["e2e"].items()}, **s["layers"]}
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        metrics.update({prefix + k: {"value": float(values[k]), "unit": units[k]} for k in wanted})
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
