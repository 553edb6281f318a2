"""One workload as a closed loop in its own process.

One client: the next iteration starts only after the previous one has
returned and been checked.  Started by ``run.py`` as ``python loop.py SPEC``
with ``tropalg`` importable from the checkout's ``src``; writes its raw
per-iteration records to the result file that SPEC names.

The first iteration is a warm-up and is not timed.  Without tracing the rest
of the window is measured plainly.  With tracing, the first half is measured
plainly and the second half with the wrappers of ``spans.py`` installed, so
the difference of the two mean iteration times is the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # numpy wheels bundle a renamed OpenBLAS; system builds keep the plain name
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import tropalg
    import tropalg.cli

    here = Path(tropalg.__file__).resolve().parent.parent
    if here != Path(spec["src"]).resolve():
        print(f"loop: tropalg imported from {here}, not from {spec['src']}", file=sys.stderr)
        return 3

    wl = workloads.WORKLOADS[spec["workload"]]
    wl.prepare(Path(spec["inputs"]), Path(spec["outputs"]))
    tracer = spans.Tracer()
    records: list[dict] = []
    errors: list[str] = []

    def iterate(i: int, phase: str) -> None:
        rec = {"i": i, "phase": phase, "ok": False}
        traced = phase == "traced"
        if traced:
            tracer.current = i
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            out = wl.call(tropalg, i)
            rec["t"] = time.perf_counter() - t0
            ru1 = resource.getrusage(resource.RUSAGE_SELF)
            rec["cpu"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
            rec["minflt"] = ru1.ru_minflt - ru0.ru_minflt
            rec.update(wl.check(i, out))
            rec["ok"] = True
        except Exception:  # a failed iteration is counted, and the loop goes on
            if len(errors) < 5:
                errors.append(f"iteration {i}: {traceback.format_exc()}")
        finally:
            tracer.current = -1
        records.append(rec)

    seconds = float(spec["seconds"])
    phases = [("untraced", seconds / 2), ("traced", seconds / 2)] if spec["trace"] else [("untraced", seconds)]
    iterate(0, "warmup")
    i = 1
    for phase, length in phases:
        if phase == "traced":
            tracer.install(tropalg)
        end = time.perf_counter() + length
        while True:
            iterate(i, phase)
            i += 1
            if time.perf_counter() >= end:
                break
    tracer.uninstall()

    result = {
        "records": records,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "work_items": wl.work_items,
        "items": wl.items,
    }
    if spec["trace"]:
        traced = [r["i"] for r in records if r["phase"] == "traced" and r["ok"]]
        result["layers"] = tracer.layer_metrics(traced)
        tracer.save(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
