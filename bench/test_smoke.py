"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that one command emits every metric BENCHMARK.json names, for every
workload, traced and untraced; and that a deliberately corrupted result is
caught by the output checks and counted in ``error_rate``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import loop  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(trace, section):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--size", "tiny",
         "--seconds", "1", "--seed", "7", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    table = "\n".join(out[:-1])
    for name in ["error_rate"] + [m["name"] for m in SPEC["end_to_end"]]:
        assert table.count(f"   {name} ") == len(workloads.WORKLOADS), name


def _shift_residuals(wl, out):
    path = wl.prefix + ".residuals.txt"
    table = np.loadtxt(path, ndmin=2)
    table[:, -1] += 0.01
    np.savetxt(path, table, fmt="%r")


def _shift_mu(wl, out):
    lines = wl.report.read_text(encoding="utf-8").splitlines(keepends=True)
    lines = [f"mu: {float(ln[4:]) + 0.5!r}\n" if ln.startswith("mu: ") else ln for ln in lines]
    wl.report.write_text("".join(lines), encoding="utf-8")


def _shift_evaluation(wl, out):
    out["evaluated"] = out["evaluated"] + 1e-6


CORRUPT = {"fit-1d": _shift_residuals, "fit-2d": _shift_residuals, "solve": _shift_mu,
           "algebra": _shift_evaluation}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_result_is_counted(name, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS[name]
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    inputs.mkdir()
    outputs.mkdir()
    wl.generate(np.random.default_rng(0), inputs, workloads.SIZES["tiny"][name])
    real_call = wl.call

    def corrupting_call(tropalg, i):
        out = real_call(tropalg, i)
        if i % 2:
            CORRUPT[name](wl, out)
        return out

    monkeypatch.setattr(wl, "call", corrupting_call)
    spec = {"workload": name, "src": str(ROOT / "src"), "inputs": str(inputs), "outputs": str(outputs),
            "seconds": 0.5, "trace": False, "result": str(tmp_path / "result.json"),
            "spans": str(tmp_path / "spans.npz")}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert loop.main(str(tmp_path / "spec.json")) == 0

    raw = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    args = Namespace(seed=0, size="tiny", trace=0)
    summary = run.summarize(name, args, [0.5], raw, run.child_env())
    corrupted = sum(1 for r in raw["records"] if r["i"] % 2)
    rate, attempted, _ = summary["e2e"]["error_rate"]
    assert corrupted >= 1
    assert summary["failed"] == corrupted
    assert rate == corrupted / attempted > 0
