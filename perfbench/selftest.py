"""Self-test of the benchmark at toy dimensions, with no timing gates.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at ``--size tiny`` and checks the
result schema against BENCHMARK.json, that every output check passed, that
the traced run reproduces the untraced outputs and counts, that every
traced boundary was reached by at least one workload, and that a set-up
error is counted as a failed operation rather than ending the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402  (pins BLAS threads before numpy loads)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert list(spec["command"][:2]) == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    assert 1 <= len(spec["per_layer"]) <= 128


def check_result(report: dict, spec: dict, trace: bool) -> None:
    result = report["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"], (m, value)
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"]), value
        if not trace:
            assert value["value"] > 0, (m["name"], value)


def check_setup_failure(spec: dict) -> None:
    cls = bench.workloads.WORKLOADS["corpus"]
    original = cls.setup

    def broken(self):
        raise RuntimeError("set-up error raised by the self-test")

    cls.setup = broken
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            report = bench.run("corpus", SEED, 0, False, size="tiny")
    finally:
        cls.setup = original
    result = report["result"]
    assert result["correct"] is False and result["failed"] == 1, result
    assert report["failures"][0].startswith("setup: RuntimeError"), report["failures"]
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]


def main() -> int:
    spec = bench.benchmark_spec()
    check_spec(spec)
    reached = set()
    for name in bench.WORKLOAD_NAMES:
        plain = bench.run(name, SEED, 0, False, size="tiny")
        traced = bench.run(name, SEED, 0, True, size="tiny")
        check_result(plain, spec, trace=False)
        check_result(traced, spec, trace=True)
        assert plain["digests"][0] == traced["digests"][0], f"{name}: outputs depend on tracing"
        assert plain["counts"] == traced["counts"], f"{name}: counts depend on tracing"
        assert set(dict(bench.NAMED)) >= set(plain["named"])
        metrics = traced["result"]["metrics"]
        assert metrics["trace_overhead"]["value"] > 0
        reached |= {b for b, _, _ in bench.layertrace.BOUNDARIES
                    if metrics[f"{b}.calls"]["value"] > 0}
        print(f"selftest {name}: ok ({plain['result']['attempted']} + "
              f"{traced['result']['attempted']} operations checked)")
    missed = [b for b, _, _ in bench.layertrace.BOUNDARIES if b not in reached]
    assert not missed, f"boundaries no workload reached: {missed}"
    check_setup_failure(spec)
    print("selftest setup failure: counted, result printed")

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", "corpus", "--seed", str(SEED), "--seconds", "0",
                           "--size", "tiny"])
    last = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0 and set(last) == {"correct", "attempted", "failed", "metrics"}
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
