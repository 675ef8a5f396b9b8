"""Benchmark of refgame's batch jobs, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` times untraced passes and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over the same inputs,
checks that both give identical outputs, and reports per-layer metrics.
The last line of standard output is one JSON object; the lines before it
name every metric with its unit, and the run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: at paper size the GEMMs are small and a second thread
# made train_model slower and less steady on a 2-CPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPS = 5     # each rep also times a fresh interpreter's imports
MIN_PASSES = 3     # untraced passes; a traced run makes at least 2 pairs
MIN_COVERAGE = 0.9  # share of timed phase time that top-level wrapped calls must cover
WORKLOAD_NAMES = ("train", "selfplay", "corpus")

# Every end-to-end metric a workload can print: (name, unit).
NAMED = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "ratio"),
    ("train_examples_per_s", "1/s"),
    ("selfplay_games_per_s", "1/s"),
    ("selfplay_tokens_per_s", "1/s"),
    ("annotate_games_per_s", "1/s"),
    ("scripted_games_per_s", "1/s"),
    ("tagger_train_utts_per_s", "1/s"),
    ("tagger_decode_utts_per_s", "1/s"),
    ("corpus_save_dialogues_per_s", "1/s"),
    ("corpus_load_dialogues_per_s", "1/s"),
    ("corpus_analyze_dialogues_per_s", "1/s"),
)
COUNTS = (
    ("selfplay.gru_steps_per_token", "steps/token"),
    ("selfplay.tokens_emitted", "count"),
    ("selfplay.utterances_per_game", "utterances/game"),
    ("selfplay.forced_share", "ratio"),
    ("annotate.markables", "count"),
    ("corpus.bytes_written", "B"),
)


def _fail_without_source() -> None:
    if not (ROOT / "src" / "refgame" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no refgame sources under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


_fail_without_source()

import numpy as np  # noqa: E402

import refgame  # noqa: E402
from refgame.neural import kernels  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import layertrace  # noqa: E402
import workloads  # noqa: E402

IMPORT_CODE = ("import time; t0 = time.perf_counter(); "
               "import numpy, refgame, layertrace, workloads; "
               "print(time.perf_counter() - t0)")
if not Path(refgame.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.stderr.write(f"perfbench: refgame imported from {refgame.__file__}, not {ROOT / 'src'}\n")
    sys.exit(2)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy, refgame and the
    benchmark's modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH_DIR))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


class Phases:
    """Wall seconds of each timed phase of one pass; a root span per phase
    when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        with self.tracer.phase(name) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


def _blas() -> dict:
    info = {"threads_requested": BLAS_THREADS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(name: str, workload, seed: int, seconds: int, trace: bool, size: str) -> dict:
    """Where and on what the run ran; ``workload`` is None when set-up failed."""
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "kernel_backend": kernels.get_backend(),
        "refgame": refgame.__version__,
        "git_revision": _git_revision(),
        "closed_loop": "one caller, run_batch(..., jobs=1)",
        **(workload.describe() if workload else {"sizes": asdict(workloads.SIZES[size])}),
    }


def _run_pass(workload, k: int, ops, tracer, first: bool):
    """One pass; None when it raised (counted as a failed operation)."""
    phases = Phases(tracer)
    try:
        out = workload.run_pass(k, phases, ops, first)
    except Exception as exc:  # a failed pass must not end the run
        traceback.print_exc(file=sys.stderr)
        ops.fail(f"pass {k}{' traced' if tracer else ''}", f"{type(exc).__name__}: {exc}")
        return None
    out.seconds = phases.seconds
    out.digest = workloads.outputs_digest(out.outputs)
    return out


def _median_of(values, default=0.0) -> float:
    values = list(values)
    return float(median(values)) if values else default


def _run_passes(workload, ops, tracer, seconds: float, trace: bool, plain: list, traced: list) -> float:
    """Passes until the next would end after ``seconds``, then the final
    checks; returns the measured wall seconds."""
    start = time.perf_counter()
    k = 0
    while True:
        t_iter = time.perf_counter()
        out = _run_pass(workload, k, ops, None, first=k == 0)
        if out is not None:
            plain.append(out)
            if workload.fixed_inputs and k > 0:
                ops.check(f"pass {k} repeat", [] if plain[0].digest == out.digest
                          else ["outputs differ from pass 0 on the same inputs"])
        if trace:
            tracer.install()
            try:
                out_t = _run_pass(workload, k, ops, tracer, first=False)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            if out_t is not None:
                ops.check(f"pass {k} traced", [] if out is not None and out.digest == out_t.digest
                          else ["traced outputs differ from the untraced pass"])
                traced.append((out_t, spans))
        k += 1
        elapsed = time.perf_counter() - start
        if k >= (2 if trace else MIN_PASSES) and elapsed + (time.perf_counter() - t_iter) > seconds:
            break
    measured_s = time.perf_counter() - start
    try:
        workload.final_checks(ops)
    except Exception as exc:  # counted like a failed pass
        traceback.print_exc(file=sys.stderr)
        ops.fail("final checks", f"{type(exc).__name__}: {exc}")
    return measured_s


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "paper") -> dict:
    """Set up, run passes for ``seconds``, check, and return the result."""
    spec = benchmark_spec()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    ops = workloads.Ops()
    tracer = layertrace.Tracer() if trace else None
    cls = workloads.WORKLOADS[name]
    plain, traced, import_times, setup_times = [], [], [], []
    measured_s = 0.0
    try:
        try:
            workload = cls(seed, workloads.SIZES[size], workdir)
            for _ in range(SETUP_REPS):
                import_times.append(import_seconds())
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(import_times[-1] + time.perf_counter() - t0)
        except Exception as exc:  # counted like a failed pass; no passes run
            traceback.print_exc(file=sys.stderr)
            ops.fail("setup", f"{type(exc).__name__}: {exc}")
            workload = None
        if workload is not None:
            measured_s = _run_passes(workload, ops, tracer, seconds, trace, plain, traced)
        info = provenance(name, workload, seed, seconds, trace, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    named = {
        "setup_s": _median_of(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for rate in cls.rates:
        named[rate] = _median_of(p.rates[rate] for p in plain)
    counts = dict(plain[0].counts) if plain else {}

    e2e = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        "items_per_s": named[cls.headline],
        "pass_items_per_s": _median_of(p.items / sum(p.seconds.values()) for p in plain),
    }
    per_layer = {}
    if trace:
        summaries = [layertrace.summarize(spans) for _, spans in traced]
        first = summaries[0][0] if summaries else {}
        for boundary, _, _ in layertrace.BOUNDARIES:
            per_layer[f"{boundary}.calls"] = first.get(boundary, [0, 0.0])[0]
            per_layer[f"{boundary}.self_s"] = _median_of(
                s.get(boundary, [0, 0.0])[1] for s, _ in summaries
            )
        for count, _ in COUNTS:
            per_layer[count] = counts.get(count, 0)
        gru_calls = first.get("neural.gru_cell", [0])[0]
        tokens = counts.get("selfplay.tokens_emitted", 0)
        per_layer["selfplay.gru_steps_per_token"] = gru_calls / tokens if tokens else 0.0
        per_layer["trace_overhead"] = (
            _median_of(sum(o.seconds.values()) for o, _ in traced)
            / _median_of(sum(o.seconds.values()) for o in plain)
            if traced and plain else 0.0
        )
        per_layer["trace_coverage"] = coverage = _median_of(cov for _, cov in summaries)
        ops.check("trace coverage", [] if coverage >= MIN_COVERAGE else [
            f"top-level wrapped calls cover {coverage:.3f} of phase time, under {MIN_COVERAGE}"
        ])
        if traced:
            _write_json(OUT_DIR / f"trace-{name}.json",
                        {"provenance": info, "bindings": tracer.bindings,
                         "span_fields": ["name", "parent", "start_ns", "end_ns"],
                         "spans": traced[0][1]})

    named["failed_share"] = len(ops.failures) / max(ops.attempted, 1)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not ops.failures and bool(plain),
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    report = {
        "result": result,
        "named": named,
        "counts": counts,
        "per_layer": {m["name"]: [per_layer[m["name"]], m["unit"]] for m in spec["per_layer"]}
        if trace else {},
        "passes": len(plain),
        "measured_s": measured_s,
        "failures": ops.failures,
        "digests": [p.digest for p in plain],
        "pass_seconds": [p.seconds for p in plain],
        "pass_rates": [p.rates for p in plain],
        "pass_items": [p.items for p in plain],
        "setup_import_s": import_times,
        "setup_reps_s": setup_times,
        "provenance": info,
    }
    _write_json(OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json", report)
    return report


def _write_json(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj))
    os.replace(tmp, path)


def print_report(name: str, report: dict) -> None:
    units = dict(NAMED)
    for metric, value in report["named"].items():
        print(f"{name:<9} {metric:<32} {value:14.4f} {units[metric]}")
    count_units = dict(COUNTS)
    for metric, value in report["counts"].items():
        print(f"{name:<9} {metric:<32} {value:14.4f} {count_units[metric]}")
    for metric, (value, unit) in report["per_layer"].items():
        print(f"{name:<9} {metric:<48} {value:14.6f} {unit}")
    for failure in report["failures"]:
        print(f"{name:<9} FAILED {failure}")
    print(f"{name:<9} provenance {json.dumps(report['provenance'], sort_keys=True)}")


def run_all(seed: int, seconds: int, trace: bool, size: str) -> dict:
    """Each workload in its own process, so peak RSS does not carry over."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            result = None
        if result is None:  # counted as one failed operation; the next workload still runs
            print(f"{name:<9} FAILED exited with {proc.returncode} and no result")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="paper",
                        help="'tiny' runs toy dimensions for the self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace), args.size)
    else:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        print_report(args.workload, report)
        result = report["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
