"""Hermetic benchmark of mementoset: one workload per invocation.

    python3 benchmarks/run.py --workload dataset-build --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Builds the workload's inputs from ``--seed``, measures fresh-process
set-up, then runs whole rounds of the workload for about ``--seconds``,
checking every round's outputs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics; with ``--trace 1`` the per-layer
metrics of one traced round instead). Exits 2 when ``mementoset`` cannot
be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SAMPLES = 11
NAMES = ("scan-backoff", "dataset-build", "dataset-resume")
E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "candidates_per_s": "1/s",
    "mementos_per_s": "1/s", "requests": "count", "bytes_written": "bytes", "peak_rss_mb": "MB",
}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_seconds(work: Path) -> float:
    """Median set-up time of fresh processes, after one warm-up process."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(work / "setup")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def release_free_memory() -> None:
    """Collect garbage and hand the C heap's free pages back to the system,
    so that rounds forked from here grow from a lean start."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def run_rounds(workload, work: Path, seconds: float) -> list:
    """Whole rounds while another one fits in ``seconds``, at least one.

    Each round runs in a child forked from the prepared process.
    """
    from workloads import measured_round

    release_free_memory()
    done = []
    start = time.perf_counter()
    while True:
        done.append(measured_round(workload, fresh(work / "round")))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(done) > seconds:
            return done


def one_round(workload, work: Path, tracer=None):
    out = fresh(work / "round")
    gc.collect()
    return workload.round(out, tracer)


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": setup_s,
        "run_s": med(r.run_s for r in rounds),
        "cpu_s": med(r.cpu_s for r in rounds),
        "candidates_per_s": med(r.decisions / r.run_s for r in rounds),
        "mementos_per_s": med(r.mementos / r.run_s for r in rounds),
        "requests": med(r.requests for r in rounds),
        "bytes_written": med(r.bytes_written for r in rounds),
        "peak_rss_mb": med(r.peak_rss_mb for r in rounds),
    }


def traced(workload, work: Path):
    """One untraced and one traced round; per-layer figures of the latter."""
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    plain = one_round(workload, work)
    tracer = Tracer()
    tracer.install()
    try:
        r = one_round(workload, work, tracer)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.spans if r.t0 <= s.start <= r.t0 + r.run_s]
    tracer.write(work / "trace.jsonl", spans)
    metrics = layer_metrics(spans, r.run_s, plain.run_s, r.t0, r.kept_ratio)
    return [plain, r], metrics, LAYER_UNITS


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    work = fresh(WORK / name)
    workload = WORKLOADS[name](seed, work)
    if trace:
        rounds, values, units = traced(workload, work)
    else:
        setup_s = setup_seconds(work)
        rounds = run_rounds(workload, work, seconds)
        values, units = end_to_end(rounds, setup_s), E2E_UNITS
    problems = [p for r in rounds for p in r.problems]
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)

    print(f"{name}  seed {seed}  rounds {len(rounds)}  trace {int(trace)}")
    stages = {k: statistics.median(r.stages.get(k, 0.0) for r in rounds) for k in rounds[0].stages}
    print("  stages (median s): " + "  ".join(f"{k} {v:.3f}" for k, v in stages.items()))
    print("  round run_s: " + " ".join(f"{r.run_s:.3f}" for r in rounds))
    for key, value in values.items():
        print(f"  {key:32s} {value:14.6g} {units[key]}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"  operations attempted {attempted}, failed {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name} failed with exit code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]
    try:
        import mementoset
    except ImportError as exc:
        print(f"cannot import mementoset from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(mementoset.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"mementoset was imported from {mementoset.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
