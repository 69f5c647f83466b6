"""alloyforge benchmark: set up a workload, run it for a fixed time, check it, print.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere inside a checkout; alloyforge is imported from its ``src``
directory, with no install step. The load is a closed loop in one process:
iterations of the workload run back to back until ``--seconds`` have passed
(at least one iteration). Each iteration has three stages; the bounded
end-to-end metrics give each stage's median in units of a calibration loop
timed around it, which cancels the drift in machine speed of a shared host,
and the report also prints the raw seconds. Set-up is timed the same way,
without the writing of its input files, and reported in seconds at a fixed
reference speed. Every metric is printed by
name with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced
(``--trace 0``) or the per-layer metrics (``--trace 1``). ``--workload all``
runs each workload in a process of its own and prefixes each name with its
workload. A traced run spends the first half of its time untraced and the
second half traced, reports the difference as the tracing overhead, and
writes its spans to ``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.
Names, units and directions come from ``BENCHMARK.json``; ``metrics.json``
says what each metric measures and which end-to-end metric a layer should
move.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CATALOGUE = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SETUP_REPEATS = 7
# set-up seconds are reported at the machine speed where the calibration loop takes this long
REFERENCE_CALIBRATION_S = 0.01


def _measure(workload, seconds: float, work: Path, checks, tracer=None) -> list[dict]:
    """Run iterations back to back until ``seconds`` have passed; at least one.

    Each iteration writes into a directory of its own; they are all removed
    with the run's work directory, so that no deletion overlaps a measurement.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.iteration = len(records)
        start = time.perf_counter()
        record = workload.iterate(work / f"iter{len(records)}", checks, tracer)
        record["iter_s"] = time.perf_counter() - start
        records.append(record)
        if time.perf_counter() >= deadline:
            return records


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path,
                 size: str = "full") -> dict:
    """Set up and measure one workload; returns its checks, metrics and notes."""
    import layers
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[name](seed, size)
    checks = workloads.Checks()
    work = out / f"work-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, writes, calibration = [], [], [workloads.calibrate()]
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            (work / f"setup{k}").mkdir(parents=True)
            writes.append(workload.setup(work / f"setup{k}"))
            setups.append(time.perf_counter() - start)
            calibration.append(workloads.calibrate())
        untraced = _measure(workload, seconds / 2 if trace else seconds, work / "untraced", checks)
        result = {"checks": checks, "untraced": untraced, "notes": {}}
        if not trace:
            def stage(unit: str, i: int) -> float:
                return statistics.median(r[f"stage_{unit}"][i] for r in untraced)

            result["metrics"] = {
                "setup_s": statistics.median(
                    (s - w) / ((a + b) / 2)
                    for s, w, a, b in zip(setups, writes, calibration, calibration[1:])
                ) * REFERENCE_CALIBRATION_S,
                **{f"stage{i + 1}_cal": stage("cal", i) for i in range(3)},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["reported"] = {f"stage{i + 1}_s": stage("s", i) for i in range(3)}
            result["reported"]["setup_raw_s"] = statistics.median(setups)
            result["reported"]["setup_write_s"] = statistics.median(writes)
            result["reported"].update(
                (metric, statistics.median(r[metric] for r in untraced))
                for metric, about in CATALOGUE["reported"].items() if about["workload"] == name)
            return result
        tracer = Tracer()
        for owner, attr, span_name, observe in workloads.TRACED[name]:
            tracer.wrap(owner, attr, span_name, observe)
        try:
            traced = _measure(workload, seconds / 2, work / "traced", checks, tracer)
        finally:
            tracer.unwrap_all()
        tracer.write(out / f"spans-{name}-seed{seed}.jsonl")
        names = [m["name"] for m in BENCHMARK["per_layer"]]
        result["metrics"], result["notes"] = layers.layer_metrics(
            tracer.spans, traced, untraced, names)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _units() -> dict[str, str]:
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]}
    units.update((name, about["unit"]) for name, about in CATALOGUE["reported"].items())
    return units


def print_report(name: str, seed: int, result: dict, trace: bool) -> None:
    units = _units()
    checks = result["checks"]
    stages = CATALOGUE["stages"][name]
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(result['untraced'])} untraced iterations)")
    rows = dict(result["metrics"])
    if not trace:
        rows.update(result["reported"])
    ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    rows["ops_failed_ratio"] = ratio
    for metric, value in rows.items():
        owner = CATALOGUE["metrics"].get(metric, {"workload": name})["workload"]
        if value == 0 and owner not in (name, "all"):
            continue  # a layer this workload does not load; the JSON line still has it
        note = result["notes"].get(metric, "")
        if metric.startswith("stage"):
            note = stages[int(metric[5]) - 1]
        if metric == "ops_failed_ratio":
            note = f"{checks.failed} of {checks.attempted} checks failed"
        print(f"  {metric:<42} {value:<22.10g} {units[metric]:<6} {note}")
    for message in checks.messages:
        print(f"  FAILED: {message}")


def _run_all(args) -> int:
    """Each workload in a process of its own, so that each ``peak_rss_mb`` is its own."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines), file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{name}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "alloyforge" / "__init__.py").is_file():
        print(f"perfbench: no alloyforge sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(src))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out)
    print_report(args.workload, args.seed, result, bool(args.trace))
    checks, units = result["checks"], _units()
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
