"""Tests of the benchmark itself, at a tiny size.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, percentiles, self_times  # noqa: E402

# per-layer metrics that may read 0: a fit that converges warns of nothing,
# and a resume that leaves failed documents alone makes no engine call
ZERO_BY_DESIGN = {"ml.svr_nonconverged", "pipeline.engine_calls_reported.resume"}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["extract", "curate", "model"])
def test_every_metric_is_printed_and_every_check_passes(name, trace, tmp_path, capsys):
    result = run.run_workload(name, seed=7, seconds=0, trace=trace, out=tmp_path, size="tiny")
    run.print_report(name, 7, result, trace)
    printed = capsys.readouterr().out
    key = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in run.BENCHMARK[key]]
    assert list(result["metrics"]) == names
    if trace:
        own = [m for m in names if run.CATALOGUE["metrics"][m]["workload"] == name]
        assert own
        silent = [m for m in own if result["metrics"][m] == 0 and m not in ZERO_BY_DESIGN]
        assert not silent, f"layer metrics that read 0: {silent}"
        shown = [m for m in names if result["metrics"][m] != 0]
    else:
        shown = names + [m for m, about in run.CATALOGUE["reported"].items()
                         if about["workload"] in (name, "all")]
    for metric in shown:
        assert f" {metric} " in printed
    assert result["checks"].attempted > 0
    assert result["checks"].failed == 0, result["checks"].messages
    if trace:
        assert (tmp_path / f"spans-{name}-seed7.jsonl").is_file()
    assert not (tmp_path / f"work-{name}-7").exists()


def _iterate_once(workload, tmp_path) -> workloads.Checks:
    checks = workloads.Checks()
    workload.iterate(tmp_path / "run", checks)
    return checks


def _set_up(name, tmp_path):
    workload = workloads.WORKLOADS[name](3, "tiny")
    (tmp_path / "setup").mkdir()
    workload.setup(tmp_path / "setup")
    return workload


def test_a_corrupted_extraction_answer_fails_the_checks(tmp_path):
    workload = _set_up("extract", tmp_path)
    doc = next(d for d in workload.docs if d.outcome == "valid")
    doc.answer = doc.answer.replace('"nominal_composition"', '"nominal_compo')
    checks = _iterate_once(workload, tmp_path)
    assert checks.failed > 0 and checks.failed / checks.attempted > 0


def test_a_corrupted_dataset_line_fails_the_checks(tmp_path):
    workload = _set_up("curate", tmp_path)
    lines = workload.dataset_path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["lattice_constant_angstrom"] = "42.0"
    lines[0] = json.dumps(obj)
    workload.dataset_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checks = _iterate_once(workload, tmp_path)
    assert checks.failed > 0


def test_a_corrupted_target_fails_the_checks(tmp_path):
    workload = _set_up("model", tmp_path)
    workload.y = np.random.default_rng(0).permutation(workload.y)
    checks = _iterate_once(workload, tmp_path)
    assert checks.failed > 0


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no alloyforge sources" in proc.stderr


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},   # overlaps span 2 (another thread)
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    got = self_times(spans)
    assert got[1] == pytest.approx(5.0)
    assert got[2] == pytest.approx(2.5)
    assert got[3] == pytest.approx(3.0)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert percentiles([float(i) for i in range(1, 1001)]) == {
        "p50": 500.0, "tail": 990.0, "tail_pct": 99.0, "n": 1000}
    assert percentiles([1.0, 2.0, 3.0])["tail_pct"] == 50.0


def test_tracer_parents_worker_thread_spans_and_restores_wrapped_functions():
    import threading
    import types

    module = types.SimpleNamespace(work=lambda x: x + 1)
    original = module.work
    tracer = Tracer()
    tracer.wrap(module, "work", "layer.work")
    with tracer.span("phase.outer") as outer:
        worker = threading.Thread(target=module.work, args=(1,))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.unwrap_all()
    assert module.work is original
    inner = next(s for s in tracer.spans if s["name"] == "layer.work")
    assert inner["parent"] == outer["id"]
