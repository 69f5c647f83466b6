"""No part of alloyforge loads scipy: contested alignment groups use its own solver.
Nor does importing it load an HTTP client: the first engine call does. Only the
modeling commands (featurize, train, predict) load numpy.

Each check runs in a fresh interpreter, whose modules are alloyforge's alone.
"""

import json
import os
import subprocess
import sys
import textwrap

from tests.conftest import FIXTURES

ROOT = FIXTURES.parents[1]

PRELUDE = """\
import json, sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(body: str, tmp_path=None):
    """Run ``body`` after ``PRELUDE`` in a new interpreter; its last stdout line, as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
        cwd=tmp_path or ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_every_module_loads_no_scipy():
    seen = _run("""
        import importlib, pkgutil
        import alloyforge, alloyforge.cli
        names = [m.name for m in pkgutil.iter_modules(alloyforge.__path__)]
        for name in names:
            importlib.import_module("alloyforge." + name)
        http = ("urllib.request", "http.client", "ssl", "requests")
        print(json.dumps({"modules": names, "scipy": scipy_loaded(),
                          "http": [m for m in http if m in sys.modules]}))
    """)
    assert {"cli", "engines", "evaluation", "optimizer", "pipeline", "ml"} <= set(seen["modules"])
    assert seen["scipy"] == [] and seen["http"] == []


def test_uncontested_matching_and_extract_load_no_scipy(tmp_path):
    (tmp_path / "empty.cfg").write_text("", encoding="utf-8")
    seen = _run(f"""
        from alloyforge import cli
        from alloyforge.evaluation import match_entries
        from alloyforge.records import DocumentId, group_by_doc, load_ground_truth, make_record
        from tests.scripted import ScriptedForwardEngine

        def rec(formula):
            return make_record(DocumentId("docE"), nominal_composition=formula)

        # every record has at most one admissible partner
        series = [rec(f"Al{{x}}CoCrFeNi") for x in (0.2, 0.5, 0.8, 1.1)]
        others = [rec("MoNbTaW"), rec("HfNbTaTiZr"), rec("Al0.5CoFeNi")]
        pairs = match_entries(series[::-1] + others, others + series).pairs
        after_match = scipy_loaded()

        truth = group_by_doc(load_ground_truth({str(FIXTURES / "ground_truth.csv")!r}))
        cli.engine_from_config = lambda cfg, role: ScriptedForwardEngine(truth)
        rc = cli.main(["extract", "--config", "empty.cfg",
                       "--corpus", {str(FIXTURES / "manifest.csv")!r}, "--out", "run"])
        print(json.dumps({{"pairs": len(pairs), "after_match": after_match,
                          "rc": rc, "after_extract": scipy_loaded()}}))
    """, tmp_path)
    assert seen == {"pairs": 7, "after_match": [], "rc": 0, "after_extract": []}
    assert (tmp_path / "run" / "dataset.jsonl").read_text(encoding="utf-8")


def test_a_contested_group_loads_the_solver_and_matches_the_oracle():
    seen = _run("""
        from alloyforge import evaluation
        from alloyforge.composition import Composition
        from alloyforge.evaluation import match_entries
        from alloyforge.records import DocumentId, make_record
        from tests.oracles import brute_force_assignment

        solves = []
        solver = evaluation._min_cost_pairs

        def counted(cost):
            solves.append((len(cost), len(cost[0]) if cost else 0))
            return solver(cost)

        evaluation._min_cost_pairs = counted

        def same_alloy(k):
            comp = Composition.from_coefficients(
                {"Mo": 230 + k, "Nb": 250, "Ta": 250, "W": 270 - k})
            return make_record(DocumentId("docE"), nominal_composition=comp)

        # a 7x9 group in which each record has several admissible partners
        truth = [same_alloy(k) for k in range(9)]
        extracted = [truth[t] for t in (0, 1, 3, 4, 5, 7, 8)]
        pairs = match_entries(extracted, truth).pairs
        _, _, optima = brute_force_assignment(extracted, truth)
        print(json.dumps({"first_solve": solves[0] if solves else None,
                          "scipy": scipy_loaded(), "pairs": pairs, "optima": optima}))
    """)
    assert seen["first_solve"] == [7, 9] and seen["scipy"] == []
    assert seen["optima"] == [seen["pairs"]]
    assert seen["pairs"] == [[0, 0], [1, 1], [2, 3], [3, 4], [4, 5], [5, 7], [6, 8]]


def test_only_the_modeling_commands_load_numpy(tmp_path):
    (tmp_path / "run.cfg").write_text("optimizer.epochs = 1\n", encoding="utf-8")
    seen = _run(f"""
        from alloyforge import cli
        from alloyforge.engines import EngineResponse
        from alloyforge.records import group_by_doc, load_ground_truth
        from tests.scripted import (
            ScriptedBackwardEngine, ScriptedEvaluatorEngine, ScriptedForwardEngine)

        class Yes:
            def complete(self, request):
                return EngineResponse(text="YES", input_tokens=0, output_tokens=1,
                                      latency_s=0.0)

        truth_csv = {str(FIXTURES / "ground_truth.csv")!r}
        truth = group_by_doc(load_ground_truth(truth_csv))
        roles = {{"forward": ScriptedForwardEngine(truth), "backward": ScriptedBackwardEngine(),
                  "evaluator": ScriptedEvaluatorEngine(), "auditor": Yes()}}
        cli.engine_from_config = lambda cfg, role: roles[role]
        common = ["--config", "run.cfg", "--corpus", {str(FIXTURES / "manifest.csv")!r}]
        dataset = ["--dataset", "run/dataset.jsonl"]
        commands = [
            ["extract", *common, "--out", "run"],
            ["optimize", *common, "--truth", truth_csv, "--out", "history"],
            ["evaluate", "--extracted", "run/dataset.jsonl", "--truth", truth_csv],
            ["clean", *dataset, "--out", "cleaned"],
            ["audit", *common, *dataset, "--engine", "auditor", "--out", "audit.txt"],
            ["report", *dataset],
            ["featurize", *dataset, "--out", "features.csv"],
        ]
        seen = {{}}
        for argv in commands:
            seen[argv[0]] = [cli.main(argv), "numpy" in sys.modules]
        print(json.dumps(seen))
    """, tmp_path)
    assert seen == {command: [0, False] for command in
                    ("extract", "optimize", "evaluate", "clean", "audit", "report")} | {
        "featurize": [0, True]}
