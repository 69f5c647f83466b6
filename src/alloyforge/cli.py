"""Command-line interface.

Subcommands: extract, optimize, evaluate, clean, audit, featurize, train,
predict, report. Outputs are files and plain-text reports; see the README for
the config-file schema and data formats.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import config as config_mod
from . import evaluation, features, ml, optimizer, pipeline, quality
from .composition import parse_formula
from .engines import EngineError, engine_from_config
from .records import group_by_doc, load_ground_truth


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # surface clean one-line errors to scripts
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloyforge",
        description="Prompt-optimized extraction and modeling of alloy lattice constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run large-scale extraction over a corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True, help="manifest CSV (doc_id,path,kind)")
    p.add_argument("--prompt", help="prompt text file (default: packaged starting prompt)")
    p.add_argument("--out", required=True)
    p.add_argument("--engine", default="forward", help="config engine role to use")
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--retry-failed", action="store_true")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("optimize", help="optimize a prompt against expert ground truth")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--truth", required=True, help="ground-truth CSV")
    p.add_argument("--prompt", help="initial prompt file (default: packaged starting prompt)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("evaluate", help="score an extracted dataset against ground truth")
    p.add_argument("--extracted", required=True, help="dataset JSONL")
    p.add_argument("--truth", required=True)
    p.add_argument("--fields", default=",".join(evaluation.DEFAULT_FIELDS),
                   help="comma-separated field list; include 'composite' to gate")
    p.add_argument("--out", help="write the metrics CSV here (prints a table regardless)")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("clean", help="plausibility, consistency, and repair report")
    p.add_argument("--dataset", required=True, help="dataset JSONL")
    p.add_argument("--config", help="optional config with thresholds.l1 / thresholds.cosine")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=cmd_clean)

    p = sub.add_parser("audit", help="faithfulness audit of suspicious records")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--engine", default="evaluator")
    p.add_argument("--all-records", action="store_true",
                   help="audit every record, not just implausible ones")
    p.add_argument("--out", required=True, help="audit report path (text)")
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("featurize", help="compute the six descriptors for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--table", help="element property CSV (default: packaged table)")
    p.add_argument("--out", required=True, help="feature matrix CSV")
    p.set_defaults(handler=cmd_featurize)

    p = sub.add_parser("train", help="train an ensemble model on a feature CSV")
    p.add_argument("--model", required=True, choices=["esvr", "elasso"])
    p.add_argument("--data", required=True, help="feature CSV from 'featurize'")
    p.add_argument("--out", required=True, help="model artifact path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--bootstrap", type=int, default=1000, help="elasso resample count")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="predict a lattice constant for a composition")
    p.add_argument("--model", required=True, help="model artifact path")
    p.add_argument("--composition", required=True, help='formula, e.g. "MoNbTaW"')
    p.add_argument("--table", help="element property CSV (default: packaged table)")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("report", help="summary breakdowns of a dataset")
    p.add_argument("--dataset", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def _load_prompt_text(path: str | None) -> str:
    if path:
        return Path(path).read_text(encoding="utf-8")
    return optimizer.default_extraction_prompt()


def cmd_extract(args) -> int:
    cfg = config_mod.load_config(args.config)
    corpus = pipeline.CorpusStore(pipeline.ingest_corpus(args.corpus))
    engine = engine_from_config(cfg, args.engine)
    result = pipeline.run_extraction(
        corpus,
        _load_prompt_text(args.prompt),
        engine,
        args.out,
        parallelism=args.parallelism or cfg["pipeline.parallelism"],
        temperature=cfg["pipeline.extract_temperature"],
        retry_failed=args.retry_failed,
    )
    counts = result.ledger.counts()
    total = sum(len(records) for records in result.dataset.values())
    print(
        f"documents: {counts['done']} done, {counts['rejected']} rejected, "
        f"{counts['failed']} failed; records: {total}"
    )
    print(f"dataset written to {Path(args.out) / pipeline.DATASET_FILENAME}")
    return 0


def cmd_optimize(args) -> int:
    cfg = config_mod.load_config(args.config)
    corpus = pipeline.CorpusStore(pipeline.ingest_corpus(args.corpus))
    truth = group_by_doc(load_ground_truth(args.truth))
    opt_config = optimizer.OptimizationConfig(
        forward_engine=engine_from_config(cfg, "forward"),
        backward_engine=engine_from_config(cfg, "backward"),
        evaluator_engine=engine_from_config(cfg, "evaluator"),
        epochs=cfg["optimizer.epochs"],
        batch_size=cfg["optimizer.batch_size"],
        forward_temperature=cfg["optimizer.forward_temperature"],
        parallelism=cfg["optimizer.parallelism"],
    )
    initial = optimizer.Prompt(text=_load_prompt_text(args.prompt))
    history = optimizer.optimize(initial, corpus, truth, opt_config)
    history.save(args.out)
    recalls = ", ".join(f"{r:.3f}" for r in history.recalls())
    print(
        f"{len(history.prompts)} prompt versions over {len(history.epochs)} epochs; "
        f"forward calls {history.forward_calls}, rewrites {history.backward_engine_calls}"
    )
    print(f"per-epoch recall (nominal composition): {recalls}")
    print(f"failed document attempts: {len(history.failures)}")
    print(f"history written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    extracted = pipeline.load_dataset(args.extracted)
    truth = group_by_doc(load_ground_truth(args.truth))
    fields = tuple(f.strip() for f in args.fields.split(",") if f.strip())
    extracted = {doc: recs for doc, recs in extracted.items() if doc in truth}
    report = evaluation.evaluate_run(extracted, truth, fields=fields)
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_csv(), encoding="utf-8")
        print(f"metrics written to {args.out}")
    return 0


def cmd_clean(args) -> int:
    dataset = pipeline.load_dataset(args.dataset)
    cfg = config_mod.load_config(args.config) if args.config else config_mod.Config()
    result = pipeline.clean_dataset(dataset, cfg["thresholds.l1"], cfg["thresholds.cosine"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_dataset(result.accepted, out_dir / "dataset_clean.jsonl")
    (out_dir / "quality_report.csv").write_text(
        pipeline.quality_report_csv(result.report_rows), encoding="utf-8"
    )
    part = result.partition
    print(
        f"accepted {len(part.accepted)}, rejected {len(part.rejected_low)} low / "
        f"{len(part.rejected_high)} high; {len(result.report_rows)} report rows"
    )
    print(f"outputs written to {out_dir}")
    return 0


def cmd_audit(args) -> int:
    cfg = config_mod.load_config(args.config)
    dataset = pipeline.load_dataset(args.dataset)
    corpus = pipeline.CorpusStore(pipeline.ingest_corpus(args.corpus))
    engine = engine_from_config(cfg, args.engine)
    questions = quality.default_audit_questions()
    # (document, 1-based position in it, record), in dataset order
    entries = [(doc, position, record) for doc in sorted(dataset)
               for position, record in enumerate(dataset[doc], 1)]
    partition = quality.filter_plausible([record for _, _, record in entries])
    if not args.all_records:
        implausible = {id(r) for r in partition.rejected_low + partition.rejected_high}
        entries = [entry for entry in entries if id(entry[2]) in implausible]

    def attempt(entry):
        record = entry[2]
        return quality.faithfulness_audit(record, record.source, questions, engine, corpus)

    results = pipeline.run_documents(attempt, entries, cfg["pipeline.parallelism"])
    reports = [result for result in results if not isinstance(result, EngineError)]
    counts = quality.classify_errors(partition, reports)
    lines = []
    for (doc, position, record), result in zip(entries, results):
        head = f"document {doc} record {position} ({quality.record_label(record)})"
        if isinstance(result, EngineError):
            lines.append(f"{head}: failed: {result}")
            continue
        lines.append(f"{head}: flags={sorted(result.flags) or 'none'}")
        for question, answer in result.answers:
            lines.append(f"  Q: {question}")
            lines.append(f"  A: {answer}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"audited {len(entries)} record(s), {len(entries) - len(reports)} failed: {counts}")
    print(f"report written to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    dataset = pipeline.load_dataset(args.dataset)
    table = features.ElementPropertyTable.from_csv(args.table) if args.table \
        else features.default_table()
    flat = [r for doc in sorted(dataset) for r in dataset[doc]]
    featurized = features.featurize_dataset(flat, table)
    Path(args.out).write_text(featurized.export_csv(), encoding="utf-8")
    print(
        f"featurized {len(featurized.y)} record(s), dropped {len(featurized.issues)}; "
        f"matrix written to {args.out}"
    )
    for index, reason in featurized.issues:
        print(f"  dropped row {index}: {reason}")
    return 0


def cmd_train(args) -> int:
    X, y, _ = features.load_feature_csv(args.data)
    cfg = ml.SplitConfig(train_fraction=args.train_fraction, seed=args.seed)
    X_train, X_test, y_train, y_test = ml.train_test_split(X, y, cfg)
    if args.model == "esvr":
        model = ml.train_esvr(X_train, y_train, seed=args.seed)
    else:
        model = ml.train_elasso(X_train, y_train, B=args.bootstrap, seed=args.seed)
    ml.save_model(model, args.out)
    train_pred, _ = ml.predict_batch(model, X_train)
    test_pred, _ = ml.predict_batch(model, X_test)
    print(
        f"{args.model}: train R2 {ml.r2(y_train, train_pred):.3f}, "
        f"test R2 {ml.r2(y_test, test_pred):.3f} "
        f"({len(y_train)} train / {len(y_test)} test samples)"
    )
    if args.model == "esvr":
        print(f"SVR grid fits stopped at the SMO iteration cap: "
              f"{model.extra['svr_nonconverged']}")
    else:
        print(f"LASSO fits stopped at the sweep cap: {model.extra['lasso_capped']}")
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = ml.load_model(args.model)
    table = features.ElementPropertyTable.from_csv(args.table) if args.table \
        else features.default_table()
    composition = parse_formula(args.composition)
    vector = features.featurize(composition, table)
    prediction = ml.predict(model, vector)
    print(f"{composition.canonical_formula()}: "
          f"{prediction.mean:.4f} +/- {prediction.std:.4f} A")
    return 0


def cmd_report(args) -> int:
    dataset = pipeline.load_dataset(args.dataset)
    print(pipeline.summarize(dataset).to_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
