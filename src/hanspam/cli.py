"""Command-line entry point: stats, train, eval, cross, gradcheck, report.

Configuration comes from one JSON file plus flag overrides (flags win). Every
artifact lands under the output directory together with a snapshot of the
exact configuration and seed that produced it, so a run can be reproduced
from its outputs alone. Exit codes: 0 success, 1 runtime failure, 2 bad
input or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evaluation import (
    DIAGONAL_PROTOCOLS,
    METRICS,
    DatasetSpec,
    FoldError,
    PartialMatrixError,
    cross_dataset_eval,
    evaluate_scores,
)
from .ingest import (
    EmptyCorpusError,
    LayoutError,
    corpus_stats,
    load_corpus,
    render_stats,
    to_document,
)
from .model import VARIANTS, CheckpointError, ConfigError, HanConfig, HanModel, check_section
from .training import TRAIN_KEYS, TrainConfig, TrainingDiverged, train
from .vocab import PretrainedFormatError, VocabError, build_vocab, load_pretrained

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

INPUT_ERRORS = (
    LayoutError,
    EmptyCorpusError,
    ConfigError,
    CheckpointError,
    VocabError,
    PretrainedFormatError,
    FoldError,
    PartialMatrixError,
    FileNotFoundError,
    NotADirectoryError,
    json.JSONDecodeError,
)


def _read_utf8(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(_read_utf8(path))
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


# config key: (type, valid value?, what a valid value is), for check_section;
# "" is the top level, "data" the corpus section and "dataset" one entry of
# the datasets table; HanConfig checks the model section's other keys
_KEYS = {
    "": {
        "seed": TRAIN_KEYS["seed"],
        "out": (str, lambda v: True, "a string"),
        **dict.fromkeys(("model", "train", "data", "datasets", "eval"), (dict, lambda v: True, "a JSON object")),
    },
    "model": {"pretrained_vectors": (str, lambda v: True, "a string")},
    "data": {
        **dict.fromkeys(("path", "layout"), (str, lambda v: True, "a string")),
        "include_subject": (bool, lambda v: True, "true or false"),
    },
    "dataset": dict.fromkeys(("path", "layout", "diagonal"), (str, lambda v: True, "a string")),
    # TrainConfig's rows, less the run seed (set apart), and the CLI's own two
    "train": {
        **{k: row for k, row in TRAIN_KEYS.items() if k != "seed"},
        "min_count": (int, lambda v: v >= 1, "an integer >= 1"),
        "val_fraction": ((int, float), lambda v: 0 <= v < 1, "a number in [0, 1)"),
    },
    "eval": {
        "kfold": (int, lambda v: v >= 2, "an integer >= 2"),
        "expected_datasets": (int, lambda v: v >= 0, "an integer >= 0"),
    },
}


def _merge_config(args: argparse.Namespace) -> tuple[dict, HanConfig]:
    """File settings overlaid with any flags the user actually passed, and the
    model config built from them; each section is checked before any corpus
    file is read or any directory is made."""
    cfg = {
        "seed": 0,
        "out": "out",
        "model": {},
        "train": {},
        "data": {},
        "datasets": {},
        "eval": {"kfold": 10, "expected_datasets": 5},
    }
    file_cfg = _load_config_file(getattr(args, "config", None))
    check_section("", file_cfg, _KEYS[""])
    for key, value in file_cfg.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value

    for flag, target in (
        ("seed", ("seed",)),
        ("out", ("out",)),
        ("data", ("data", "path")),
        ("layout", ("data", "layout")),
        ("include_subject", ("data", "include_subject")),
        ("variant", ("model", "variant")),
        ("epochs", ("train", "epochs")),
        ("batch", ("train", "batch_size")),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            node = cfg
            for part in target[:-1]:
                node = node.setdefault(part, {})
            node[target[-1]] = value
    cfg["data"].setdefault("include_subject", False)
    for name in ("data", "train", "eval"):
        check_section(name, cfg[name], _KEYS[name])
    for name in sorted(cfg["datasets"]):
        entry = cfg["datasets"][name]
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"dataset {name!r} in the 'datasets' table has no \"path\"")
        check_section(f"dataset {name!r}", entry, _KEYS["dataset"])
        if entry.get("diagonal", "cv") not in DIAGONAL_PROTOCOLS:
            raise ConfigError(f"dataset {name!r} has unknown diagonal protocol {entry['diagonal']!r}")
    model_cfg = dict(cfg["model"])
    check_section("model", {"pretrained_vectors": model_cfg.pop("pretrained_vectors", "")}, _KEYS["model"])
    return cfg, HanConfig.from_dict(model_cfg)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot(cfg: dict, out: Path) -> None:
    (out / "config_snapshot.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_data(data: dict):
    """The corpus a ``data`` section names; a count of the files it could not
    read goes to stderr."""
    if "path" not in data:
        raise ConfigError("no corpus path given (use --data or the config file)")
    loaded = load_corpus(data["path"], data.get("layout", "merged"))
    if loaded.skipped:
        print(f"skipped {len(loaded.skipped)} unreadable files under {data['path']}", file=sys.stderr)
    return loaded


def _ingest(data: dict, config: HanConfig, include_subject: bool):
    """Kept (non-empty) documents cut at the config's ``s_max`` and ``t_max``,
    and one skip list: ``(path, reason)`` per unreadable file, then
    ``(id, "empty")`` per empty document. Counts of the files read as
    Latin-1, the documents cut and the empty documents go to stderr."""
    loaded = _load_data(data)
    docs = [
        to_document(e, s_max=config.s_max, t_max=config.t_max, include_subject=include_subject)
        for e in loaded.emails
    ]
    empty = [(d.doc_id, "empty") for d in docs if d.empty]
    latin1 = sum(e.had_decode_errors for e in loaded.emails)
    cut = sum(d.truncated_sentences or d.truncated_tokens for d in docs)
    for n, line in (
        (latin1, f"read {latin1} files as Latin-1"),
        (cut, f"truncated {cut} documents to s_max/t_max {config.s_max}/{config.t_max}"),
        (len(empty), f"skipped {len(empty)} empty documents"),
    ):
        if n:
            print(f"{line} under {data['path']}", file=sys.stderr)
    return [d for d in docs if not d.empty], loaded.skipped + empty


def _write_skip_report(skipped, out: Path) -> None:
    (out / "skip_report.txt").write_text(
        "".join(f"{name}\t{reason}\n" for name, reason in skipped), encoding="utf-8"
    )


def _build_model(cfg: dict, config: HanConfig, vocab, seed: int) -> HanModel:
    model = HanModel(config, vocab, seed=seed)
    pretrained = cfg["model"].get("pretrained_vectors")
    if pretrained:
        report = load_pretrained(pretrained, vocab, model.params["embed.word"])
        print(f"pretrained vectors: {report.hits} hits, {report.misses} misses", file=sys.stderr)
    return model


def _stratified_holdout(labels: np.ndarray, frac: float, seed: int):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5B11])))
    val_idx = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_val = max(1, int(round(idx.size * frac))) if idx.size > 1 and frac > 0 else 0
        val_idx.extend(idx[:n_val].tolist())
    val = np.zeros(labels.size, dtype=bool)
    val[val_idx] = True
    return np.flatnonzero(~val), np.flatnonzero(val)


def _train_on_documents(
    cfg: dict, config: HanConfig, documents, val_documents, seed: int
) -> tuple[HanModel, object]:
    vocab = build_vocab(documents, min_count=cfg["train"].get("min_count", 2))
    model = _build_model(cfg, config, vocab, seed)
    settings = {k: v for k, v in cfg["train"].items() if k in TRAIN_KEYS}
    train_cfg = TrainConfig(seed=seed, **settings)
    encoded_train = model.encode(documents)
    encoded_val = model.encode(val_documents)
    result = train(model, encoded_train, encoded_val, train_cfg)
    return model, result


# --- subcommands --------------------------------------------------------------

def cmd_stats(args) -> int:
    cfg, _ = _merge_config(args)
    loaded = _load_data(cfg["data"])
    stats = corpus_stats(loaded.emails, include_subject=cfg["data"]["include_subject"])
    print(render_stats(stats))
    if args.out:
        out = _out_dir(cfg)
        _snapshot(cfg, out)
        record = stats.as_dict()
        record["seed"] = cfg["seed"]
        (out / "stats.jsonl").write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
        _write_skip_report(loaded.skipped, out)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, config = _merge_config(args)
    out = _out_dir(cfg)
    _snapshot(cfg, out)
    seed = cfg["seed"]

    kept, skipped = _ingest(cfg["data"], config, cfg["data"]["include_subject"])
    labels = np.array([d.label for d in kept])
    train_idx, val_idx = _stratified_holdout(labels, cfg["train"].get("val_fraction", 0.1), seed)
    train_docs = [kept[i] for i in train_idx]
    val_docs = [kept[i] for i in val_idx]

    model, result = _train_on_documents(cfg, config, train_docs, val_docs, seed)

    history = [
        {"epoch": r.epoch, "train_loss": r.train_loss, "val_auc": r.val_auc} for r in result.log
    ]
    model.save(
        out / "checkpoint.bin",
        extra={"seed": seed, "history": history, "best_epoch": result.best_epoch},
    )
    with open(out / "epochs.jsonl", "w", encoding="utf-8") as fh:
        for r in result.log:
            fh.write(json.dumps(r.as_dict(), sort_keys=True) + "\n")
    _write_skip_report(skipped, out)
    for r in result.log:
        print(f"epoch {r.epoch}: loss {r.train_loss:.4f} val_auc {r.val_auc:.4f}")
    print(f"checkpoint: {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, _ = _merge_config(args)
    model = HanModel.load(args.checkpoint)
    # cut documents at the caps the checkpoint was trained with
    kept, skipped = _ingest(cfg["data"], model.config, cfg["data"]["include_subject"])
    encoded = model.encode(kept)
    scores = model.score(encoded)
    labels = np.array([d.label for d in kept])
    cell = evaluate_scores(scores, labels, train_id=str(args.checkpoint), test_id=cfg["data"]["path"])
    print(json.dumps(cell.as_dict(), sort_keys=True))
    if args.out:
        out = _out_dir(cfg)
        _snapshot(cfg, out)
        (out / "eval.jsonl").write_text(json.dumps(cell.as_dict(), sort_keys=True) + "\n", encoding="utf-8")
        _write_skip_report(skipped, out)
    return EXIT_OK


def cmd_cross(args) -> int:
    cfg, config = _merge_config(args)
    datasets_cfg = cfg["datasets"]
    if not datasets_cfg:
        raise ConfigError("cross needs a 'datasets' table in the config file")
    out = _out_dir(cfg)
    _snapshot(cfg, out)
    seed = cfg["seed"]

    specs, skipped = [], []
    for name in sorted(datasets_cfg):
        entry = datasets_cfg[name]
        diagonal = entry.get("diagonal", "cv")
        docs, dataset_skipped = _ingest(entry, config, cfg["data"]["include_subject"])
        skipped += dataset_skipped
        specs.append(
            DatasetSpec(
                name=name,
                docs=docs,
                labels=np.array([d.label for d in docs]),
                groups=[d.group for d in docs] if diagonal != "cv" else None,
                diagonal=diagonal,
            )
        )
    _write_skip_report(skipped, out)

    def train_fn(train_docs, val_docs):
        model, _ = _train_on_documents(cfg, config, list(train_docs), list(val_docs), seed)
        return model

    def score_fn(model, docs):
        return model.score(model.encode(list(docs)))

    matrix = cross_dataset_eval(
        specs,
        train_fn,
        score_fn,
        k=cfg["eval"]["kfold"],
        seed=seed,
        expected=cfg["eval"]["expected_datasets"],
    )
    (out / "matrix.jsonl").write_text(matrix.to_jsonl(), encoding="utf-8")
    (out / "matrix.tsv").write_text(matrix.to_tsv(), encoding="utf-8")
    print(matrix.render_auc_grid())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import TOLERANCE, run_suite

    failures = 0
    for name, err, ok in run_suite():
        status = "pass" if ok else "FAIL"
        print(f"{status}  {name:<22} max_rel_err={err:.3e} (tol {TOLERANCE:.0e})")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


_CELL_FIELDS = {"train_id": str, "test_id": str, **dict.fromkeys(METRICS, (int, float))}
_AGGREGATE_FIELDS = {"aggregate": str, "mean": (int, float), "stddev": (int, float)}


def _matrix_records(path: Path) -> list[dict]:
    """The records of a ``matrix.jsonl`` file; a line that is not a complete
    cell or aggregate record is a ``ConfigError`` naming its file and line."""
    records = []
    for lineno, line in enumerate(_read_utf8(path).splitlines(), start=1):
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: not JSON: {exc.msg}") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}:{lineno}: record is not a JSON object")
        kinds = _AGGREGATE_FIELDS if "aggregate" in rec else _CELL_FIELDS
        # bool is an int subclass, and no field takes one
        bad = [k for k, kind in kinds.items() if isinstance(rec.get(k), bool) or not isinstance(rec.get(k), kind)]
        if bad:
            raise ConfigError(f"{path}:{lineno}: record lacks or mistypes {', '.join(bad)}")
        records.append(rec)
    return records


def cmd_report(args) -> int:
    path = Path(args.matrix)
    records = _matrix_records(path)
    cell_recs = [r for r in records if "aggregate" not in r]
    agg_recs = {r["aggregate"]: r for r in records if "aggregate" in r}
    if not cell_recs:
        raise ConfigError(f"{path} holds no evaluation cells")
    cols = ["train", "test", *METRICS]
    widths = [max(len(c), 10) for c in cols]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in cell_recs:
        row = [r["train_id"], r["test_id"]] + [f"{r[c]:.4f}" for c in METRICS]
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    for key in ("sd_avg", "cd_avg"):
        if key in agg_recs:
            r = agg_recs[key]
            print(f"{key.upper()}: {r['mean']:.5f} (stddev {r['stddev']:.5f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hanspam",
        description="Hierarchical attention spam classifier: ingest, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"hanspam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--include-subject", action="store_true", default=None,
                       help="prepend the Subject line to the classified text (config: data.include_subject)")
        if data:
            p.add_argument("--data", default=None, help="corpus root directory")
            p.add_argument("--layout", default=None,
                           help="corpus layout (merged, lingspam, spamassassin, genspam, enron, trec)")

    p_stats = sub.add_parser("stats", help="corpus breakdown and superficial-feature statistics")
    common(p_stats)
    p_stats.set_defaults(fn=cmd_stats)

    p_train = sub.add_parser("train", help="train a classifier and write a checkpoint")
    common(p_train)
    p_train.add_argument("--variant", choices=VARIANTS, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch", type=int, default=None)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="score a corpus with a saved checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_cross = sub.add_parser("cross", help="full train-by-test dataset grid")
    common(p_cross, data=False)
    p_cross.add_argument("--variant", choices=VARIANTS, default=None)
    p_cross.add_argument("--epochs", type=int, default=None)
    p_cross.add_argument("--batch", type=int, default=None)
    p_cross.set_defaults(fn=cmd_cross)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every operation")
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_report = sub.add_parser("report", help="render a saved matrix record file")
    p_report.add_argument("--matrix", required=True, help="matrix.jsonl produced by cross")
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TrainingDiverged, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
