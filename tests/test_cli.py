import json
import math
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hanspam import cli
from hanspam.cli import EXIT_INPUT, EXIT_OK, main
from hanspam.gradcheck import tiny_model
from hanspam.model import HanConfig, HanModel, load_checkpoint
from hanspam.synth import make_corpus, write_corpus_dir
from hanspam.vocab import build_vocab

try:
    import resource
except ImportError:  # not on Windows
    resource = None

SRC = Path(__file__).resolve().parent.parent / "src"


TINY_MODEL = {
    "embed_dim": 10,
    "gru_hidden": 4,
    "variant": "cnn",
    "cnn_windows": [2],
    "cnn_maps": 3,
    "dropout": 0.2,
    "s_max": 6,
    "t_max": 10,
    "embed_buckets": 101,
}


def write_config(path, **overrides):
    cfg = {
        "seed": 11,
        "model": dict(TINY_MODEL),
        "train": {"batch_size": 8, "epochs": 2, "min_count": 1, "patience": 5},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    return write_corpus_dir(make_corpus(n_docs=30, seed=1), tmp_path / "corpus")


class TestStats:
    def test_synthetic_counts(self, tmp_path, corpus_dir, capsys):
        rc = main(["stats", "--data", str(corpus_dir), "--out", str(tmp_path / "out")])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "emails" in printed and "30" in printed
        record = json.loads((tmp_path / "out" / "stats.jsonl").read_text())
        assert record["n_emails"] == 30
        assert record["n_spam"] + record["n_ham"] == 30
        assert "seed" in record

    def test_empty_directory_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        (empty / "ham").mkdir(parents=True)
        (empty / "spam").mkdir(parents=True)
        rc = main(["stats", "--data", str(empty)])
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_directory_exit_code(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "nope")]) == EXIT_INPUT

    def test_no_data_path_exit_code(self, capsys):
        assert main(["stats"]) == EXIT_INPUT
        assert "error: no corpus path given" in capsys.readouterr().err

    def test_hand_tallied_fixture(self, tmp_path, capsys):
        root = tmp_path / "three"
        (root / "ham").mkdir(parents=True)
        (root / "spam").mkdir(parents=True)
        (root / "ham" / "1.txt").write_text("Subject: x\n\nalpha beta. gamma\n")
        (root / "ham" / "2.txt").write_text("Subject: y\n\nalpha alpha\n")
        (root / "spam" / "3.txt").write_text("Subject: z\n\nwin http://a.biz now\n")
        rc = main(["stats", "--data", str(root), "--out", str(tmp_path / "o")])
        assert rc == EXIT_OK
        record = json.loads((tmp_path / "o" / "stats.jsonl").read_text())
        assert record["n_emails"] == 3
        assert record["n_spam"] == 1
        assert record["vocab_words"] == 5  # alpha beta gamma win now
        assert record["vocab_links"] == 1
        assert record["avg_words"] == pytest.approx(7 / 3)


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path, corpus_dir):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert (out / "checkpoint.bin").exists()
        assert (out / "config_snapshot.json").exists()
        lines = (out / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert set(first) == {"epoch", "train_loss", "val_auc", "seconds"}
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert snapshot["seed"] == 11

    def test_epochs_zero_checkpoint_equals_initialization(self, tmp_path, corpus_dir):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "zero"
        rc = main(
            ["train", "--config", str(cfg), "--data", str(corpus_dir),
             "--out", str(out), "--epochs", "0"]
        )
        assert rc == EXIT_OK
        model = load_checkpoint(out / "checkpoint.bin")
        # reconstruct the untouched initialization from the same vocab + seed
        fresh = HanModel(HanConfig.from_dict(TINY_MODEL), model.vocab, seed=11)
        for name, t in fresh.params.items():
            assert np.array_equal(model.params[name].data, t.data), name

    def test_train_determinism_bitwise(self, tmp_path, corpus_dir):
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
            assert rc == EXIT_OK
            outs.append(out)
        assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()

        def stable_log(path):
            # wall-clock seconds are inherently volatile; every other field
            # must reproduce exactly
            records = [json.loads(l) for l in path.read_text().splitlines()]
            for r in records:
                r.pop("seconds")
            return records

        assert stable_log(outs[0] / "epochs.jsonl") == stable_log(outs[1] / "epochs.jsonl")

    @pytest.mark.parametrize("flags", [[], ["--include-subject"]], ids=["plain", "include_subject"])
    def test_run_reproduces_from_its_config_snapshot(self, tmp_path, corpus_dir, flags):
        cfg = write_config(tmp_path / "cfg.json")
        first, second = tmp_path / "first", tmp_path / "second"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(first),
                   "--seed", "4", "--epochs", "1", "--batch", "6", "--variant", "tcn", *flags])
        assert rc == EXIT_OK
        rc = main(["train", "--config", str(first / "config_snapshot.json"), "--out", str(second)])
        assert rc == EXIT_OK
        assert (first / "checkpoint.bin").read_bytes() == (second / "checkpoint.bin").read_bytes()

    def test_eval_constant_stub_checkpoint_gives_half_auc(self, tmp_path, corpus_dir, capsys):
        docs = make_corpus(n_docs=12, seed=2)
        vocab = build_vocab(docs, min_count=1)
        model = HanModel(HanConfig.from_dict(TINY_MODEL), vocab, seed=0)
        for _, t in model.params.items():
            t.data[...] = 0.0  # all-zero parameters emit [0.5, 0.5] everywhere
        ckpt = tmp_path / "stub.bin"
        model.save(ckpt)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir)])
        assert rc == EXIT_OK
        cell = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert cell["auc"] == pytest.approx(0.5)

    def test_eval_cuts_documents_at_the_checkpoint_caps(self, tmp_path, corpus_dir, monkeypatch):
        docs = make_corpus(n_docs=12, seed=2)
        config = HanConfig.from_dict(dict(TINY_MODEL, s_max=2, t_max=3))
        ckpt = tmp_path / "caps.bin"
        HanModel(config, build_vocab(docs, min_count=1), seed=0).save(ckpt)
        seen = []
        score = HanModel.score

        def recording_score(self, encoded, batch_size=64):
            seen.extend(encoded)
            return score(self, encoded, batch_size)

        monkeypatch.setattr(HanModel, "score", recording_score)
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir)])
        assert rc == EXIT_OK
        assert seen and max(d.n_sentences for d in seen) == 2
        assert max(len(ids) for d in seen for ids in d.word_ids) == 3

    def test_train_fills_word_rows_from_pretrained_vectors(self, tmp_path, corpus_dir, capsys):
        listed = {"winner": [0.5, -1.25] * 5, "meeting": [2.0, 0.125] * 5, "notinthecorpus": [1.0] * 10}
        vectors = tmp_path / "vecs.txt"
        vectors.write_text(
            f"{len(listed)} 10\n" + "".join(f"{t} {' '.join(map(str, v))}\n" for t, v in listed.items()),
            encoding="utf-8",
        )
        cfg = write_config(tmp_path / "cfg.json", model={**TINY_MODEL, "pretrained_vectors": str(vectors)})
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out), "--epochs", "0"])
        assert rc == EXIT_OK
        model = load_checkpoint(out / "checkpoint.bin")
        vocab, words = model.vocab, model.params["embed.word"].data
        hits = [t for t in listed if t in vocab]
        assert len(hits) == 2
        misses = len(vocab) - 2 - len(hits)
        assert f"pretrained vectors: {len(hits)} hits, {misses} misses" in capsys.readouterr().err
        for token in hits:
            assert np.array_equal(words[vocab.lookup(token)], listed[token])
        unlisted = [i for i, t in enumerate(vocab.index_to_token) if i >= 2 and t not in listed]
        assert len(unlisted) == misses and not words[unlisted].any()

        vectors.write_text("1 3\nwinner 1 2 3\n", encoding="utf-8")
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(tmp_path / "bad")])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {vectors}: file dimension 3 does not match configured 10\n"

    def test_commands_write_only_under_out(self, tmp_path, corpus_dir, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "only-here"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert list(workdir.iterdir()) == []


@pytest.fixture
def unreadable(corpus_dir, monkeypatch):
    """One spam file of ``corpus_dir`` whose read raises ``PermissionError``."""
    victim = sorted((corpus_dir / "spam").iterdir())[0]
    read_bytes = Path.read_bytes

    def guarded(path):
        if path == victim:
            raise PermissionError(13, "Permission denied", str(path))
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", guarded)
    return victim


class TestSkipsAndHoldout:
    def test_train_reports_unreadable_and_empty_files(self, tmp_path, corpus_dir, unreadable, capsys):
        empty = corpus_dir / "ham" / "empty.txt"
        empty.write_text("Subject: nothing\n\n\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", train={"batch_size": 8, "epochs": 1, "min_count": 1})
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert f"skipped 1 unreadable files under {corpus_dir}" in err
        assert f"skipped 1 empty documents under {corpus_dir}" in err
        lines = (out / "skip_report.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [str(unreadable), str(empty)]
        assert "Permission denied" in lines[0] and lines[1].endswith("\tempty")

    def test_eval_and_cross_report_unreadable_files(self, tmp_path, corpus_dir, unreadable, capsys):
        ckpt = tmp_path / "model.bin"
        HanModel(HanConfig.from_dict(TINY_MODEL), build_vocab(make_corpus(n_docs=12, seed=2), min_count=1)).save(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir)]) == EXIT_OK
        assert "skipped 1 unreadable files" in capsys.readouterr().err
        other = write_corpus_dir(make_corpus(n_docs=12, seed=5), tmp_path / "other")
        cfg = write_config(
            tmp_path / "cfg.json",
            datasets={"a": {"path": str(corpus_dir)}, "b": {"path": str(other)}},
            eval={"kfold": 2, "expected_datasets": 2},
        )
        empty = other / "ham" / "empty.txt"
        empty.write_text("Subject: nothing\n\n\n", encoding="utf-8")
        rc = main(["cross", "--config", str(cfg), "--out", str(tmp_path / "cross"), "--epochs", "1"])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "skipped 1 unreadable files" in err
        assert f"skipped 1 empty documents under {other}" in err
        # every dataset's skips, in dataset name order
        lines = (tmp_path / "cross" / "skip_report.txt").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == [str(unreadable), str(empty)]
        assert "Permission denied" in lines[0] and lines[1].endswith("\tempty")

    def test_eval_reports_empty_documents(self, tmp_path, corpus_dir, capsys):
        empty = corpus_dir / "spam" / "empty.txt"
        empty.write_text("Subject: nothing\n\n\n", encoding="utf-8")
        ckpt = tmp_path / "model.bin"
        HanModel(HanConfig.from_dict(TINY_MODEL), build_vocab(make_corpus(n_docs=12, seed=2), min_count=1)).save(ckpt)
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == f"skipped 1 empty documents under {corpus_dir}\n"
        assert (out / "skip_report.txt").read_text(encoding="utf-8") == f"{empty}\tempty\n"

    def test_eval_reports_files_read_as_latin1(self, tmp_path, corpus_dir, capsys):
        (corpus_dir / "spam" / "latin.txt").write_bytes(b"Subject: x\n\ncheap caf\xe9 offer.\n")
        ckpt = tmp_path / "model.bin"
        HanModel(HanConfig.from_dict(TINY_MODEL), build_vocab(make_corpus(n_docs=12, seed=2), min_count=1)).save(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir)]) == EXIT_OK
        assert capsys.readouterr().err == f"read 1 files as Latin-1 under {corpus_dir}\n"

    def test_train_reports_truncated_documents(self, tmp_path, corpus_dir, capsys):
        # TINY_MODEL keeps 6 sentences of 10 tokens: one file has 7 sentences, one a 12-token sentence
        (corpus_dir / "spam" / "long.txt").write_text("Subject: x\n\n" + "buy now. " * 7 + "\n", encoding="utf-8")
        (corpus_dir / "ham" / "wide.txt").write_text("Subject: x\n\n" + "word " * 12 + ".\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", train={"batch_size": 8, "epochs": 1, "min_count": 1})
        assert main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(tmp_path / "run")]) == EXIT_OK
        assert capsys.readouterr().err == f"truncated 2 documents to s_max/t_max 6/10 under {corpus_dir}\n"

    def test_val_fraction_zero_holds_out_nothing(self, tmp_path, corpus_dir, monkeypatch):
        seen = []
        train = cli.train

        def recording_train(model, train_docs, val_docs, cfg):
            seen.append((len(train_docs), len(val_docs)))
            return train(model, train_docs, val_docs, cfg)

        monkeypatch.setattr(cli, "train", recording_train)
        train_section = {"batch_size": 8, "epochs": 2, "min_count": 1, "val_fraction": 0}
        cfg = write_config(tmp_path / "cfg.json", train=train_section)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert seen == [(30, 0)]
        records = [json.loads(line) for line in (out / "epochs.jsonl").read_text().splitlines()]
        assert len(records) == 2 and all(math.isnan(r["val_auc"]) for r in records)

    def test_holdout_is_empty_at_zero_and_one_per_class_above(self):
        labels = np.array([0] * 10 + [1] * 10)
        train_idx, val_idx = cli._stratified_holdout(labels, 0.0, seed=3)
        assert train_idx.tolist() == list(range(20)) and val_idx.size == 0
        train_idx, val_idx = cli._stratified_holdout(labels, 0.01, seed=3)
        assert sorted(labels[val_idx]) == [0, 1] and train_idx.size == 18


class TestCross:
    def test_five_tiny_datasets_full_grid(self, tmp_path, capsys):
        datasets = {}
        for i in range(5):
            root = write_corpus_dir(make_corpus(n_docs=24, seed=10 + i), tmp_path / f"ds{i}")
            datasets[f"ds{i}"] = {"path": str(root), "layout": "merged"}
        cfg = write_config(
            tmp_path / "cfg.json",
            datasets=datasets,
            eval={"kfold": 3, "expected_datasets": 5},
        )
        out = tmp_path / "cross"
        rc = main(["cross", "--config", str(cfg), "--out", str(out), "--epochs", "1"])
        assert rc == EXIT_OK
        lines = (out / "matrix.jsonl").read_text().splitlines()
        assert len(lines) == 27  # 25 cells + 2 aggregate rows
        aggs = [json.loads(l) for l in lines if "aggregate" in l]
        assert {a["aggregate"] for a in aggs} == {"sd_avg", "cd_avg"}
        assert (out / "matrix.tsv").exists()
        grid = capsys.readouterr().out
        assert "SD AVG" in grid

    def test_missing_datasets_table(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["cross", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_INPUT

    def test_dataset_without_path_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", datasets={"enron": {"layout": "enron"}})
        assert main(["cross", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'enron'") and '"path"' in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_diagonal_is_input_error(self, tmp_path, corpus_dir, capsys):
        datasets = {"enron": {"path": str(corpus_dir), "diagonal": "bogus"}}
        cfg = write_config(tmp_path / "cfg.json", datasets=datasets)
        assert main(["cross", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: dataset 'enron' has unknown diagonal protocol 'bogus'")
        assert len(err.strip().splitlines()) == 1


def _with_header(edit, drop=None):
    """Checkpoint corrupter: rewrite the JSON header with ``edit``, and cut the
    parameter named ``drop`` out of the payload as well."""

    def corrupt(raw):
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header, payload = json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]
        offset = 0
        for spec in header["params"]:
            size = 8 * int(np.prod(spec["shape"]))
            if spec["name"] == drop:
                payload = payload[:offset] + payload[offset + size :]
            offset += size
        blob = json.dumps(edit(header)).encode("utf-8")
        return raw[:8] + struct.pack("<Q", len(blob)) + blob + payload

    return corrupt


# runs the CLI under a 2 GiB address-space limit; argv: the src directory, then the CLI's arguments
_MAIN_UNDER_2GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from hanspam.cli import main
sys.exit(main(sys.argv[2:]))
"""


class TestExitCodes:
    @pytest.mark.skipif(resource is None, reason="needs the resource module (POSIX)")
    def test_config_is_checked_against_the_params_list_before_allocating(self, tmp_path, corpus_dir):
        # a config asking for a 48 GB bucket table next to the tiny model's
        # intact params list: refused from the header, before any tensor exists
        path = tmp_path / "huge.bin"
        tiny_model("cnn").save(path)
        corrupt = _with_header(lambda h: {**h, "config": {**h["config"], "embed_buckets": 10**9}})
        path.write_bytes(corrupt(path.read_bytes()))
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN_UNDER_2GIB, str(SRC), "eval", "--checkpoint", str(path),
             "--data", str(corpus_dir)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_INPUT, proc.stderr[-2000:]
        assert proc.stderr == (
            f"error: {path} lists embed.bucket [17, 6] where its config builds embed.bucket [1000000000, 6]\n"
        )

    def test_corrupt_checkpoint_is_input_error(self, tmp_path, corpus_dir, capsys):
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(b"HANCKPT\x01" + b"\x00" * 64)
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(corpus_dir)])
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda b: b[:12], "header length has 4 of 8 bytes"),
            (lambda b: b[:8] + struct.pack("<Q", 2**64 - 1) + b"{}{}", "truncated: header has 4 of"),
            (lambda b: b[:-5], "truncated: payload has"),
            (lambda b: b"HANCKPT\x02" + b[8:], "bad magic"),
            (lambda b: b + b"junk", "4 trailing bytes"),
            (_with_header(lambda h: {k: v for k, v in h.items() if k != "vocab"}), "header without vocab"),
            (_with_header(lambda h: [h]), "header that is not a JSON object"),
            (
                _with_header(
                    lambda h: {**h, "params": [p for p in h["params"] if p["name"] != "head.w"]}, drop="head.w"
                ),
                "lists head.b [2] where its config builds head.w [8, 2]",
            ),
            (_with_header(lambda h: {**h, "version": 99}), "version 99, not hanspam-checkpoint version 4"),
            (_with_header(lambda h: {**h, "version": 1}), "version 1, not hanspam-checkpoint version 4"),
            (
                # a version-2 header restated the embedding geometry in an embed section
                _with_header(
                    lambda h: {
                        **h,
                        "version": 2,
                        "embed": {
                            **{k: h["config"][f"embed_{k}"] for k in ("dim", "n_min", "n_max", "buckets")},
                            "trainable": True,
                        },
                    }
                ),
                "version 2, not hanspam-checkpoint version 4",
            ),
            (
                # a version-3 header kept the token counts and the threshold, and n_classes in its config
                _with_header(
                    lambda h: {
                        **h,
                        "version": 3,
                        "vocab": {"tokens": h["vocab"], "freqs": [1] * len(h["vocab"]), "min_count": 1},
                        "config": {**h["config"], "n_classes": 2},
                    }
                ),
                "version 3, not hanspam-checkpoint version 4",
            ),
            (_with_header(lambda h: {**h, "format": "other"}), "format 'other'"),
            (
                _with_header(lambda h: {**h, "config": {**h["config"], "gru_hidden": 5}}),
                "lists word_gru.w [2, 3, 12] where its config builds word_gru.w [2, 3, 15]",
            ),
            (_with_header(lambda h: {**h, "vocab": [None, 5, *h["vocab"][2:]]}), "vocab that is not a list of strings"),
            (_with_header(lambda h: {**h, "vocab": {"a": 1}}), "vocab that is not a list of strings"),
            (_with_header(lambda h: {**h, "seed": -1}), "seed that is not an integer >= 0: -1"),
            (
                _with_header(lambda h: {**h, "config": {**h["config"], "cnn_windows": [2, 2]}}),
                "bad header: ConfigError: model cnn_windows must be a non-empty list of distinct integers >= 1",
            ),
        ],
        ids=[
            "cut_header", "huge_header_length", "cut_payload", "bad_magic", "trailing_junk", "no_vocab",
            "list_header", "no_head_w", "version_99", "version_1", "version_2", "version_3", "other_format",
            "config_over_other_shapes", "non_string_vocab", "object_vocab", "negative_seed", "repeated_window",
        ],
    )
    def test_damaged_checkpoint_is_input_error(self, tmp_path, corpus_dir, capsys, corrupt, message):
        docs = make_corpus(n_docs=8, seed=9)
        model = HanModel(HanConfig.from_dict(TINY_MODEL), build_vocab(docs, min_count=1), seed=0)
        good = tmp_path / "ok.bin"
        model.save(good)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(corrupt(good.read_bytes()))
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(corpus_dir)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}") and message in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"bogus": 1}, "unknown model config key(s): bogus"),
            ({"cnn_windows": []}, "model cnn_windows must be a non-empty list of distinct integers >= 1, got []"),
            ({"cnn_windows": [0, 2]}, "model cnn_windows must be a non-empty list of distinct integers >= 1, got [0, 2]"),
            ({"embed_n_min": 5, "embed_n_max": 3}, "model embed_n_max must be an integer >= embed_n_min (5), got 3"),
            ([1, 2], "model must be a JSON object, got [1, 2]"),
            ({"embed_dim": "8"}, 'model embed_dim must be an integer >= 1, got "8"'),
            ({"s_max": "3"}, 'model s_max must be an integer >= 1, got "3"'),
            ({"t_max": 2.5}, "model t_max must be an integer >= 1, got 2.5"),
            ({"dropout": "0.1"}, 'model dropout must be a number in [0, 1), got "0.1"'),
            ({"s_max": 0}, "model s_max must be an integer >= 1, got 0"),
            ({"gru_hidden": True}, "model gru_hidden must be an integer >= 1, got true"),
            ({"cnn_windows": 3}, "model cnn_windows must be a non-empty list of distinct integers >= 1, got 3"),
            ({"cnn_windows": [2, 2.5]}, "model cnn_windows must be a non-empty list of distinct integers >= 1, got [2, 2.5]"),
            # both windows would read the one cnn.w2.kernel
            ({"cnn_windows": [2, 2]}, "model cnn_windows must be a non-empty list of distinct integers >= 1, got [2, 2]"),
            ({"n_classes": 2}, "unknown model config key(s): n_classes"),
        ],
        ids=["unknown_key", "no_windows", "zero_window", "ngram_range", "model_not_object",
             "string_dim", "string_s_max", "float_t_max", "string_dropout", "zero_s_max",
             "bool_hidden", "int_windows", "float_window", "repeated_window", "n_classes"],
    )
    def test_bad_model_config_is_input_error(self, tmp_path, corpus_dir, capsys, model, message):
        section = {**TINY_MODEL, **model} if isinstance(model, dict) else model
        cfg = write_config(tmp_path / "cfg.json", model=section)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "train, message",
        [
            ({"epoch": 1}, "unknown train config key(s): epoch"),
            ({"batch_size": "8"}, 'train batch_size must be an integer >= 1, got "8"'),
            ({"batch_size": 0}, "train batch_size must be an integer >= 1, got 0"),
            ({"val_fraction": "x"}, 'train val_fraction must be a number in [0, 1), got "x"'),
            ({"val_fraction": 1.0}, "train val_fraction must be a number in [0, 1), got 1.0"),
            ({"epochs": True}, "train epochs must be an integer >= 0, got true"),
            ({"class_weight": 1}, "train class_weight must be true or false, got 1"),
            ({"lr": 0}, "train lr must be a finite number > 0, got 0"),
        ],
        ids=["unknown_key", "string_batch", "zero_batch", "string_fraction", "whole_fraction",
             "bool_epochs", "int_class_weight", "zero_lr"],
    )
    def test_bad_train_config_is_input_error(self, tmp_path, corpus_dir, capsys, train, message):
        cfg = write_config(tmp_path / "cfg.json", train={"batch_size": 8, "epochs": 1, "min_count": 1, **train})
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seed": "abc"}, 'seed must be an integer >= 0, got "abc"'),
            ({"seed": 1.7}, "seed must be an integer >= 0, got 1.7"),
            ({"seed": True}, "seed must be an integer >= 0, got true"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"eval": {"kfold": "ten"}}, 'eval kfold must be an integer >= 2, got "ten"'),
            ({"eval": {"kfold": 2.9}}, "eval kfold must be an integer >= 2, got 2.9"),
            ({"eval": {"kfold": 1}}, "eval kfold must be an integer >= 2, got 1"),
            ({"eval": {"expected_datasets": -1}}, "eval expected_datasets must be an integer >= 0, got -1"),
            ({"eval": {"folds": 3}}, "unknown eval config key(s): folds"),
            ({"data": {"include_subject": 1}}, "data include_subject must be true or false, got 1"),
            ({"out": 5}, "out must be a string, got 5"),
            ({"data": {"path": 5}}, "data path must be a string, got 5"),
            ({"data": {"path": "c", "layout": ["x"]}}, 'data layout must be a string, got ["x"]'),
            ({"data": {"path": "c", "subject": True}}, "unknown data config key(s): subject"),
            ({"datasets": {"a": {"path": 5}}}, "dataset 'a' path must be a string, got 5"),
            ({"datasets": {"a": {"path": "c", "layout": 3}}}, "dataset 'a' layout must be a string, got 3"),
            ({"model": {**TINY_MODEL, "pretrained_vectors": 5}}, "model pretrained_vectors must be a string, got 5"),
            ({"trian": {"epochs": 0}}, "unknown config key(s): trian"),
            ({"sed": 4}, "unknown config key(s): sed"),
        ],
        ids=["string_seed", "fractional_seed", "bool_seed", "negative_seed", "string_kfold", "fractional_kfold",
             "one_fold", "negative_expected", "unknown_eval_key", "int_include_subject",
             "int_out", "int_data_path", "list_data_layout", "unknown_data_key",
             "int_dataset_path", "int_dataset_layout", "int_pretrained_vectors", "trian", "sed"],
    )
    def test_bad_seed_or_eval_config_is_input_error(self, tmp_path, corpus_dir, capsys, overrides, message):
        # the corpus and the output directory are set in the file, not by
        # flags, which would override the bad values
        out = tmp_path / "run"
        settings = {"data": {"path": str(corpus_dir)}, "out": str(out), **overrides}
        cfg = write_config(tmp_path / "cfg.json", **settings)
        rc = main(["cross" if "datasets" in overrides else "train", "--config", str(cfg)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()  # rejected before any work

    def test_negative_seed_flag_is_input_error(self, tmp_path, corpus_dir, capsys):
        # SeedSequence refuses a negative seed: the flag is refused before --out is made
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "cfg.json")
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out), "--seed", "-1"])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_config_file_not_utf8_is_input_error(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {cfg} is not UTF-8 text (byte 10: invalid start byte)\n"
        assert not out.exists()  # rejected before any work

    def test_runtime_failure_is_exit_one(self, tmp_path, corpus_dir, monkeypatch, capsys):
        docs = make_corpus(n_docs=8, seed=9)
        vocab = build_vocab(docs, min_count=1)
        model = HanModel(HanConfig.from_dict(TINY_MODEL), vocab, seed=0)
        ckpt = tmp_path / "ok.bin"
        model.save(ckpt)
        monkeypatch.setattr(
            HanModel, "score", lambda self, docs, batch_size=64: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(corpus_dir)])
        assert rc == 1
        assert "boom" in capsys.readouterr().err


class TestReport:
    def test_renders_saved_matrix(self, tmp_path, capsys):
        records = [
            {"train_id": "a", "test_id": "b", "accuracy": 0.9, "precision": 0.8,
             "recall": 0.7, "f1": 0.75, "auc": 0.85},
            {"aggregate": "sd_avg", "mean": 0.9, "stddev": 0.01},
            {"aggregate": "cd_avg", "mean": 0.8, "stddev": 0.02},
        ]
        path = tmp_path / "matrix.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        rc = main(["report", "--matrix", str(path)])
        assert rc == EXIT_OK
        printed = capsys.readouterr().out
        assert "SD_AVG" in printed and "0.8500" in printed

    @pytest.mark.parametrize(
        "bad, message",
        [
            ('{"foo": 1}', "record lacks or mistypes train_id, test_id, accuracy"),
            ("[1, 2]", "record is not a JSON object"),
            ('{"train_id": "a", "test_id": "b", "accuracy": 0.9, "precision": 0.8, "recall": 0.7, "f1": 0.7}',
             "record lacks or mistypes auc"),
            ('{"aggregate": "sd_avg", "mean": 0.9}', "record lacks or mistypes stddev"),
            ('{"train_id": 3, "test_id": "b", "accuracy": null, "precision": 0.8, "recall": 0.7, '
             '"f1": 0.7, "auc": 0.5}', "record lacks or mistypes train_id, accuracy"),
            ("{not json", "not JSON"),
            ('{"train_id": "a", "test_id": "b", "accuracy": true, "precision": 0.8, "recall": 0.7, '
             '"f1": 0.7, "auc": false}', "record lacks or mistypes accuracy, auc"),
            ('{"aggregate": "sd_avg", "mean": true, "stddev": 0.01}', "record lacks or mistypes mean"),
        ],
        ids=["foreign_record", "not_object", "cell_without_auc", "aggregate_without_stddev", "mistyped", "not_json",
             "bool_metrics", "bool_mean"],
    )
    def test_malformed_record_is_input_error(self, tmp_path, capsys, bad, message):
        good = {"train_id": "a", "test_id": "a", "accuracy": 0.9, "precision": 0.8,
                "recall": 0.7, "f1": 0.75, "auc": 0.85}
        path = tmp_path / "matrix.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n")
        rc = main(["report", "--matrix", str(path)])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing printed before the file is known to be whole
        assert captured.err.startswith(f"error: {path}:2: {message}")
        assert len(captured.err.strip().splitlines()) == 1

    def test_matrix_not_utf8_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "matrix.jsonl"
        path.write_bytes(b'{"train_id": "\xff"}\n')
        rc = main(["report", "--matrix", str(path)])
        assert rc == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is not UTF-8 text (byte 14: invalid start byte)\n"


class TestGradcheckCommand:
    def test_passes_and_prints_per_op_lines(self, capsys):
        rc = main(["gradcheck"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out and "full_model_tcn" in out
        assert "FAIL" not in out
