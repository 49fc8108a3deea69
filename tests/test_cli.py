import json
import struct

import numpy as np
import pytest

from hanspam.cli import EXIT_INPUT, EXIT_OK, main
from hanspam.model import HanConfig, HanModel, load_checkpoint
from hanspam.synth import make_corpus, write_corpus_dir
from hanspam.vocab import build_vocab


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

    def test_commands_write_only_under_out(self, tmp_path, corpus_dir, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "only-here"
        rc = main(["train", "--config", str(cfg), "--data", str(corpus_dir), "--out", str(out)])
        assert rc == EXIT_OK
        assert list(workdir.iterdir()) == []


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


class TestExitCodes:
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
            (_with_header(lambda h: {**h, "version": 99}), "version 99, not hanspam-checkpoint version 1"),
            (_with_header(lambda h: {**h, "format": "other"}), "format 'other'"),
            (
                _with_header(lambda h: {**h, "config": {**h["config"], "gru_hidden": 5}}),
                "lists word_gru.fw.w_z [3, 4] where its config builds word_gru.fw.w_z [3, 5]",
            ),
        ],
        ids=[
            "cut_header", "cut_payload", "bad_magic", "trailing_junk", "no_vocab", "list_header",
            "no_head_w", "version_99", "other_format", "config_over_other_shapes",
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
            ({"cnn_windows": []}, "cnn_windows must be positive window sizes, got []"),
            ({"cnn_windows": [0, 2]}, "cnn_windows must be positive window sizes, got [0, 2]"),
            ({"embed_n_min": 5, "embed_n_max": 3}, "need 1 <= embed_n_min <= embed_n_max, got 5 and 3"),
            ([1, 2], "config section 'model' must be a JSON object, got [1, 2]"),
            ({"embed_dim": "8"}, "embed_dim must be an integer, got '8'"),
            ({"s_max": "3"}, "s_max must be an integer, got '3'"),
            ({"t_max": 2.5}, "t_max must be an integer, got 2.5"),
            ({"dropout": "0.1"}, "dropout must be a number, got '0.1'"),
            ({"s_max": 0}, "s_max must be positive"),
            ({"gru_hidden": True}, "gru_hidden must be an integer, got True"),
            ({"cnn_windows": 3}, "cnn_windows must be a list of integers, got 3"),
            ({"cnn_windows": [2, 2.5]}, "cnn_windows must be a list of integers, got [2, 2.5]"),
        ],
        ids=["unknown_key", "no_windows", "zero_window", "ngram_range", "model_not_object",
             "string_dim", "string_s_max", "float_t_max", "string_dropout", "zero_s_max",
             "bool_hidden", "int_windows", "float_window"],
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
        ],
        ids=["foreign_record", "not_object", "cell_without_auc", "aggregate_without_stddev", "mistyped", "not_json"],
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


class TestGradcheckCommand:
    def test_passes_and_prints_per_op_lines(self, capsys):
        rc = main(["gradcheck"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "matmul" in out and "full_model_tcn" in out
        assert "FAIL" not in out
