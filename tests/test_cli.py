"""End-to-end command-line pipeline checks.

A module-scoped fixture runs every stage once on the synthetic corpus
with a small config; individual tests assert on the artifacts and on
exit codes, determinism, and evaluation output.
"""

import json
import weakref
from pathlib import Path

import pytest

from latentsum import cli
from latentsum.cli import main
from latentsum.compression import decode_greedy, load_compression
from latentsum.config import load_config
from latentsum.corpus import encode_records, load_corpus, load_vocab
from latentsum.extractive import load_extractive
from latentsum.errors import ConfigError

from conftest import (
    CHECKPOINT_DAMAGE,
    blas_build,
    damage_checkpoint,
    rewrite_checkpoint_header,
)

SMALL_CONFIG = {
    "seed": 13,
    "d": 8,
    "extractive_epochs": 2,
    "compression_epochs": 2,
    "latent_epochs": 1,
    "batch_size": 8,
    "min_count": 1,
    "max_decode_len": 12,
}


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """All stages, run once: corpus -> labels/pairs -> three trainings ->
    summaries -> baseline."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "root": root,
        "config": root / "config.json",
        "corpus": root / "corpus",
        "labels": root / "labels.jsonl",
        "pairs": root / "pairs.jsonl",
        "val_pairs": root / "val_pairs.jsonl",
        "vocab": root / "vocab.json",
        "extractive": root / "extractive.ckpt",
        "ext_metrics": root / "ext_metrics.json",
        "compression": root / "compression.ckpt",
        "comp_metrics": root / "comp_metrics.json",
        "latent": root / "latent.ckpt",
        "trace": root / "trace.jsonl",
        "latent_metrics": root / "latent_metrics.json",
        "summaries": root / "summaries.jsonl",
        "lead3": root / "lead3.jsonl",
    }
    paths["config"].write_text(json.dumps(SMALL_CONFIG))
    cfg = ["--config", paths["config"]]
    assert run(cfg + ["make-toy", "--out", paths["corpus"]]) == 0
    assert run(cfg + ["make-labels", "--corpus", paths["corpus"],
                      "--out", paths["labels"]]) == 0
    assert run(cfg + ["make-pairs", "--corpus", paths["corpus"],
                      "--out", paths["pairs"]]) == 0
    assert run(cfg + ["make-pairs", "--corpus", paths["corpus"], "--split", "valid",
                      "--out", paths["val_pairs"]]) == 0
    assert run(cfg + ["train-extractive", "--corpus", paths["corpus"],
                      "--labels", paths["labels"], "--vocab", paths["vocab"],
                      "--checkpoint", paths["extractive"],
                      "--metrics", paths["ext_metrics"]]) == 0
    assert run(cfg + ["train-compression", "--pairs", paths["pairs"],
                      "--val-pairs", paths["val_pairs"], "--vocab", paths["vocab"],
                      "--checkpoint", paths["compression"],
                      "--metrics", paths["comp_metrics"]]) == 0
    assert run(cfg + ["train-latent", "--corpus", paths["corpus"],
                      "--checkpoint", paths["extractive"],
                      "--compression", paths["compression"],
                      "--vocab", paths["vocab"], "--out", paths["latent"],
                      "--trace", paths["trace"],
                      "--metrics", paths["latent_metrics"]]) == 0
    assert run(cfg + ["summarize", "--corpus", paths["corpus"],
                      "--checkpoint", paths["latent"], "--vocab", paths["vocab"],
                      "--out", paths["summaries"]]) == 0
    assert run(cfg + ["lead3", "--corpus", paths["corpus"],
                      "--out", paths["lead3"]]) == 0
    return paths


def read_rows(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def walkthrough_config():
    """The config of the README walkthrough."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(readme.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF", 1)[0])


@pytest.mark.parametrize("seed", [13, 14, 15])
def test_walkthrough_extractor_beats_lead3(tmp_path, seed):
    """On the toy test split, the README walkthrough's trained extractor
    beats lead-3 by at least 0.05 ROUGE-1 F1."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(walkthrough_config(), seed=seed)))
    corpus, out = tmp_path / "toy", tmp_path / "out"
    cfg = ["--config", config]
    assert run(cfg + ["make-toy", "--out", corpus]) == 0
    assert run(cfg + ["make-labels", "--corpus", corpus, "--out", out / "labels.jsonl"]) == 0
    assert run(cfg + ["train-extractive", "--corpus", corpus, "--labels", out / "labels.jsonl",
                      "--vocab", out / "vocab.json", "--checkpoint", out / "extractive.ckpt",
                      "--metrics", out / "ext_metrics.json"]) == 0
    assert run(cfg + ["summarize", "--corpus", corpus, "--checkpoint", out / "extractive.ckpt",
                      "--vocab", out / "vocab.json", "--out", out / "extract.jsonl"]) == 0
    assert run(cfg + ["lead3", "--corpus", corpus, "--out", out / "lead3.jsonl"]) == 0
    assert run(cfg + ["evaluate", "--corpus", corpus, "--generated", out / "extract.jsonl",
                      "--generated", out / "lead3.jsonl", "--out", out / "table.txt"]) == 0
    r1_f1 = {line.split()[0]: float(line.split()[1])
             for line in (out / "table.txt").read_text().splitlines()[2:]}
    assert r1_f1["extract"] >= r1_f1["lead3"] + 0.05, r1_f1


class TestArtifacts:
    def test_all_outputs_exist(self, pipeline):
        for key in ("labels", "pairs", "vocab", "extractive", "compression",
                    "latent", "trace", "summaries", "lead3"):
            assert pipeline[key].exists(), key

    def test_summary_rows_shape(self, pipeline):
        rows = read_rows(pipeline["summaries"])
        test_docs = load_corpus(pipeline["corpus"], "test")
        assert len(rows) == len(test_docs)
        for row in rows:
            assert set(row) == {"id", "summary"}
            assert 1 <= len(row["summary"]) <= 3
            assert all(isinstance(s, str) and s for s in row["summary"])

    def test_summaries_are_verbatim_document_sentences(self, pipeline):
        originals = {
            doc.id: {s.text() for s in doc.sentences}
            for doc, _ in load_corpus(pipeline["corpus"], "test")
        }
        for row in read_rows(pipeline["summaries"]):
            for sentence in row["summary"]:
                assert sentence in originals[row["id"]]

    def test_trace_rows_schema(self, pipeline):
        rows = read_rows(pipeline["trace"])
        train_size = len(load_corpus(pipeline["corpus"], "train"))
        assert len(rows) == SMALL_CONFIG["latent_epochs"] * train_size
        for row in rows:
            assert set(row) == {"epoch", "doc_id", "r_p", "r_r", "r", "baseline_mse",
                                "entropy", "picked", "advantage", "baseline"}
            assert 0.0 <= row["r"] <= 1.0

    def test_labels_cover_corpus(self, pipeline):
        rows = read_rows(pipeline["labels"])
        train = load_corpus(pipeline["corpus"], "train")
        assert {r["id"] for r in rows} == {doc.id for doc, _ in train}
        lengths = {doc.id: len(doc.sentences) for doc, _ in train}
        for row in rows:
            assert len(row["labels"]) == lengths[row["id"]]
            assert set(row["labels"]) <= {0, 1}

    def test_metrics_files_parse(self, pipeline):
        ext = json.loads(pipeline["ext_metrics"].read_text())
        assert [m["epoch"] for m in ext] == list(range(1, len(ext) + 1))
        comp = json.loads(pipeline["comp_metrics"].read_text())
        assert all("train_ppl" in m and "val_ppl" in m for m in comp)
        lat = json.loads(pipeline["latent_metrics"].read_text())
        assert all("mean_reward" in m for m in lat)


class TestDeterminism:
    def test_make_toy_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "corpus2"
        assert run(["--config", pipeline["config"], "make-toy", "--out", again]) == 0
        for split in ("train", "valid", "test"):
            assert (again / f"{split}.jsonl").read_bytes() == \
                (pipeline["corpus"] / f"{split}.jsonl").read_bytes(), \
                f"{split}.jsonl differs on rerun (BLAS {blas_build()})"

    def test_label_stage_rerun_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "labels2.jsonl"
        assert run(["--config", pipeline["config"], "make-labels",
                    "--corpus", pipeline["corpus"], "--out", again]) == 0
        assert again.read_bytes() == pipeline["labels"].read_bytes(), \
            f"labels differ on rerun (BLAS {blas_build()})"

    def test_extractive_training_rerun_byte_identical(self, pipeline, tmp_path):
        vocab2 = tmp_path / "vocab2.json"
        ckpt2 = tmp_path / "ext2.ckpt"
        metrics2 = tmp_path / "m2.json"
        assert run(["--config", pipeline["config"], "train-extractive",
                    "--corpus", pipeline["corpus"], "--labels", pipeline["labels"],
                    "--vocab", vocab2, "--checkpoint", ckpt2,
                    "--metrics", metrics2]) == 0
        assert vocab2.read_bytes() == pipeline["vocab"].read_bytes(), \
            f"vocab differs on rerun (BLAS {blas_build()})"
        assert ckpt2.read_bytes() == pipeline["extractive"].read_bytes(), \
            f"extractive differs on rerun (BLAS {blas_build()})"
        assert metrics2.read_bytes() == pipeline["ext_metrics"].read_bytes(), \
            f"ext_metrics differs on rerun (BLAS {blas_build()})"

    def test_latent_training_rerun_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "lat2.ckpt"
        trace2 = tmp_path / "trace2.jsonl"
        metrics2 = tmp_path / "lm2.json"
        assert run(["--config", pipeline["config"], "train-latent",
                    "--corpus", pipeline["corpus"],
                    "--checkpoint", pipeline["extractive"],
                    "--compression", pipeline["compression"],
                    "--vocab", pipeline["vocab"], "--out", out2,
                    "--trace", trace2, "--metrics", metrics2]) == 0
        assert trace2.read_bytes() == pipeline["trace"].read_bytes(), \
            f"trace differs on rerun (BLAS {blas_build()})"
        assert out2.read_bytes() == pipeline["latent"].read_bytes(), \
            f"latent differs on rerun (BLAS {blas_build()})"
        assert metrics2.read_bytes() == pipeline["latent_metrics"].read_bytes(), \
            f"latent_metrics differs on rerun (BLAS {blas_build()})"

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_latent_report_names_each_epoch_once(self, pipeline, tmp_path, capsys, epochs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "latent_epochs": epochs}))
        metrics = tmp_path / "lm.json"
        assert run(["--config", config, "train-latent", "--corpus", pipeline["corpus"],
                    "--checkpoint", pipeline["extractive"],
                    "--compression", pipeline["compression"],
                    "--vocab", pipeline["vocab"], "--out", tmp_path / "lat.ckpt",
                    "--trace", tmp_path / "t.jsonl", "--metrics", metrics]) == 0
        rewards = [f"{row['mean_reward']:.4f}" for row in json.loads(metrics.read_text())]
        want = f"latent training: epoch-1 mean reward {rewards[0]}"
        if epochs > 1:
            want += f", epoch-{epochs} mean reward {rewards[-1]}"
        assert capsys.readouterr().out.splitlines()[0] == want

    def test_seed_override_changes_the_corpus(self, pipeline, tmp_path):
        other = tmp_path / "corpus_seed7"
        assert run(["--config", pipeline["config"], "--seed", "7",
                    "make-toy", "--out", other]) == 0
        assert (other / "train.jsonl").read_bytes() != \
            (pipeline["corpus"] / "train.jsonl").read_bytes()


# RunConfig keys that nothing read, with the values every older checkpoint
# recorded for them in its "run" block
REMOVED_RUN_KEYS = {
    "normalized_score": True,
    "corpus": "data/toy",
    "vocab": "out/vocab.json",
    "checkpoint_dir": "out/checkpoints",
    "log_dir": "out/logs",
    "beta1": 0.9,
    "beta2": 0.999,
    "adam_eps": 1e-8,
}


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_knob": 1}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(REMOVED_RUN_KEYS))
    def test_removed_config_key_is_config_error(self, tmp_path, capsys, key):
        bad = tmp_path / "old.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, key: REMOVED_RUN_KEYS[key]}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("clip_norm", float("nan")), ("clip_norm", 0.0), ("clip_norm", -1.0),
        ("extractive_lr", float("nan")), ("latent_lr", 0.0), ("alpha", float("nan")),
        ("alpha", 1.5), ("dropout", float("nan")), ("stop_at_train_acc", float("nan")),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, key, value):
        # json writes a float NaN as NaN, and json.loads reads it back
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, key: value}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @staticmethod
    def training_command(key, pipeline, tmp_path):
        """The stage that reads ``key``, writing into ``tmp_path``."""
        out = ["--vocab", pipeline["vocab"], "--metrics", tmp_path / "m.json"]
        return {
            "extractive_lr": ["train-extractive", "--corpus", pipeline["corpus"],
                              "--labels", pipeline["labels"], "--checkpoint",
                              tmp_path / "out.ckpt", "--vocab", tmp_path / "vocab.json",
                              "--metrics", tmp_path / "m.json"],
            "compression_lr": ["train-compression", "--pairs", pipeline["pairs"],
                               "--checkpoint", tmp_path / "out.ckpt", *out],
            "latent_lr": ["train-latent", "--corpus", pipeline["corpus"],
                          "--checkpoint", pipeline["extractive"],
                          "--compression", pipeline["compression"], "--out",
                          tmp_path / "out.ckpt", "--trace", tmp_path / "t.jsonl", *out],
        }.get(key, ["make-toy", "--out", tmp_path / "out.ckpt"])

    @pytest.mark.parametrize("key", ["extractive_lr", "compression_lr", "latent_lr",
                                     "clip_norm"])
    @pytest.mark.parametrize("literal", ["Infinity", "1e400"])
    def test_non_finite_rate_or_clip_norm_is_config_error(self, pipeline, tmp_path, capsys,
                                                          key, literal):
        # json reads Infinity, and 1e400 overflows to inf: a rate of inf
        # diverged on the first step and an inf clip_norm never clipped
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(SMALL_CONFIG)[:-1] + f', "{key}": {literal}}}')
        with pytest.raises(ConfigError, match=f"^{key} must be finite and > 0, got inf$"):
            load_config(bad)
        assert run(["--config", bad] + self.training_command(key, pipeline, tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"error[config]: {key} must be finite and > 0, got inf" in err
        assert "Warning" not in err
        assert not (tmp_path / "out.ckpt").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_is_numeric_error(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "extractive_lr": 1e39}))
        assert run(["--config", cfg, "train-extractive", "--corpus", pipeline["corpus"],
                    "--labels", pipeline["labels"], "--vocab", tmp_path / "vocab.json",
                    "--checkpoint", tmp_path / "ext.ckpt",
                    "--metrics", tmp_path / "m.json"]) == 5
        err = capsys.readouterr().err
        assert "error[numeric]" in err and "non-finite" in err
        assert not (tmp_path / "ext.ckpt").exists()

    def test_wrong_config_type_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": "three hundred"}))
        assert run(["--config", bad, "make-toy", "--out", tmp_path / "c"]) == 2

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert run(["make-labels", "--corpus", tmp_path / "nope",
                    "--out", tmp_path / "l.jsonl"]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_duplicate_label_id_is_data_error(self, pipeline, tmp_path, capsys):
        lines = pipeline["labels"].read_text().splitlines()
        labels = tmp_path / "labels.jsonl"
        labels.write_text("\n".join(lines + lines[:1]) + "\n")
        assert run(["--config", pipeline["config"], "train-extractive",
                    "--corpus", pipeline["corpus"], "--labels", labels,
                    "--vocab", tmp_path / "vocab.json", "--checkpoint", tmp_path / "ext.ckpt",
                    "--metrics", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"line {len(lines) + 1}: duplicate document id" in err
        assert not (tmp_path / "ext.ckpt").exists()

    def test_removed_exact_oracle_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(["train-latent", "--corpus", tmp_path, "--checkpoint", tmp_path / "e.ckpt",
                 "--compression", tmp_path / "c.ckpt", "--vocab", tmp_path / "v.json",
                 "--out", tmp_path / "latent.ckpt", "--trace", tmp_path / "t.jsonl",
                 "--metrics", tmp_path / "m.json", "--exact-oracle"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --exact-oracle" in capsys.readouterr().err

    def test_help_is_the_same_on_every_call(self, capsys):
        # main shares one parser across calls; a parse error must not change it
        outputs = []
        for argv in (["train-latent", "--help"], ["train-latent", "--bogus"],
                     ["train-latent", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                run(argv)
            outputs.append((exit_info.value.code, capsys.readouterr().out))
        assert [code for code, _ in outputs] == [0, 2, 0]
        assert outputs[0] == outputs[2]
        assert "--metrics" in outputs[0][1] and "--exact-oracle" not in outputs[0][1]

    def test_empty_training_summary_is_data_error(self, pipeline, tmp_path, capsys):
        lines = (pipeline["corpus"] / "train.jsonl").read_text().splitlines()
        last = {**json.loads(lines[-1]), "summary": []}
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "train.jsonl").write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
        assert run(["--config", pipeline["config"], "train-latent", "--corpus", corpus,
                    "--checkpoint", pipeline["extractive"],
                    "--compression", pipeline["compression"], "--vocab", pipeline["vocab"],
                    "--out", tmp_path / "latent.ckpt", "--trace", tmp_path / "t.jsonl",
                    "--metrics", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"{last['id']!r} has an empty summary" in err
        assert not (tmp_path / "latent.ckpt").exists()

    @pytest.mark.parametrize("line", [
        "5",
        '{"id": "b", "document": ["abc", 7], "summary": ["abc"]}',
        '{"id": "b", "document": "abc def", "summary": ["abc"]}',
        '{"id": "b", "document": ["abc def"], "summary": "abc"}',
        '{"id": "b", "document": ["abc def"], "summary": [["abc"]]}',
    ], ids=["int-row", "int-sentence", "string-document", "string-summary", "list-sentence"])
    def test_malformed_corpus_row_is_data_error(self, tmp_path, capsys, line):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        good = json.dumps({"id": "a", "document": ["abc def ."], "summary": ["abc ."]})
        (corpus / "train.jsonl").write_text(good + "\n" + line + "\n")
        assert run(["make-labels", "--corpus", corpus, "--out", tmp_path / "l.jsonl"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and "line 2" in err
        assert not (tmp_path / "l.jsonl").exists()

    @pytest.mark.parametrize("row", [
        '{"id": "x", "summary": [3]}',
        '{"id": "x", "summary": "abc def"}',
        '{"id": "x", "summary": ["abc", null]}',
        '["x", "abc"]',
        "7",
    ], ids=["int-sentence", "string-summary", "null-sentence", "array-row", "int-row"])
    def test_malformed_generated_row_is_data_error(self, pipeline, tmp_path, capsys, row):
        gen = tmp_path / "gen.jsonl"
        rows = gold_as_generated(pipeline["corpus"], "test", gen)
        gen.write_text(gen.read_text() + row + "\n")
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"line {len(rows) + 1}: bad summary row" in err

    @pytest.mark.parametrize("row", [
        '["zz", [0, 1]]',
        '{"id": "zz", "labels": "0110"}',
        '{"id": "zz", "labels": [2, 1]}',
        '{"id": "zz", "labels": [true, false]}',
        '{"id": "zz", "labels": [0, 1.0]}',
    ], ids=["array-row", "string-labels", "int-2", "bool-labels", "float-label"])
    def test_malformed_labels_row_is_data_error(self, pipeline, tmp_path, capsys, row):
        lines = pipeline["labels"].read_text().splitlines()
        labels = tmp_path / "labels.jsonl"
        labels.write_text("\n".join(lines + [row]) + "\n")
        assert run(["--config", pipeline["config"], "train-extractive",
                    "--corpus", pipeline["corpus"], "--labels", labels,
                    "--vocab", tmp_path / "vocab.json", "--checkpoint", tmp_path / "ext.ckpt",
                    "--metrics", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"labels line {len(lines) + 1}:" in err
        assert not (tmp_path / "ext.ckpt").exists()

    @pytest.mark.parametrize("row", [
        "7",
        '{"doc_id": "a", "source": "abc", "target": ["a"]}',
        '{"doc_id": "a", "source": ["a", "b"], "target": [1, 2]}',
        '{"doc_id": "a", "source": [], "target": ["a"]}',
        '{"doc_id": "a", "source": ["a", null], "target": ["a"]}',
    ], ids=["int-row", "string-source", "int-target", "empty-source", "null-token"])
    def test_malformed_pair_row_is_data_error(self, pipeline, tmp_path, capsys, row):
        lines = pipeline["pairs"].read_text().splitlines()
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(lines + [row]) + "\n")
        assert run(["--config", pipeline["config"], "train-compression", "--pairs", pairs,
                    "--vocab", pipeline["vocab"], "--checkpoint", tmp_path / "comp.ckpt",
                    "--metrics", tmp_path / "m.json"]) == 3
        err = capsys.readouterr().err
        assert "error[data]" in err and f"pairs line {len(lines) + 1}:" in err
        assert not (tmp_path / "comp.ckpt").exists()

    def test_missing_checkpoint_is_checkpoint_error(self, pipeline, tmp_path, capsys):
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", tmp_path / "ghost.ckpt",
                    "--out", tmp_path / "s.jsonl"]) == 4
        assert "error[checkpoint]" in capsys.readouterr().err

    def test_vocabulary_entry_of_the_wrong_type_is_data_error(self, pipeline, tmp_path,
                                                              capsys):
        payload = json.loads(Path(pipeline["vocab"]).read_text())
        payload["tokens"][0][1] = True  # a boolean count
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(payload))
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", vocab,
                    "--checkpoint", pipeline["latent"], "--out", tmp_path / "s.jsonl"]) == 3
        assert repr(payload["tokens"][0][0]) in capsys.readouterr().err

    def test_compress_without_scorer_is_data_error(self, pipeline, tmp_path):
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", pipeline["latent"], "--compress",
                    "--out", tmp_path / "s.jsonl"]) == 3

    def test_compress_without_scorer_fails_before_reading_inputs(self, pipeline, tmp_path,
                                                                 capsys):
        # none of these files exists: the flags are refused before any is read
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", tmp_path / "ghost", "--vocab", tmp_path / "ghost.json",
                    "--checkpoint", tmp_path / "ghost.ckpt", "--compress",
                    "--out", tmp_path / "s.jsonl"]) == 3
        assert "--compress requires --compression" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["non-utf8", "directory", "deep-nesting"])
    @pytest.mark.parametrize("name", ["corpus", "labels", "pairs", "generated", "vocab",
                                      "config", "checkpoint"])
    def test_unreadable_input_is_loader_error(self, pipeline, tmp_path, capsys, name, damage):
        # the corpus directory is read through its train.jsonl
        bad = tmp_path / name / ("train.jsonl" if name == "corpus" else "input")
        bad.parent.mkdir()
        if damage == "directory":
            bad.mkdir()
        elif damage == "deep-nesting":
            bad.write_text("[" * 200_000 + "\n")
        else:
            bad.write_bytes(b"\xff\xfe" * 8 + b"\n")
        paths = {**pipeline, "generated": pipeline["summaries"],
                 "checkpoint": pipeline["extractive"],
                 name: bad.parent if name == "corpus" else bad}
        out = tmp_path / "out"
        commands = {
            "corpus": ["make-labels", "--corpus", paths["corpus"], "--out", out],
            "labels": ["train-extractive", "--corpus", paths["corpus"],
                       "--labels", paths["labels"], "--vocab", out / "vocab.json",
                       "--checkpoint", out / "ext.ckpt", "--metrics", out / "m.json"],
            "pairs": ["train-compression", "--pairs", paths["pairs"], "--vocab", paths["vocab"],
                      "--checkpoint", out / "comp.ckpt", "--metrics", out / "m.json"],
            "generated": ["evaluate", "--corpus", paths["corpus"],
                          "--generated", f"sys={paths['generated']}"],
            "checkpoint": ["summarize", "--corpus", paths["corpus"], "--vocab", paths["vocab"],
                           "--checkpoint", paths["checkpoint"], "--out", out],
            "config": ["make-toy", "--out", out],
        }
        commands["vocab"] = commands["pairs"]
        code, kind = {"config": (2, "config"), "checkpoint": (4, "checkpoint")}.get(
            name, (3, "data"))
        assert run(["--config", paths["config"]] + commands[name]) == code
        err = capsys.readouterr().err
        assert f"error[{kind}]" in err and "Traceback" not in err

    @pytest.mark.parametrize("model,field", [
        ("extractive", "data"), ("extractive", "vocab_size"), ("extractive", "d"),
        ("compression", "attn_size"),
    ])
    def test_corrupt_checkpoint_field_is_checkpoint_error(self, pipeline, tmp_path, capsys,
                                                          model, field):
        def edit(header):
            if field == "data":
                header["params"][0]["bytes"] = "5"
            else:
                del header["config"][field]
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint_header(pipeline[model], bad, edit)
        paths = {**pipeline, model: bad}
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", paths["extractive"], "--compress",
                    "--compression", paths["compression"], "--out", tmp_path / "s.jsonl"]) == 4
        assert "error[checkpoint]" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["extractive", "compression"])
    @pytest.mark.parametrize("size", ["zero", "negative", "mismatched"])
    def test_corrupt_checkpoint_size_is_checkpoint_error(self, pipeline, tmp_path, capsys,
                                                         model, size):
        def edit(header):
            d = header["config"]["d"]
            header["config"]["d"] = {"zero": 0, "negative": -1, "mismatched": d + 1}[size]
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint_header(pipeline[model], bad, edit)
        paths = {**pipeline, model: bad}
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", paths["extractive"], "--compress",
                    "--compression", paths["compression"], "--out", tmp_path / "s.jsonl"]) == 4
        err = capsys.readouterr().err
        assert "error[checkpoint]" in err and "d=" in err

    @pytest.mark.parametrize("damage", CHECKPOINT_DAMAGE)
    def test_damaged_checkpoint_is_checkpoint_error(self, pipeline, tmp_path, capsys, damage):
        bad = tmp_path / "bad.ckpt"
        damage_checkpoint(pipeline["extractive"], bad, damage)
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", bad, "--out", tmp_path / "s.jsonl"]) == 4
        err = capsys.readouterr().err
        assert "error[checkpoint]" in err and "Traceback" not in err


def gold_as_generated(corpus, split, out_path):
    rows = [
        {"id": doc.id, "summary": [s.text() for s in summary.sentences]}
        for doc, summary in load_corpus(corpus, split)
    ]
    out_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    return rows


class TestEvaluate:
    def _table_lines(self, capsys):
        out = capsys.readouterr().out
        return [l for l in out.splitlines() if l and not l.startswith("-")]

    def test_gold_against_itself_scores_one(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"oracle={gen}"]) == 0
        lines = self._table_lines(capsys)
        assert lines[0].split()[0] == "system"
        cells = lines[1].split()
        assert cells[0] == "oracle"
        assert all(float(c) == 1.0 for c in cells[1:])

    def test_row_order_invariance(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}"]) == 0
        first = capsys.readouterr().out
        reversed_file = tmp_path / "reversed.jsonl"
        reversed_file.write_text(
            "".join(reversed(gen.read_text().splitlines(keepends=True)))
        )
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={reversed_file}"]) == 0
        assert capsys.readouterr().out == first

    def test_multiple_systems_and_bare_path_naming(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "mygen.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"a={pipeline['summaries']}",
                    "--generated", str(gen)]) == 0
        lines = self._table_lines(capsys)
        assert lines[1].split()[0] == "a"
        assert lines[2].split()[0] == "mygen"

    def test_table_written_to_file_matches_stdout(self, pipeline, tmp_path, capsys):
        gen = tmp_path / "gold.jsonl"
        gold_as_generated(pipeline["corpus"], "test", gen)
        table_file = tmp_path / "table.txt"
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}", "--out", table_file]) == 0
        out = capsys.readouterr().out
        assert table_file.read_text() in out

    def test_missing_document_id_is_data_error(self, pipeline, tmp_path):
        gen = tmp_path / "partial.jsonl"
        rows = gold_as_generated(pipeline["corpus"], "test", gen)
        gen.write_text(json.dumps(rows[0], sort_keys=True) + "\n")
        assert run(["evaluate", "--corpus", pipeline["corpus"],
                    "--generated", f"sys={gen}"]) == 3


class TestLeadBaseline:
    def test_lead3_takes_first_three(self, pipeline):
        docs = {doc.id: doc for doc, _ in load_corpus(pipeline["corpus"], "test")}
        for row in read_rows(pipeline["lead3"]):
            doc = docs[row["id"]]
            expected = [s.text() for s in doc.sentences[:3]]
            assert row["summary"] == expected

    def test_lead3_clamps_short_documents(self, tmp_path):
        corpus = tmp_path / "mini"
        corpus.mkdir()
        (corpus / "test.jsonl").write_text(json.dumps({
            "id": "tiny",
            "document": ["one sentence here .", "and a second ."],
            "summary": ["one sentence ."],
        }) + "\n")
        out = tmp_path / "lead.jsonl"
        assert run(["lead3", "--corpus", corpus, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows[0]["summary"]) == 2


class TestOlderCheckpoints:
    def test_removed_run_keys_still_load_and_summarize(self, pipeline, tmp_path):
        def add_removed_keys(header):
            header["config"]["run"].update(REMOVED_RUN_KEYS)
        old = {}
        for key in ("latent", "compression"):
            old[key] = tmp_path / f"old_{key}.ckpt"
            rewrite_checkpoint_header(pipeline[key], old[key], add_removed_keys)
        outs = []
        for ckpts in (pipeline, old):
            out = tmp_path / f"summaries_{len(outs)}.jsonl"
            assert run(["--config", pipeline["config"], "summarize",
                        "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                        "--checkpoint", ckpts["latent"], "--compress",
                        "--compression", ckpts["compression"], "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCompressedSummaries:
    def test_compress_flag_changes_output_shape(self, pipeline, tmp_path):
        out = tmp_path / "compressed.jsonl"
        assert run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", pipeline["latent"], "--compress",
                    "--compression", pipeline["compression"], "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == len(read_rows(pipeline["summaries"]))
        for row in rows:
            assert all(isinstance(s, str) and s for s in row["summary"])

    def compress(self, pipeline, out):
        return run(["--config", pipeline["config"], "summarize",
                    "--corpus", pipeline["corpus"], "--vocab", pipeline["vocab"],
                    "--checkpoint", pipeline["latent"], "--compress",
                    "--compression", pipeline["compression"], "--out", out])

    def test_each_row_is_the_per_sentence_decode_of_its_selection(self, pipeline, tmp_path):
        out = tmp_path / "compressed.jsonl"
        assert self.compress(pipeline, out) == 0
        config = load_config(pipeline["config"])
        vocab = load_vocab(pipeline["vocab"])
        model = load_extractive(pipeline["latent"], vocab)
        compressor = load_compression(pipeline["compression"], vocab)
        want = []
        for doc, _ in encode_records(load_corpus(pipeline["corpus"], "test"), vocab):
            top = model.select_top_k(doc, config.max_select)
            want.append({"id": doc.id, "summary": [
                decode_greedy(compressor, vocab, s, config.max_decode_len).text()
                for s in top.sentences]})
        assert sum(len(row["summary"]) for row in want) > len(want)
        assert read_rows(out) == want, f"BLAS {blas_build()}"

    def test_the_extractor_is_freed_before_the_compressor_loads(self, pipeline, tmp_path,
                                                                monkeypatch):
        extractors = []
        load_extractor, load_compressor = (cli.extractive_mod.load_extractive,
                                           cli.compression_mod.load_compression)

        def tracked_extractor(*args):
            model = load_extractor(*args)
            extractors.append(weakref.ref(model))
            return model

        def checked_compressor(*args):
            assert len(extractors) == 1 and extractors[0]() is None, \
                "the extractor is still alive when the compressor loads"
            return load_compressor(*args)

        monkeypatch.setattr(cli.extractive_mod, "load_extractive", tracked_extractor)
        monkeypatch.setattr(cli.compression_mod, "load_compression", checked_compressor)
        assert self.compress(pipeline, tmp_path / "compressed.jsonl") == 0
