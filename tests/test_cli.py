from __future__ import annotations

import json
from pathlib import Path

import pytest

from refgame.cli import main
from refgame.corpus import load_corpus, save_corpus
from refgame.synth import make_synthetic_corpus


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    save_corpus(make_synthetic_corpus(12, seed=90), path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestGenerateValidateStats:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "scenarios.json"
        assert run("generate", "--shared", "4,6", "--count", "3", "--seed", "1", "--out", out) == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 6
        assert {d["num_shared"] for d in payload} == {4, 6}

    def test_generate_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run("generate", "--count", "2", "--seed", "7", "--out", a)
        run("generate", "--count", "2", "--seed", "7", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_validate_ok(self, data_dir, capsys):
        assert run("validate", "--data", data_dir) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_validate_corrupted_names_markable(self, data_dir, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        for name in ("scenarios.json", "dialogues.json", "markables.json", "judgements.json"):
            (bad_dir / name).write_text((data_dir / name).read_text())
        marks = json.loads((bad_dir / "markables.json").read_text())
        marks[0]["end_token"] = marks[0]["start_token"]
        (bad_dir / "markables.json").write_text(json.dumps(marks))
        assert run("validate", "--data", bad_dir) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IntegrityError"
        assert marks[0]["id"] in err["message"]

    def test_stats_writes_json(self, data_dir, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run("stats", "--data", data_dir, "--out", out) == 0
        stats = json.loads(out.read_text())
        assert stats["n_dialogues"] == 12
        assert "markables" in capsys.readouterr().out

    def test_missing_data_flag_errors(self, capsys, monkeypatch):
        monkeypatch.delenv("REFGAME_DATA", raising=False)
        assert run("stats") == 1
        assert "REFGAME_DATA" in json.loads(capsys.readouterr().err)["message"]

    def test_env_var_data_root(self, data_dir, capsys, monkeypatch):
        monkeypatch.setenv("REFGAME_DATA", str(data_dir))
        assert run("validate") == 0

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("generate", "--bogus")
        assert exc.value.code == 2


class TestAnalyticsCommands:
    def test_agreement_outputs(self, data_dir, tmp_path):
        out = tmp_path / "agr"
        assert run("agreement", "--data", data_dir, "--out", out, "--min-count", "1") == 0
        assert (out / "agreement.json").exists()
        assert (out / "by_referent_count.csv").exists()
        assert (out / "token_correlation.csv").exists()
        report = json.loads((out / "agreement.json").read_text())
        assert 0.0 <= report["observed"] <= 1.0

    def test_aggregate_and_split(self, data_dir, tmp_path):
        gold = tmp_path / "gold.json"
        split = tmp_path / "split.json"
        assert run("aggregate", "--data", data_dir, "--out", gold) == 0
        assert run("split", "--data", data_dir, "--seed", "3", "--out", split) == 0
        gold_data = json.loads(gold.read_text())
        assert all(set(v) == {"referents", "dropped"} for v in gold_data.values())
        split_data = json.loads(split.read_text())
        assert len(split_data["valid"]) == len(split_data["test"]) == 1
        assert len(split_data["train"]) == 10

    def test_report_bundles(self, data_dir, tmp_path):
        src = tmp_path / "agr2"
        run("agreement", "--data", data_dir, "--out", src, "--min-count", "1")
        out = tmp_path / "bundle"
        assert run("report", src, "--out", out) == 0
        index = json.loads((out / "index.json").read_text())
        assert "agreement.json" in index["files"]


@pytest.fixture(scope="module")
def tagger_ckpt(data_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tagger")
    split = workdir / "split.json"
    run("split", "--data", data_dir, "--seed", "0", "--out", split)
    tagger = workdir / "tagger"
    assert run(
        "train", "--data", data_dir, "--split", split, "--task", "tagger",
        "--out", tagger, "--epochs", "2", "--seed", "0", "--quiet",
    ) == 0
    return tagger


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("train")
    split = workdir / "split.json"
    run("split", "--data", data_dir, "--seed", "0", "--out", split)
    model = workdir / "model"
    code = run(
        "train", "--data", data_dir, "--split", split, "--out", model,
        "--variant", "TSEL-REF-DIAL", "--epochs", "2", "--seed", "0",
        "--embed-dim", "8", "--hidden-dim", "8", "--attr-dim", "4",
        "--rel-dim", "4", "--attn-dim", "8", "--mlp-dim", "8",
        "--batch-size", "4", "--dropout", "0.0", "--quiet",
    )
    assert code == 0
    return workdir, split, model


class TestModelCommands:
    def test_train_writes_checkpoint_and_log(self, trained):
        workdir, split, model = trained
        assert model.with_suffix(".params.json").exists()
        assert model.with_suffix(".meta.json").exists()
        log_lines = model.with_suffix(".log.jsonl").read_text().strip().splitlines()
        assert len(log_lines) == 2
        assert {"epoch", "train_loss", "valid_loss"} <= set(json.loads(log_lines[0]))

    def test_evaluate(self, trained, data_dir, tmp_path):
        workdir, split, model = trained
        out = tmp_path / "eval"
        assert run(
            "evaluate", "--data", data_dir, "--split", split, "--model", model, "--out", out
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["variant"] == "TSEL-REF-DIAL"
        assert (out / "grouped_by_referents.csv").exists()

    def test_selfplay_model_agent(self, trained, tmp_path):
        workdir, split, model = trained
        out = tmp_path / "sp"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--shared", "4",
            "--games", "2", "--seed", "1", "--max-utterances", "4",
            "--max-tokens", "8", "--out", out,
        ) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "num_shared,games,successes,success_rate"
        assert lines[1].startswith("4,2,")

    def test_tagger_train_and_tag(self, data_dir, tagger_ckpt, tmp_path):
        out = tmp_path / "markables.json"
        assert run(
            "tag", "--model", tagger_ckpt, "--input", Path(data_dir) / "dialogues.json", "--out", out
        ) == 0
        marks = json.loads(out.read_text())
        assert isinstance(marks, list)
        for m in marks:
            assert m["start_token"] < m["end_token"]

    def test_tagger_train_honours_dtype(self, data_dir, tagger_ckpt, tmp_path):
        split = tagger_ckpt.parent / "split.json"
        out = tmp_path / "tagger32"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", "tagger",
            "--out", out, "--epochs", "1", "--dtype", "float32", "--quiet",
        ) == 0
        params = json.loads(out.with_suffix(".params.json").read_text())
        assert params["dtype"] == "float32"
        assert {rec["dtype"] for rec in params["params"].values()} == {"float32"}

    def test_tagger_train_honours_dims(self, data_dir, tagger_ckpt, tmp_path):
        split = tagger_ckpt.parent / "split.json"
        out = tmp_path / "tagger_small"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", "tagger",
            "--out", out, "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "10", "--quiet",
        ) == 0
        shapes = {
            name: tuple(rec["shape"])
            for name, rec in json.loads(out.with_suffix(".params.json").read_text())["params"].items()
        }
        assert shapes["emb"][1] == 8
        for direction in ("fwd", "bwd"):
            assert shapes[f"{direction}.W"] == (30, 8)
            assert shapes[f"{direction}.U"] == (30, 10)
        assert shapes["emit.W"] == (3, 20)

    @pytest.mark.parametrize("task", ["tagger", "model"])
    def test_train_flags_left_out_take_config_defaults(self, data_dir, tagger_ckpt, tmp_path,
                                                       monkeypatch, task):
        from dataclasses import replace

        from refgame import model, tagger
        from refgame.model import ModelConfig
        from refgame.tagger import TaggerConfig

        # record the config the CLI built, then train a small, short copy of it
        seen = []
        small = dict(epochs=1, embed_dim=4, hidden_dim=4)
        if task == "tagger":
            real_tagger = tagger.train_tagger

            def fake_tagger(corpus, split, config, **kw):
                seen.append(config)
                return real_tagger(corpus, split, replace(config, **small), **kw)

            monkeypatch.setattr(tagger, "train_tagger", fake_tagger)
        else:
            real_model = model.train_model
            small.update(variant="TSEL", attr_dim=2, rel_dim=2, attn_dim=4, mlp_dim=4)

            def fake_model(config, *args, **kw):
                seen.append(config)
                return real_model(replace(config, **small), *args, **kw)

            monkeypatch.setattr(model, "train_model", fake_model)
        split = tagger_ckpt.parent / "split.json"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", task,
            "--out", tmp_path / task, "--quiet",
        ) == 0
        assert seen == [TaggerConfig() if task == "tagger" else ModelConfig()]
        assert seen[0].epochs == (20 if task == "tagger" else 30)

    def test_tagger_train_rejects_model_only_flags(self, data_dir, tagger_ckpt, tmp_path, capsys):
        split = tagger_ckpt.parent / "split.json"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", "tagger",
            "--out", tmp_path / "t", "--dropout", "0.1", "--attn-dim", "4", "--quiet",
        ) == 1
        assert "--attn-dim, --dropout" in json.loads(capsys.readouterr().err)["message"]

    def test_selfplay_annotated_transcripts(self, trained, tagger_ckpt, tmp_path):
        workdir, split, model = trained
        out = tmp_path / "spa"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--tagger", tagger_ckpt,
            "--shared", "4", "--games", "2", "--seed", "4", "--max-utterances", "4",
            "--max-tokens", "8", "--render-games", "1", "--out", out,
        ) == 0
        lines = (out / "transcripts.jsonl").read_text().strip().splitlines()
        assert all("predicted_referents" in json.loads(line) for line in lines)
        assert (out / "game00000.html").read_text().startswith("<!DOCTYPE html>")


class TestSelfplayAndRender:
    def test_selfplay_scripted_three_rows(self, tmp_path):
        out = tmp_path / "sp"
        assert run(
            "selfplay", "--agent", "random", "--shared", "4,5,6", "--games", "5",
            "--seed", "2", "--out", out,
        ) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert (out / "transcripts.jsonl").read_text().strip().count("\n") == 14

    def test_render_scenario(self, data_dir, tmp_path):
        corpus = load_corpus(data_dir)
        sid = sorted(corpus.scenarios)[0]
        out = tmp_path / "view.svg"
        assert run("render", "--data", data_dir, "--scenario", sid, "--out", out) == 0
        assert out.read_text().startswith("<svg")

    def test_render_dialogue_with_gold(self, data_dir, tmp_path):
        gold = tmp_path / "gold.json"
        run("aggregate", "--data", data_dir, "--out", gold)
        corpus = load_corpus(data_dir)
        did = sorted(corpus.dialogues)[0]
        out = tmp_path / "dialogue.html"
        assert run(
            "render", "--data", data_dir, "--dialogue", did, "--gold", gold, "--out", out
        ) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_render_requires_target(self, data_dir, capsys):
        assert run("render", "--data", data_dir, "--out", "/tmp/x.svg") == 1
        assert "render needs" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("argv", [
    ("train", "--variant", "FOO"),
    ("train", "--task", "tagger", "--dtype", "float1000"),
    ("train", "--dtype", "int64", "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4"),
    ("split",),
], ids=["variant", "tagger-dtype", "int-dtype", "split-too-few"])
def test_bad_config_values_report_json_error(data_dir, tmp_path, capsys, argv):
    if argv[0] == "split":
        small = tmp_path / "small"
        save_corpus(make_synthetic_corpus(5, seed=1), small)
        args = (*argv, "--data", small, "--out", tmp_path / "s.json")
    else:
        split = tmp_path / "split.json"
        assert run("split", "--data", data_dir, "--out", split) == 0
        capsys.readouterr()
        args = (*argv, "--data", data_dir, "--split", split, "--out", tmp_path / "m", "--quiet")
    assert run(*args) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def test_report_summarizes_eval_reports(trained, data_dir, tmp_path):
    workdir, split, model = trained
    eval_dir = tmp_path / "ev"
    run("evaluate", "--data", data_dir, "--split", split, "--model", model, "--out", eval_dir)
    out = tmp_path / "bundle"
    assert run("report", eval_dir, "--out", out) == 0
    summary = json.loads((out / "results_summary.json").read_text())
    assert summary[0]["Model"] == "TSEL-REF-DIAL"
    assert summary[0]["Target Selection"]["sd"] == 0.0
    csv_text = (out / "results_summary.csv").read_text()
    assert csv_text.startswith("Model,Target Selection,Reference Resolution,Exact Match")
