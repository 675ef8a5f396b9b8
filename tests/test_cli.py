from __future__ import annotations

import json
from dataclasses import asdict
from functools import partial
from pathlib import Path

import pytest

from refgame.cli import main
from refgame.corpus import AnnotatedCorpus, load_corpus, save_corpus
from refgame.scenario import DEFAULT_CONFIG
from refgame.synth import make_synthetic_corpus
from refgame.tagger import MarkableTagger


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

    def test_agreement_with_one_multiply_judged_markable(self, data_dir, tmp_path):
        # all judgements of one markable and one of every other: no token
        # has a correlation over a single rated markable
        corpus = load_corpus(data_dir)
        judged = sorted(corpus.judgements.items())
        kept = next(mid for mid, js in judged if len(js) > 1)
        judgements = [j for mid, js in judged for j in (js if mid == kept else js[:1])]
        data = tmp_path / "data"
        save_corpus(AnnotatedCorpus.build(corpus.scenarios.values(), corpus.dialogues.values(),
                                          corpus.markables.values(), judgements), data)
        out = tmp_path / "agr"
        assert run("agreement", "--data", data, "--out", out) == 0
        assert run("agreement", "--data", data_dir, "--out", tmp_path / "full") == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in (tmp_path / "full").iterdir())
        assert (out / "token_correlation.csv").read_text().splitlines() == ["token,rho,count"]

    def test_refused_agreement_writes_no_directory(self, data_dir, tmp_path, capsys):
        corpus = load_corpus(data_dir)
        judgements = [js[0] for _, js in sorted(corpus.judgements.items())]
        data = tmp_path / "data"
        save_corpus(AnnotatedCorpus.build(corpus.scenarios.values(), corpus.dialogues.values(),
                                          corpus.markables.values(), judgements), data)
        capsys.readouterr()
        assert run("agreement", "--data", data, "--out", tmp_path / "agr") == 1
        assert "multiply-judged" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "agr").exists()

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
        assert "agr2/agreement.json" in index["files"]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_report_rejects_an_input_that_is_not_a_directory(self, tmp_path, capsys, kind):
        src = tmp_path / "nothere"
        if kind == "file":
            src.write_text("{}")
        assert run("report", src, "--out", tmp_path / "b1") == 1
        message = json.loads(capsys.readouterr().err)["message"]
        assert str(src) in message
        assert not (tmp_path / "b1").exists()

    def test_token_correlation_csv_quotes_tokens(self, data_dir, tmp_path, monkeypatch):
        import csv

        import refgame.agreement

        monkeypatch.setattr(
            refgame.agreement, "token_exact_match_correlation",
            lambda corpus, min_count: {"it,": (0.5, 3), 'say "hi"': (-0.25, 4)},
        )
        out = tmp_path / "agr"
        assert run("agreement", "--data", data_dir, "--out", out, "--adjectives", "") == 0
        text = (out / "token_correlation.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert rows == [["token", "rho", "count"], ['say "hi"', "-0.2500", "4"], ["it,", "0.5000", "3"]]


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
        assert sorted(p.name for p in workdir.glob("model.*")) == ["model.ckpt", "model.log.jsonl"]
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
        grouped = (out / "grouped_by_referents.csv").read_bytes()
        assert grouped.startswith(b"# Referents,% Accuracy,% Exact Match,Count\n")
        assert b"\r" not in grouped

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

    def test_selfplay_summary_json(self, trained, tmp_path):
        from refgame import __version__

        workdir, split, model = trained
        out = tmp_path / "sps"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--shared", "4,5",
            "--games", "3", "--seed", "2", "--max-utterances", "4",
            "--max-tokens", "8", "--out", out,
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        transcripts = [json.loads(line) for line in (out / "transcripts.jsonl").read_text().splitlines()]
        tokens = sum(len(m["tokens"]) for t in transcripts for m in t["messages"])
        assert (summary["games"], summary["aborted_games"]) == (6, 0)
        assert set(summary["success_rate"]) == {"4", "5"}
        assert summary["forced_rate"] == sum(t["forced"] for t in transcripts) / 6
        assert summary["utterances_per_game"] == sum(len(t["messages"]) for t in transcripts) / 6
        assert summary["tokens_per_game"] == tokens / 6
        assert summary["games_per_s"] == pytest.approx(6 / summary["seconds"])
        assert summary["tokens_per_s"] == pytest.approx(tokens / summary["seconds"])
        assert summary["config"] == {
            "protocol": {"temperature": 0.25, "max_utterances": 4,
                         "max_tokens_per_utterance": 8, "seed": 2},
            "agent": "model", "model": str(model), "tagger": None, "dtype": "float64", "seed": 2, "jobs": 1,
            "scenario": json.loads(json.dumps(asdict(DEFAULT_CONFIG))), "shared": [4, 5], "games": 3,
        }
        assert summary["version"] == __version__

    def test_selfplay_summary_config_regenerates_the_scenarios(self, tmp_path):
        from refgame.scenario import generate_scenarios, load_scenario_config

        config = tmp_path / "config.json"
        config.write_text(json.dumps({"min_separation": 0.05, "center_distance": {"5": 0.7}}))
        out = tmp_path / "spc"
        assert run("selfplay", "--shared", "5,6", "--games", "2", "--seed", "4",
                   "--config", config, "--out", out) == 0
        recorded = json.loads((out / "summary.json").read_text())["config"]
        (tmp_path / "recorded.json").write_text(json.dumps(recorded["scenario"]))
        scenarios = generate_scenarios(
            load_scenario_config(tmp_path / "recorded.json"),
            {k: recorded["games"] for k in recorded["shared"]}, seed=recorded["seed"],
        )
        transcripts = [json.loads(line) for line in (out / "transcripts.jsonl").read_text().splitlines()]
        assert [t["scenario_id"] for t in transcripts] == [s.id for s in scenarios]
        assert recorded["scenario"]["min_separation"] == 0.05

    def test_selfplay_flags_left_out_take_protocol_defaults(self, tmp_path):
        from refgame.selfplay import ProtocolConfig

        out = tmp_path / "spd"
        assert run("selfplay", "--shared", "4", "--games", "1", "--seed", "7", "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["protocol"] == asdict(ProtocolConfig(seed=7))

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
        header = json.loads(out.with_suffix(".ckpt").read_bytes().split(b"\n", 1)[0])
        assert header["config"]["dtype"] == "float32"
        assert {v.dtype.name for v in MarkableTagger.load(out).store.params.values()} == {"float32"}

    def test_tagger_train_honours_dims(self, data_dir, tagger_ckpt, tmp_path):
        split = tagger_ckpt.parent / "split.json"
        out = tmp_path / "tagger_small"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", "tagger",
            "--out", out, "--epochs", "1", "--embed-dim", "8", "--hidden-dim", "10", "--quiet",
        ) == 0
        header = json.loads(out.with_suffix(".ckpt").read_bytes().split(b"\n", 1)[0])
        shapes = {name: tuple(shape) for name, shape in header["params"]}
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

    def test_each_train_flag_has_its_config_field_type(self):
        from typing import get_type_hints

        from refgame.cli import TRAIN_FLAGS
        from refgame.model import ModelConfig
        from refgame.tagger import TaggerConfig

        model_fields, tagger_fields = get_type_hints(ModelConfig), get_type_hints(TaggerConfig)
        assert set(TRAIN_FLAGS) <= set(model_fields)
        for name, kind in TRAIN_FLAGS.items():
            assert kind is model_fields[name] and kind is tagger_fields.get(name, kind), name

    def test_tagger_train_prints_the_best_epoch_scores(self, data_dir, tagger_ckpt, tmp_path, capsys):
        split = tagger_ckpt.parent / "split.json"
        out = tmp_path / "t"
        assert run(
            "train", "--data", data_dir, "--split", split, "--task", "tagger",
            "--out", out, "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4", "--quiet",
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        logged = json.loads(out.with_suffix(".log.jsonl").read_text().splitlines()[0])
        for record in (printed, logged):
            assert 0.0 <= record["valid_token_accuracy"] <= 1.0
            assert 0.0 <= record["valid_span_f1"] <= 1.0

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
            "--max-tokens", "8", "--out", out,
        ) == 0
        records = [json.loads(line) for line in (out / "transcripts.jsonl").read_text().splitlines()]
        assert all("predicted_referents" in r for r in records)
        # every finished game is a dialogue of the corpus, and every markable it
        # predicted for has one speaker-model judgement holding that prediction
        corpus = load_corpus(out / "corpus")
        assert sorted(corpus.dialogues) == ["game00000", "game00001"]
        assert [corpus.dialogues[f"game{i:05d}"].scenario_id for i in range(2)] == [
            r["scenario_id"] for r in records]
        predicted = {mid: refs for r in records for mid, refs in r["predicted_referents"].items()}
        assert set(corpus.markables) == set(predicted)
        assert {mid: [(j.annotator_id, sorted(j.referents)) for j in js]
                for mid, js in corpus.judgements.items()} == {
            mid: [("speaker-model", refs)] for mid, refs in predicted.items()}
        assert json.loads((out / "summary.json").read_text())["config"]["tagger"] == str(tagger_ckpt)

    def test_selfplay_corpus_is_read_by_the_corpus_commands(self, trained, tagger_ckpt, tmp_path, capsys):
        from refgame.render import render_dialogue
        from refgame.tagger import predict_markables

        workdir, split, model = trained
        out = tmp_path / "spr"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--tagger", tagger_ckpt,
            "--shared", "4,5", "--games", "2", "--seed", "3", "--max-utterances", "4",
            "--max-tokens", "8", "--out", out,
        ) == 0
        data = out / "corpus"
        assert run("validate", "--data", data) == 0
        assert run("stats", "--data", data, "--out", tmp_path / "stats.json") == 0
        assert run("aggregate", "--data", data, "--out", tmp_path / "gold.json") == 0
        # render takes the corpus's majority vote: the speaker's prediction
        page = tmp_path / "game0.html"
        assert run("render", "--data", data, "--dialogue", "game00000", "--out", page) == 0
        corpus = load_corpus(data)
        dialogue = corpus.dialogues["game00000"]
        record = json.loads((out / "transcripts.jsonl").read_text().splitlines()[0])
        assert any(record["predicted_referents"].values())
        expected = render_dialogue(dialogue, corpus.scenarios[dialogue.scenario_id],
                                   predict_markables(MarkableTagger.load(tagger_ckpt), [dialogue]),
                                   record["predicted_referents"])
        assert page.read_text() == expected
        # one judgement per markable leaves nothing for agreement to compare
        capsys.readouterr()
        assert run("agreement", "--data", data, "--out", tmp_path / "agr") == 1
        assert "multiply-judged" in json.loads(capsys.readouterr().err)["message"]

    def test_selfplay_tags_each_finished_game_once(self, trained, tagger_ckpt, tmp_path, monkeypatch):
        from refgame import tagger

        calls = []
        real = tagger.predict_markables

        def counted(tagger_, dialogues):
            calls.append([d.id for d in dialogues])
            return real(tagger_, dialogues)

        monkeypatch.setattr(tagger, "predict_markables", counted)
        workdir, split, model = trained
        out = tmp_path / "spt"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--tagger", tagger_ckpt,
            "--shared", "4,5", "--games", "2", "--seed", "4", "--max-utterances", "4",
            "--max-tokens", "8", "--jobs", "1", "--out", out,
        ) == 0
        assert calls == [[f"game{i:05d}"] for i in range(4)]

    def test_selfplay_returns_no_decoder_states_to_the_cli(self, trained, tagger_ckpt, tmp_path,
                                                           monkeypatch):
        from refgame import selfplay

        workdir, split, model = trained
        returned = []

        def recorded(*args, **kwargs):
            result = run_batch(*args, **kwargs)
            returned.append([(t.states is None, t.annotation is not None)
                             for t in result.transcripts])
            return result

        run_batch = selfplay.run_batch
        monkeypatch.setattr(selfplay, "run_batch", recorded)
        for flags in ([], ["--tagger", tagger_ckpt]):
            assert run(
                "selfplay", "--agent", "model", "--model", model, *flags, "--shared", "4,5",
                "--games", "2", "--seed", "4", "--max-utterances", "4", "--max-tokens", "8",
                "--out", tmp_path / f"sp{len(flags)}",
            ) == 0
        assert returned == [[(True, False)] * 4, [(True, True)] * 4]

    def test_selfplay_workers_annotate_from_their_own_play_states(self, trained, tagger_ckpt,
                                                                 tmp_path, monkeypatch):
        from refgame import selfplay
        from refgame.model import GroundingModel

        # 4 games in slices of 2: two slices, so --jobs 2 plays them on the pool,
        # whose forked workers inherit this patch
        monkeypatch.setattr(selfplay, "GAMES_CHUNK", 2)
        real = GroundingModel.ref_probs_at

        def from_play_only(self, examples):
            if any(ex.states is None for ex in examples):
                raise AssertionError("a REF row was not read from the play states")
            return real(self, examples)

        monkeypatch.setattr(GroundingModel, "ref_probs_at", from_play_only)
        workdir, split, model = trained
        out = tmp_path / "sp"
        assert run(
            "selfplay", "--agent", "model", "--model", model, "--tagger", tagger_ckpt,
            "--shared", "4,5", "--games", "2", "--seed", "4", "--max-utterances", "4",
            "--max-tokens", "8", "--jobs", "2", "--out", out,
        ) == 0
        lines = (out / "transcripts.jsonl").read_text().splitlines()
        assert len(lines) == 4 and all("predicted_referents" in json.loads(line) for line in lines)

    def test_selfplay_jobs_match_sequential(self, trained, tagger_ckpt, tmp_path, monkeypatch):
        from refgame import selfplay

        # 6 games in slices of 2, so that two workers each play some
        monkeypatch.setattr(selfplay, "GAMES_CHUNK", 2)
        workdir, split, model = trained
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(
                "selfplay", "--agent", "model", "--model", model, "--tagger", tagger_ckpt,
                "--shared", "4,5", "--games", "3", "--seed", "6", "--max-utterances", "4",
                "--max-tokens", "8", "--jobs", jobs, "--out", out,
            ) == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("transcripts.jsonl", "summary.csv", "corpus/scenarios.json",
                             "corpus/dialogues.json", "corpus/markables.json", "corpus/judgements.json")
            })
        assert outputs[0] == outputs[1]
        assert outputs[0]["transcripts.jsonl"].count(b"predicted_referents") == 6
        # each slice numbers its games from its first game's index in the batch
        for i, line in enumerate(outputs[0]["transcripts.jsonl"].splitlines()):
            assert all(key.startswith(f"game{i:05d}_") for key in json.loads(line)["predicted_referents"])


    def test_selfplay_tagger_without_a_ref_head_fails_before_play(self, data_dir, tagger_ckpt,
                                                                  tmp_path, capsys, monkeypatch):
        from refgame import selfplay
        from refgame.model import GroundingModel, ModelConfig, Vocabulary

        corpus = load_corpus(data_dir)
        vocab = Vocabulary.from_corpus(corpus, sorted(corpus.dialogues))
        config = ModelConfig(variant="TSEL-DIAL", embed_dim=8, hidden_dim=8, attr_dim=4, rel_dim=4,
                             attn_dim=8, mlp_dim=8)
        GroundingModel(config, vocab).save(tmp_path / "tsel_dial")

        def unreachable(*args, **kwargs):
            raise AssertionError("run_batch was reached")

        monkeypatch.setattr(selfplay, "run_batch", unreachable)
        assert run(
            "selfplay", "--agent", "model", "--model", tmp_path / "tsel_dial", "--tagger", tagger_ckpt,
            "--shared", "4", "--games", "2", "--out", tmp_path / "sp",
        ) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "RefgameError"
        assert "REF head" in error["message"] and "TSEL-DIAL" in error["message"]
        assert not (tmp_path / "sp").exists()


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

    def test_render_requires_target(self, data_dir, capsys):
        assert run("render", "--data", data_dir, "--out", "/tmp/x.svg") == 1
        assert "render needs" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("flags,named", [
        (("--scenario", "S", "--dialogue", "D"), "--scenario and --dialogue"),
        (("--dialogue", "D", "--markable", "M"), "--dialogue and --markable"),
        (("--scenario", "S", "--dialogue", "D", "--markable", "M"), "--scenario and --dialogue and --markable"),
        (("--dialogue", "D", "--agent-view", "B"), "--agent-view only with --scenario"),
        (("--markable", "M", "--agent-view", "A"), "--agent-view only with --scenario"),
    ])
    def test_render_refuses_flags_its_mode_does_not_read(self, data_dir, tmp_path, capsys, flags, named):
        corpus = load_corpus(data_dir)
        ids = {"S": min(corpus.scenarios), "D": min(corpus.dialogues), "M": min(corpus.markables)}
        argv = [ids.get(flag, flag) for flag in flags]
        assert run("render", "--data", data_dir, *argv, "--out", tmp_path / "out" / "x.html") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RefgameError" and named in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--dialogue", "--scenario", "--markable"])
    def test_render_unknown_id_names_flag_and_id(self, data_dir, tmp_path, capsys, flag):
        assert run("render", "--data", data_dir, flag, "nope", "--out", tmp_path / "x.svg") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RefgameError"
        assert flag in err["message"] and "'nope'" in err["message"]
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("command", ["generate", "selfplay"])
    def test_bad_shared_item_names_flag_and_item(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--shared", "4,x", "--out", tmp_path / "out")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --shared" in err and "'x'" in err

    @pytest.mark.parametrize("command", ["generate", "selfplay"])
    def test_repeated_shared_count_is_refused(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--shared", "4,4", "--out", tmp_path / "out")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --shared: 4 is repeated in '4,4'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("generate", "--count", "-2"),
    ("selfplay", "--games", "-2"),
    ("selfplay", "--games", "1", "--jobs", "-3"),
    ("selfplay", "--games", "1", "--jobs", "0"),
], ids=["generate-count", "selfplay-games", "selfplay-jobs", "selfplay-zero-jobs"])
def test_negative_counts_report_json_value_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("command,error", [
    ("generate", "IsADirectoryError"), ("selfplay", "NotADirectoryError"),
])
def test_an_out_that_cannot_be_written_reports_json_os_error(tmp_path, capsys, monkeypatch,
                                                             command, error):
    from refgame import selfplay

    def unreachable(*args, **kwargs):
        raise AssertionError("run_batch was reached")

    # generate cannot replace a directory with its file; selfplay refuses a
    # file as its directory before it plays
    monkeypatch.setattr(selfplay, "run_batch", unreachable)
    out = tmp_path / "out"
    if command == "generate":
        out.mkdir()
    else:
        out.write_text("keep")
    assert run(command, "--games" if command == "selfplay" else "--count", "1", "--out", out) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert out.is_dir() if command == "generate" else out.read_text() == "keep"


LIST_FILE = "<a file holding []>"


@pytest.mark.parametrize("argv,error", [
    (("train", "--variant", "FOO"), "ValueError"),
    (("train", "--task", "tagger", "--dtype", "float1000"), "ValueError"),
    (("train", "--dtype", "int64", "--epochs", "1", "--embed-dim", "4", "--hidden-dim", "4"), "ValueError"),
    (("split",), "ValueError"),
    (("train", "--split", LIST_FILE), "SchemaError"),
    (("selfplay", "--agent", "random", "--model", "no-such-model"), "RefgameError"),
    (("selfplay", "--temperature", "nan"), "ValueError"),
    (("selfplay", "--temperature", "inf"), "ValueError"),
], ids=["variant", "tagger-dtype", "int-dtype", "split-too-few", "split-is-list",
        "model-with-scripted-agent", "temperature-nan", "temperature-inf"])
def test_bad_config_values_report_json_error(data_dir, tmp_path, capsys, argv, error):
    list_file = tmp_path / "list.json"
    list_file.write_text("[]\n")
    command, *flags = (list_file if a == LIST_FILE else a for a in argv)
    if command == "selfplay":
        args = (command, "--games", "1", "--out", tmp_path / "sp")
    elif command == "split":
        small = tmp_path / "small"
        save_corpus(make_synthetic_corpus(5, seed=1), small)
        args = (command, "--data", small, "--out", tmp_path / "s.json")
    else:
        split = tmp_path / "split.json"
        assert run("split", "--data", data_dir, "--out", split) == 0
        capsys.readouterr()
        args = (command, "--data", data_dir, "--split", split, "--out", tmp_path / "m", "--quiet")
    # a flag given in argv comes last, so it overrides the defaults above
    assert run(*args, *flags) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("flags,field", [
    (("--task", "tagger", "--epochs", "0"), "epochs"),
    (("--epochs", "0"), "epochs"),
    (("--task", "tagger", "--embed-dim", "0"), "embed_dim"),
    (("--hidden-dim", "-1"), "hidden_dim"),
    (("--batch-size", "0"), "batch_size"),
    (("--task", "tagger", "--batch-size", "0"), "batch_size"),
    (("--dropout", "-0.5"), "dropout"),
    (("--dropout", "1"), "dropout"),
    (("--lr", "nan"), "lr"),
    (("--task", "tagger", "--lr", "0"), "lr"),
], ids=["tagger-epochs", "model-epochs", "tagger-embed-dim", "model-hidden-dim", "model-batch-size",
        "tagger-batch-size", "negative-dropout", "dropout-one", "model-lr-nan", "tagger-lr-zero"])
def test_training_values_that_cannot_run_are_refused(data_dir, tmp_path, capsys, flags, field):
    split = tmp_path / "split.json"
    assert run("split", "--data", data_dir, "--out", split) == 0
    capsys.readouterr()
    assert run("train", "--data", data_dir, "--split", split, "--out", tmp_path / "m", "--quiet", *flags) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValueError" and error["message"].startswith(f"{field} must be")
    # no checkpoint and no log
    assert list(tmp_path.iterdir()) == [split]


@pytest.mark.parametrize("damage", ["unknown-id", "in-train-and-valid", "twice-in-test", "seed-is-str"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_bad_split_file_is_refused(data_dir, trained, tmp_path, capsys, command, damage):
    workdir, split, model = trained
    parts = json.loads(split.read_text())
    if damage == "unknown-id":
        parts["test"].append("nope")
        named = "test dialogue 'nope' is not in the corpus"
    elif damage == "in-train-and-valid":
        parts["valid"] += parts["train"][:3]
        named = f"valid dialogue {parts['train'][0]!r} is listed twice"
    elif damage == "twice-in-test":
        parts["test"].append(parts["test"][0])
        named = f"test dialogue {parts['test'][0]!r} is listed twice"
    else:
        parts["seed"] = "x"
        named = "Split.seed must be int, got 'x'"
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(parts))
    out = tmp_path / "out"
    flags = ("--model", model) if command == "evaluate" else ("--epochs", "1", "--quiet")
    assert run(command, "--data", data_dir, "--split", bad, "--out", out, *flags) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "SchemaError" and error["message"] == f"{bad}: {named}"
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("command,flags", [
    ("train", ("--split", "split.json")),
    ("evaluate", ("--split", "split.json", "--model", "m")),
    ("render", ("--dialogue", "d00000")),
], ids=["train", "evaluate", "render"])
def test_gold_is_not_an_option(data_dir, tmp_path, capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        run(command, "--data", data_dir, *flags, "--gold", "gold.json", "--out", tmp_path / "out")
    assert exc.value.code == 2
    assert "unrecognized arguments: --gold gold.json" in capsys.readouterr().err


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


def test_report_skips_its_own_earlier_bundle(trained, data_dir, tmp_path):
    workdir, split, model = trained
    ev = tmp_path / "ev0"
    run("evaluate", "--data", data_dir, "--split", split, "--model", model, "--out", ev)
    out = ev / "bundle"
    assert run("report", ev, "--out", out) == 0
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert run("report", ev, "--out", out) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first
    assert not (out / "ev0" / "bundle").exists()
    (row,) = json.loads((out / "results_summary.json").read_text())
    assert len(row["seeds"]) == 1


def test_report_keeps_same_named_files_of_each_input(trained, data_dir, tmp_path, capsys):
    workdir, split, model = trained
    inputs = [tmp_path / "ev0", tmp_path / "ev1"]
    for ev in inputs:
        run("evaluate", "--data", data_dir, "--split", split, "--model", model, "--out", ev)
    out = tmp_path / "bundle"
    assert run("report", *inputs, "--out", out) == 0
    index = json.loads((out / "index.json").read_text())["files"]
    assert index == sorted([
        "ev0/grouped_by_referents.csv", "ev0/report.json",
        "ev1/grouped_by_referents.csv", "ev1/report.json",
        "results_summary.csv", "results_summary.json",
    ])
    for ev in inputs:
        for name in ("report.json", "grouped_by_referents.csv"):
            assert (out / ev.name / name).read_bytes() == (ev / name).read_bytes()
    (row,) = json.loads((out / "results_summary.json").read_text())
    assert len(row["seeds"]) == 2

    # two inputs with one basename would share a directory in the bundle
    clash = tmp_path / "other" / "ev0"
    clash.mkdir(parents=True)
    assert run("report", inputs[0], clash, "--out", tmp_path / "bundle2") == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert str(inputs[0]) in message and str(clash) in message
    assert not (tmp_path / "bundle2").exists()


def test_every_json_file_the_cli_writes_is_canonical(data_dir, trained, tagger_ckpt, tmp_path):
    workdir, split, model = trained
    commands = [
        ("generate", "--shared", "4,6", "--count", "2", "--seed", "1", "--out", tmp_path / "scenarios.json"),
        ("stats", "--data", data_dir, "--out", tmp_path / "stats.json"),
        ("agreement", "--data", data_dir, "--out", tmp_path / "agreement", "--min-count", "1"),
        ("aggregate", "--data", data_dir, "--out", tmp_path / "gold.json"),
        ("split", "--data", data_dir, "--seed", "3", "--out", tmp_path / "split.json"),
        ("tag", "--model", tagger_ckpt, "--input", Path(data_dir) / "dialogues.json",
         "--out", tmp_path / "markables.json"),
        ("evaluate", "--data", data_dir, "--split", split, "--model", model, "--out", tmp_path / "eval"),
        ("report", tmp_path / "eval", tmp_path / "agreement", "--out", tmp_path / "bundle"),
        ("selfplay", "--agent", "model", "--model", model, "--shared", "4,5", "--games", "2",
         "--seed", "1", "--max-utterances", "4", "--max-tokens", "8", "--tagger", tagger_ckpt,
         "--out", tmp_path / "selfplay"),
    ]
    for argv in commands:
        assert run(*argv) == 0
    written = {p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in tmp_path.rglob("*.json")}
    assert {
        "scenarios.json", "stats.json", "agreement/agreement.json", "gold.json", "split.json",
        "markables.json", "eval/report.json", "bundle/index.json", "bundle/results_summary.json",
        "selfplay/summary.json", "selfplay/corpus/scenarios.json", "selfplay/corpus/dialogues.json",
        "selfplay/corpus/markables.json", "selfplay/corpus/judgements.json",
    } <= set(written)
    for name, data in written.items():
        assert data == canonical_json(json.loads(data)).encode("utf-8"), name


def canonical_json(value) -> str:
    """A file's canonical text, built from ``json.dumps`` of each top-level
    item of the list or the string-keyed object it holds."""
    one_line = partial(json.dumps, ensure_ascii=False)
    if isinstance(value, list):
        lines, brackets = [one_line(item) for item in value], "[]"
    else:
        lines, brackets = [f"{one_line(key)}: {one_line(item)}" for key, item in value.items()], "{}"
    if not lines:
        return brackets + "\n"
    return brackets[0] + "\n  " + ",\n  ".join(lines) + "\n" + brackets[1] + "\n"


def test_every_readme_walkthrough_command_parses():
    import shlex

    from refgame.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```\n", 2)[1]
    lines = (line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines())
    commands = [shlex.split(line) for line in lines if line]
    assert len(commands) >= 14 and all(argv[0] == "refgame" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README's {' '.join(argv)!r} does not parse")
