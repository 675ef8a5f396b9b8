from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import refgame
from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import Split, split_dataset
from refgame.errors import DivergenceError, SchemaError
from refgame.model import ModelConfig, train_model
from refgame.neural import ParamStore, fit
from refgame.synth import make_synthetic_corpus
from refgame.tagger import TaggerConfig, train_tagger


def test_fit_stops_after_patience_and_restores_best(tmp_path):
    store = ParamStore(seed=0)
    store.add("w", (2, 2))
    config = SimpleNamespace(lr=0.1, grad_clip=1.0, batch_size=2, epochs=10, patience=2, seed=0)

    def step(batch, rng):
        store.grads["w"] += sum(batch)
        return [1.0] * len(batch)

    scores = iter([3.0, 1.0, 2.0, 2.0, 2.0])
    snapshots = []

    def validate():
        snapshots.append(store.copy_values())
        return next(scores), {"valid_score": len(snapshots)}

    log = tmp_path / "fit.log.jsonl"
    history, best_epoch = fit(
        store, [1.0, -2.0, 0.5], step, validate, config, "train_loss", log_path=log
    )
    assert len(history) == 4
    assert best_epoch == 1
    assert [list(rec) for rec in history] == [
        ["epoch", "train_loss", "grad_norm", "clip_rate", "valid_score", "seconds"]
    ] * 4
    assert np.array_equal(store["w"], snapshots[1]["w"])
    assert not np.array_equal(store["w"], snapshots[3]["w"])
    lines = log.read_text().splitlines()
    assert [json.loads(line) for line in lines] == history


def test_fit_leaves_the_log_of_the_epochs_before_a_divergence(tmp_path):
    store = ParamStore(seed=0)
    store.add("w", (2, 2))
    config = SimpleNamespace(lr=0.1, grad_clip=1.0, batch_size=2, epochs=3, patience=3, seed=0)
    validated = []  # one entry per finished epoch

    def step(batch, rng):
        store.grads["w"] += 1.0
        return [math.nan if validated else 1.0] * len(batch)

    def validate():
        validated.append(True)
        return 1.0, {}

    log = tmp_path / "fit.log.jsonl"
    with pytest.raises(DivergenceError, match="epoch 1"):
        fit(store, [1.0, -2.0, 0.5], step, validate, config, "train_loss", log_path=log)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["epoch"] for r in records] == [0]
    assert records[0]["train_loss"] == 1.0


@pytest.mark.parametrize("empty", ["train", "valid"])
@pytest.mark.parametrize("task", ["model", "tagger"])
def test_empty_split_set_raises_schema_error(task, empty):
    corpus = make_synthetic_corpus(3, seed=4)
    ids = tuple(sorted(corpus.dialogues))
    split = Split(
        train=() if empty == "train" else ids, valid=() if empty == "valid" else ids, test=ids, seed=0
    )
    with pytest.raises(SchemaError, match=f"empty {empty} set"):
        if task == "model":
            cfg = ModelConfig(variant="TSEL", embed_dim=4, hidden_dim=4, attr_dim=2, rel_dim=2,
                              attn_dim=4, mlp_dim=4, epochs=1)
            train_model(cfg, corpus, split, aggregate_corpus_gold(corpus))
        else:
            train_tagger(corpus, split, TaggerConfig(embed_dim=4, hidden_dim=4, epochs=1))


@pytest.mark.parametrize("task", ["model", "tagger"])
def test_epoch_records_gradient_norm_and_clip_rate(task):
    corpus = make_synthetic_corpus(4, seed=6)
    ids = tuple(sorted(corpus.dialogues))
    split = Split(train=ids, valid=ids, test=ids, seed=0)
    if task == "model":
        cfg = ModelConfig(variant="TSEL-REF", embed_dim=6, hidden_dim=6, attr_dim=3, rel_dim=3,
                          attn_dim=5, mlp_dim=5, epochs=3, patience=3, batch_size=3, seed=2)
        train = lambda: train_model(cfg, corpus, split, aggregate_corpus_gold(corpus)).history
    else:
        cfg = TaggerConfig(embed_dim=6, hidden_dim=6, epochs=3, patience=3, batch_size=3, seed=2)
        train = lambda: train_tagger(corpus, split, cfg).history
    history = train()
    assert len(history) == 3
    for rec in history:
        assert np.isfinite(rec["grad_norm"]) and rec["grad_norm"] > 0
        assert 0 <= rec["clip_rate"] <= 1
    strip = lambda hist: [{k: v for k, v in rec.items() if k != "seconds"} for rec in hist]
    assert strip(train()) == strip(history)


def test_clip_rate_counts_clipped_minibatches():
    store = ParamStore(seed=0)
    store.add("w", (1,))
    config = SimpleNamespace(lr=0.0, grad_clip=1.0, batch_size=1, epochs=1, patience=1, seed=0)

    def step(batch, rng):
        store.grads["w"] += sum(batch)
        return [0.0] * len(batch)

    history, _ = fit(store, [0.5, -3.0, 2.0, 1.0], step, lambda: (0.0, {}), config, "loss")
    assert history[0]["grad_norm"] == pytest.approx((0.5 + 3.0 + 2.0 + 1.0) / 4)
    assert history[0]["clip_rate"] == 0.5


TRAIN_AND_SAVE = """
import sys
from refgame.agreement import aggregate_corpus_gold
from refgame.corpus import Split
from refgame.model import ModelConfig, train_model
from refgame.synth import make_synthetic_corpus

corpus = make_synthetic_corpus(4, seed=6)
ids = tuple(sorted(corpus.dialogues))
cfg = ModelConfig(variant="TSEL-REF-DIAL", embed_dim=6, hidden_dim=6, attr_dim=3, rel_dim=3,
                  attn_dim=5, mlp_dim=5, epochs=2, patience=2, batch_size=3, seed=2)
result = train_model(cfg, corpus, Split(ids, ids, ids, 0), aggregate_corpus_gold(corpus))
result.model.save(sys.argv[1])
"""


def test_seeded_training_does_not_depend_on_string_hashing(tmp_path):
    """A variant's heads are a frozenset, whose order follows PYTHONHASHSEED;
    the heads must still run, and their gradients accumulate, in one fixed
    order."""
    src = str(Path(refgame.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    checkpoints = []
    for hash_seed in ("0", "1"):
        prefix = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
        subprocess.run([sys.executable, "-c", TRAIN_AND_SAVE, str(prefix)], env=env,
                       check=True, timeout=300)
        checkpoints.append(prefix.with_suffix(".ckpt").read_bytes())
    assert checkpoints[0] == checkpoints[1]


# Traced memory a paper-size train_model epoch may add above what was live
# when it started.  The parameters, their gradients and Adam's two moments
# come to about 21 MiB and the best-epoch copy to 5 MiB.  One example at a
# time peaked at 26.4 MiB; packing PACK_CHUNK = 8 examples per GRU pass
# peaks at 28.5 MiB, and all 16 of a minibatch at 33.8 MiB.  Running the
# heads once over each 8-example pack, rather than per example, peaked at
# 35.4-40.9 MiB: the pack's DIAL activation and its temporaries sit on top
# of the chunk's GRU cache.  The budget admits the chunked kernel with
# per-example heads and rejects whole-minibatch packs and pack-wide heads,
# which would push the train benchmark's peak_rss_mb past 1.10x the
# one-example form.
EPOCH_MEMORY_BUDGET_MIB = 32.0


def test_paper_size_epoch_stays_inside_its_memory_budget():
    corpus = make_synthetic_corpus(40, seed=3)
    split = split_dataset(corpus, seed=3)
    gold = aggregate_corpus_gold(corpus)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_model(ModelConfig(epochs=1), corpus, split, gold)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / 2**20 < EPOCH_MEMORY_BUDGET_MIB
