"""Span tracing around refgame's layer boundaries, installed from outside the
package by rebinding module and class attributes.

A boundary is one public function or method.  ``Tracer.install`` replaces
every binding of it that a caller can reach: the defining module, each
``refgame`` module that imported it by name, or the class that owns a
method.  ``uninstall`` restores the originals, so the package is untouched
whenever tracing is off.  Spans are kept in memory as
``[name, parent_index, start_ns, end_ns]`` and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (metric prefix, defining module, attribute or Class.method)
BOUNDARIES = (
    ("neural.gru_sequence", "refgame.neural.gru", "gru_sequence"),
    ("neural.gru_sequence_backward", "refgame.neural.gru", "gru_sequence_backward"),
    ("neural.gru_cell", "refgame.neural.gru", "gru_cell"),
    ("neural.kernels.gru_forward", "refgame.neural.kernels", "gru_forward"),
    ("neural.kernels.gru_backward", "refgame.neural.kernels", "gru_backward"),
    ("neural.kernels.crf_alphas", "refgame.neural.kernels", "crf_alphas"),
    ("neural.kernels.crf_betas", "refgame.neural.kernels", "crf_betas"),
    ("neural.kernels.crf_viterbi_path", "refgame.neural.kernels", "crf_viterbi_path"),
    ("neural.crf_nll", "refgame.neural.crf", "crf_nll"),
    ("neural.crf_viterbi", "refgame.neural.crf", "crf_viterbi"),
    ("neural.cross_entropy_rows", "refgame.neural.ops", "cross_entropy_rows"),
    ("neural.Adam.step", "refgame.neural.adam", "Adam.step"),
    ("neural.ParamStore.clip_grad_global_norm", "refgame.neural.params",
     "ParamStore.clip_grad_global_norm"),
    ("model.GroundingModel.run_example", "refgame.model", "GroundingModel.run_example"),
    ("model.GroundingModel.start_state", "refgame.model", "GroundingModel.start_state"),
    ("model.GroundingModel.ref_probs_at", "refgame.model", "GroundingModel.ref_probs_at"),
    ("model.DecoderState.feed", "refgame.model", "DecoderState.feed"),
    ("model.DecoderState.next_token_probs", "refgame.model", "DecoderState.next_token_probs"),
    ("model.DecoderState.tsel_probs", "refgame.model", "DecoderState.tsel_probs"),
    ("model.build_examples", "refgame.model", "build_examples"),
    ("tagger.MarkableTagger.nll", "refgame.tagger", "MarkableTagger.nll"),
    ("tagger.MarkableTagger.decode", "refgame.tagger", "MarkableTagger.decode"),
    ("tagger.predict_markables", "refgame.tagger", "predict_markables"),
    ("tagger.build_tag_examples", "refgame.tagger", "build_tag_examples"),
    ("selfplay.run_game", "refgame.selfplay", "run_game"),
    ("selfplay.ModelAgent.act", "refgame.selfplay", "ModelAgent.act"),
    ("selfplay.ModelAgent.observe", "refgame.selfplay", "ModelAgent.observe"),
    ("selfplay.ModelAgent.reset", "refgame.selfplay", "ModelAgent.reset"),
    ("selfplay.ModelAgent.select", "refgame.selfplay", "ModelAgent.select"),
    ("selfplay.sample_token", "refgame.selfplay", "sample_token"),
    ("selfplay.annotate_transcript", "refgame.selfplay", "annotate_transcript"),
    ("scenario.generate_scenarios", "refgame.scenario", "generate_scenarios"),
    ("scenario.view_feature_matrix", "refgame.scenario", "view_feature_matrix"),
    ("corpus.save_corpus", "refgame.corpus", "save_corpus"),
    ("corpus.load_corpus", "refgame.corpus", "load_corpus"),
    ("corpus.validate_corpus", "refgame.corpus", "validate_corpus"),
    ("corpus.corpus_stats", "refgame.corpus", "corpus_stats"),
    ("corpus.split_dataset", "refgame.corpus", "split_dataset"),
    ("agreement.aggregate_corpus_gold", "refgame.agreement", "aggregate_corpus_gold"),
    ("agreement.referent_agreement", "refgame.agreement", "referent_agreement"),
    ("agreement.agreement_by_referent_count", "refgame.agreement", "agreement_by_referent_count"),
    ("agreement.token_exact_match_correlation", "refgame.agreement",
     "token_exact_match_correlation"),
    ("agreement.color_kde", "refgame.agreement", "color_kde"),
)

PHASE = "phase."


def _bindings(module_name: str, attr: str) -> list[tuple[object, str]]:
    """Every (owner, attribute) through which callers reach the boundary."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(module, cls_name), meth)]
    target = getattr(module, attr)
    owners = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "refgame" or name.startswith("refgame.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is target:
                owners.append((mod, key))
    return owners


class Tracer:
    """Records nested spans for the boundaries in ``BOUNDARIES``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.bindings: dict[str, int] = {}   # boundary -> attributes rebound

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1], clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr in BOUNDARIES:
            owners = _bindings(module_name, attr)
            if not owners:
                raise RuntimeError(f"boundary {name} has no binding to wrap")
            original = getattr(*owners[0])
            wrapped = self._wrap(name, original)
            for owner, key in owners:
                self._saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapped)
            self.bindings[name] = len(owners)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    @contextmanager
    def phase(self, name: str):
        """A benchmark-side root span around one timed phase."""
        record = [PHASE + name, self._stack[-1], time.perf_counter_ns(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def summarize(spans: list[list]) -> tuple[dict[str, list], float]:
    """Per-boundary [calls, self seconds] and the share of phase time that
    top-level wrapped calls cover.  Self time is a span's duration minus the
    durations of the spans directly inside it."""
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list] = {}
    phase_ns = covered_ns = 0
    for i, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        if name.startswith(PHASE):
            phase_ns += duration
            continue
        if parent >= 0 and spans[parent][0].startswith(PHASE):
            covered_ns += duration
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (duration - child_ns[i]) / 1e9
    return out, (covered_ns / phase_ns if phase_ns else 0.0)
