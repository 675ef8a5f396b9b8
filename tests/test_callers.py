from __future__ import annotations

import ast
import re
from pathlib import Path

import refgame

SRC = Path(refgame.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# definitions that only tests call, each kept on purpose
TEST_ONLY = {
    # ROADMAP item 3 wires these into the CLI's span-agreement and tagger reports
    "span_agreement",
    "make_span_annotations",
    "MarkableTagger.span_f1",
}

# defaulted parameters that no library call sets, each kept on purpose
UNSET_DEFAULTS = {
    # tests build noise-free corpora with flip_rate=0.0
    "make_synthetic_corpus.flip_rate",
    # the tests' CRF carries start scores; the tagger's does not
    "crf_nll.start",
}


def public_definitions():
    """(qualified name, pattern of a reference) for every public function
    and class of the package and every public method of those classes."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name, rf"(?<!def )(?<!class )\b{node.name}\b"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", rf"\.{sub.name}\b"


def test_every_public_definition_has_a_library_caller():
    # re-exports in __init__.py files are not callers
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted([*SRC.rglob("*.py"), *PERFBENCH.rglob("*.py")])
        if path.name != "__init__.py"
    )
    uncalled = [
        name for name, pattern in public_definitions()
        if name not in TEST_ONLY and not re.search(pattern, text)
    ]
    assert uncalled == []


def library_calls() -> dict[str, list[ast.Call]]:
    """Every call in the package and the benchmark, keyed by the called
    name (a bare function name or a method/attribute name)."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted([*SRC.rglob("*.py"), *PERFBENCH.rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def sets_parameter(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may pass ``name`` by keyword, by ``**``, or (for a
    positional parameter) by position or ``*``."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def test_every_default_is_set_by_some_library_call():
    calls = library_calls()
    unset = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in TEST_ONLY:
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first_default]
            defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            unset += [
                f"{node.name}.{name}" for name, position in defaulted
                if not any(sets_parameter(c, name, position) for c in calls.get(node.name, []))
            ]
    assert sorted(unset) == sorted(UNSET_DEFAULTS)
