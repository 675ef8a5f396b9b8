from __future__ import annotations

import ast
import re
from pathlib import Path

import refgame

SRC = Path(refgame.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# definitions that only tests call, each kept on purpose
TEST_ONLY = {
    # the ROADMAP keeps the finite-difference gradient checks
    "gradient_check",
    "GradCheckReport.ok",
    # ROADMAP item 7 wires these into the CLI's span-agreement and tagger reports
    "span_agreement",
    "make_span_annotations",
    "MarkableTagger.span_f1",
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
