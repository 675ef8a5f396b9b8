from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import refgame

SRC = Path(refgame.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

# definitions that only tests call, each kept on purpose
TEST_ONLY = {
    # ROADMAP item 3 wires these into the CLI's span-agreement report
    "span_agreement",
    "make_span_annotations",
}

# defaulted parameters that no library call sets, each kept on purpose
UNSET_DEFAULTS = {
    # tests build noise-free corpora with flip_rate=0.0
    "make_synthetic_corpus.flip_rate",
}


def parsed(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]


def library_trees() -> list[ast.Module]:
    """The parsed modules of the package and the benchmark."""
    return parsed([*SRC.rglob("*.py"), *PERFBENCH.rglob("*.py")])


def public_definitions(trees):
    """(qualified name, whether a method) for every public function and
    class of ``trees`` and every public method of those classes."""
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", True


def private_definitions(trees):
    """(qualified name, whether a method) for every private function,
    class and method (``_name``, not a dunder) of ``trees``, at any depth."""
    def visit(node):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and sub.name.startswith("_") \
                    and not sub.name.endswith("__"):
                method = isinstance(node, ast.ClassDef) and isinstance(sub, ast.FunctionDef)
                yield (f"{node.name}.{sub.name}" if method else sub.name), method
            yield from visit(sub)

    for tree in trees:
        yield from visit(tree)


def uncalled(definitions, trees) -> list[str]:
    """The definitions that no code in ``trees`` reads: a function or class
    by a bare name or an attribute, a method by an attribute.  A mention in
    a docstring or a comment, an import and an assignment are not reads."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return [
        name for name, method in definitions
        if name.rpartition(".")[2] not in attributes and (method or name not in names)
    ]


def test_every_public_definition_has_a_library_caller():
    # re-exports in __init__.py files import names, which is not a read
    definitions = public_definitions(parsed(SRC.rglob("*.py")))
    # an exemption whose definition gained a library caller fails too
    assert set(uncalled(definitions, library_trees())) == TEST_ONLY


def test_every_private_definition_has_a_library_reader():
    # a helper that a refactor leaves behind has no reader left
    assert uncalled(private_definitions(parsed(SRC.rglob("*.py"))), library_trees()) == []


def test_a_private_definition_without_a_reader_is_found():
    tree = ast.parse(textwrap.dedent('''
        class _Cache:
            def __init__(self):
                self._fill()

            def _fill(self):
                pass

            def _stale(self):
                pass

        def _left_behind():
            def _inner():
                pass

        _Cache()
    '''))
    assert uncalled(private_definitions([tree]), [tree]) == ["_Cache._stale", "_left_behind", "_inner"]


def test_a_docstring_or_comment_mention_is_not_a_caller():
    tree = ast.parse(textwrap.dedent('''
        class Model:
            def fit(self):
                """Unlike predict, which only this docstring names."""

            def predict(self):
                pass

        def train():
            """Calls helper() -- in words only."""
            # helper()
            Model().fit()

        def helper():
            pass

        train()
    '''))
    assert uncalled(public_definitions([tree]), [tree]) == ["Model.predict", "helper"]


def called_name(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, keyed by the called name (a bare function
    name or a method/attribute name).  ``partial(f, *args, **kwargs)``
    counts as a call of ``f`` with ``args`` and ``kwargs`` as well."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            calls.setdefault(called_name(node), []).append(node)
            if called_name(node) == "partial" and node.args and not isinstance(node.args[0], ast.Starred):
                bound = ast.Call(func=node.args[0], args=node.args[1:], keywords=node.keywords)
                calls.setdefault(called_name(bound), []).append(bound)
    return calls


def sets_parameter(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether a call may pass ``name`` by keyword, by ``**``, or (for a
    positional parameter) by position or ``*``."""
    if any(k.arg in (None, name) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def defaulted_parameters(trees):
    """(called name, qualified parameter name, position in a call or None)
    for each defaulted parameter of a public function, of a public method
    and of a public class's ``__init__`` (called by the class's name).  A
    method's positions skip its ``self`` or ``cls``, unless it is a
    staticmethod."""
    functions = []  # (called name, qualified name, definition, leading parameters a call skips)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.append((node.name, node.name, node, 0))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and (sub.name == "__init__" or not sub.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in sub.decorator_list)
                        called = node.name if sub.name == "__init__" else sub.name
                        functions.append((called, f"{node.name}.{sub.name}", sub, 0 if static else 1))
    for called, qualified, function, skipped in functions:
        args = function.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for i, p in enumerate(positional[first_default:], first_default):
            yield called, f"{qualified}.{p.arg}", i - skipped
        for p, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield called, f"{qualified}.{p.arg}", None


def unset_defaults(definition_trees, call_trees) -> list[str]:
    """The defaulted parameters of ``definition_trees`` (see
    ``defaulted_parameters``) that no call in ``call_trees`` may set."""
    calls = calls_by_name(call_trees)
    return [
        qualified for called, qualified, position in defaulted_parameters(definition_trees)
        if not any(sets_parameter(c, qualified.rpartition(".")[2], position) for c in calls.get(called, []))
    ]


def test_every_default_is_set_by_some_library_call():
    unset = unset_defaults(parsed(SRC.rglob("*.py")), library_trees())
    assert sorted(n for n in unset if n.partition(".")[0] not in TEST_ONLY) == sorted(UNSET_DEFAULTS)


def test_a_default_set_through_partial_or_a_method_call_is_found():
    tree = ast.parse(textwrap.dedent('''
        from functools import partial

        class Agent:
            def __init__(self, model, temperature=1.0, keep=True, log=None):
                pass

            def act(self, greedy=False, limit=5):
                pass

            @staticmethod
            def build(size=1):
                pass

            def _hidden(self, flag=False):
                pass

        def play(rounds=3, *, quiet=False):
            agent = partial(Agent, "model", 0.5, log=[])()
            agent.act(True)
            Agent.build(2)

        play(quiet=True)
    '''))
    # partial's first argument is the callee, so 0.5 is the temperature, not keep
    assert unset_defaults([tree], [tree]) == ["Agent.__init__.keep", "Agent.act.limit", "play.rounds"]
