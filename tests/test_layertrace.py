"""The benchmark's layer tracer (perfbench/layertrace.py) rebinds refgame
functions and methods by name, so renaming one of them must fail here."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402


def _refgame_attributes() -> dict[tuple, object]:
    """Every attribute of every loaded refgame module and of the classes it
    defines."""
    out: dict[tuple, object] = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "refgame" or name.startswith("refgame.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_boundary_and_uninstall_restores():
    for _, module_name, _ in layertrace.BOUNDARIES:
        importlib.import_module(module_name)
    before = _refgame_attributes()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert len(layertrace.BOUNDARIES) == 43
        assert set(tracer.bindings) == {name for name, _, _ in layertrace.BOUNDARIES}
        for _, module_name, attr in layertrace.BOUNDARIES:
            assert hasattr(_resolve(module_name, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    after = _refgame_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
