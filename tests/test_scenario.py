from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refgame.errors import GenerationError
from refgame.scenario import (
    COLOR_RANGE,
    DEFAULT_CONFIG,
    SHARED_COUNTS,
    VIEW_SIZE,
    Entity,
    Scenario,
    ScenarioConfig,
    View,
    _scenario_id,
    generate_scenario,
    generate_scenarios,
    load_scenarios,
    save_scenarios,
    scenario_from_dict,
    scenario_to_dict,
    view_feature_matrix,
)

CFG = ScenarioConfig()


def test_generate_counts_and_intersection():
    rng = np.random.default_rng(42)
    s = generate_scenario(CFG, 4, rng)
    assert len(s.view_a.visible) == 7
    assert len(s.view_b.visible) == 7
    assert len(s.shared_ids) == 4
    assert s.num_shared == 4


def test_generate_rejects_bad_num_shared():
    with pytest.raises(ValueError):
        generate_scenario(CFG, 3, np.random.default_rng(0))


@pytest.mark.parametrize("counts", [{4: -2}, {4: -1, 5: 2, 6: 2}, {6: -3}])
def test_generate_scenarios_rejects_negative_counts(counts):
    with pytest.raises(ValueError, match="must not be negative"):
        generate_scenarios(CFG, counts, seed=0)
    assert len(generate_scenarios(CFG, {4: 0, 5: 1}, seed=0)) == 1


def test_generate_deterministic_given_seed():
    a = generate_scenario(CFG, 6, np.random.default_rng(123))
    b = generate_scenario(CFG, 6, np.random.default_rng(123))
    assert a == b
    assert json.dumps(scenario_to_dict(a)) == json.dumps(scenario_to_dict(b))


def test_generation_failure_when_budget_exhausted():
    tight = ScenarioConfig(max_attempts=1, min_separation=1.5)
    with pytest.raises(GenerationError):
        generate_scenario(tight, 4, np.random.default_rng(0))


def _scalar_place(rng, config, inside, outside, placed):
    """Reference: rejection-sample one dot with three scalar ``rng.uniform``
    calls per attempt, the form the block draws replaced."""
    lo, hi = config.world_min, config.world_max
    for _ in range(config.max_attempts):
        size = float(rng.uniform(config.size_min, config.size_max))
        x = float(rng.uniform(lo, hi))
        y = float(rng.uniform(lo, hi))
        if not all(math.hypot(x - c[0], y - c[1]) + size <= r for c, r in inside):
            continue
        if not all(math.hypot(x - c[0], y - c[1]) - size >= r for c, r in outside):
            continue
        if any(math.hypot(x - px, y - py) < config.min_separation for px, py in placed):
            continue
        return x, y, size
    raise GenerationError(f"could not place an entity after {config.max_attempts} attempts")


def _scalar_scenario(config, num_shared, rng):
    """Reference: ``generate_scenario`` drawing each double with a scalar
    ``rng.uniform`` call and the colours with one ``rng.uniform`` array."""
    d = config.center_distance[num_shared]
    center_a, center_b = (-d / 2.0, 0.0), (+d / 2.0, 0.0)
    r = config.view_radius
    placed, records = [], []
    both = [(center_a, r), (center_b, r)]
    for _ in range(num_shared):
        x, y, size = _scalar_place(rng, config, inside=both, outside=[], placed=placed)
        placed.append((x, y))
        records.append((x, y, size))
    for center, other in ((center_a, center_b), (center_b, center_a)):
        for _ in range(VIEW_SIZE - num_shared):
            x, y, size = _scalar_place(rng, config, inside=[(center, r)], outside=[(other, r)], placed=placed)
            placed.append((x, y))
            records.append((x, y, size))
    colors = rng.uniform(0.0, COLOR_RANGE, size=len(records))
    entities = tuple(
        Entity(id=i, x=x, y=y, size=size, color=float(c))
        for i, ((x, y, size), c) in enumerate(zip(records, colors))
    )

    def view(agent, center):
        vis = [e for e in entities if math.hypot(e.x - center[0], e.y - center[1]) + e.size <= r]
        vis.sort(key=lambda e: (e.y, e.x))
        return View(agent=agent, center=center, radius=r, visible=tuple(e.id for e in vis))

    return Scenario(
        id=_scenario_id(entities, num_shared), entities=entities,
        view_a=view("A", center_a), view_b=view("B", center_b), num_shared=num_shared,
    )


def _rng(seed, buffered):
    """A fresh generator, or one holding a buffered 32-bit value."""
    rng = np.random.default_rng(seed)
    if buffered:
        rng.integers(7)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


def _next_draws(rng):
    return rng.integers(7, size=4).tolist(), rng.random()


@pytest.mark.parametrize("config", [
    CFG,
    ScenarioConfig(min_separation=0.25),
    # about 270 attempts a scenario, so each crosses several blocks
    ScenarioConfig(world_min=-3.0, world_max=3.0, min_separation=0.2),
], ids=["default", "separation-0.25", "many-rejections"])
def test_block_draws_equal_scalar_reference(config):
    for k in SHARED_COUNTS:
        for j in range(1000):
            # every other scenario starts with a buffered 32-bit value
            fast, ref = _rng([k, j], j % 2), _rng([k, j], j % 2)
            assert generate_scenario(config, k, fast) == _scalar_scenario(config, k, ref)
            assert _next_draws(fast) == _next_draws(ref)


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
def test_generation_error_leaves_rng_where_scalar_draws_would(buffered):
    # 100 attempts read 300 doubles, past the first block
    config = ScenarioConfig(max_attempts=100, min_separation=1.5)
    fast, ref = _rng(0, buffered), _rng(0, buffered)
    with pytest.raises(GenerationError, match="after 100 attempts"):
        generate_scenario(config, 4, fast)
    with pytest.raises(GenerationError, match="after 100 attempts"):
        _scalar_scenario(config, 4, ref)
    assert _next_draws(fast) == _next_draws(ref)


def test_scenario_bytes_pinned():
    scenarios = generate_scenarios(DEFAULT_CONFIG, {4: 200, 5: 200, 6: 200}, seed=0)
    payload = json.dumps([scenario_to_dict(s) for s in scenarios]).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "885e3edcae25f4aff31ce43380dc9ffa8792bf1937e15a358ffad62f1311c4e5"
    )


def test_min_separation_over_1000_samples():
    scenarios = generate_scenarios(CFG, {5: 1000}, seed=5)
    worst = math.inf
    for s in scenarios:
        pts = [(e.x, e.y) for e in s.entities]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                worst = min(worst, math.dist(pts[i], pts[j]))
    assert worst >= CFG.min_separation


def test_entities_inside_views_and_privates_outside():
    for seed in range(20):
        s = generate_scenario(CFG, 5, np.random.default_rng(seed))
        for view in (s.view_a, s.view_b):
            other = s.view_b if view.agent == "A" else s.view_a
            for eid in view.visible:
                e = s.entity(eid)
                assert math.dist((e.x, e.y), view.center) + e.size <= view.radius + 1e-12
                if eid not in other.visible:
                    assert math.dist((e.x, e.y), other.center) - e.size >= other.radius - 1e-12


def test_view_order_canonical():
    s = generate_scenario(CFG, 5, np.random.default_rng(9))
    for view in (s.view_a, s.view_b):
        keys = [(s.entity(i).y, s.entity(i).x) for i in view.visible]
        assert keys == sorted(keys)


def _features(entities, center=(0.0, 0.0), radius=1.0):
    """``view_feature_matrix`` of a view that shows ``entities`` in the given
    order."""
    view = View(agent="A", center=center, radius=radius, visible=tuple(e.id for e in entities))
    scenario = Scenario(
        id="s", entities=tuple(entities), view_a=view, view_b=View("B", center, radius, ()),
        num_shared=0,
    )
    return view_feature_matrix(scenario, "A")


def _per_pair_features(scenario, agent):
    """Reference: view features built one entity and one pair at a time,
    the form the array code replaced."""
    view = scenario.view(agent)
    size_min, size_max = DEFAULT_CONFIG.size_min, DEFAULT_CONFIG.size_max

    def normalize(e):
        return np.array([
            (e.x - view.center[0]) / view.radius,
            (e.y - view.center[1]) / view.radius,
            2.0 * (e.size - size_min) / (size_max - size_min) - 1.0,
            2.0 * e.color / COLOR_RANGE - 1.0,
        ])

    def pair(e_i, e_j):
        a, b = normalize(e_i), normalize(e_j)
        dx, dy = b[0] - a[0], b[1] - a[1]
        return np.array([dx, dy, math.hypot(dx, dy), b[2] - a[2], b[3] - a[3]])

    ents = [scenario.entity(i) for i in view.visible]
    attrs = np.stack([normalize(e) for e in ents])
    rel = np.stack([np.stack([pair(ei, ej) for ej in ents if ej is not ei]) for ei in ents])
    return attrs, rel


def test_view_features_equal_per_pair_reference_bitwise():
    scenarios = generate_scenarios(CFG, {4: 170, 5: 170, 6: 170}, seed=17)
    for s in scenarios:
        for agent in ("A", "B"):
            attrs, rel = view_feature_matrix(s, agent)
            ref_attrs, ref_rel = _per_pair_features(s, agent)
            assert attrs.shape == (7, 4) and rel.shape == (7, 6, 5)
            assert attrs.dtype == rel.dtype == np.float64
            assert attrs.tobytes() == ref_attrs.tobytes()
            assert rel.tobytes() == ref_rel.tobytes()


def test_normalize_center_is_origin():
    attrs, _ = _features([Entity(id=1, x=0.3, y=-0.2, size=0.04, color=128.0)], (0.3, -0.2), 0.8)
    assert attrs[0, 0] == pytest.approx(0.0)
    assert attrs[0, 1] == pytest.approx(0.0)


def test_normalize_color_endpoints():
    dark = Entity(id=1, x=0, y=0, size=0.04, color=0.0)
    bright = Entity(id=2, x=0, y=0, size=0.04, color=256.0)
    attrs, _ = _features([dark, bright])
    assert attrs[0, 3] == pytest.approx(-1.0)
    assert attrs[1, 3] == pytest.approx(1.0)


def test_normalize_radius_scaling():
    attrs, _ = _features([Entity(id=1, x=0.1 + 0.25, y=0.2, size=0.04, color=10.0)], (0.1, 0.2), 0.5)
    assert attrs[0, 0] == pytest.approx(0.5)
    assert attrs[0, 1] == pytest.approx(0.0)


@given(
    x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5),
    size=st.floats(0.02, 0.06), color=st.floats(0, 255.99),
)
@settings(max_examples=50, deadline=None)
def test_normalize_is_invertible_affine(x, y, size, color):
    center, radius = (0.1, -0.1), 0.9
    attrs, _ = _features([Entity(id=7, x=x, y=y, size=size, color=color)], center, radius)
    nx, ny, ns, nc = attrs[0]
    assert abs(nx * radius + center[0] - x) < 1e-12
    assert abs(ny * radius + center[1] - y) < 1e-12
    assert abs((ns + 1) / 2 * (CFG.size_max - CFG.size_min) + CFG.size_min - size) < 1e-12
    assert abs((nc + 1) / 2 * 256.0 - color) < 1e-9


def test_pair_features_identical_attributes():
    a = Entity(id=1, x=0.2, y=0.3, size=0.04, color=100.0)
    b = Entity(id=2, x=0.2, y=0.3, size=0.04, color=100.0)
    _, rel = _features([a, b])
    assert rel.shape == (2, 1, 5)
    assert np.allclose(rel, np.zeros((2, 1, 5)))


def test_pair_features_345_triangle():
    a = Entity(id=1, x=0.0, y=0.0, size=0.04, color=100.0)
    b = Entity(id=2, x=0.3, y=0.4, size=0.04, color=100.0)
    _, rel = _features([a, b])
    assert rel[0, 0, 2] == pytest.approx(0.5)


def test_pair_features_antisymmetric_except_distance():
    a = Entity(id=1, x=0.1, y=-0.2, size=0.03, color=40.0)
    b = Entity(id=2, x=-0.4, y=0.5, size=0.055, color=200.0)
    _, rel = _features([a, b])
    ab, ba = rel[0, 0], rel[1, 0]
    assert np.allclose(ab[[0, 1, 3, 4]], -ba[[0, 1, 3, 4]])
    assert ab[2] == pytest.approx(ba[2])


def test_scenario_json_roundtrip(tmp_path):
    scenarios = generate_scenarios(CFG, {4: 2, 5: 2, 6: 2}, seed=3)
    path = tmp_path / "scenarios.json"
    save_scenarios(scenarios, path)
    assert load_scenarios(path) == scenarios


def test_scenario_dict_field_names():
    s = generate_scenario(CFG, 4, np.random.default_rng(1))
    d = scenario_to_dict(s)
    assert set(d) == {"id", "entities", "views", "num_shared"}
    assert set(d["entities"][0]) == {"id", "x", "y", "size", "color"}
    assert set(d["views"]) == {"A", "B"}
    assert set(d["views"]["A"]) == {"center", "radius", "visible"}
    assert scenario_from_dict(d) == s
