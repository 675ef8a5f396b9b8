"""World model and generation of collaborative-referring-game scenarios.

A scenario is a small 2-D world of gray dots plus two circular player views
(agents "A" and "B"), each containing exactly 7 dots, of which a controlled
number (4, 5 or 6) are shared between the views.  Dot attributes are all
continuous: position, size and a grayscale color in [0, 256).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, SchemaError

AGENTS = ("A", "B")
SHARED_COUNTS = (4, 5, 6)
COLOR_RANGE = 256.0
VIEW_SIZE = 7


@dataclass(frozen=True)
class Entity:
    """One dot: unique id plus continuous attributes in world units."""

    id: int
    x: float
    y: float
    size: float
    color: float


@dataclass(frozen=True)
class View:
    """One player's circular window onto the world.

    ``visible`` is the canonical ordering of the 7 visible entity ids
    (sorted by (y, x)); model entity indices follow this order.
    """

    agent: str
    center: tuple[float, float]
    radius: float
    visible: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    id: str
    entities: tuple[Entity, ...]
    view_a: View
    view_b: View
    num_shared: int

    def entity(self, entity_id: int) -> Entity:
        for e in self.entities:
            if e.id == entity_id:
                return e
        raise KeyError(f"no entity {entity_id} in scenario {self.id}")

    def view(self, agent: str) -> View:
        if agent == "A":
            return self.view_a
        if agent == "B":
            return self.view_b
        raise KeyError(f"unknown agent {agent!r}")

    @property
    def shared_ids(self) -> frozenset[int]:
        return frozenset(self.view_a.visible) & frozenset(self.view_b.visible)


@dataclass(frozen=True)
class ScenarioConfig:
    """Generation parameters.

    The per-k view-center distances shrink as the number of shared dots
    grows (a closer pair of circles has a larger overlap lens).  Defaults
    keep rejection sampling under ~100 attempts per entity.
    """

    world_min: float = -1.0
    world_max: float = 1.0
    view_radius: float = 1.0
    center_distance: dict[int, float] = field(
        default_factory=lambda: {4: 1.0, 5: 0.75, 6: 0.5}
    )
    size_min: float = 0.02
    size_max: float = 0.06
    min_separation: float = 0.08
    max_attempts: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.world_min < self.world_max:
            raise ValueError("degenerate world bounds")
        if not 0 < self.size_min < self.size_max:
            raise ValueError("degenerate size range")
        if self.view_radius <= 0 or self.min_separation < 0:
            raise ValueError("radius and separation must be positive")
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be > 0")
        missing = [k for k in SHARED_COUNTS if k not in self.center_distance]
        if missing:
            raise ValueError(f"center_distance missing keys {missing}")


DEFAULT_CONFIG = ScenarioConfig()


def _inside_view(x: float, y: float, size: float, center: tuple[float, float], radius: float) -> bool:
    # the whole dot disk must lie inside the view circle
    return math.hypot(x - center[0], y - center[1]) + size <= radius


def _outside_view(x: float, y: float, size: float, center: tuple[float, float], radius: float) -> bool:
    # the whole dot disk must lie outside the other player's circle
    return math.hypot(x - center[0], y - center[1]) - size >= radius


def _place(
    rng: np.random.Generator,
    config: ScenarioConfig,
    inside: list[tuple[tuple[float, float], float]],
    outside: list[tuple[tuple[float, float], float]],
    placed: list[tuple[float, float]],
) -> tuple[float, float, float]:
    """Rejection-sample one dot position/size subject to view membership and
    pairwise separation constraints."""
    lo, hi = config.world_min, config.world_max
    for _ in range(config.max_attempts):
        size = float(rng.uniform(config.size_min, config.size_max))
        x = float(rng.uniform(lo, hi))
        y = float(rng.uniform(lo, hi))
        if not all(_inside_view(x, y, size, c, r) for c, r in inside):
            continue
        if not all(_outside_view(x, y, size, c, r) for c, r in outside):
            continue
        if any(math.hypot(x - px, y - py) < config.min_separation for px, py in placed):
            continue
        return x, y, size
    raise GenerationError(
        f"could not place an entity after {config.max_attempts} attempts"
    )


def _scenario_id(entities: tuple[Entity, ...], num_shared: int) -> str:
    payload = json.dumps(
        [[e.id, e.x, e.y, e.size, e.color] for e in entities] + [num_shared],
        separators=(",", ":"),
    )
    return "s" + hashlib.blake2b(payload.encode(), digest_size=6).hexdigest()


def generate_scenario(
    config: ScenarioConfig,
    num_shared: int,
    rng: np.random.Generator,
) -> Scenario:
    """Generate one scenario with exactly ``num_shared`` entities in common.

    Construction guarantees the intersection count: the shared dots are
    sampled in the lens where both view circles overlap, then each player's
    private dots inside their own circle but fully outside the other's.
    Deterministic for a given rng state; raises GenerationError if the
    rejection budget is exhausted.
    """
    if num_shared not in SHARED_COUNTS:
        raise ValueError(f"num_shared must be one of {SHARED_COUNTS}, got {num_shared}")
    d = config.center_distance[num_shared]
    center_a = (-d / 2.0, 0.0)
    center_b = (+d / 2.0, 0.0)
    r = config.view_radius

    placed: list[tuple[float, float]] = []
    records: list[tuple[float, float, float]] = []
    both = [(center_a, r), (center_b, r)]
    for _ in range(num_shared):
        x, y, size = _place(rng, config, inside=both, outside=[], placed=placed)
        placed.append((x, y))
        records.append((x, y, size))
    for center, other in ((center_a, center_b), (center_b, center_a)):
        for _ in range(VIEW_SIZE - num_shared):
            x, y, size = _place(
                rng, config,
                inside=[(center, r)], outside=[(other, r)], placed=placed,
            )
            placed.append((x, y))
            records.append((x, y, size))

    colors = rng.uniform(0.0, COLOR_RANGE, size=len(records))
    entities = tuple(
        Entity(id=i, x=x, y=y, size=size, color=float(c))
        for i, ((x, y, size), c) in enumerate(zip(records, colors))
    )

    def visible_ids(center: tuple[float, float]) -> tuple[int, ...]:
        vis = [e for e in entities if _inside_view(e.x, e.y, e.size, center, r)]
        vis.sort(key=lambda e: (e.y, e.x))
        return tuple(e.id for e in vis)

    view_a = View(agent="A", center=center_a, radius=r, visible=visible_ids(center_a))
    view_b = View(agent="B", center=center_b, radius=r, visible=visible_ids(center_b))
    if len(view_a.visible) != VIEW_SIZE or len(view_b.visible) != VIEW_SIZE:
        raise GenerationError("constructed views do not contain exactly 7 entities")
    scenario = Scenario(
        id=_scenario_id(entities, num_shared),
        entities=entities,
        view_a=view_a,
        view_b=view_b,
        num_shared=num_shared,
    )
    assert len(scenario.shared_ids) == num_shared
    return scenario


def generate_scenarios(
    config: ScenarioConfig,
    counts: dict[int, int],
    seed: int | None = None,
) -> list[Scenario]:
    """Generate ``counts[k]`` scenarios per shared count k from independent,
    reproducible rng streams (one spawned stream per scenario)."""
    if seed is None:
        seed = config.seed
    total = sum(counts.values())
    streams = np.random.SeedSequence(seed).spawn(total)
    out: list[Scenario] = []
    i = 0
    for k in sorted(counts):
        for _ in range(counts[k]):
            out.append(generate_scenario(config, k, np.random.default_rng(streams[i])))
            i += 1
    return out


# --- attribute conditioning for the models -------------------------------

def normalize_entity(e: Entity, view: View) -> np.ndarray:
    """Map an entity's attributes into the view-local [-1, 1] frame.

    Position is re-centered on the view center and divided by the radius;
    size (in DEFAULT_CONFIG's range, which the importer rescales into) and
    color are affine maps of their ranges onto [-1, 1].  The map is
    invertible given the view.  Raises if the entity is not visible.
    """
    if e.id not in view.visible:
        raise ValueError(f"entity {e.id} not visible in view {view.agent}")
    nx = (e.x - view.center[0]) / view.radius
    ny = (e.y - view.center[1]) / view.radius
    size_min, size_max = DEFAULT_CONFIG.size_min, DEFAULT_CONFIG.size_max
    nsize = 2.0 * (e.size - size_min) / (size_max - size_min) - 1.0
    ncolor = 2.0 * e.color / COLOR_RANGE - 1.0
    return np.array([nx, ny, nsize, ncolor], dtype=np.float64)


def pair_features(e_i: Entity, e_j: Entity, view: View) -> np.ndarray:
    """Relational features of entity j relative to entity i, on normalized
    attributes: (dx, dy, euclidean distance, dsize, dcolor), deltas j - i."""
    if e_i.id == e_j.id:
        raise ValueError(f"pair_features of entity {e_i.id} with itself")
    a = normalize_entity(e_i, view)
    b = normalize_entity(e_j, view)
    dx, dy = b[0] - a[0], b[1] - a[1]
    return np.array(
        [dx, dy, math.hypot(dx, dy), b[2] - a[2], b[3] - a[3]], dtype=np.float64
    )


def view_feature_matrix(scenario: Scenario, agent: str) -> tuple[np.ndarray, np.ndarray]:
    """Stacked model inputs for one view: (7, 4) normalized attributes and
    (7, 6, 5) pairwise relational features in canonical visible order."""
    view = scenario.view(agent)
    ents = [scenario.entity(i) for i in view.visible]
    attrs = np.stack([normalize_entity(e, view) for e in ents])
    rel = np.zeros((VIEW_SIZE, VIEW_SIZE - 1, 5), dtype=np.float64)
    for i, ei in enumerate(ents):
        col = 0
        for j, ej in enumerate(ents):
            if i == j:
                continue
            rel[i, col] = pair_features(ei, ej, view)
            col += 1
    return attrs, rel


# --- canonical JSON schema ------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    return {
        "id": s.id,
        "entities": [
            {"id": e.id, "x": e.x, "y": e.y, "size": e.size, "color": e.color}
            for e in s.entities
        ],
        "views": {
            v.agent: {
                "center": [v.center[0], v.center[1]],
                "radius": v.radius,
                "visible": list(v.visible),
            }
            for v in (s.view_a, s.view_b)
        },
        "num_shared": s.num_shared,
    }


def scenario_from_dict(d: dict) -> Scenario:
    try:
        entities = tuple(
            Entity(
                id=int(e["id"]), x=float(e["x"]), y=float(e["y"]),
                size=float(e["size"]), color=float(e["color"]),
            )
            for e in d["entities"]
        )
        views = {}
        for agent in AGENTS:
            v = d["views"][agent]
            views[agent] = View(
                agent=agent,
                center=(float(v["center"][0]), float(v["center"][1])),
                radius=float(v["radius"]),
                visible=tuple(int(i) for i in v["visible"]),
            )
        return Scenario(
            id=str(d["id"]),
            entities=entities,
            view_a=views["A"],
            view_b=views["B"],
            num_shared=int(d["num_shared"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed scenario record: {exc}") from exc


def save_scenarios(scenarios: list[Scenario], path) -> None:
    from .io import atomic_write_json

    atomic_write_json(path, [scenario_to_dict(s) for s in scenarios])


def load_scenarios(path) -> list[Scenario]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise SchemaError("scenarios file must hold a JSON list")
    return [scenario_from_dict(d) for d in data]
