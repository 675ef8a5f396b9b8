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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GenerationError, SchemaError
from .io import atomic_write_json, from_record, read_json, read_list, read_records, read_value

AGENTS = ("A", "B")
SHARED_COUNTS = (4, 5, 6)
COLOR_RANGE = 256.0
VIEW_SIZE = 7
# doubles per rng.random block in generate_scenario; a default-config
# scenario reads about 93
_DRAW_BLOCK = 256


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

    def __post_init__(self) -> None:
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.type == "float"}
        values |= {f"center_distance[{k}]": d for k, d in self.center_distance.items()}
        _require_finite(values)  # first, so that the ranges below are of finite values
        _require_finite({"world_max - world_min": self.world_max - self.world_min,
                         "size_max - size_min": self.size_max - self.size_min})
        if not self.world_min < self.world_max:
            raise ValueError("degenerate world bounds")
        if not 0 < self.size_min < self.size_max:
            raise ValueError("degenerate size range")
        if self.view_radius <= 0 or self.min_separation < 0:
            raise ValueError("radius and separation must be positive")
        if any(d < 0 for d in self.center_distance.values()):
            raise ValueError("center_distance values must be >= 0")
        if self.max_attempts <= 0:
            raise ValueError("max_attempts must be > 0")
        missing = [k for k in SHARED_COUNTS if k not in self.center_distance]
        if missing:
            raise ValueError(f"center_distance missing keys {missing}")


def _require_finite(values: dict) -> None:
    """ValueError naming each of ``values`` that is not finite as a float,
    an int too large for a float included."""
    infinite = []
    for name, value in values.items():
        try:
            if not math.isfinite(value):
                infinite.append(name)
        except OverflowError:
            infinite.append(name)
    if infinite:
        raise ValueError(f"not finite: {', '.join(infinite)}")


DEFAULT_CONFIG = ScenarioConfig()


def load_scenario_config(path) -> ScenarioConfig:
    """The ScenarioConfig a JSON ``--config`` file sets: an object of
    ScenarioConfig fields, with ``center_distance`` keyed by "4"/"5"/"6"
    and merged over the defaults.  An unknown key, a value of the wrong
    JSON type or one that ScenarioConfig rejects raises SchemaError naming
    the file."""
    record = read_json(path)
    try:
        distances = read_value(record, "center_distance", dict, {})
        unknown = set(record) - {f.name for f in fields(ScenarioConfig)}
        unknown |= {f"center_distance.{k}" for k in set(distances) - {str(k) for k in SHARED_COUNTS}}
        if unknown:
            raise SchemaError(f"unknown config keys {sorted(unknown)}")
        merged = DEFAULT_CONFIG.center_distance | {
            int(k): read_value(distances, k, float) for k in distances
        }
        return from_record(ScenarioConfig, record, center_distance=merged)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _inside_view(x: float, y: float, size: float, center: tuple[float, float], radius: float) -> bool:
    # the whole dot disk must lie inside the view circle
    return math.hypot(x - center[0], y - center[1]) + size <= radius


def _place(
    draws: list[float],
    i: int,
    rng: np.random.Generator,
    config: ScenarioConfig,
    inside: tuple[tuple[float, float, float], ...],
    outside: tuple[tuple[float, float, float], ...],
    placed: list[tuple[float, float]],
) -> tuple[int, tuple[float, float, float] | None]:
    """Rejection-sample one dot from the doubles ``draws[i:]``, subject to
    view membership (``inside``/``outside`` hold (cx, cy, radius) circles)
    and pairwise separation from ``placed``.  Each attempt reads size, x, y
    from the next three doubles, extending ``draws`` by a block of
    ``rng.random`` when fewer are left.  Returns the position after the
    last double read, and (x, y, size) or None once ``max_attempts`` fail."""
    lo, span = config.world_min, config.world_max - config.world_min
    size_lo, size_span = config.size_min, config.size_max - config.size_min
    separation = config.min_separation
    hypot = math.hypot
    for _ in range(config.max_attempts):
        if len(draws) - i < 3:
            draws += rng.random(_DRAW_BLOCK).tolist()
        size = size_lo + size_span * draws[i]
        x = lo + span * draws[i + 1]
        y = lo + span * draws[i + 2]
        i += 3
        # the dot disk lies wholly inside each view in `inside`, wholly
        # outside each in `outside`, and keeps its distance from each dot
        for cx, cy, r in inside:
            if not hypot(x - cx, y - cy) + size <= r:
                break
        else:
            for cx, cy, r in outside:
                if not hypot(x - cx, y - cy) - size >= r:
                    break
            else:
                for px, py in placed:
                    if hypot(x - px, y - py) < separation:
                        break
                else:
                    return i, (x, y, size)
    return i, None


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

    ``rng`` must be a PCG64 generator, as ``np.random.default_rng`` makes.
    Each rejection attempt reads size, x, y as ``lo + (hi - lo) * u`` from
    the next three doubles, and then the colours read ``COLOR_RANGE * u``
    from the next one per entity: the values and order of the scalar
    ``rng.uniform`` calls this replaces.  The doubles come from blocks of
    ``rng.random``, and afterwards, also when GenerationError is raised,
    the generator is left where those scalar calls would have left it:
    advanced by the doubles used, any buffered 32-bit value kept.
    """
    if num_shared not in SHARED_COUNTS:
        raise ValueError(f"num_shared must be one of {SHARED_COUNTS}, got {num_shared}")
    d = config.center_distance[num_shared]
    center_a = (-d / 2.0, 0.0)
    center_b = (+d / 2.0, 0.0)
    r = config.view_radius
    circle_a, circle_b = (*center_a, r), (*center_b, r)

    placed: list[tuple[float, float]] = []
    records: list[tuple[float, float, float]] = []
    bits = rng.bit_generator
    saved = bits.state
    draws: list[float] = []
    used = 0
    try:
        for inside, outside, n in (
            ((circle_a, circle_b), (), num_shared),
            ((circle_a,), (circle_b,), VIEW_SIZE - num_shared),
            ((circle_b,), (circle_a,), VIEW_SIZE - num_shared),
        ):
            for _ in range(n):
                used, dot = _place(draws, used, rng, config, inside, outside, placed)
                if dot is None:
                    raise GenerationError(
                        f"could not place an entity after {config.max_attempts} attempts"
                    )
                placed.append(dot[:2])
                records.append(dot)
        if len(draws) - used < len(records):
            draws += rng.random(_DRAW_BLOCK).tolist()
        colors = [COLOR_RANGE * u for u in draws[used:used + len(records)]]
        used += len(records)
    finally:
        # advance() drops a buffered 32-bit value, which doubles never touch
        bits.state = saved
        bits.advance(used)
        bits.state = {**bits.state, "has_uint32": saved["has_uint32"], "uinteger": saved["uinteger"]}
    entities = tuple(
        Entity(id=i, x=x, y=y, size=size, color=c)
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
    seed: int,
) -> list[Scenario]:
    """Generate ``counts[k]`` scenarios per shared count k from independent,
    reproducible rng streams (one spawned stream per scenario).  A negative
    count raises ValueError."""
    negative = {k: n for k, n in counts.items() if n < 0}
    if negative:
        raise ValueError(f"scenario counts must not be negative, got {negative}")
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

def view_feature_matrix(scenario: Scenario, agent: str) -> tuple[np.ndarray, np.ndarray]:
    """Model inputs for one view, rows in canonical ``view.visible`` order.

    ``attrs`` (7, 4) holds each entity's (x, y, size, color) in the
    view-local [-1, 1] frame: position re-centred on the view centre and
    divided by the radius; size and color affinely mapped from their
    ranges.  Sizes are mapped from DEFAULT_CONFIG's range, which the
    importer rescales into, whatever config generated the scenario: a
    size range beyond it gives size features outside [-1, 1] (0.5 to 3.0
    for sizes from 0.05 to 0.1).  The map is invertible given the view.
    ``rel`` (7, 6, 5) holds, for entity i and each other entity j in view
    order, (dx, dy, euclidean distance, dsize, dcolor) on those
    attributes, deltas j - i."""
    view = scenario.view(agent)
    raw = np.array([(e.x, e.y, e.size, e.color) for e in map(scenario.entity, view.visible)])
    size_min, size_max = DEFAULT_CONFIG.size_min, DEFAULT_CONFIG.size_max
    attrs = np.concatenate([
        (raw[:, :2] - view.center) / view.radius,
        2.0 * (raw[:, 2:] - (size_min, 0.0)) / (size_max - size_min, COLOR_RANGE) - 1.0,
    ], axis=1)
    n = len(attrs)
    delta = (attrs[None, :, :] - attrs[:, None, :])[~np.eye(n, dtype=bool)].reshape(n, n - 1, 4)
    # math.hypot per pair: np.hypot can round the last bit differently
    dist = [math.hypot(dx, dy) for dx, dy in delta[..., :2].reshape(-1, 2).tolist()]
    return attrs, np.concatenate(
        [delta[..., :2], np.reshape(dist, (n, n - 1, 1)), delta[..., 2:]], axis=2
    )


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
    """The scenario a record holds.  Raises SchemaError for duplicate entity
    ids, a view that does not list ``VIEW_SIZE`` distinct ids of the
    scenario's entities, or a ``num_shared`` other than the size of the
    two views' overlap."""
    entities = tuple(from_record(Entity, e) for e in read_list(d, "entities", dict))
    ids = {e.id for e in entities}
    if len(ids) != len(entities):
        raise SchemaError("duplicate entity ids")
    views = d.get("views")
    view_a, view_b = (_view_from_dict(views, agent, ids) for agent in AGENTS)
    scenario = from_record(Scenario, d, entities=entities, view_a=view_a, view_b=view_b)
    if scenario.num_shared != len(scenario.shared_ids):
        raise SchemaError(
            f"num_shared is {scenario.num_shared}, but the views share {len(scenario.shared_ids)} entities"
        )
    return scenario


def _view_from_dict(views, agent: str, ids: set[int]) -> View:
    v = views.get(agent) if type(views) is dict else None
    center = read_list(v, "center", float)
    if len(center) != 2:
        raise SchemaError(f"view {agent}: center must hold 2 numbers, got {len(center)}")
    visible = read_list(v, "visible", int)
    if not len(visible) == len(ids.intersection(visible)) == VIEW_SIZE:
        raise SchemaError(
            f"view {agent}: visible must list {VIEW_SIZE} distinct ids of the scenario's entities, "
            f"got {visible!r:.60}"
        )
    return from_record(View, v, agent=agent, center=tuple(center), visible=tuple(visible))


def save_scenarios(scenarios: list[Scenario], path) -> None:
    atomic_write_json(path, [scenario_to_dict(s) for s in scenarios])


def load_scenarios(path) -> list[Scenario]:
    return read_records(path, scenario_from_dict)
