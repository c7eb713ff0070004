"""Seeded random planar instance generation.

Maximal planar graphs come from repeated face subdivision of a triangle
(each step drops a fresh vertex into a uniformly random face and joins it
to the three corners), which keeps planarity by construction and always
lands on exactly 3n - 6 edges.  Sparser instances are thinned copies with a
random subset of edges kept and any vertices that end up isolated dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import ColoredGraph

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GroupSpec:
    """One benchmark group: instances on `vertices` vertices thinned to
    `edges` edges."""

    vertices: int
    edges: int
    instances: int = 25

    def __post_init__(self) -> None:
        if self.vertices < 3:
            raise ValueError("need at least 3 vertices")
        if self.instances < 0:
            raise ValueError(f"instance count {self.instances} is negative")
        if not 0 <= self.edges <= 3 * self.vertices - 6:
            raise ValueError(
                f"edge target {self.edges} outside [0, {3 * self.vertices - 6}]"
            )

    @property
    def name(self) -> str:
        return f"{self.vertices}x{self.edges}"


_CANONICAL_SIZES = (
    (302, 900),
    (450, 900),
    (600, 900),
    (2002, 6000),
    (3000, 6000),
    (4000, 6000),
)


def canonical_groups(instances: int = 25) -> tuple:
    """The six standard groups; 25 instances each by default, the full
    historical scale being 100."""
    return tuple(GroupSpec(n, m, instances) for n, m in _CANONICAL_SIZES)


def _mix(*parts: int) -> int:
    """Fold integers into one 64-bit seed (splitmix-style)."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def random_maximal_planar(n: int, seed: int) -> ColoredGraph:
    """Random stacked triangulation on n >= 3 vertices, all black."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    g = ColoredGraph()
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        g.add_vertex(v)
        g.add_edge(v, a)
        g.add_edge(v, b)
        g.add_edge(v, c)
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return g


def thin_to_edges(g: ColoredGraph, m: int, seed: int) -> ColoredGraph:
    """Copy of g with a random m-subset of its edges kept; vertices left
    isolated by the removal are dropped as well."""
    edges = g.edges()
    if m > len(edges):
        raise ValueError(f"cannot keep {m} of {len(edges)} edges")
    rng = random.Random(seed)
    removed = rng.sample(edges, len(edges) - m)
    out = g.copy()
    for u, v in removed:
        out.remove_edge(u, v)
    for v in [x for x in out.adj if not out.adj[x]]:
        out.remove_vertex(v)
    return out


def generate_instance(spec: GroupSpec, index: int, master_seed: int) -> ColoredGraph:
    """Instance `index` of the group under the given master seed."""
    build_seed = _mix(master_seed, spec.vertices, spec.edges, index, 0)
    thin_seed = _mix(master_seed, spec.vertices, spec.edges, index, 1)
    g = random_maximal_planar(spec.vertices, build_seed)
    return thin_to_edges(g, spec.edges, thin_seed)


def generate_group(spec: GroupSpec, master_seed: int):
    """Yield the group's graphs in index order."""
    for i in range(spec.instances):
        yield generate_instance(spec, i, master_seed)
