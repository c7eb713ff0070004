"""Seeded random planar instance generation.

Maximal planar graphs come from repeated face subdivision of a triangle
(each step drops a fresh vertex into a uniformly random face and joins it
to the three corners), which keeps planarity by construction and always
lands on exactly 3n - 6 edges.  Sparser instances keep a random subset of
those edges, and any vertex left with no edge is dropped.

`generate_instance` is the one way to build an instance (`generate_group`
yields them in index order), and it builds each once: the triangulation
records its edges as sorted integer keys u * n + v (u < v), thinning
samples positions in that list, and one loop over the kept keys builds
the adjacency.  That loop indexes a list of the ids and a list of the
neighbour sets, so each id is one int object: the dict key, which every
set holds.  An unthinned group, with 3n - 6 edges, gets the triangulation
itself.

The triangulation keeps its faces in three flat int lists, one per
corner, so there is no tuple per face: besides the neighbour sets, the
objects the cyclic collector tracks are a handful of lists per instance,
not one per vertex.  Each vertex's face is drawn with ``getrandbits`` in
the rejection loop that ``randrange`` runs, so the draws, and with them
the bytes of every instance, are those of ``randrange``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

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


def _stacked_keys(n: int, seed: int) -> list[int]:
    """The edges of a random stacked triangulation on n >= 3 vertices as
    keys u * n + v (u < v), sorted, which is the order of the (u, v)
    pairs.

    Before vertex v is added there are 2v - 4 faces, and face i has the
    corners fa[i], fb[i] and fc[i], so there is no tuple per face.  v's
    face is one draw of ``randrange(2v - 4)`` as the standard library
    makes it: getrandbits of the count's bit length, drawn again while
    it is not below the count."""
    getrandbits = random.Random(seed).getrandbits
    keys = [1, 2, n + 2]  # the triangle 0-1, 0-2, 1-2
    fa, fb, fc = [0, 0], [1, 1], [2, 2]
    for v in range(3, n):
        count = 2 * v - 4
        bits = count.bit_length()
        i = getrandbits(bits)
        while i >= count:
            i = getrandbits(bits)
        a, b, c = fa[i], fb[i], fc[i]
        keys += (a * n + v, b * n + v, c * n + v)
        # face i becomes (a, b, v); (a, c, v) and (b, c, v) are new
        fc[i] = v
        fa += (a, b)
        fb += (c, c)
        fc += (v, v)
    keys.sort()
    return keys


def _kept(keys: list[int], m: int, seed: int):
    """The keys left, in order, after the positions drawn by one
    ``Random(seed).sample`` of len(keys) - m are removed.  sample picks
    positions from the population's length alone, so this removes what
    sampling the keys themselves would.  m is at most len(keys), which
    GroupSpec's edge bound 3n - 6 ensures."""
    keep = bytearray(b"\x01") * len(keys)
    for i in random.Random(seed).sample(range(len(keys)), len(keys) - m):
        keep[i] = 0
    return compress(keys, keep)


def _build(keys, n: int) -> ColoredGraph:
    """The all-black graph of the edges keyed u * n + v, on the ids of
    range(n) that have an edge, in ascending order, with ``_next_id`` n.
    Each id is one int object, the dict key that every set holds."""
    ids = list(range(n))
    sets = [set() for _ in ids]
    for key in keys:
        u, v = divmod(key, n)
        sets[u].add(ids[v])
        sets[v].add(ids[u])
    adj = {v: nv for v, nv in zip(ids, sets) if nv}
    g = ColoredGraph()
    g.adj = adj
    g.black = set(adj)
    g._next_id = n
    return g


def generate_instance(spec: GroupSpec, index: int, master_seed: int) -> ColoredGraph:
    """Instance `index` of the group under the given master seed: the
    stacked triangulation thinned to spec.edges edges, built once."""
    n = spec.vertices
    build_seed = _mix(master_seed, n, spec.edges, index, 0)
    thin_seed = _mix(master_seed, n, spec.edges, index, 1)
    keys = _kept(_stacked_keys(n, build_seed), spec.edges, thin_seed)
    return _build(keys, n)


def generate_group(spec: GroupSpec, master_seed: int):
    """Yield the group's graphs in index order."""
    for i in range(spec.instances):
        yield generate_instance(spec, i, master_seed)
