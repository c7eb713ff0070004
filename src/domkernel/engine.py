"""Fixed-point kernelization driver over the rule tiers.

Tier 1 is the six simple rules run to exhaustion; tier 2 the single-vertex
neighborhood rule; tier 3 the pair rule; tier 4 the sparsity reduction.
Any success at a higher tier falls back to tier 1, so expensive scans only
ever run on graphs the cheap rules cannot shrink further.  Within a run,
tiers 1 to 3 revisit only what changed since they last looked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import cached_property

from .alber import apply_alber_pair_first, apply_alber_single_first
from .graph import Instance, Touched
from .simple_rules import STAT_NAMES, apply_simple_exhaustively
from .sparsity import sparsity_reduce

ALBER_MODES = ("none", "one", "both")

ATTEMPT_LIMIT = 10_000_000

STAT_KEYS = STAT_NAMES + (
    "alber_single",
    "alber_pair",
    "alber_pair_gadget",
    "sparsity_whitened",
    "sparsity_passes",
    "sparsity_scatter_calls",
)


@dataclass(frozen=True)
class ApproachConfig:
    """Which optional rule families run on top of the simple rules."""

    sparsity: bool = False
    alber: str = "none"

    def __post_init__(self) -> None:
        if self.alber not in ALBER_MODES:
            raise ValueError(f"alber mode must be one of {ALBER_MODES}")

    @property
    def name(self) -> str:
        return f"{'on' if self.sparsity else 'off'}.{self.alber}"

    @property
    def tiers(self) -> tuple:
        """Tier 1, then the higher tiers in firing order.  Read from this
        module's attributes on every call, so a wrapper assigned to one of
        them is the one that runs."""
        alber = (apply_alber_single_first, apply_alber_pair_first)
        return (
            (apply_simple_exhaustively,)
            + alber[: ALBER_MODES.index(self.alber)]
            + ((sparsity_reduce,) if self.sparsity else ())
        )

    @cached_property
    def prefix(self) -> "ApproachConfig | None":
        """The configuration whose ``tiers`` are this one's minus its last:
        ``on.X`` -> ``off.X``, ``off.both`` -> ``off.one`` -> ``off.none``,
        and ``off.none`` has none.  A run of this configuration is the
        prefix's run up to its first call of the tier the prefix lacks.
        Found once per object: a wrapper assigned to a tier name stands
        for that tier in every configuration's ``tiers`` alike, so the
        answer never changes."""
        want = self.tiers[:-1]
        return next((c for c in ALL_CONFIGS if c.tiers == want), None)

    @classmethod
    def from_name(cls, name: str) -> "ApproachConfig":
        """The member of ``ALL_CONFIGS`` with this name."""
        for config in ALL_CONFIGS:
            if config.name == name:
                return config
        raise ValueError(f"unknown configuration name {name!r}")


ALL_CONFIGS = tuple(
    ApproachConfig(sparsity=s, alber=a)
    for s in (False, True)
    for a in ALBER_MODES
)


@dataclass(frozen=True)
class KernelReport:
    """Outcome of one kernelization run."""

    config: str
    initial_vertices: int
    initial_edges: int
    final_vertices: int
    final_edges: int
    solution_size: int
    fully_solved: bool
    attempts: int
    elapsed_seconds: float
    rule_applications: dict = field(default_factory=dict)

    @property
    def remaining_vertex_fraction(self) -> float:
        if self.initial_vertices == 0:
            return 0.0
        return self.final_vertices / self.initial_vertices

    @property
    def remaining_edge_fraction(self) -> float:
        if self.initial_edges == 0:
            return 0.0
        return self.final_edges / self.initial_edges

    def to_dict(self) -> dict:
        # Shallow: every field but rule_applications, rebuilt below, is
        # immutable.
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rule_applications"] = dict(sorted(self.rule_applications.items()))
        out["remaining_vertex_fraction"] = self.remaining_vertex_fraction
        out["remaining_edge_fraction"] = self.remaining_edge_fraction
        return out


def kernelize(
    inst: Instance,
    config: ApproachConfig = ApproachConfig(),
    after: KernelReport | None = None,
) -> KernelReport:
    """Reduce the instance in place to a fixed point of the configured rule
    families and report what happened.  Deterministic for a given input and
    configuration; elapsed time is the only field that varies.

    The loop walks ``config.tiers`` from tier 1, which always passes on to
    the next tier.  A higher tier that reduces anything sends the loop back
    to tier 1, one that fails passes on, and the run ends past the last
    tier.  ``attempts`` counts 1 per tier call plus tier 1's firings; the
    cycling guard checks it after every tier call.

    ``after`` continues a run of ``config.prefix``: it is that run's report,
    and ``inst`` a copy of the kernel it left (``Instance.copy`` carries the
    solution and stats).  No tier of the prefix reduces that kernel, so the
    loop starts at the last tier, the one the prefix lacks.  The initial
    counts, ``attempts`` and the elapsed time continue from ``after``, so
    the report equals a run from the input.  Any other ``after``, or any
    ``after`` for ``off.none``, raises ValueError.

    Higher tiers revisit only what changed.  The run keeps one `Touched`
    log, which every tier call gets, and this invariant holds: each
    vertex whose adjacency or colour changed after a reading tier last
    looked is in the log past that look.  Each tier adds its own
    changes: tier 1 the vertices each firing changed, once a higher tier
    has looked; the single tier the centre it takes and its neighbours;
    the pair tier v, w and their neighbourhoods, which hold the whitened
    shell and the gadget's two new vertices; tier 4 the vertices it
    whitens.  Tier 1 then re-seeds, and the Alber tiers resume their
    scans at, only N[changes] (see `Touched`), and tier 4 scans
    everything.  A tier that has not looked gets every vertex from
    `Touched.near` and scans everything.  A continued run's first call,
    to the tier the prefix lacks, scans everything; after it, every tier
    that has not looked counts as having looked at the run's start, since
    the kernel was the fixed point of the prefix's tiers.
    """
    tiers = config.tiers
    g = inst.graph
    start = time.perf_counter()
    if after is None:
        initial_vertices = g.vertex_count
        initial_edges = g.edge_count
        attempts = i = 0
    else:
        prefix = getattr(config.prefix, "name", None)
        if after.config != prefix:
            raise ValueError(
                f"{config.name} continues {prefix or 'no run'};"
                f" after is from {after.config}"
            )
        initial_vertices = after.initial_vertices
        initial_edges = after.initial_edges
        attempts = after.attempts
        start -= after.elapsed_seconds
        i = len(tiers) - 1
    touched = Touched()
    while i < len(tiers):
        reduced = tiers[i](inst, touched=touched)
        if after is not None:
            touched.looked_at_start()
        attempts += 1 + (reduced if i == 0 else 0)
        i = 0 if i and reduced else i + 1
        if attempts > ATTEMPT_LIMIT:
            raise RuntimeError("rule attempt limit exceeded; cycling suspected")
    applications = {k: inst.stats.get(k, 0) for k in STAT_KEYS}
    return KernelReport(
        config=config.name,
        initial_vertices=initial_vertices,
        initial_edges=initial_edges,
        final_vertices=g.vertex_count,
        final_edges=g.edge_count,
        solution_size=len(inst.solution),
        fully_solved=g.vertex_count == 0,
        attempts=attempts,
        elapsed_seconds=time.perf_counter() - start,
        rule_applications=applications,
    )
