"""The one system every entry point runs: :class:`World` and :func:`build_world`.

The paper's model is a single system — ``n`` nodes, a fixed set of at
most ``f < n/3`` Byzantine ids chosen by the adversary, and a shared
coin environment.  The lock-step :class:`~repro.net.simulator.Simulation`,
the event-driven :class:`~repro.net.events.ContinuousSimulation`, the
live :func:`~repro.runtime.runner.run_runtime` and every cluster worker
differ only in how they *execute* that system, so they all get it from
:func:`build_world`, the single owner of the stream discipline:

1. one :class:`~repro.net.rng.SeedSequence` from the master seed;
2. the ``"env"`` seed for the shared :class:`Environment`;
3. the ``"adversary"`` stream, consumed by
   :meth:`~repro.adversary.base.Adversary.select_faulty` then
   :meth:`~repro.adversary.base.Adversary.setup`, in that order;
4. one honest :class:`Node` tower per correct id, ascending, each with
   its ``("node", i)`` stream;
5. the ``"faults"`` stream for transient faults (scrambles, churn
   recovery, phantoms).

Extra keyed seeds (``"link"``, ``"timing"``) are derived by the callers
that need them from :attr:`World.seeds`; keyed derivation means they
cannot disturb the streams above.  Because every engine builds its
system here, runtime ≡ simulator ≡ cluster ≡ event engine at zero drift
holds by construction — the differential suites pin the execution, not
the construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.errors import ConfigurationError, check_resilience
from repro.net.component import Component
from repro.net.environment import Environment
from repro.net.node import Node
from repro.net.rng import SeedSequence

if TYPE_CHECKING:  # pragma: no cover - break import cycle, typing only
    from repro.adversary.base import Adversary

__all__ = ["World", "build_world"]


@dataclass(frozen=True)
class World:
    """One constructed system: sizes, streams, fault set and towers.

    ``nodes`` maps every honest id (ascending) to its tower; faulty ids
    have no :class:`Node` — the adversary speaks for them.
    """

    n: int
    f: int
    seed: int
    seeds: SeedSequence
    env: Environment
    adversary: "Adversary | None"
    adversary_rng: random.Random
    faulty_ids: frozenset[int]
    honest_ids: list[int]
    nodes: dict[int, Node]
    fault_rng: random.Random

    def honest_targets(self, node_ids: "Iterable[int] | None") -> list[int]:
        """``node_ids`` as a list (default: every honest id, ascending),
        rejecting any id that is not honest — faulty nodes have no state
        a transient fault could strike."""
        if node_ids is None:
            return list(self.honest_ids)
        targets = list(node_ids)
        unknown = sorted(i for i in targets if i not in self.nodes)
        if unknown:
            raise ConfigurationError(
                f"cannot scramble node ids {unknown}: not in the honest "
                f"set {self.honest_ids} (faulty nodes have no state — "
                "the adversary speaks for them)"
            )
        return targets

    def scramble(self, node_ids: "Iterable[int] | None" = None) -> None:
        """Transient fault: redraw the given honest towers' state from the
        ``"faults"`` stream, in the given order (default: all, ascending)."""
        for node_id in self.honest_targets(node_ids):
            self.nodes[node_id].scramble(self.fault_rng)


def build_world(
    n: int,
    f: int,
    root_factory: Callable[[int], Component],
    *,
    adversary: "Adversary | None",
    seed: int,
    enforce_resilience: bool = True,
) -> World:
    """Build the system for one run (see the module docstring for the
    stream order).

    ``enforce_resilience=False`` admits ``f >= n/3`` for experiments that
    deliberately cross the bound; sizes must still make sense.  An
    adversary that corrupts more than ``f`` ids, or an id outside
    ``range(n)``, is rejected before any tower is built.
    """
    if enforce_resilience:
        check_resilience(n, f)
    elif n < 1 or f < 0 or f >= n:
        raise ConfigurationError(f"nonsensical sizes n={n}, f={f}")
    seeds = SeedSequence(seed)
    env = Environment(n, seeds.seed_for("env"))
    adversary_rng = seeds.stream("adversary")
    faulty_ids: frozenset[int] = frozenset()
    if adversary is not None:
        faulty = adversary.select_faulty(n, f, adversary_rng)
        if len(faulty) > f:
            raise ConfigurationError(
                f"adversary corrupted {len(faulty)} nodes, but f={f}"
            )
        if any(i not in range(n) for i in faulty):
            raise ConfigurationError("adversary corrupted unknown node ids")
        faulty_ids = frozenset(faulty)
        adversary.setup(n, f, faulty_ids, adversary_rng)
        env.divergence_chooser = adversary.choose_divergent_outputs
    honest_ids = [i for i in range(n) if i not in faulty_ids]
    nodes = {
        i: Node(i, n, f, root_factory(i), seeds.stream("node", i), env)
        for i in honest_ids
    }
    return World(
        n=n,
        f=f,
        seed=seed,
        seeds=seeds,
        env=env,
        adversary=adversary,
        adversary_rng=adversary_rng,
        faulty_ids=faulty_ids,
        honest_ids=honest_ids,
        nodes=nodes,
        fault_rng=seeds.stream("faults"),
    )
