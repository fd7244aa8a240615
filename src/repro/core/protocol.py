"""The ``Protocol`` seam: every synchronization algorithm behind one door.

The repository grew pluggable seams for *how* a run executes — engines
(:mod:`repro.net.engine`), link conditions (:mod:`repro.net.linkmodel`),
transports (:mod:`repro.runtime.transport`) — but *what* runs was
hard-wired to the paper's ss-Byz-Clock-Sync tower, with the Table 1
comparators living as dead-end modules.  This module is the missing
seam: a :class:`Protocol` names one clock-synchronization algorithm
family, knows its claimed convergence/resilience row, and builds the
per-node root :class:`~repro.net.component.Component` factory that
``Simulation``, ``run_trial``, campaigns, the live runtime and the
benchmark suites all consume.

Registered catalog (``python -m repro protocols``):

* ``clock-sync`` — the reproduced paper's ss-Byz-Clock-Sync (expected
  O(1), common coin);
* ``dolev-welch`` — local-coin randomization, expected exponential;
* ``deterministic`` — Table 1's deterministic row: the ticking clock
  re-anchored by cyclic Turpin-Coan-over-phase-king agreement, O(f);
* ``turpin-coan`` — the same cyclic construction registered under its
  substrate's name (trajectory-identical to ``deterministic`` by
  construction — pinned differentially in ``tests/test_protocol.py``);
* ``phase-king`` — cyclic *bitwise* phase-king agreement: a shorter
  3(f+1)-beat cycle at a ⌈log2 k⌉× message factor, O(f).

Determinism contract: a protocol factory must build its component tower
from ``(n, f, k)`` and the supplied coin factory alone — no hidden
global state, no module-level randomness — so a registered name plus a
seed reproduces a run bit-for-bit on either engine, under any link
model, at any campaign worker count, and (zero-delay local transport)
in the live runtime.  Components draw randomness only from the per-node
``ctx.rng`` streams the framework hands them.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.dolev_welch import DolevWelchClock
from repro.baselines.phase_king import PhaseKingClock, phase_king_rounds
from repro.baselines.turpin_coan import TurpinCoanClock, turpin_coan_rounds
from repro.coin.interfaces import CoinAlgorithm
from repro.coin.oracle import OracleCoin
from repro.core.clock_sync import SSByzClockSync
from repro.errors import ConfigurationError
from repro.net.component import Component

__all__ = [
    "DEFAULT_PROTOCOL",
    "PROTOCOLS",
    "Protocol",
    "register_protocol",
    "resolve_protocol",
]

CoinFactory = Callable[[], CoinAlgorithm]
RootFactory = Callable[[int], Component]


class Protocol:
    """One registered clock-synchronization protocol family.

    Subclasses override the class attributes and :meth:`factory`.
    Instances are stateless catalog entries — all per-run state lives in
    the components the factory builds, so one registration serves every
    simulation, campaign worker and runtime process.
    """

    #: Registry key, shared with every ``--protocol`` CLI flag.
    name = "abstract"
    #: Source citation, consistent with PAPERS.md / docs/baselines.md.
    paper = ""
    #: Claimed convergence row (Table 1 shape).
    claimed_convergence = ""
    #: Claimed resilience bound.
    resilience = "f < n/3"
    #: Whether the protocol consumes a common-coin factory.
    uses_coin = False
    #: How the bulk engine executes this protocol: ``"vectorized"`` when
    #: a structure-of-arrays program is registered for the protocol's
    #: root component type (:mod:`repro.net.bulk`), ``"per-node"`` when
    #: ``engine="bulk"`` falls back to the fast per-node path.  Catalog
    #: metadata only — the engine decides from the actual component tree
    #: (a clock-sync run over a message-passing coin falls back even
    #: though the catalog row says vectorized).
    bulk_execution = "per-node"

    def factory(
        self,
        n: int,
        f: int,
        k: int,
        *,
        coin_factory: "CoinFactory | None" = None,
        share_coin: bool = False,
    ) -> RootFactory:
        """Build the per-node root component factory for one run.

        ``coin_factory`` and ``share_coin`` are consumed only when
        :attr:`uses_coin` is set; coin-free protocols accept and ignore
        them so callers can thread one configuration through any name.
        """
        raise NotImplementedError

    def convergence_bound(self, n: int, f: int, k: int) -> "int | None":
        """Worst-case deterministic convergence bound in beats, if any.

        ``None`` for randomized protocols, whose convergence is a
        distribution, not a bound.
        """
        return None

    def describe(self) -> str:
        """One-line catalog entry for listings and docs."""
        return (
            f"{self.claimed_convergence}, {self.resilience} — {self.paper}"
        )


class ClockSyncProtocol(Protocol):
    """The reproduced paper's ss-Byz-Clock-Sync (Figure 4)."""

    name = "clock-sync"
    paper = "Ben-Or, Dolev & Hoch (PODC 2008) — this repository's source"
    claimed_convergence = "expected O(1)"
    uses_coin = True
    bulk_execution = "vectorized"

    def factory(
        self,
        n: int,
        f: int,
        k: int,
        *,
        coin_factory: "CoinFactory | None" = None,
        share_coin: bool = False,
    ) -> RootFactory:
        if coin_factory is None:
            coin_factory = lambda: OracleCoin()
        return lambda _node_id: SSByzClockSync(
            k, coin_factory, share_coin=share_coin
        )


class DolevWelchProtocol(Protocol):
    """Local-coin randomized clock sync: the expected-exponential row."""

    name = "dolev-welch"
    paper = "Dolev & Welch-style local-coin randomization (Table 1, [10])"
    claimed_convergence = "expected O(2^(2(n-f)))"
    bulk_execution = "vectorized"

    def factory(self, n, f, k, *, coin_factory=None, share_coin=False):
        return lambda _node_id: DolevWelchClock(k)


class DeterministicProtocol(Protocol):
    """Table 1's deterministic row: cyclic Turpin-Coan agreement clock."""

    name = "deterministic"
    paper = "Daliot-Dolev-Parnas line (Table 1, [15]/[7]; arXiv:cs/0608096)"
    claimed_convergence = "O(f) deterministic"

    def factory(self, n, f, k, *, coin_factory=None, share_coin=False):
        return lambda _node_id: TurpinCoanClock(n, f, k)

    def convergence_bound(self, n, f, k):
        return 2 * turpin_coan_rounds(f)


class TurpinCoanProtocol(Protocol):
    """Cyclic multivalued Turpin-Coan agreement clock (the substrate)."""

    name = "turpin-coan"
    paper = "Turpin & Coan multivalued agreement over phase-king BA ([18])"
    claimed_convergence = "O(f) deterministic"

    def factory(self, n, f, k, *, coin_factory=None, share_coin=False):
        return lambda _node_id: TurpinCoanClock(n, f, k)

    def convergence_bound(self, n, f, k):
        return 2 * turpin_coan_rounds(f)


class PhaseKingProtocol(Protocol):
    """Cyclic bitwise phase-king clock: shorter cycles, wider traffic."""

    name = "phase-king"
    paper = "Berman-Garay-Perry phase-king BA, bit-parallel lanes"
    claimed_convergence = "O(f) deterministic"

    def factory(self, n, f, k, *, coin_factory=None, share_coin=False):
        return lambda _node_id: PhaseKingClock(n, f, k)

    def convergence_bound(self, n, f, k):
        return 2 * phase_king_rounds(f)


#: name -> Protocol catalog entry.  Shared with every ``--protocol`` CLI
#: flag and :class:`~repro.analysis.campaign.ScenarioSpec.protocol`.
PROTOCOLS: dict[str, Protocol] = {}

#: The paper's algorithm; everything defaults to it, which is what keeps
#: pre-seam runs (and their differential suites) bit-identical.
DEFAULT_PROTOCOL = ClockSyncProtocol.name


def register_protocol(protocol: Protocol) -> Protocol:
    """Add one protocol; double registration is a configuration error."""
    if protocol.name in PROTOCOLS:
        raise ConfigurationError(
            f"protocol {protocol.name!r} is already registered"
        )
    PROTOCOLS[protocol.name] = protocol
    return protocol


for _protocol_cls in (
    ClockSyncProtocol,
    DolevWelchProtocol,
    DeterministicProtocol,
    TurpinCoanProtocol,
    PhaseKingProtocol,
):
    register_protocol(_protocol_cls())


def resolve_protocol(protocol: "str | Protocol") -> Protocol:
    """A registered name (or a pre-built instance) to its catalog entry."""
    if isinstance(protocol, Protocol):
        return protocol
    try:
        return PROTOCOLS[protocol]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {sorted(PROTOCOLS)}"
        ) from None
