"""A correct node: identity plus a protocol component tree.

Faulty nodes have no :class:`Node` object — the adversary speaks for them
directly at the network layer, which is strictly more general than running
corrupted node code.
"""

from __future__ import annotations

import random

from repro.net.component import SEND, UPDATE, BeatContext, Component
from repro.net.environment import Environment
from repro.net.message import Envelope, Outbox

__all__ = ["ROOT_PATH", "Node"]

#: Routing prefix of every node's component tree: the root component's
#: path, under which every message and coin path is addressed.
ROOT_PATH = "root"


class Node:
    """One correct node executing a component tree in lock-step."""

    def __init__(
        self,
        node_id: int,
        n: int,
        f: int,
        root: Component,
        rng: random.Random,
        env: Environment,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.f = f
        self.root = root
        self.rng = rng
        self.env = env

    def _context(
        self,
        beat: int,
        phase: str,
        outbox: Outbox | None,
        delivered: dict[str, list[Envelope]] | None,
    ) -> BeatContext:
        return BeatContext(
            node_id=self.node_id,
            n=self.n,
            f=self.f,
            beat=beat,
            phase=phase,
            path=ROOT_PATH,
            rng=self.rng,
            env=self.env,
            outbox=outbox,
            delivered=delivered,
            component=self.root,
        )

    def send_phase(self, beat: int, outbox=None):
        """Run the send phase of one beat; return the drained outbox.

        ``outbox`` is any object with the :class:`~repro.net.message.Outbox`
        interface (``send`` / ``broadcast`` / ``drain``); engines supply
        their own collectors (e.g. fan-out recording), the default is the
        envelope-per-receiver :class:`Outbox`.  The return value is whatever
        ``outbox.drain()`` yields.
        """
        self.root.begin_beat()
        if outbox is None:
            outbox = Outbox(self.node_id, beat)
        self.root.on_send(self._context(beat, SEND, outbox, None))
        return outbox.drain()

    def update_phase(
        self, beat: int, delivered: dict[str, list[Envelope]]
    ) -> None:
        """Run the update phase of one beat with this node's inboxes."""
        self.root.on_update(self._context(beat, UPDATE, None, delivered))
        self.root.finish_beat()

    def scramble(self, rng: random.Random) -> None:
        """Apply a transient fault: redraw the whole tree's state."""
        self.root.scramble_tree(rng)
