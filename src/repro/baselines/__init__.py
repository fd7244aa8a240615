"""Comparator algorithms for Table 1's rows (see docs/baselines.md).

Every clock here plugs into the :class:`~repro.core.protocol.Protocol`
seam (``python -m repro protocols`` lists the registered catalog); the
agreement substrates (phase-king, Turpin-Coan) are also exported raw for
the agreement-level tests and benches.
"""

from repro.baselines.cyclic import CyclicAgreementClock
from repro.baselines.dolev_welch import DolevWelchClock
from repro.baselines.phase_king import (
    BitwisePhaseKingAgreement,
    PhaseKingClock,
    PhaseKingState,
    phase_king_rounds,
)
from repro.baselines.turpin_coan import (
    TurpinCoanClock,
    TurpinCoanInstance,
    turpin_coan_rounds,
)

__all__ = [
    "BitwisePhaseKingAgreement",
    "CyclicAgreementClock",
    "DolevWelchClock",
    "PhaseKingClock",
    "PhaseKingState",
    "TurpinCoanClock",
    "TurpinCoanInstance",
    "phase_king_rounds",
    "turpin_coan_rounds",
]
