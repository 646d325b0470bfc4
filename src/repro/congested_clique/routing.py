"""Lenzen's deterministic routing scheme [Len13].

The paper uses it as a black box (Section 2, "Routing"): if every player
wants to send at most ``n`` messages and every player is the destination of
at most ``n`` messages, all of them can be delivered in ``O(1)`` rounds.
We model the scheme by validating the precondition exactly and charging a
fixed constant (2) of rounds; violating the precondition raises, because an
algorithm relying on super-linear routing volume is *not* implementable in
O(1) CONGESTED-CLIQUE rounds and the substrate must not silently pretend
otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.congested_clique.model import CongestedClique
from repro.mpc.errors import ProtocolError

LENZEN_ROUND_COST = 2


def lenzen_route_arrays(
    clique: CongestedClique,
    senders: np.ndarray,
    receivers: np.ndarray,
    context: str = "lenzen-routing",
) -> None:
    """Route one batch of messages given as flat endpoint arrays.

    Each message is one ``O(log n)``-bit payload (e.g. one routed edge),
    represented by its slot in the ``senders``/``receivers`` arrays.
    Lenzen's precondition — per-player send and receive volume at most
    ``n`` — is validated with one ``bincount`` pass each (the property
    suite checks the accept/reject behavior against a dict-based
    reference), then :data:`LENZEN_ROUND_COST` rounds are charged.  No
    inboxes are materialized: callers keep the payload in their own
    arrays.
    """
    n = clique.num_players
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    if len(senders) != len(receivers):
        raise ValueError("senders and receivers must have equal length")
    if senders.size:
        out_of_range = (
            (senders < 0) | (senders >= n) | (receivers < 0) | (receivers >= n)
        )
        if out_of_range.any():
            slot = int(np.argmax(out_of_range))
            raise ProtocolError(
                f"message endpoints ({int(senders[slot])}, {int(receivers[slot])}) "
                f"out of range during {context}"
            )
        for direction, load in (
            ("sends", np.bincount(senders, minlength=n)),
            ("receives", np.bincount(receivers, minlength=n)),
        ):
            over = load > n
            if over.any():
                player = int(np.argmax(over))
                raise ProtocolError(
                    f"player {player} {direction} {int(load[player])} > n={n} "
                    f"messages; Lenzen's precondition violated during {context}"
                )
    clique.charge_rounds(LENZEN_ROUND_COST, context)
