"""The CONGESTED-CLIQUE network model.

Players are the integers ``0..n-1`` (one per graph vertex, the standard
setting of Section 1.1.2).  Communication happens in synchronous rounds;
per round, each ordered pair of players may exchange one message of
``O(log n)`` bits — i.e. a constant number of vertex ids or one float.
The model tracks rounds and validates the per-pair bandwidth constraint.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mpc.errors import ProtocolError
from repro.utils.trace import Trace, maybe_record

# One CONGESTED-CLIQUE message carries O(log n) bits — enough for a constant
# number of vertex ids.  We fix that constant here.
IDS_PER_MESSAGE = 2


class CongestedClique:
    """A clique network of ``n`` players with per-round bandwidth accounting."""

    def __init__(self, num_players: int, trace: Optional[Trace] = None) -> None:
        if num_players <= 0:
            raise ValueError(f"num_players must be positive, got {num_players}")
        self._n = num_players
        self._rounds = 0
        self._trace = trace

    @property
    def num_players(self) -> int:
        """Number of players ``n``."""
        return self._n

    @property
    def rounds(self) -> int:
        """Rounds consumed so far."""
        return self._rounds

    def charge_rounds(self, count: int, reason: str) -> None:
        """Consume ``count`` rounds for a cited constant-round primitive."""
        if count < 0:
            raise ValueError(f"round count must be >= 0, got {count}")
        self._rounds += count
        maybe_record(self._trace, "cc_rounds", count=count, reason=reason)

    def round_of_messages_array(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        num_ids: int = 1,
        context: str = "point-to-point",
    ) -> None:
        """Execute one round of uniform-size messages given flat endpoint
        arrays.

        Every message carries ``num_ids`` ids.  Validates that senders and
        receivers are valid players and that no ordered pair carries more
        than :data:`IDS_PER_MESSAGE` ids (one ``np.unique`` pass over
        packed ``(sender, receiver)`` keys), then charges one round.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        if len(senders) != len(receivers):
            raise ValueError("senders and receivers must have equal length")
        n = self._n
        if senders.size:
            for endpoint in (senders, receivers):
                bad = (endpoint < 0) | (endpoint >= n)
                if bad.any():
                    player = int(endpoint[np.argmax(bad)])
                    raise ProtocolError(f"player {player} out of range [0, {n})")
            keys, counts = np.unique(senders * np.int64(n) + receivers, return_counts=True)
            load = counts * int(num_ids)
            over = load > IDS_PER_MESSAGE
            if over.any():
                which = int(np.argmax(over))
                pair = (int(keys[which]) // n, int(keys[which]) % n)
                raise ProtocolError(
                    f"pair {pair} exceeds per-round bandwidth "
                    f"({int(load[which])} ids > {IDS_PER_MESSAGE}) during {context}"
                )
        self._rounds += 1
        maybe_record(self._trace, "cc_rounds", count=1, reason=context)

    def broadcast_round(self, context: str = "broadcast") -> None:
        """One round in which some players send the same id(s) to everyone.

        A broadcast of one message per player per round is trivially within
        the clique's bandwidth (each ordered pair carries one message).
        """
        self._rounds += 1
        maybe_record(self._trace, "cc_rounds", count=1, reason=context)

    def __repr__(self) -> str:
        return f"CongestedClique(n={self._n}, rounds={self._rounds})"
