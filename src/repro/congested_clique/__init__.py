"""CONGESTED-CLIQUE substrate and algorithms (Section 1.1.2, Section 3.2).

``n`` players, one per vertex; each synchronous round every ordered pair
may exchange one ``O(log n)``-bit message.  The substrate accounts rounds
and validates bandwidth; Lenzen's routing scheme [Len13] is modelled as a
volume-checked constant-round primitive.
"""

from repro.congested_clique.model import CongestedClique
from repro.congested_clique.mis import CCMISResult, congested_clique_mis
from repro.congested_clique.matching import (
    CCMatchingResult,
    congested_clique_fractional_matching,
)

__all__ = [
    "CongestedClique",
    "CCMISResult",
    "congested_clique_mis",
    "CCMatchingResult",
    "congested_clique_fractional_matching",
]
