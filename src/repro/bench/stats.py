"""Communication statistics: messages and bytes per core.

The protocol layer records every completed point-to-point message in
``machine.services["p2p.stats"]``.  Beyond profiling, the counters make
algorithm *structure* testable: a ring ReduceScatter must send exactly
``p - 1`` messages per rank, a binomial broadcast exactly ``p - 1``
messages in total, and so on — the test suite locks those invariants in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.machine import Machine


@dataclass
class CommStats:
    """Aggregated point-to-point traffic counters."""

    #: (src_core, dst_core) -> (messages, payload_bytes)
    by_pair: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict)

    def install(self, machine: Machine) -> "CommStats":
        """Become ``machine``'s traffic counters (counting starts now)."""
        machine.services["p2p.stats"] = self
        return self

    def record(self, src: int, dst: int, nbytes: int) -> None:
        msgs, total = self.by_pair.get((src, dst), (0, 0))
        self.by_pair[(src, dst)] = (msgs + 1, total + nbytes)

    # -- queries -----------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(m for m, _b in self.by_pair.values())

    @property
    def total_bytes(self) -> int:
        return sum(b for _m, b in self.by_pair.values())

    def messages_sent_by(self, core: int) -> int:
        return sum(m for (s, _d), (m, _b) in self.by_pair.items()
                   if s == core)

    def messages_received_by(self, core: int) -> int:
        return sum(m for (_s, d), (m, _b) in self.by_pair.items()
                   if d == core)

    def bytes_sent_by(self, core: int) -> int:
        return sum(b for (s, _d), (m, b) in self.by_pair.items()
                   if s == core)

    def partners_of(self, core: int) -> set[int]:
        out = {d for (s, d) in self.by_pair if s == core}
        out |= {s for (s, d) in self.by_pair if d == core}
        return out

    def reset(self) -> None:
        self.by_pair.clear()


def comm_stats(machine: Machine) -> CommStats:
    """The machine's traffic counters (created on first use)."""
    stats = machine.services.get("p2p.stats")
    return stats if stats is not None else CommStats().install(machine)
