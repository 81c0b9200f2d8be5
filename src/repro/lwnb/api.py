"""Lightweight non-blocking primitives (paper Section IV-B).

"Since most algorithms for collective operations, including the ring
algorithm, are organized into rounds where a core exchanges at most one
message with another core, the expensive listkeeping can be avoided by
allowing only one active send and receive operation at a time.  We used
this fact to extend RCCE by lightweight non-blocking primitives that
support at most one concurrent send and receive."

This layer therefore:

* enforces **one outstanding send and one outstanding receive per core**
  (violations raise :class:`~repro.ircce.requests.RequestError`),
* supports **no wildcard receives** and no arbitrary-size reception (like
  plain RCCE, sender and length must be known in advance),
* charges only a fraction of iRCCE's per-request software overhead.
"""

from __future__ import annotations

from repro.ircce.requests import NonBlockingLayer


class LWNB(NonBlockingLayer):
    """The paper's single-outstanding-request non-blocking layer."""

    name = "lwnb"
    supports_wildcard = False
    max_outstanding = 1

    def issue_cycles(self) -> int:
        return self.machine.config.lwnb_issue_cycles

    def complete_cycles(self) -> int:
        return self.machine.config.lwnb_complete_cycles

    def test_cycles(self) -> int:
        return self.machine.config.lwnb_test_cycles
