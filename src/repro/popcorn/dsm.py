"""Page-granularity distributed shared memory (DSM).

Popcorn Linux provides sequentially-consistent shared memory across
ISA-different machines as a first-class OS abstraction (Section 2). This
module models that protocol at page level: an MSI write-invalidate
protocol with a directory, where page payloads and control messages
travel over the (shared, fair-shared) Ethernet link model — so DSM
traffic from one migrating application slows down another's, as on the
real testbed.

The directory is one representation: a sorted list of disjoint
*spans*, contiguous page ranges whose every page shares one MSI state
map. A working set is one contiguous run of pages, a ``range`` of page
addresses with step :data:`PAGE_SIZE`; :meth:`DSM.seed_pages` and
:meth:`DSM.migrate_pages` lay it down and move it span by span, so
migrating an N-page working set costs O(spans) directory work and one
link busy-period, not N page faults. A ``read`` or ``write`` fault
splits its page out as a one-page span. The batched path is
*semantically identical* to running the per-page protocol —
``tests/popcorn/test_dsm_batching.py`` keeps the page-by-page protocol
as the executable specification and pins the batched path to it with
hypothesis property tests on stats, states, and completion times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.hardware.interconnect import Link
from repro.sim import Event, Simulator

__all__ = ["PAGE_SIZE", "PageState", "DSMStats", "DSM", "DSMError"]

#: Bytes per page; a working set is a ``range`` of page addresses with
#: this step.
PAGE_SIZE = 4096

#: Size of a protocol control message (invalidate / ack / request) in bytes.
CONTROL_MESSAGE_BYTES = 64


class DSMError(Exception):
    """Raised for protocol misuse (unknown node, etc.)."""


class PageState:
    """Per-node MSI state of a page."""

    MODIFIED = "M"
    SHARED = "S"
    INVALID = "I"


@dataclass
class DSMStats:
    """Protocol traffic counters."""

    local_hits: int = 0
    page_transfers: int = 0
    invalidations: int = 0
    control_messages: int = 0
    bytes_transferred: float = 0.0


@dataclass(slots=True)
class _Span:
    """A contiguous page range whose pages all share one state map.

    ``start`` / ``end`` are page addresses (end exclusive, both
    page-aligned). Spans never overlap.
    """

    start: int
    end: int
    states: dict[str, str] = field(default_factory=dict)

    def holders(self) -> list[str]:
        return [n for n, s in self.states.items() if s != PageState.INVALID]

    def owner(self) -> Optional[str]:
        for node, state in self.states.items():
            if state == PageState.MODIFIED:
                return node
        return None


_start = attrgetter("start")


def _run_bounds(pages: range) -> tuple[int, int]:
    """``[start, end)`` of a working set, which must be a ``range`` of
    page addresses with step :data:`PAGE_SIZE`."""
    if (
        not isinstance(pages, range)
        or pages.step != PAGE_SIZE
        or pages.start % PAGE_SIZE
    ):
        raise DSMError(
            f"a working set is a range of page addresses with step "
            f"{PAGE_SIZE}, got {pages!r}"
        )
    return pages.start, pages.start + len(pages) * PAGE_SIZE


class DSM:
    """A directory-based MSI DSM over a link model."""

    def __init__(self, sim: Simulator, link: Link):
        self.sim = sim
        self.link = link
        self.nodes: set[str] = set()
        #: The directory: disjoint uniform-state spans, sorted by start.
        self._spans: list[_Span] = []
        self.stats = DSMStats()

    # -- topology ------------------------------------------------------------
    def add_node(self, name: str) -> None:
        if name in self.nodes:
            raise DSMError(f"node {name!r} already registered")
        self.nodes.add(name)

    def _check_node(self, node: str) -> None:
        if node not in self.nodes:
            raise DSMError(f"unknown DSM node {node!r}")

    def page_of(self, addr: int) -> int:
        return addr & ~(PAGE_SIZE - 1)

    def page_state(self, node: str, addr: int) -> str:
        self._check_node(node)
        page = self.page_of(addr)
        i = bisect_right(self._spans, page, key=_start) - 1
        if i >= 0 and page < self._spans[i].end:
            return self._spans[i].states.get(node, PageState.INVALID)
        return PageState.INVALID

    # -- the directory -------------------------------------------------------
    def _split_at(self, boundary: int) -> int:
        """Split the span straddling ``boundary`` (a page address) and
        return the index of the first span that starts at or after it."""
        spans = self._spans
        i = bisect_right(spans, boundary, key=_start)
        if i:
            span = spans[i - 1]
            if span.start == boundary:
                return i - 1
            if boundary < span.end:
                spans.insert(i, _Span(boundary, span.end, dict(span.states)))
                span.end = boundary
        return i

    def _covering(self, start: int, end: int) -> tuple[int, int]:
        """``spans[lo:hi]``: the spans inside [start, end), split at its
        boundaries."""
        lo = self._split_at(start)
        return lo, self._split_at(end)

    def _replace(self, start: int, end: int, states: dict[str, str]) -> None:
        """Make [start, end) one span with ``states``, absorbing every
        span it covers. Adjacent spans with the same state map are *not*
        merged (a working set re-coalesces on its next migration)."""
        if start < end:
            lo, hi = self._covering(start, end)
            self._spans[lo:hi] = [_Span(start, end, states)]

    def _page_span(self, page: int) -> _Span:
        """The one-page span of ``page``, split out of its span, or made
        with no holder for a page never touched."""
        lo, hi = self._covering(page, page + PAGE_SIZE)
        if lo == hi:
            self._spans.insert(lo, _Span(page, page + PAGE_SIZE))
        return self._spans[lo]

    # -- protocol operations ----------------------------------------------------
    def read(self, node: str, addr: int) -> Event:
        """Gain read access to the page holding ``addr``.

        Local S/M copies hit immediately; otherwise the page is fetched
        from its owner (downgrading an M copy to S).
        """
        self._check_node(node)
        page = self.page_of(addr)
        entry = self._page_span(page)
        state = entry.states.get(node, PageState.INVALID)
        done = self.sim.event()

        if state in (PageState.SHARED, PageState.MODIFIED):
            self.stats.local_hits += 1
            done.succeed(page)
            return done

        holders = entry.holders()
        if not holders:
            # First touch anywhere: zero-fill locally, no traffic.
            entry.states[node] = PageState.SHARED
            self.stats.local_hits += 1
            done.succeed(page)
            return done

        # Request to the directory/owner, then the page payload back.
        def fetch(_ev: Event) -> None:
            owner = entry.owner()
            if owner is not None:
                entry.states[owner] = PageState.SHARED  # writeback/downgrade
            self.stats.page_transfers += 1
            self.stats.bytes_transferred += PAGE_SIZE
            self.link.transfer(PAGE_SIZE).callbacks.append(fetched)

        def fetched(_ev: Event) -> None:
            entry.states[node] = PageState.SHARED
            done.succeed_in_place(page)

        self.stats.control_messages += 1
        self.stats.bytes_transferred += CONTROL_MESSAGE_BYTES
        self.link.transfer(CONTROL_MESSAGE_BYTES).callbacks.append(fetch)
        return done

    def write(self, node: str, addr: int) -> Event:
        """Gain exclusive (M) access to the page holding ``addr``.

        Invalidates every other copy (one control round per holder,
        issued concurrently) and fetches the payload if ``node`` has no
        valid copy.
        """
        self._check_node(node)
        page = self.page_of(addr)
        entry = self._page_span(page)
        state = entry.states.get(node, PageState.INVALID)
        done = self.sim.event()

        others = [n for n in entry.holders() if n != node]
        if state == PageState.MODIFIED:
            self.stats.local_hits += 1
            done.succeed(page)
            return done
        if state == PageState.SHARED and not others:
            # Silent S->M upgrade: sole holder.
            entry.states[node] = PageState.MODIFIED
            self.stats.local_hits += 1
            done.succeed(page)
            return done
        if not others and state == PageState.INVALID and not entry.holders():
            # First touch anywhere.
            entry.states[node] = PageState.MODIFIED
            self.stats.local_hits += 1
            done.succeed(page)
            return done

        need_payload = state == PageState.INVALID

        def owned(_ev: Optional[Event] = None) -> None:
            for other in others:
                entry.states[other] = PageState.INVALID
            entry.states[node] = PageState.MODIFIED
            done.succeed_in_place(page)

        def invalidated() -> None:
            if need_payload:
                self.stats.page_transfers += 1
                self.stats.bytes_transferred += PAGE_SIZE
                self.link.transfer(PAGE_SIZE).callbacks.append(owned)
            else:
                owned()

        # Every other holder is invalidated, in parallel (a write that
        # gets here always has one); the last ack moves the protocol on.
        acks_left = len(others)

        def acked(_ev: Event) -> None:
            nonlocal acks_left
            acks_left -= 1
            if not acks_left:
                invalidated()

        for other in others:
            self.stats.invalidations += 1
            self.stats.control_messages += 2  # invalidate + ack
            self.stats.bytes_transferred += 2 * CONTROL_MESSAGE_BYTES
            self.link.transfer(2 * CONTROL_MESSAGE_BYTES).callbacks.append(acked)
        return done

    def seed_pages(self, node: str, pages: range) -> None:
        """Mark the working set ``pages`` locally modified at ``node``,
        with no traffic: one span, whatever was there before.

        Models memory a process allocated and wrote before the DSM ever
        got involved (its pre-migration working set).
        """
        self._check_node(node)
        start, end = _run_bounds(pages)
        self._replace(start, end, {node: PageState.MODIFIED})

    def migrate_pages(self, src: str, dst: str, pages: range) -> Event:
        """Eagerly move the working set ``pages`` from ``src`` to ``dst``
        (M at dst); the event fires with the number of pages.

        Used when a thread migrates: its dirty pages are pushed up front
        in one batched wire transfer (as Popcorn's migration path does)
        instead of being faulted over one by one, with O(spans)
        directory work and the stats and completion time of the
        page-by-page reference protocol in
        ``tests/popcorn/test_dsm_batching.py``.
        """
        self._check_node(src)
        self._check_node(dst)
        start, end = _run_bounds(pages)

        # Pages already M at dst and untouched pages put nothing on the
        # wire; every other page with a holder does.
        n_transfer = 0
        lo, hi = self._covering(start, end)
        for span in self._spans[lo:hi]:
            if span.states.get(dst) != PageState.MODIFIED and span.holders():
                n_transfer += (span.end - span.start) // PAGE_SIZE

        done = self.sim.event()

        def finish(trigger) -> None:
            # The whole run ends M at dst (the pages skipped above
            # already were), so it coalesces into one span: the next
            # migration of this working set is O(1).
            self._replace(start, end, {dst: PageState.MODIFIED})
            trigger(len(pages))

        if n_transfer:
            nbytes = n_transfer * PAGE_SIZE
            self.stats.page_transfers += n_transfer
            self.stats.bytes_transferred += nbytes
            transfer = self.link.transfer(nbytes)
            transfer.callbacks.append(lambda _ev: finish(done.succeed_in_place))
        else:
            # Nothing on the wire: the caller attaches its waiter after
            # this returns, so the completion goes through the queue.
            finish(done.succeed)
        return done
