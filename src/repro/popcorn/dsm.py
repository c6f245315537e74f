"""Page-granularity distributed shared memory (DSM).

Popcorn Linux provides sequentially-consistent shared memory across
ISA-different machines as a first-class OS abstraction (Section 2). This
module models that protocol at page level: an MSI write-invalidate
protocol with a directory, where page payloads and control messages
travel over the (shared, fair-shared) Ethernet link model — so DSM
traffic from one migrating application slows down another's, as on the
real testbed.

Two directory representations coexist:

* per-page :class:`_PageEntry` rows in ``directory`` — authoritative
  for every page that has been touched individually (``read`` /
  ``write`` faults);
* uniform *spans* — contiguous page ranges whose every page shares one
  MSI state map. Working-set operations (:meth:`DSM.seed_pages`,
  :meth:`DSM.migrate_pages` over a contiguous range) create and move
  spans wholesale, so migrating an N-page working set costs O(spans)
  directory work and one link busy-period instead of N per-page
  entries and N event chains. An individual fault inside a span
  materializes just that page back into ``directory``.

The two layers are disjoint by construction: a page is either in
``directory`` or covered by exactly one span (or untouched). The
batched span path is *semantically identical* to running the per-page
protocol — ``tests/popcorn/test_dsm_batching.py`` keeps the
page-by-page protocol as the executable specification and pins the
batched path to it with hypothesis property tests on stats, states,
and completion times.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.hardware.interconnect import Link
from repro.sim import Event, Simulator, Tracer

__all__ = ["PageState", "DSMStats", "DSM", "DSMError"]

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
class _PageEntry:
    """Directory entry: which node holds the page in which state."""

    states: dict[str, str] = field(default_factory=dict)

    def holders(self) -> list[str]:
        return [n for n, s in self.states.items() if s != PageState.INVALID]

    def has_holder(self) -> bool:
        """True if any node holds a valid (S/M) copy; avoids building
        the holder list on the migration fast path."""
        for state in self.states.values():
            if state != PageState.INVALID:
                return True
        return False

    def invalidate_all(self) -> None:
        states = self.states
        for node in states:
            states[node] = PageState.INVALID

    def owner(self) -> Optional[str]:
        for node, state in self.states.items():
            if state == PageState.MODIFIED:
                return node
        return None


@dataclass(slots=True)
class _Span:
    """A contiguous page range whose pages all share one state map.

    ``start`` / ``end`` are page addresses (end exclusive, both
    page-aligned). Spans never overlap each other or ``directory``.
    """

    start: int
    end: int
    states: dict[str, str] = field(default_factory=dict)

    def npages(self, page_size: int) -> int:
        return (self.end - self.start) // page_size

    def has_holder(self) -> bool:
        for state in self.states.values():
            if state != PageState.INVALID:
                return True
        return False


class DSM:
    """A directory-based MSI DSM over a link model."""

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        page_size: int = 4096,
        tracer: Optional[Tracer] = None,
    ):
        if page_size <= 0 or page_size & (page_size - 1):
            raise DSMError(f"page size must be a power of two, got {page_size}")
        self.sim = sim
        self.link = link
        self.page_size = page_size
        self.tracer = tracer or Tracer(enabled=False)
        self.nodes: set[str] = set()
        self.directory: dict[int, _PageEntry] = {}
        #: Uniform-state spans, sorted by start, disjoint from each
        #: other and from ``directory``.
        self._spans: list[_Span] = []
        #: (first_page, n) -> expected dense page list; lets
        #: :meth:`_contiguous_run` recognize the recurring migration
        #: working sets with one C-level list comparison.
        self._run_cache: dict[tuple[int, int], list[int]] = {}
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
        return addr & ~(self.page_size - 1)

    def page_state(self, node: str, addr: int) -> str:
        self._check_node(node)
        page = self.page_of(addr)
        entry = self.directory.get(page)
        if entry is not None:
            return entry.states.get(node, PageState.INVALID)
        span = self._span_at(page)
        if span is not None:
            return span.states.get(node, PageState.INVALID)
        return PageState.INVALID

    # -- span layer ----------------------------------------------------------
    def _span_index(self, page: int) -> int:
        """Index of the last span with start <= page (bisect on starts)."""
        lo, hi = 0, len(self._spans)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._spans[mid].start <= page:
                lo = mid + 1
            else:
                hi = mid
        return lo - 1

    def _span_at(self, page: int) -> Optional[_Span]:
        i = self._span_index(page)
        if i >= 0:
            span = self._spans[i]
            if span.start <= page < span.end:
                return span
        return None

    def _materialize(self, page: int) -> Optional[_PageEntry]:
        """Move one span page into ``directory`` (splitting its span)."""
        i = self._span_index(page)
        if i < 0:
            return None
        span = self._spans[i]
        if not span.start <= page < span.end:
            return None
        entry = _PageEntry(states=dict(span.states))
        self.directory[page] = entry
        replacement: list[_Span] = []
        if span.start < page:
            replacement.append(_Span(span.start, page, span.states))
        if page + self.page_size < span.end:
            replacement.append(
                _Span(page + self.page_size, span.end, dict(span.states))
            )
        self._spans[i : i + 1] = replacement
        return entry

    def _split_spans_at(self, boundary: int) -> None:
        """Ensure no span straddles ``boundary`` (a page address)."""
        i = self._span_index(boundary)
        if i < 0:
            return
        span = self._spans[i]
        if span.start < boundary < span.end:
            tail = _Span(boundary, span.end, dict(span.states))
            span.end = boundary
            self._spans.insert(i + 1, tail)

    def _spans_in(self, start: int, end: int) -> list[_Span]:
        """Spans fully inside [start, end) (after boundary splits)."""
        self._split_spans_at(start)
        self._split_spans_at(end)
        lo = bisect_right([s.start for s in self._spans], start - 1)
        out = []
        for span in self._spans[lo:]:
            if span.start >= end:
                break
            out.append(span)
        return out

    def _directory_pages_in(self, start: int, end: int) -> list[int]:
        """Directory pages inside [start, end), cheapest-side scan."""
        directory = self.directory
        if not directory:
            return []
        n_range = (end - start) // self.page_size
        if len(directory) <= n_range:
            return sorted(p for p in directory if start <= p < end)
        return [
            page
            for page in range(start, end, self.page_size)
            if page in directory
        ]

    def _replace_range(self, start: int, end: int, states: dict[str, str]) -> None:
        """Make [start, end) one uniform span with ``states``.

        Every covered span and directory entry is absorbed; adjacent
        spans with the same state map are *not* merged (the common
        working-set ranges re-coalesce naturally on the next migrate).
        """
        for page in self._directory_pages_in(start, end):
            del self.directory[page]
        self._split_spans_at(start)
        self._split_spans_at(end)
        spans = self._spans
        lo = 0
        while lo < len(spans) and spans[lo].start < start:
            lo += 1
        hi = lo
        while hi < len(spans) and spans[hi].start < end:
            hi += 1
        spans[lo:hi] = [_Span(start, end, states)]

    def _contiguous_run(self, pages_sorted_hint: Sequence[int], mask: int, page_size: int):
        """(start, end) if the addresses cover one contiguous ascending
        page range (duplicates allowed), else ``None``.

        The dominant caller is thread migration, which always passes the
        same dense page-aligned working-set list; the fast path compares
        the input against a cached expected run at C speed (one list
        equality) instead of walking it address by address, and only
        falls back to the exact per-address scan for irregular inputs.
        """
        if not pages_sorted_hint:
            return None
        first = pages_sorted_hint[0]
        if first & mask == first:
            n = len(pages_sorted_hint)
            last = pages_sorted_hint[-1]
            if last - first == (n - 1) * page_size:
                cache = self._run_cache
                expected = cache.get((first, n))
                if expected is None:
                    expected = cache[(first, n)] = list(
                        range(first, first + n * page_size, page_size)
                    )
                if pages_sorted_hint == expected:
                    return first, first + n * page_size
        prev = pages_sorted_hint[0] & mask
        start = prev
        for addr in pages_sorted_hint:
            page = addr & mask
            if page == prev:
                continue
            if page != prev + page_size:
                return None
            prev = page
        return start, prev + page_size

    # -- protocol operations ----------------------------------------------------
    def _fault_entry(self, page: int) -> _PageEntry:
        """The per-page entry for an individual access, materializing
        the page out of a span if needed."""
        entry = self.directory.get(page)
        if entry is None:
            entry = self._materialize(page)
        if entry is None:
            entry = _PageEntry()
            self.directory[page] = entry
        return entry

    def read(self, node: str, addr: int) -> Event:
        """Gain read access to the page holding ``addr``.

        Local S/M copies hit immediately; otherwise the page is fetched
        from its owner (downgrading an M copy to S).
        """
        self._check_node(node)
        page = self.page_of(addr)
        entry = self._fault_entry(page)
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
            self.stats.bytes_transferred += self.page_size
            self.link.transfer(
                self.page_size, tag=("dsm-page", node, page)
            ).callbacks.append(fetched)

        def fetched(_ev: Event) -> None:
            entry.states[node] = PageState.SHARED
            if self.tracer.enabled:
                self.tracer.record(
                    "dsm", f"{node}: read-fetch page {page:#x}", node=node, page=page
                )
            done.succeed_in_place(page)

        self.stats.control_messages += 1
        self.stats.bytes_transferred += CONTROL_MESSAGE_BYTES
        self.link.transfer(
            CONTROL_MESSAGE_BYTES, tag=("dsm-req", node, page)
        ).callbacks.append(fetch)
        return done

    def write(self, node: str, addr: int) -> Event:
        """Gain exclusive (M) access to the page holding ``addr``.

        Invalidates every other copy (one control round per holder,
        issued concurrently) and fetches the payload if ``node`` has no
        valid copy.
        """
        self._check_node(node)
        page = self.page_of(addr)
        entry = self._fault_entry(page)
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
            if self.tracer.enabled:
                self.tracer.record(
                    "dsm", f"{node}: write-own page {page:#x}", node=node, page=page
                )
            done.succeed_in_place(page)

        def invalidated() -> None:
            if need_payload:
                self.stats.page_transfers += 1
                self.stats.bytes_transferred += self.page_size
                self.link.transfer(
                    self.page_size, tag=("dsm-page", node, page)
                ).callbacks.append(owned)
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
            self.link.transfer(
                2 * CONTROL_MESSAGE_BYTES, tag=("dsm-inv", other, page)
            ).callbacks.append(acked)
        return done

    def seed_pages(self, node: str, addrs: Sequence[int]) -> None:
        """Mark pages as locally modified at ``node`` with no traffic.

        Models memory a process allocated and wrote before the DSM ever
        got involved (its pre-migration working set). A contiguous
        ascending range (the common working-set shape) becomes one
        uniform span in O(spans); arbitrary address lists fall back to
        per-page entries.
        """
        self._check_node(node)
        mask = ~(self.page_size - 1)
        run = self._contiguous_run(addrs, mask, self.page_size)
        if run is not None:
            self._replace_range(run[0], run[1], {node: PageState.MODIFIED})
            return
        directory = self.directory
        for addr in addrs:
            page = addr & mask
            entry = directory.get(page)
            if entry is None and self._span_at(page) is not None:
                entry = self._materialize(page)
            if entry is None:
                directory[page] = _PageEntry(states={node: PageState.MODIFIED})
                continue
            entry.invalidate_all()
            entry.states[node] = PageState.MODIFIED

    def migrate_pages(self, src: str, dst: str, addrs: Sequence[int]) -> Event:
        """Eagerly move a working set from ``src`` to ``dst`` (M at dst).

        Used when a thread migrates: its dirty pages are pushed up front
        in one batched wire transfer (as Popcorn's migration path does)
        instead of being faulted over one by one. A contiguous range is
        accounted span-by-span — O(spans) directory work per migration,
        identical stats and completion time to the per-page walk (and to
        the page-by-page reference protocol in
        ``tests/popcorn/test_dsm_batching.py``).
        """
        self._check_node(src)
        self._check_node(dst)
        mask = ~(self.page_size - 1)
        run = self._contiguous_run(addrs, mask, self.page_size)
        if run is not None:
            return self._migrate_range(src, dst, run[0], run[1])

        pages = sorted({a & mask for a in addrs})
        n_pages = len(pages)
        directory = self.directory
        to_transfer = 0
        to_claim: list[int] = []
        for page in pages:
            entry = directory.get(page)
            if entry is None and self._span_at(page) is not None:
                entry = self._materialize(page)
            if entry is None:
                directory[page] = _PageEntry()
                to_claim.append(page)
                continue
            if entry.states.get(dst) == PageState.MODIFIED:
                continue
            to_claim.append(page)
            if entry.has_holder():
                to_transfer += 1

        def finish() -> None:
            for page in to_claim:
                entry = directory[page]
                entry.invalidate_all()
                entry.states[dst] = PageState.MODIFIED

        return self._finish_migration(
            src, dst, n_pages, len(to_claim), to_transfer, finish
        )

    def _migrate_range(self, src: str, dst: str, start: int, end: int) -> Event:
        """Span-batched migration of the contiguous range [start, end)."""
        page_size = self.page_size
        n_pages = (end - start) // page_size
        directory = self.directory

        n_claim = 0
        n_transfer = 0
        dir_pages = self._directory_pages_in(start, end)
        claim_dir: list[int] = []
        for page in dir_pages:
            entry = directory[page]
            if entry.states.get(dst) == PageState.MODIFIED:
                continue
            claim_dir.append(page)
            n_claim += 1
            if entry.has_holder():
                n_transfer += 1
        spans = self._spans_in(start, end)
        covered = len(dir_pages)
        for span in spans:
            npages = span.npages(page_size)
            covered += npages
            if span.states.get(dst) == PageState.MODIFIED:
                continue
            n_claim += npages
            if span.has_holder():
                n_transfer += npages
        # Untouched gap pages: first-touch claims, nothing on the wire.
        n_claim += n_pages - covered

        def finish() -> None:
            # The whole range ends uniformly M-at-dst (pages skipped
            # above were already M at dst), so it coalesces into one
            # span — the next migration of this working set is O(1).
            self._replace_range(start, end, {dst: PageState.MODIFIED})

        return self._finish_migration(src, dst, n_pages, n_claim, n_transfer, finish)

    def _finish_migration(
        self,
        src: str,
        dst: str,
        n_pages: int,
        n_claim: int,
        n_transfer: int,
        apply_states,
    ) -> Event:
        """Shared tail of both migration paths: one wire transfer for
        all payload pages, then the directory update."""
        done = self.sim.event()

        def finish(trigger) -> None:
            apply_states()
            if self.tracer.enabled:
                self.tracer.record(
                    "dsm",
                    f"{src} -> {dst}: migrated {n_claim} pages "
                    f"({n_transfer} over the wire)",
                    src=src,
                    dst=dst,
                    pages=n_claim,
                )
            trigger(n_pages)

        if n_transfer:
            nbytes = n_transfer * self.page_size
            self.stats.page_transfers += n_transfer
            self.stats.bytes_transferred += nbytes
            transfer = self.link.transfer(nbytes, tag=("dsm-migrate", dst, n_transfer))
            transfer.callbacks.append(lambda _ev: finish(done.succeed_in_place))
        else:
            # Nothing on the wire: the caller attaches its waiter after
            # this returns, so the completion goes through the queue.
            finish(done.succeed)
        return done
