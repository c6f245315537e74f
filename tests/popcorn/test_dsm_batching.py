"""Property tests pinning batched DSM migration to the per-page protocol.

``DSM.migrate_pages`` coalesces a working-set move into one link
busy-period and O(spans) directory work; ``migrate_pages_reference``
below keeps the page-by-page protocol as the executable specification,
written on the DSM's public API alone. These tests drive both through
identical histories (seeds, faults, prior migrations) and assert they
agree on every ``DSMStats`` counter, every observable page state, and
the migration completion time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ETHERNET_1GBPS, Link
from repro.popcorn import DSM, PAGE_SIZE, PageState
from repro.sim import Simulator
from tests.core.process_reference import all_of

NODES = ("x86", "arm", "fpga-host")
#: Page universe the generators draw from (page indices).
UNIVERSE = 24

nodes_st = st.sampled_from(NODES)
page_st = st.integers(min_value=0, max_value=UNIVERSE - 1)


def run(first, npages):
    """The working set of ``npages`` pages from page index ``first``."""
    return range(first * PAGE_SIZE, (first + npages) * PAGE_SIZE, PAGE_SIZE)


#: One setup step: seed a contiguous run, fault a single page, or
#: migrate a working set (so spans exist before the measured call).
setup_op = st.one_of(
    st.tuples(
        st.just("seed"), nodes_st, page_st, st.integers(min_value=1, max_value=8)
    ),
    st.tuples(st.just("read"), nodes_st, page_st),
    st.tuples(st.just("write"), nodes_st, page_st),
    st.tuples(
        st.just("migrate"),
        st.tuples(nodes_st, nodes_st),
        page_st,
        st.integers(min_value=1, max_value=8),
    ),
)

#: The measured working set; it may reach past the page universe.
pages_st = st.tuples(page_st, st.integers(min_value=1, max_value=12)).map(
    lambda t: run(*t)
)


def seed_reference(dsm, node, pages):
    """Seed ``pages`` one page at a time."""
    for page in pages:
        dsm.seed_pages(node, range(page, page + PAGE_SIZE, PAGE_SIZE))


def migrate_pages_reference(dsm, src, dst, pages):
    """The per-page reference protocol for :meth:`DSM.migrate_pages`.

    Each payload page travels as its own (concurrent) link transfer and
    each page is claimed on its own — one event chain per page, exactly
    what the batched path coalesces. It reads the directory through
    ``page_state`` only, and claims a page by seeding it alone at
    ``dst``.
    """
    done = dsm.sim.event()
    to_claim = []
    transfers = []
    for page in pages:
        if dsm.page_state(dst, page) == PageState.MODIFIED:
            continue
        to_claim.append(page)
        if any(dsm.page_state(node, page) != PageState.INVALID for node in NODES):
            dsm.stats.page_transfers += 1
            dsm.stats.bytes_transferred += PAGE_SIZE
            transfers.append(dsm.link.transfer(PAGE_SIZE))

    def finish(_ev=None):
        for page in to_claim:
            seed_reference(dsm, dst, (page,))
        done.succeed(len(pages))

    if transfers:
        all_of(dsm.sim, transfers).callbacks.append(finish)
    else:
        finish()
    return done


def make_dsm():
    sim = Simulator()
    dsm = DSM(sim, Link(sim, ETHERNET_1GBPS))
    for node in NODES:
        dsm.add_node(node)
    return sim, dsm


def apply_setup(sim, dsm, ops, use_reference):
    for op in ops:
        kind = op[0]
        if kind == "seed":
            _, node, page, npages = op
            pages = run(page, min(npages, UNIVERSE - page))
            if use_reference:
                seed_reference(dsm, node, pages)
            else:
                dsm.seed_pages(node, pages)
        elif kind == "read":
            sim.run_until_event(dsm.read(op[1], op[2] * PAGE_SIZE))
        elif kind == "write":
            sim.run_until_event(dsm.write(op[1], op[2] * PAGE_SIZE))
        else:
            _, (src, dst), page, npages = op
            pages = run(page, min(npages, UNIVERSE - page))
            if use_reference:
                done = migrate_pages_reference(dsm, src, dst, pages)
            else:
                done = dsm.migrate_pages(src, dst, pages)
            sim.run_until_event(done)


def same_time(a, b):
    # One N-page transfer and N concurrent single-page transfers drain
    # an uncontended fair-share link at the same instant; the float
    # accumulation differs in the last ulp, so compare to 1e-9 relative.
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def observable_state(dsm):
    return {
        (node, page): dsm.page_state(node, page * PAGE_SIZE)
        for node in NODES
        for page in range(UNIVERSE)
    }


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(setup_op, max_size=8),
    pages=pages_st,
    src=nodes_st,
    dst=nodes_st,
)
def test_batched_migration_equals_per_page_reference(ops, pages, src, dst):
    sim_a, batched = make_dsm()
    sim_b, reference = make_dsm()
    apply_setup(sim_a, batched, ops, use_reference=False)
    apply_setup(sim_b, reference, ops, use_reference=True)
    # Identical histories must leave identical protocol state behind
    # regardless of which migration path ran — the precondition for
    # comparing the measured call.
    assert observable_state(batched) == observable_state(reference)
    assert batched.stats == reference.stats
    assert same_time(sim_a.now, sim_b.now)

    start = sim_a.now
    done_a = batched.migrate_pages(src, dst, pages)
    done_b = migrate_pages_reference(reference, src, dst, pages)
    pages_a = sim_a.run_until_event(done_a)
    pages_b = sim_b.run_until_event(done_b)

    assert pages_a == pages_b
    assert observable_state(batched) == observable_state(reference)
    assert batched.stats == reference.stats
    assert same_time(sim_a.now, sim_b.now)
    if batched.stats.page_transfers == 0:
        assert sim_a.now == start  # nothing on the wire -> instantaneous


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(setup_op, max_size=6),
    pages=pages_st,
    node=nodes_st,
    probe=page_st,
)
def test_faults_after_span_migration_match_reference(ops, pages, node, probe):
    """A read/write fault inside a migrated span must behave exactly as
    if the pages had been claimed one by one."""
    sim_a, batched = make_dsm()
    sim_b, reference = make_dsm()
    apply_setup(sim_a, batched, ops, use_reference=False)
    apply_setup(sim_b, reference, ops, use_reference=True)
    sim_a.run_until_event(batched.migrate_pages("x86", "arm", pages))
    sim_b.run_until_event(migrate_pages_reference(reference, "x86", "arm", pages))

    sim_a.run_until_event(batched.read(node, probe * PAGE_SIZE))
    sim_b.run_until_event(reference.read(node, probe * PAGE_SIZE))
    sim_a.run_until_event(batched.write(node, probe * PAGE_SIZE))
    sim_b.run_until_event(reference.write(node, probe * PAGE_SIZE))

    assert observable_state(batched) == observable_state(reference)
    assert batched.stats == reference.stats
    assert same_time(sim_a.now, sim_b.now)


def test_contiguous_migration_round_trip_is_span_backed():
    """A working-set round trip leaves one uniform span, not N entries."""
    sim, dsm = make_dsm()
    pages = run(4, 12)
    dsm.seed_pages("x86", pages)
    assert len(dsm._spans) == 1
    sim.run_until_event(dsm.migrate_pages("x86", "arm", pages))
    sim.run_until_event(dsm.migrate_pages("arm", "x86", pages))
    assert len(dsm._spans) == 1
    assert dsm.page_state("x86", 5 * PAGE_SIZE) == PageState.MODIFIED
    assert dsm.page_state("arm", 5 * PAGE_SIZE) == PageState.INVALID
    # 12 pages over the wire each way.
    assert dsm.stats.page_transfers == 24
    assert dsm.stats.bytes_transferred == 24 * PAGE_SIZE
