"""Property tests pinning batched DSM migration to the per-page protocol.

``DSM.migrate_pages`` coalesces a working-set move into one link
busy-period and O(spans) directory work; ``migrate_pages_reference``
below keeps the page-by-page protocol as the executable specification.
These tests drive both through identical histories (seeds, faults,
prior migrations) and assert they agree on every ``DSMStats`` counter,
every observable page state, and the migration completion time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ETHERNET_1GBPS, Link
from repro.popcorn import DSM, PageState
from repro.popcorn.dsm import _PageEntry
from repro.sim import Simulator
from tests.core.process_reference import all_of

PAGE = 4096
NODES = ("x86", "arm", "fpga-host")
#: Page universe the generators draw from (page indices).
UNIVERSE = 24

nodes_st = st.sampled_from(NODES)
page_st = st.integers(min_value=0, max_value=UNIVERSE - 1)

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

#: The measured address list: contiguous ranges hit the span fast path,
#: raw address sets hit the per-page fallback — both must match.
addrs_st = st.one_of(
    st.tuples(page_st, st.integers(min_value=1, max_value=12)).map(
        lambda t: [(t[0] + i) * PAGE + 17 for i in range(t[1])]
    ),
    st.lists(
        st.integers(min_value=0, max_value=UNIVERSE * PAGE - 1),
        min_size=1,
        max_size=12,
    ),
)


def migrate_pages_reference(dsm, src, dst, addrs):
    """The per-page reference protocol for :meth:`DSM.migrate_pages`.

    Each payload page travels as its own (concurrent) link transfer and
    each directory entry is claimed individually — one event chain per
    page, exactly what the batched path coalesces.
    """
    dsm._check_node(src)
    dsm._check_node(dst)
    mask = ~(dsm.page_size - 1)
    pages = sorted({a & mask for a in addrs})
    directory = dsm.directory
    done = dsm.sim.event()

    to_claim = []
    transfers = []
    for page in pages:
        entry = directory.get(page)
        if entry is None and dsm._span_at(page) is not None:
            entry = dsm._materialize(page)
        if entry is None:
            directory[page] = _PageEntry()
            to_claim.append(page)
            continue
        if entry.states.get(dst) == PageState.MODIFIED:
            continue
        to_claim.append(page)
        if entry.has_holder():
            dsm.stats.page_transfers += 1
            dsm.stats.bytes_transferred += dsm.page_size
            transfers.append(
                dsm.link.transfer(dsm.page_size, tag=("dsm-migrate", dst, 1))
            )

    def finish(_ev=None):
        for page in to_claim:
            entry = directory[page]
            entry.invalidate_all()
            entry.states[dst] = PageState.MODIFIED
        dsm.tracer.record(
            "dsm",
            f"{src} -> {dst}: migrated {len(to_claim)} pages "
            f"({len(transfers)} over the wire, per-page)",
            src=src,
            dst=dst,
            pages=len(to_claim),
        )
        done.succeed(len(pages))

    if transfers:
        all_of(dsm.sim, transfers).callbacks.append(finish)
    else:
        finish()
    return done


def make_dsm():
    sim = Simulator()
    dsm = DSM(sim, Link(sim, ETHERNET_1GBPS), page_size=PAGE)
    for node in NODES:
        dsm.add_node(node)
    return sim, dsm


def apply_setup(sim, dsm, ops, use_reference):
    for op in ops:
        kind = op[0]
        if kind == "seed":
            _, node, page, npages = op
            npages = min(npages, UNIVERSE - page)
            dsm.seed_pages(node, [(page + i) * PAGE for i in range(npages)])
        elif kind == "read":
            sim.run_until_event(dsm.read(op[1], op[2] * PAGE))
        elif kind == "write":
            sim.run_until_event(dsm.write(op[1], op[2] * PAGE))
        else:
            _, (src, dst), page, npages = op
            npages = min(npages, UNIVERSE - page)
            addrs = [(page + i) * PAGE for i in range(npages)]
            if use_reference:
                done = migrate_pages_reference(dsm, src, dst, addrs)
            else:
                done = dsm.migrate_pages(src, dst, addrs)
            sim.run_until_event(done)


def same_time(a, b):
    # One N-page transfer and N concurrent single-page transfers drain
    # an uncontended fair-share link at the same instant; the float
    # accumulation differs in the last ulp, so compare to 1e-9 relative.
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def observable_state(dsm):
    return {
        (node, page): dsm.page_state(node, page * PAGE)
        for node in NODES
        for page in range(UNIVERSE)
    }


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(setup_op, max_size=8),
    addrs=addrs_st,
    src=nodes_st,
    dst=nodes_st,
)
def test_batched_migration_equals_per_page_reference(ops, addrs, src, dst):
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
    done_a = batched.migrate_pages(src, dst, addrs)
    done_b = migrate_pages_reference(reference, src, dst, addrs)
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
    addrs=addrs_st,
    node=nodes_st,
    probe=page_st,
)
def test_faults_after_span_migration_match_reference(ops, addrs, node, probe):
    """A read/write fault inside a migrated span must behave exactly as
    if the pages had been claimed one by one."""
    sim_a, batched = make_dsm()
    sim_b, reference = make_dsm()
    apply_setup(sim_a, batched, ops, use_reference=False)
    apply_setup(sim_b, reference, ops, use_reference=True)
    sim_a.run_until_event(batched.migrate_pages("x86", "arm", addrs))
    sim_b.run_until_event(migrate_pages_reference(reference, "x86", "arm", addrs))

    sim_a.run_until_event(batched.read(node, probe * PAGE))
    sim_b.run_until_event(reference.read(node, probe * PAGE))
    sim_a.run_until_event(batched.write(node, probe * PAGE))
    sim_b.run_until_event(reference.write(node, probe * PAGE))

    assert observable_state(batched) == observable_state(reference)
    assert batched.stats == reference.stats
    assert same_time(sim_a.now, sim_b.now)


def test_contiguous_migration_round_trip_is_span_backed():
    """A working-set round trip leaves one uniform span, not N entries."""
    sim, dsm = make_dsm()
    addrs = [i * PAGE for i in range(4, 16)]
    dsm.seed_pages("x86", addrs)
    assert len(dsm.directory) == 0 and len(dsm._spans) == 1
    sim.run_until_event(dsm.migrate_pages("x86", "arm", addrs))
    sim.run_until_event(dsm.migrate_pages("arm", "x86", addrs))
    assert len(dsm.directory) == 0 and len(dsm._spans) == 1
    assert dsm.page_state("x86", 5 * PAGE) == PageState.MODIFIED
    assert dsm.page_state("arm", 5 * PAGE) == PageState.INVALID
    # 12 pages over the wire each way.
    assert dsm.stats.page_transfers == 24
    assert dsm.stats.bytes_transferred == 24 * PAGE
