"""Unit + property tests for the page-based DSM (MSI protocol)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import ETHERNET_1GBPS, Link
from repro.popcorn import DSM, DSMError, PAGE_SIZE, PageState
from repro.sim import Simulator


def make_dsm(nodes=("x86", "arm")):
    sim = Simulator()
    dsm = DSM(sim, Link(sim, ETHERNET_1GBPS))
    for node in nodes:
        dsm.add_node(node)
    return sim, dsm


class TestBasics:
    def test_page_of_masks_offset(self):
        _sim, dsm = make_dsm()
        assert dsm.page_of(0x1234) == 0x1000
        assert dsm.page_of(0x1000) == 0x1000

    @pytest.mark.parametrize(
        "pages",
        [
            [0x1000, 0x2000],  # a list, not a run
            range(0x1000, 0x3000, 2 * PAGE_SIZE),  # not one page per step
            range(0x1008, 0x3008, PAGE_SIZE),  # not page-aligned
        ],
    )
    def test_a_working_set_must_be_a_page_range(self, pages):
        _sim, dsm = make_dsm()
        with pytest.raises(DSMError, match="range of page addresses"):
            dsm.seed_pages("x86", pages)
        with pytest.raises(DSMError, match="range of page addresses"):
            dsm.migrate_pages("x86", "arm", pages)

    def test_unknown_node_rejected(self):
        sim, dsm = make_dsm()
        with pytest.raises(DSMError):
            dsm.read("ghost", 0x1000)

    def test_duplicate_node_rejected(self):
        _sim, dsm = make_dsm()
        with pytest.raises(DSMError):
            dsm.add_node("x86")

    def test_first_touch_is_free(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.read("x86", 0x1000))
        assert dsm.stats.page_transfers == 0
        assert dsm.stats.local_hits == 1
        assert dsm.page_state("x86", 0x1000) == PageState.SHARED

    def test_first_write_is_free_and_exclusive(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.write("x86", 0x2000))
        assert dsm.page_state("x86", 0x2000) == PageState.MODIFIED
        assert dsm.stats.bytes_transferred == 0


class TestProtocol:
    def test_remote_read_fetches_page(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.write("x86", 0x1000))
        sim.run_until_event(dsm.read("arm", 0x1000))
        assert dsm.stats.page_transfers == 1
        # Owner downgraded to shared.
        assert dsm.page_state("x86", 0x1000) == PageState.SHARED
        assert dsm.page_state("arm", 0x1000) == PageState.SHARED

    def test_write_invalidates_other_copies(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.write("x86", 0x1000))
        sim.run_until_event(dsm.read("arm", 0x1000))
        sim.run_until_event(dsm.write("arm", 0x1000))
        assert dsm.page_state("x86", 0x1000) == PageState.INVALID
        assert dsm.page_state("arm", 0x1000) == PageState.MODIFIED
        assert dsm.stats.invalidations == 1

    def test_silent_upgrade_when_sole_sharer(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.read("x86", 0x1000))
        before = dsm.stats.control_messages
        sim.run_until_event(dsm.write("x86", 0x1000))
        assert dsm.stats.control_messages == before
        assert dsm.page_state("x86", 0x1000) == PageState.MODIFIED

    def test_repeated_local_access_hits(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.write("x86", 0x1000))
        for _ in range(5):
            sim.run_until_event(dsm.read("x86", 0x1000))
            sim.run_until_event(dsm.write("x86", 0x1000))
        assert dsm.stats.page_transfers == 0

    def test_transfers_take_link_time(self):
        sim, dsm = make_dsm()
        sim.run_until_event(dsm.write("x86", 0x1000))
        start = sim.now
        sim.run_until_event(dsm.read("arm", 0x1000))
        wire = (4096 + 64) / ETHERNET_1GBPS.bandwidth_bytes_per_s
        assert sim.now - start >= wire

    def test_seed_pages_claims_without_traffic(self):
        sim, dsm = make_dsm()
        dsm.seed_pages("x86", range(0x1000, 0x3000, PAGE_SIZE))
        assert dsm.page_state("x86", 0x1000) == PageState.MODIFIED
        assert dsm.page_state("x86", 0x2000) == PageState.MODIFIED
        assert dsm.stats.bytes_transferred == 0

    def test_migrate_pages_batches_one_transfer(self):
        sim, dsm = make_dsm()
        addrs = range(0x100000, 0x100000 + 10 * PAGE_SIZE, PAGE_SIZE)
        dsm.seed_pages("x86", addrs)
        start = sim.now
        sim.run_until_event(dsm.migrate_pages("x86", "arm", addrs))
        assert dsm.stats.page_transfers == 10
        for addr in addrs:
            assert dsm.page_state("arm", addr) == PageState.MODIFIED
            assert dsm.page_state("x86", addr) == PageState.INVALID
        # Batched: roughly one wire transfer of 10 pages, not 10 RTTs.
        wire = 10 * 4096 / ETHERNET_1GBPS.bandwidth_bytes_per_s
        assert sim.now - start == pytest.approx(
            wire + ETHERNET_1GBPS.latency_s, rel=0.01
        )

    def test_migrate_untouched_pages_is_free(self):
        sim, dsm = make_dsm()
        sim.run_until_event(
            dsm.migrate_pages("x86", "arm", range(0x5000, 0x6000, PAGE_SIZE))
        )
        assert dsm.stats.page_transfers == 0
        assert dsm.page_state("arm", 0x5000) == PageState.MODIFIED


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.sampled_from(["x86", "arm", "nic"]),
                st.integers(min_value=0, max_value=8),  # page index
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_msi_single_writer_multiple_readers(self, ops):
        """After any op sequence: at most one M holder per page, and an M
        holder excludes S holders."""
        sim, dsm = make_dsm(nodes=("x86", "arm", "nic"))
        for op, node, page_index in ops:
            addr = 0x10000 + page_index * 4096
            event = dsm.read(node, addr) if op == "read" else dsm.write(node, addr)
            sim.run_until_event(event)
            # Invariant check after every operation.
            for index in range(9):
                page = 0x10000 + index * 4096
                states = [dsm.page_state(n, page) for n in ("x86", "arm", "nic")]
                modified = states.count(PageState.MODIFIED)
                shared = states.count(PageState.SHARED)
                assert modified <= 1, f"page {page:#x} has {modified} writers"
                if modified:
                    assert shared == 0, f"page {page:#x} mixes M and S"

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.sampled_from(["x86", "arm"]),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_accessor_always_ends_with_valid_copy(self, ops):
        sim, dsm = make_dsm()
        for op, node, page_index in ops:
            addr = page_index * 4096
            event = dsm.read(node, addr) if op == "read" else dsm.write(node, addr)
            sim.run_until_event(event)
            state = dsm.page_state(node, addr)
            if op == "write":
                assert state == PageState.MODIFIED
            else:
                assert state in (PageState.SHARED, PageState.MODIFIED)

