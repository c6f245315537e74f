"""The Popcorn run-time library model: cross-ISA thread migration.

Given a multi-ISA binary, its liveness metadata, and the platform model,
:class:`PopcornRuntime` migrates a thread between the x86 and ARM
servers: it transforms the thread's machine state (consuming CPU on the
source), ships the transformed state over Ethernet, and eagerly moves
the thread's dirty working set through the DSM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.platform import HeterogeneousPlatform
from repro.popcorn.binary import MultiISABinary
from repro.popcorn.dsm import DSM
from repro.popcorn.migration_points import LivenessMetadata
from repro.popcorn.state import MachineState, StateTransformer, TransformError
from repro.sim import Event, Tracer
from repro.types import Target

__all__ = ["PopcornThread", "PopcornRuntime", "MigrationError"]


class MigrationError(Exception):
    """Raised when a requested migration is impossible."""


@dataclass
class PopcornThread:
    """A thread of a multi-ISA process, pinned to one node at a time."""

    thread_id: int
    binary: MultiISABinary
    state: MachineState
    node: Target = Target.X86
    #: Addresses of pages this thread has dirtied since the last migration.
    dirty_addresses: list[int] = field(default_factory=list)
    migration_count: int = 0

    @property
    def isa(self) -> str:
        return self.state.isa


class PopcornRuntime:
    """Executes cross-ISA migrations on the platform model."""

    def __init__(
        self,
        platform: HeterogeneousPlatform,
        metadata: LivenessMetadata,
        dsm: Optional[DSM] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.platform = platform
        self.transformer = StateTransformer(metadata)
        self.dsm = dsm
        self.tracer = tracer or platform.tracer
        self._next_thread_id = 1
        #: Transform memo shared by every thread on this runtime:
        #: ``{(id(source_state), to_isa): (source_state, result_state,
        #: cost_s, state_bytes)}`` plus a reverse index from a result
        #: state back to its source. Machine states are immutable on the
        #: migration path and threads ping-pong between the same two
        #: states, so after the first bounce every migration is a memo
        #: hit; keeping a strong reference to the key state inside the
        #: value makes the id()-key safe (the identity check below can
        #: never see a recycled id). Correctness of the reverse reuse
        #: rests on the transformer's tested bit-identical round-trip
        #: property.
        self._transform_memo: dict = {}
        self._reverse_memo: dict = {}

    def spawn_thread(
        self, binary: MultiISABinary, state: MachineState, node: Target = Target.X86
    ) -> PopcornThread:
        """Register a new thread running ``binary`` at ``state`` on ``node``."""
        if node is Target.FPGA:
            raise MigrationError("threads run on CPUs; FPGA executes kernels")
        if not binary.supports(state.isa):
            raise MigrationError(
                f"binary {binary.name!r} has no image for ISA {state.isa!r}"
            )
        if state.isa != node.isa:
            raise MigrationError(
                f"state is laid out for {state.isa!r} but node is {node.isa!r}"
            )
        thread = PopcornThread(
            thread_id=self._next_thread_id, binary=binary, state=state, node=node
        )
        self._next_thread_id += 1
        return thread

    # -- migration --------------------------------------------------------
    def migrate(self, thread: PopcornThread, to: Target) -> Event:
        """Migrate ``thread`` to node ``to``; fires with the thread when done.

        Steps (each consuming simulated time):
          1. state transformation on the source CPU;
          2. transformed state shipped over Ethernet;
          3. dirty working-set pages pushed through the DSM (if present).
        """
        if to is Target.FPGA:
            raise MigrationError(
                "use the XRT layer for hardware migration; Popcorn handles CPUs"
            )
        if to is thread.node:
            done = self.platform.sim.event()
            done.succeed(thread)
            return done
        to_isa = to.isa
        if not thread.binary.supports(to_isa):
            raise MigrationError(
                f"binary {thread.binary.name!r} has no image for {to_isa!r}"
            )

        source_cluster = self.platform.cluster(thread.node)
        state = thread.state
        memo = self._transform_memo
        key = (id(state), to_isa)
        entry = memo.get(key)
        if entry is not None and entry[0] is state:
            # Forward hit: this exact state object was transformed to
            # ``to_isa`` before (cost and size are functions of the
            # source state, so they are memoized alongside).
            new_state, transform_cost, state_bytes = entry[1], entry[2], entry[3]
        else:
            rev = self._reverse_memo.get(id(state))
            if rev is not None and rev[0] is state and rev[1].isa == to_isa:
                # Reverse hit: ``state`` is itself the result of
                # transforming ``rev[1]`` here earlier. The round trip
                # is bit-identical (a tested transformer property), so
                # transforming back must reproduce ``rev[1]`` — reuse
                # it and memoize the forward direction for next time.
                new_state = rev[1]
                transform_cost = self.transformer.transform_cost_seconds(state)
                state_bytes = state.size_bytes()
                memo[key] = (state, new_state, transform_cost, state_bytes)
            else:
                try:
                    new_state = self.transformer.transform(state, to_isa)
                except TransformError as exc:
                    raise MigrationError(
                        f"state transformation failed: {exc}"
                    ) from exc
                transform_cost = self.transformer.transform_cost_seconds(state)
                state_bytes = state.size_bytes()
                memo[key] = (state, new_state, transform_cost, state_bytes)
                self._reverse_memo[id(new_state)] = (new_state, state)
        done = self.platform.sim.event()
        source_node, dest_node = thread.node, to

        # Callback chain instead of a generator process: transform on
        # the source CPU -> wire the state -> push dirty pages -> commit.
        # Same steps and timing, none of the process/yield machinery.
        def commit() -> None:
            thread.state = new_state
            thread.node = dest_node
            thread.migration_count += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "popcorn",
                    f"thread {thread.thread_id} migrated {source_node} -> {dest_node}",
                    thread=thread.thread_id,
                    source=str(source_node),
                    dest=str(dest_node),
                    state_bytes=state_bytes,
                )
            done.succeed_in_place(thread)

        def after_pages(_ev: Event) -> None:
            thread.dirty_addresses.clear()
            commit()

        def after_wire(_ev: Event) -> None:
            if self.dsm is not None and thread.dirty_addresses:
                self.dsm.migrate_pages(
                    str(source_node), str(dest_node), thread.dirty_addresses
                ).callbacks.append(after_pages)
            else:
                commit()

        def after_transform(_job) -> None:
            self.platform.ethernet.transfer(
                state_bytes, tag=("popcorn-state", thread.thread_id)
            ).callbacks.append(after_wire)

        source_cluster.execute_job(
            transform_cost,
            tag=("popcorn-transform", thread.thread_id),
            on_complete=after_transform,
        )
        return done

    def migration_overhead_seconds(
        self, state: MachineState, working_set_bytes: int = 0
    ) -> float:
        """Analytic estimate of one migration's wall-clock cost.

        Used by threshold estimation and tests; the simulated cost adds
        contention on top of this uncontended lower bound.
        """
        transform = self.transformer.transform_cost_seconds(state)
        wire = self.platform.ethernet.ideal_transfer_time(
            state.size_bytes() + working_set_bytes
        )
        return transform + wire
