"""The Popcorn run-time library model: cross-ISA thread migration.

Given a multi-ISA binary, its liveness metadata, and the platform model,
:class:`PopcornRuntime` migrates a thread between the x86 and ARM
servers: it transforms the thread's machine state (consuming CPU on the
source), ships the transformed state over Ethernet, and eagerly moves
the thread's dirty working set through the DSM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.platform import HeterogeneousPlatform
from repro.popcorn.binary import MultiISABinary
from repro.popcorn.dsm import DSM
from repro.popcorn.state import MachineState, TransformError, TransformMemo
from repro.sim import Event
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
    #: The pages this thread has dirtied since the last migration: one
    #: run (a ``range`` with step ``PAGE_SIZE``), empty when clean.
    dirty_pages: range = range(0)
    migration_count: int = 0

    @property
    def isa(self) -> str:
        return self.state.isa


class PopcornRuntime:
    """Executes cross-ISA migrations on the platform model."""

    def __init__(
        self,
        platform: HeterogeneousPlatform,
        transforms: TransformMemo,
        dsm: Optional[DSM] = None,
    ):
        """``transforms`` is the binary's memoized state transformer; a
        deployment passes its compilation's
        (:meth:`repro.compiler.pipeline.CompilationResult.transforms_for`),
        so the memo outlives the deployment."""
        self.platform = platform
        self.transforms = transforms
        self.dsm = dsm
        self._next_thread_id = 1

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
        try:
            new_state, transform_cost, state_bytes = self.transforms.transform(
                state, to_isa
            )
        except TransformError as exc:
            raise MigrationError(f"state transformation failed: {exc}") from exc
        done = self.platform.sim.event()
        source_node, dest_node = thread.node, to

        # Callback chain instead of a generator process: transform on
        # the source CPU -> wire the state -> push dirty pages -> commit.
        # Same steps and timing, none of the process/yield machinery.
        def commit() -> None:
            thread.state = new_state
            thread.node = dest_node
            thread.migration_count += 1
            done.succeed_in_place(thread)

        def after_pages(_ev: Event) -> None:
            thread.dirty_pages = range(0)
            commit()

        def after_wire(_ev: Event) -> None:
            if self.dsm is not None and thread.dirty_pages:
                self.dsm.migrate_pages(
                    source_node.label, dest_node.label, thread.dirty_pages
                ).callbacks.append(after_pages)
            else:
                commit()

        def after_transform(_job) -> None:
            self.platform.ethernet.transfer(state_bytes).callbacks.append(after_wire)

        source_cluster.execute_job(transform_cost, on_complete=after_transform)
        return done

    def migration_overhead_seconds(
        self, state: MachineState, working_set_bytes: int = 0
    ) -> float:
        """Analytic estimate of one migration's wall-clock cost.

        Used by threshold estimation and tests; the simulated cost adds
        contention on top of this uncontended lower bound.
        """
        transform = self.transforms.transformer.transform_cost_seconds(state)
        wire = self.platform.ethernet.ideal_transfer_time(
            state.size_bytes() + working_set_bytes
        )
        return transform + wire
