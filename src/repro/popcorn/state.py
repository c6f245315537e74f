"""Run-time program state and the cross-ISA state transformation.

The transformer is *executable*, not just a cost model: a
:class:`MachineState` carries raw 8-byte register and stack-slot values,
and :class:`StateTransformer` re-locates every live variable from its
source-ISA location to its destination-ISA location using the liveness
metadata — the same job Popcorn Linux's run-time performs when a thread
hops ISAs. Round-tripping x86-64 -> aarch64 -> x86-64 must reproduce the
original state bit-for-bit (a property test enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.popcorn.abi import isa_def
from repro.popcorn.migration_points import (
    CType,
    LivenessMetadata,
    MetadataError,
    MigrationPoint,
    RegisterLoc,
    StackLoc,
)

__all__ = [
    "Frame",
    "MachineState",
    "StateTransformer",
    "TransformError",
    "TransformMemo",
    "STACK_TOP",
]

#: Top of the (downward-growing) user stack; the same virtual address on
#: every ISA, per Popcorn's aligned address-space layout.
STACK_TOP = 0x7FFF_FFFF_0000


class TransformError(Exception):
    """Raised when a state cannot be transformed (bad metadata, wrong ISA)."""


@dataclass
class Frame:
    """One activation record, halted at a migration point.

    ``registers`` holds raw 8-byte values for the registers carrying
    live variables of this frame; ``stack`` maps frame-base-relative
    offsets to raw 8-byte slot values.
    """

    function: str
    point_id: int
    registers: dict[str, bytes] = field(default_factory=dict)
    stack: dict[int, bytes] = field(default_factory=dict)
    return_address: int = 0

    def copy(self) -> "Frame":
        return Frame(
            function=self.function,
            point_id=self.point_id,
            registers=dict(self.registers),
            stack=dict(self.stack),
            return_address=self.return_address,
        )

    def size_bytes(self) -> int:
        """Bytes of live state in this frame (registers + spilled slots)."""
        return 8 * (len(self.registers) + len(self.stack)) + 8  # + return addr


@dataclass
class MachineState:
    """A halted thread: a call stack of frames plus the stack pointer.

    ``frames[0]`` is the outermost frame (``main``); ``frames[-1]`` is
    the active one.
    """

    isa: str
    frames: list[Frame]
    stack_pointer: int = STACK_TOP

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def active_frame(self) -> Frame:
        if not self.frames:
            raise TransformError("state has no frames")
        return self.frames[-1]

    def size_bytes(self) -> int:
        """Total bytes of transformable state (what migration must move)."""
        return sum(frame.size_bytes() for frame in self.frames) + 64

    def live_value_count(self) -> int:
        return sum(len(f.registers) + len(f.stack) for f in self.frames)

    def copy(self) -> "MachineState":
        return MachineState(
            isa=self.isa,
            frames=[frame.copy() for frame in self.frames],
            stack_pointer=self.stack_pointer,
        )


class StateTransformer:
    """Re-encodes a :class:`MachineState` from one ISA's layout to another's."""

    #: Cost-model constants, calibrated to Popcorn Linux's reported
    #: state-transformation latencies (tens of microseconds for shallow
    #: stacks): fixed per-migration work plus per-frame and per-value terms.
    BASE_COST_S = 20e-6
    PER_FRAME_COST_S = 5e-6
    PER_VALUE_COST_S = 0.2e-6

    def __init__(self, metadata: LivenessMetadata):
        self.metadata = metadata

    # -- value plumbing ------------------------------------------------------
    def read_live_values(self, frame: Frame, isa: str) -> dict[str, Any]:
        """Decode ``{var_name: python_value}`` from a frame's raw slots."""
        point = self.metadata.point(frame.point_id)
        if point.function != frame.function:
            raise TransformError(
                f"frame is in {frame.function!r} but point {frame.point_id} "
                f"belongs to {point.function!r}"
            )
        values: dict[str, Any] = {}
        for var in point.live_vars:
            loc = var.location(isa)
            if isinstance(loc, RegisterLoc):
                try:
                    raw = frame.registers[loc.register]
                except KeyError:
                    raise TransformError(
                        f"{frame.function}: live var {var.name!r} expected in "
                        f"register {loc.register!r} but it is absent"
                    ) from None
            elif isinstance(loc, StackLoc):
                try:
                    raw = frame.stack[loc.offset]
                except KeyError:
                    raise TransformError(
                        f"{frame.function}: live var {var.name!r} expected at "
                        f"stack offset {loc.offset} but the slot is absent"
                    ) from None
            else:  # pragma: no cover - Location is a closed hierarchy
                raise TransformError(f"unknown location {loc!r}")
            values[var.name] = CType.unpack(var.ctype, raw)
        return values

    def build_frame(
        self,
        function: str,
        point: MigrationPoint,
        values: dict[str, Any],
        isa: str,
        return_address: int = 0,
    ) -> Frame:
        """Encode python values into a frame laid out for ``isa``."""
        abi = isa_def(isa)  # validates the ISA name
        frame = Frame(
            function=function, point_id=point.point_id, return_address=return_address
        )
        for var in point.live_vars:
            if var.name not in values:
                raise TransformError(
                    f"{function}: missing value for live var {var.name!r}"
                )
            raw = CType.pack(var.ctype, values[var.name])
            loc = var.location(isa)
            if isinstance(loc, RegisterLoc):
                if loc.register not in abi.all_registers:
                    raise TransformError(
                        f"{var.name!r} mapped to {loc.register!r}, which is not "
                        f"an {isa} register"
                    )
                frame.registers[loc.register] = raw
            else:
                assert isinstance(loc, StackLoc)
                frame.stack[loc.offset] = raw
        return frame

    # -- the transformation ---------------------------------------------------
    def transform(self, state: MachineState, to_isa: str) -> MachineState:
        """Produce the equivalent state in ``to_isa``'s layout.

        The source state is not mutated. Transforming to the current ISA
        returns a copy (useful for snapshotting).
        """
        isa_def(state.isa)
        isa_def(to_isa)
        if to_isa == state.isa:
            return state.copy()
        new_frames = []
        for frame in state.frames:
            point = self.metadata.point(frame.point_id)
            values = self.read_live_values(frame, state.isa)
            new_frames.append(
                self.build_frame(
                    frame.function,
                    point,
                    values,
                    to_isa,
                    return_address=frame.return_address,
                )
            )
        # The destination stack grows from the same aligned top; frame
        # footprints differ per ISA, so recompute the stack pointer.
        abi = isa_def(to_isa)
        top = STACK_TOP
        used = sum(
            self.metadata.point(f.point_id).frame_bytes(to_isa) + 16
            for f in new_frames
        )
        sp = (top - used) & ~(abi.stack_align - 1)
        return MachineState(isa=to_isa, frames=new_frames, stack_pointer=sp)

    def transform_cost_seconds(self, state: MachineState) -> float:
        """CPU time the transformation itself consumes."""
        return (
            self.BASE_COST_S
            + self.PER_FRAME_COST_S * state.depth
            + self.PER_VALUE_COST_S * state.live_value_count()
        )

    def states_equivalent(self, a: MachineState, b: MachineState) -> bool:
        """True if two states carry identical live values (any ISA pair)."""
        if a.depth != b.depth:
            return False
        for frame_a, frame_b in zip(a.frames, b.frames):
            if (frame_a.function, frame_a.point_id) != (
                frame_b.function,
                frame_b.point_id,
            ):
                return False
            try:
                values_a = self.read_live_values(frame_a, a.isa)
                values_b = self.read_live_values(frame_b, b.isa)
            except (TransformError, MetadataError):
                return False
            if values_a != values_b:
                return False
        return True


class TransformMemo:
    """One binary's state transformations, each computed once.

    Machine states are immutable on the migration path, and a thread
    ping-pongs between the same two states: its application's prototype
    initial state (shared by every run of the compilation, see
    :attr:`repro.compiler.pipeline.CompilationResult.initial_states`)
    and that state's transform. So the compilation keeps one memo per
    application and every deployment's :class:`~repro.popcorn.runtime.PopcornRuntime`
    uses it: after the first bounce of the first run, every migration
    is a memo hit, on every deployment of the compilation. The cost is
    still charged in simulated time on each migration; only the
    host-side recomputation of an identical result is skipped.
    """

    __slots__ = ("transformer", "_forward", "_reverse")

    def __init__(self, metadata: LivenessMetadata):
        self.transformer = StateTransformer(metadata)
        #: ``{(id(source_state), to_isa): (source_state, result_state,
        #: cost_s, state_bytes)}``. The entry keeps a strong reference
        #: to its key state, so the identity check in :meth:`transform`
        #: can never see a recycled id.
        self._forward: dict = {}
        #: ``{id(result_state): (result_state, source_state)}``.
        self._reverse: dict = {}

    def transform(self, state: MachineState, to_isa: str) -> tuple:
        """``(new_state, cost_s, state_bytes)`` for moving ``state`` to
        ``to_isa``: the transformed state, the CPU time the
        transformation costs and the bytes it ships."""
        key = (id(state), to_isa)
        entry = self._forward.get(key)
        if entry is not None and entry[0] is state:
            return entry[1], entry[2], entry[3]
        transformer = self.transformer
        rev = self._reverse.get(id(state))
        if rev is not None and rev[0] is state and rev[1].isa == to_isa:
            # ``state`` is itself the transform of ``rev[1]``: the round
            # trip is bit-identical (a tested transformer property), so
            # transforming back must reproduce ``rev[1]``.
            new_state = rev[1]
        else:
            new_state = transformer.transform(state, to_isa)
            self._reverse[id(new_state)] = (new_state, state)
        cost = transformer.transform_cost_seconds(state)
        state_bytes = state.size_bytes()
        self._forward[key] = (state, new_state, cost, state_bytes)
        return new_state, cost, state_bytes
