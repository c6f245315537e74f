"""A run's working set crosses the DSM once.

Every run has one machine-state size (x86 and ARM states are the same
size by construction), so its working set is one page run: seeded at
x86 when the thread is made, shipped to ARM on the first migration, and
then clean. Later migrations, either way, carry the state alone, and
the ARM side marks nothing for the trip back.
"""

import math

from repro.core import SystemMode, build_system
from repro.types import Target

PAGE = 4096


def test_a_run_ships_its_working_set_once():
    runtime = build_system(["digit.500"], seed=0)
    # Table 1's forced-ARM scenario: never the FPGA, always ARM.
    entry = runtime.server.thresholds.entry("digit.500")
    entry.fpga_threshold = math.inf
    entry.arm_threshold = 0.0
    record = runtime.platform.sim.run_until_event(
        runtime.launch("digit.500", mode=SystemMode.XAR_TREK, calls=3)
    )
    assert record.targets == [Target.ARM] * 3
    assert record.migrations == 6
    state_bytes = runtime.result.initial_states["digit.500"].size_bytes()
    migration_bytes = runtime.result.application("digit.500").profile.migration_state_bytes
    working_set = (migration_bytes - state_bytes) // PAGE
    assert working_set > 0
    assert runtime.dsm.stats.page_transfers == working_set
    assert runtime.dsm.stats.bytes_transferred == working_set * PAGE
