"""The per-client cohort model: the reference for ``CohortPopulation``.

``CohortPopulation`` advances each cohort as one simulator event per
call round over numpy arrays. The per-client model below is the
canonical one it was vectorized from: one generator process per
client, calling the scalar Algorithm 2 :func:`~repro.core.policy.decide`
once per call on the scalar view of the same open-loop load model.
``ReferencePopulation`` reuses everything the vectorized path
precomputes (cohorts, arrival schedules, round trips, fault triples,
metrics recording) and replaces only how a cohort starts, so the two
differ in execution strategy alone.

Select it for a whole runtime with::

    monkeypatch.setattr(repro.core.cohort, "CohortPopulation", ReferencePopulation)

``XarTrekRuntime.run_cohorts`` looks the name up on every call.
"""

import numpy as np

from repro.core.cohort import _FPGA, _RULE_INDEX, _X86, CohortPopulation
from repro.core.policy import decide
from tests.core.process_reference import spawn, timeout


class ReferencePopulation(CohortPopulation):
    """A ``CohortPopulation`` that runs every client as its own process."""

    path = "reference"

    def load_at(self, t: float) -> int:
        """``L(t)`` for one query time (the reference path's view)."""
        present = np.searchsorted(self._starts, t, side="right")
        departed = np.searchsorted(self._ends, t, side="right")
        return int(present) - int(departed) + self.background + 1

    def _start(self, sim, cohort, result, target_tally, rule_tally):
        for client in range(cohort.n):
            spawn(
                sim,
                self._client(sim, cohort, client, result, target_tally, rule_tally),
            )

    def _client(self, sim, cohort, client, result, target_tally, rule_tally):
        """One client as a generator process: the canonical model.

        Every addition to simulated time happens in the same order as
        the vectorized path's array arithmetic, so the two paths agree
        bit for bit, not approximately.
        """
        yield timeout(sim, float(cohort.arrivals[client]))
        yield timeout(sim, cohort.host_s)
        for call in range(cohort.calls):
            yield timeout(sim, cohort.call_host_s)
            load = self.load_at(sim.now)
            decision = decide(load, cohort.entry, cohort.available)
            target = int(decision.target)
            result.targets[client, call] = target
            result.rules[client, call] = _RULE_INDEX[decision.rule]
            target_tally[target] += 1
            rule_tally[_RULE_INDEX[decision.rule]] += 1
            if target == _FPGA and (client, call) in cohort.faults:
                delay = cohort.fault_delay
                served = _X86
                result.fault_fallbacks += 1
            else:
                delay = float(cohort.rts[target])
                served = int(cohort.served_map[target])
            result.served[client, call] = served
            yield timeout(sim, delay)
        result.completions[client] = sim.now
