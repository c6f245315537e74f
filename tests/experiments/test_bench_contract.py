"""The behaviour contract: every scenario's committed seed-0 checksum.

Each checksum folds over one scenario's simulation outputs (run
records, cohort lines, chaos and SLO payloads; see ``contract.py``). A
change that only makes the simulator faster or smaller must leave all
of them byte-identical; these tests hold every scenario to the value
committed here.
"""

from pathlib import Path

import pytest

from repro.faults import FaultPlan, default_plan
from tests.experiments.contract import SCENARIOS, checksum, cohort_stress, fold

_CHAOS_PLAN = Path(__file__).resolve().parents[2] / "benchmarks" / "chaos_plan.json"

COMMITTED = {
    "fig3_low_load": "28d79e422594146c",
    "fig5_high_load": "5f1fdb1a16acf22a",
    "fig6_throughput": "b118e4e000f45bfa",
    "report_sweep": "74c838c6cb7884ee",
    "scale_stress": "ed80d819a93df998",
    "cohort_stress": "491fad2648cd572c",
    "chaos_stress": "fe84e13d22ac1caf",
    "fleet_stress": "eef84070955b616f",
    "flash_crowd": "ac75e4b2f32ba074",
}


def test_every_scenario_has_a_committed_checksum():
    assert sorted(COMMITTED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_checksum_matches_committed(name):
    assert checksum(name) == COMMITTED[name]


@pytest.mark.parametrize("name", ["fig5_high_load", "cohort_stress"])
def test_seed_changes_the_checksum(name):
    assert checksum(name, seed=1) != COMMITTED[name]


def test_cohort_stress_reference_path_matches_committed():
    # The per-client reference path must reproduce the vectorized
    # checksum byte for byte.
    assert fold(cohort_stress(0, vectorized=False)) == COMMITTED["cohort_stress"]


def test_committed_chaos_plan_is_the_generated_one():
    # CI's chaos job runs the committed file; the contract generates
    # the plan in code. A drift between them would go unnoticed.
    assert FaultPlan.from_file(str(_CHAOS_PLAN)) == default_plan(0)
