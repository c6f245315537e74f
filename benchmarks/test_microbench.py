"""Microbenchmarks of the hot substrate operations.

Unlike the table/figure benches (single-shot simulations), these
exercise pytest-benchmark properly — many rounds of the operations that
dominate experiment wall-clock: the cross-ISA state transformation, the
DES event loop, processor-sharing job churn, and the two functional
kernels the examples run.
"""

import numpy as np
import pytest

from repro.popcorn import (
    CType,
    LivenessMetadata,
    MachineState,
    MigrationPoint,
    StateTransformer,
    allocate_locations,
)
from repro.sim import Simulator
from repro.hardware.sharing import FairShareServer
from repro.workloads.digit_recognition import classify, generate_dataset
from repro.workloads.face_detection import detect_faces
from repro.workloads.images import generate_face_image


@pytest.fixture(scope="module")
def transform_state():
    live_vars = allocate_locations(
        [(f"v{i}", t) for i, t in enumerate(
            [CType.I64, CType.I32, CType.PTR, CType.F64] * 3
        )]
    )
    point = MigrationPoint(1, "kernel", 0, tuple(live_vars))
    transformer = StateTransformer(LivenessMetadata([point]))
    values = {
        var.name: (1.5 if CType.is_float(var.ctype) else 7)
        for var in point.live_vars
    }
    frame = transformer.build_frame("kernel", point, values, "x86_64")
    return transformer, MachineState(isa="x86_64", frames=[frame] * 4)


@pytest.mark.benchmark(group="micro-transform")
def test_state_transformation_throughput(benchmark, transform_state):
    transformer, state = transform_state
    result = benchmark(lambda: transformer.transform(state, "aarch64"))
    assert result.isa == "aarch64"


@pytest.mark.benchmark(group="micro-des")
def test_des_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.defer(0.001, tick)

        sim.defer(0.001, tick)
        sim.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000


@pytest.mark.benchmark(group="micro-ps")
def test_processor_sharing_churn(benchmark):
    """1000 staggered jobs on a 6-way PS server: the Figure 4/5 hot path."""

    def run():
        sim = Simulator()
        server = FairShareServer(sim, "cpu", capacity=6, job_cap=1.0)
        for i in range(1000):
            sim.defer(i * 0.01, lambda: server.submit(0.5))
        sim.run()
        return server.active_jobs

    assert benchmark(run) == 0


@pytest.mark.benchmark(group="micro-facedet")
def test_face_detection_kernel(benchmark):
    rng = np.random.default_rng(0)
    image, truths = generate_face_image(320, 240, 5, rng)
    detections = benchmark(lambda: detect_faces(image))
    assert len(detections) >= 4


@pytest.mark.benchmark(group="micro-digit")
def test_digit_recognition_kernel(benchmark):
    data = generate_dataset(2000, 500, seed=0)
    predictions = benchmark(
        lambda: classify(data.test, data.train, data.train_labels, k=3)
    )
    assert (predictions == data.test_labels).mean() > 0.9
