"""The paper's workloads: functional implementations + calibrated profiles.

Rosetta face detection and digit recognition, NPB CG and MG, and BFS —
each a real computation (pure, target-independent kernels) paired with
a performance profile calibrated to the paper's Tables 1 and 4.
"""

from repro._lazy import lazy_exports

__getattr__ = lazy_exports(globals(), {
    ".base": (
        "BFSWorkload",
        "CGWorkload",
        "DigitRecognitionWorkload",
        "FaceDetectionWorkload",
        "MGWorkload",
        "MultiImageFaceDetection",
        "SpamFilterWorkload",
        "Workload",
    ),
    ".perfmodel": (
        "PAPER_TABLE1_MS",
        "PAPER_TABLE2",
        "PAPER_TABLE4_MS",
        "CalibrationError",
        "WorkloadProfile",
        "all_profiles",
        "profile_for",
    ),
    ".registry": ("PAPER_BENCHMARKS", "available_workloads", "create_workload"),
})

__all__ = [
    "BFSWorkload",
    "CGWorkload",
    "CalibrationError",
    "DigitRecognitionWorkload",
    "FaceDetectionWorkload",
    "MGWorkload",
    "MultiImageFaceDetection",
    "PAPER_BENCHMARKS",
    "PAPER_TABLE1_MS",
    "PAPER_TABLE2",
    "PAPER_TABLE4_MS",
    "SpamFilterWorkload",
    "Workload",
    "WorkloadProfile",
    "all_profiles",
    "available_workloads",
    "create_workload",
    "profile_for",
]
