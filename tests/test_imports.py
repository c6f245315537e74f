"""The import graph: the simulation loads only what it runs.

Packages resolve their public names on first access (``repro._lazy``),
so a simulation never loads the MiniC/VM toolchain, the workload
kernels, the experiments layer beyond the set harness, the chaos
harness or the sweep's process pool. The first test holds a fresh
interpreter to that, the second holds the CLI's parser to loading no
run-time at all, and the others hold every package's name table to
``__all__``.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: Modules no simulation runs, by name.
_NOT_RUN = (
    # The functional toolchain: MiniC, the migratable VM, xELF files.
    "repro.popcorn.vm",
    "repro.popcorn.minic",
    "repro.popcorn.elf",
    # The workload kernels (only functional runs execute them).
    "repro.workloads.base",
    "repro.workloads.bfs",
    "repro.workloads.digit_recognition",
    "repro.workloads.face_detection",
    "repro.workloads.npb_cg",
    "repro.workloads.npb_mg",
    "repro.workloads.spam_filter",
    "repro.workloads.images",
    # The experiments layer other than the set harness and its seeds.
    "repro.experiments.binaries",
    "repro.experiments.fixed_workload",
    "repro.experiments.loads",
    "repro.experiments.observability",
    "repro.experiments.periodic",
    "repro.experiments.profitability",
    "repro.experiments.report",
    "repro.experiments.sensitivity",
    "repro.experiments.tables",
    "repro.experiments.throughput",
    "repro.experiments.timeline",
    # The chaos harness, and the sweep's worker pool.
    "repro.faults.harness",
    "multiprocessing",
    "concurrent.futures",
)

#: The benchmark's imports, one deployment with one client run to
#: completion, and one application set through the experiment harness.
_SIMULATION = """
import json, sys
import repro, repro.core, repro.experiments.harness, repro.faults, repro.fleet, repro.traffic
from repro.workloads import PAPER_BENCHMARKS

runtime = repro.core.build_system(["digit.500"], seed=0)
record = runtime.platform.sim.run_until_event(runtime.launch("digit.500", seed=1))
assert record.finished and record.calls_completed > 0
outcome = repro.experiments.harness.run_application_set(
    ["digit.500"], repro.core.SystemMode.XAR_TREK, seed=0
)
assert all(rec.finished for rec in outcome.records)
print(json.dumps(sorted(sys.modules)))
"""

_PACKAGES = ["repro"] + [
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
]


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_simulation_loads_none_of_what_it_does_not_run():
    loaded = set(json.loads(_fresh_python(_SIMULATION)))
    assert sorted(loaded.intersection(_NOT_RUN)) == []


def test_the_cli_parser_loads_no_run_time():
    # `repro --help` reads only the report's table and figure names and
    # the workload registry; each command imports what it runs.
    loaded = json.loads(_fresh_python(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ))
    run_time = ("repro.compiler", "repro.core", "repro.popcorn", "repro.xrt",
                "repro.faults", "repro.fleet", "numpy")
    assert sorted(
        name for name in loaded
        if any(name == pkg or name.startswith(pkg + ".") for pkg in run_time)
    ) == []


def test_a_submodule_resolves_as_an_attribute_before_it_is_imported():
    # `import repro` loads no subpackage, yet every dotted path still
    # resolves on first read, and an unknown name is an AttributeError.
    _fresh_python(
        "import repro\n"
        "assert repro.core.cohort.CohortSpec.__module__ == 'repro.core.cohort'\n"
        "assert repro.sim.Simulator is repro.sim.engine.Simulator\n"
        "assert not hasattr(repro, 'no_such_name')\n"
        "assert not hasattr(repro.core, 'no_such_module')\n"
        "assert not hasattr(repro.core, 'no.such.module')\n"
    )


def _submodules(package):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        if not info.name.endswith(".__main__"):
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("name", _PACKAGES)
def test_every_public_name_resolves_to_its_submodules_object(name):
    package = importlib.import_module(name)
    submodules = list(_submodules(package))
    for public in package.__all__:
        if public == "__version__":
            continue
        value = getattr(package, public)
        assert any(
            getattr(module, public, None) is value for module in submodules
        ), f"{name}.{public} is not the object a submodule defines"
    star: dict = {}
    exec(f"from {name} import *", star)
    assert set(package.__all__) <= set(star)


def test_compiler_functions_outlive_their_submodules_import():
    # repro.compiler exports functions named like two of its own
    # submodules; importing a submodule must not rebind the name.
    import repro.compiler
    import repro.compiler.instrument
    import repro.compiler.partition

    assert repro.compiler.instrument is sys.modules["repro.compiler.instrument"].instrument
    assert repro.compiler.partition is sys.modules["repro.compiler.partition"].partition
    assert callable(repro.compiler.instrument) and callable(repro.compiler.partition)
