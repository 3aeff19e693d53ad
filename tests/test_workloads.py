"""The benchmark's workloads (`perfbench/workloads.py`) at toy size.

Each workload builds its job list from seed 3 in a temporary directory,
runs it once in order and applies each job's own check, as one
repetition of `perfbench/run.py` does.  This guards the public calls the
benchmark makes (`gamma=`, `ControlProcess(values, flag)`, `sol.y`,
`as_driver`, `cli.main`) against a change that would break them.  The
benchmark's files are read, never written.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import mfbsde
import mfbsde.cli  # noqa: F401  (the CLI workload calls mfbsde.cli.main)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / \
    "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    # no bytecode cache is written next to the benchmark's files
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    jobs = workload.build(mfbsde, 3, workload.sizes["toy"], tmp_path)
    assert jobs
    earlier = {}
    for job in jobs:
        out = job.run()
        assert out.ok, f"{job.name} did not converge or exited non-zero"
        problem = job.check(out, earlier)
        assert problem is None, f"{job.name}: {problem}"
        earlier[job.name] = out
