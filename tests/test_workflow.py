"""The ``runtime-only`` job of ``.github/workflows/tier1.yml``, run as a test.

Every ``run:`` step of the job runs in the workflow's order, in one
temporary directory, under ``bash -eo pipefail``, with a ``fairpost`` wrapper
for ``python -m fairpost.cli`` and this interpreter as ``python`` first on
``PATH``.  The workflow stays the only list of the steps.  The install steps
are skipped: the steps run against the numpy installed here, so the job's
``numpy==2.0.*`` floor is checked on a CI runner only.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def runtime_only_steps() -> list[tuple[str, str]]:
    """``(name, script)`` of each ``run:`` step of the job but the installs."""
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["runtime-only"]
    return [(step["name"], step["run"]) for step in job["steps"]
            if "run" in step and not step["name"].startswith("Install")]


def test_runtime_only_steps_pass(tmp_path):
    steps = runtime_only_steps()
    assert steps, f"no run steps in the runtime-only job of {WORKFLOW}"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "fairpost"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m fairpost.cli "$@"\n')
    wrapper.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    work = tmp_path / "work"
    work.mkdir()
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    for name, script in steps:
        done = subprocess.run(["bash", "-eo", "pipefail", "-c", script], cwd=work, env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            pytest.fail(f"step '{name}' exited {done.returncode}\n"
                        f"stdout:\n{done.stdout}\nstderr:\n{done.stderr}", pytrace=False)
