"""The CI workflow file loads as YAML, and each of its steps either runs a
command or uses an action."""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def test_every_workflow_step_runs_a_command_or_uses_an_action():
    workflow = yaml.safe_load(_WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert len({"run", "uses"} & set(step)) == 1, step
