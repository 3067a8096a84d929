"""The CI workflow must run what the repo tests, and only files that exist.

The workflow is read with a regex rather than a YAML parser (PyYAML is not a
dependency): every ``run:`` command, single-line or block, is scanned for
repo-relative ``*.py`` and ``*.json`` paths.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

RUN = re.compile(r"^[\s-]*run:\s*(.*)$")
PATH = re.compile(r"(?<![\w./-])([\w.-]+(?:/[\w.-]+)*\.(?:py|json))\b")
TEST_FUNCTION = re.compile(r"^\s*def test_", re.MULTILINE)


def run_commands(text: str) -> list[str]:
    """Every ``run:`` command in the workflow, block scalars joined."""
    commands = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = RUN.match(line)
        if match is None:
            continue
        indent, value = line.index("run:"), match.group(1).strip()
        if value not in ("|", ">", "|-", ">-"):
            commands.append(value)
            continue
        block = []
        for following in lines[index + 1 :]:
            if following.strip() and len(following) - len(following.lstrip()) <= indent:
                break
            block.append(following.strip())
        commands.append("\n".join(block))
    return commands


def workflow_paths() -> set[str]:
    """Every repo-relative ``*.py``/``*.json`` path in the workflow's commands."""
    return {
        path
        for command in run_commands(WORKFLOW.read_text())
        for path in PATH.findall(command)
    }


def test_every_script_and_spec_the_workflow_uses_exists():
    paths = workflow_paths()
    assert paths, "no *.py or *.json path found in the workflow's run commands"
    missing = sorted(path for path in paths if not (ROOT / path).is_file())
    assert missing == []


def repo_python_files() -> list[str]:
    """Repo-relative paths of every ``*.py`` file outside hidden directories."""
    found = []
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if not d.startswith(".") and d != "__pycache__"]
        found.extend(
            os.path.relpath(os.path.join(directory, name), ROOT)
            for name in files
            if name.endswith(".py")
        )
    return sorted(found)


def collected_by_tier1(path: str) -> bool:
    """Tier-1 is ``python -m pytest`` from the root: ``tests/**/test_*.py``."""
    parts = Path(path).parts
    return parts[0] == "tests" and parts[-1].startswith("test_")


def test_every_test_file_is_collected_by_tier1_or_run_by_the_workflow():
    run_paths = workflow_paths()
    orphans = [
        path
        for path in repo_python_files()
        if TEST_FUNCTION.search((ROOT / path).read_text(encoding="utf-8"))
        and not collected_by_tier1(path)
        and path not in run_paths
    ]
    assert orphans == [], "test files no CI job runs"
