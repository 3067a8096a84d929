"""The CI workflow must only run and validate files that exist in the repo.

The workflow is read with a regex rather than a YAML parser (PyYAML is not a
dependency): every ``run:`` command, single-line or block, is scanned for
repo-relative ``*.py`` and ``*.json`` paths.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

RUN = re.compile(r"^[\s-]*run:\s*(.*)$")
PATH = re.compile(r"(?<![\w./-])([\w.-]+(?:/[\w.-]+)*\.(?:py|json))\b")


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


def test_every_script_and_spec_the_workflow_uses_exists():
    paths = {
        path
        for command in run_commands(WORKFLOW.read_text())
        for path in PATH.findall(command)
    }
    assert paths, "no *.py or *.json path found in the workflow's run commands"
    missing = sorted(path for path in paths if not (ROOT / path).is_file())
    assert missing == []
