"""The gates and the docs describe the present.

``ci/gates.sh`` is the one place that says what is checked and how;
``.github/workflows/ci.yml`` only calls it. These tests keep that true:
every repo path the script, the workflow and the docs name must exist,
the workflow is three jobs of one ``ci/gates.sh`` call each, and no test
file runs in two gates.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATES = ROOT / "ci" / "gates.sh"
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
DOCUMENTS = [GATES, WORKFLOW, ROOT / "README.md", ROOT / "DESIGN.md",
             *sorted((ROOT / "docs").glob("*.md")),
             ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]

#: A repo path: one of the five roots, then path characters (``*`` so a
#: glob like ``benchmarks/test_fig*.py`` is checked as a glob). Not
#: matched inside a longer path (``<side>/benchmarks/...``).
_PATH = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|examples|src/repro|ci)/[\w./*-]+)")


def _named_paths(text):
    return {match.rstrip(".") for match in _PATH.findall(text)}


@pytest.mark.parametrize("document", DOCUMENTS,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_named_path_exists(document):
    missing = sorted(path for path in _named_paths(document.read_text())
                     if not any(ROOT.glob(path.rstrip("/"))))
    assert not missing, f"{document.name} names files that do not exist"


def test_workflow_is_three_jobs_that_call_the_gates():
    text = WORKFLOW.read_text()
    jobs = re.findall(r"^  ([\w-]+):$", text.split("\njobs:\n")[1], re.M)
    assert jobs == ["tests", "determinism", "ledger"]
    runs = re.findall(r"^\s+run: (.*)$", text, re.M)
    gate_calls = [run for run in runs if "pip install" not in run]
    assert gate_calls == [f"ci/gates.sh {job}" for job in jobs]
    assert len(runs) == 2 * len(jobs)  # one install + one gate per job


def test_no_test_file_runs_in_two_gates():
    bodies = dict(re.findall(r"^gate_(\w+)\(\) \{\n(.*?)^\}", GATES.read_text(),
                             re.M | re.S))
    assert sorted(bodies) == ["determinism", "ledger", "tests"]
    home = {}
    for gate, body in bodies.items():
        for test_file in set(re.findall(r"[\w/]*test_\w+\.py", body)):
            assert test_file not in home, (
                f"{test_file} runs in {home[test_file]} and {gate}")
            home[test_file] = gate
    # The tests gate runs tests/ whole and benchmarks/ minus what it
    # ignores: a file another gate names must be in an ignored directory.
    ignored = re.findall(r"--ignore=(\S+)", bodies["tests"])
    for test_file, gate in home.items():
        if gate != "tests":
            assert any(test_file.startswith(f"{directory}/")
                       for directory in ignored), (
                f"{test_file} runs in {gate} and in tests")
