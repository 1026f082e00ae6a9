"""The gates and the docs describe the present.

``ci/gates.sh`` is the one place that says what is checked and how;
``.github/workflows/ci.yml`` only calls it. These tests keep that true:
every repo path the script, the workflow and the docs name must exist,
so must every code name the docs put in backticks, docs/API.md's Sources
and Targets tables say what each endpoint class has, the workflow is
three jobs of one ``ci/gates.sh`` call each, no test file runs in
two gates, no budget test puts a number in its name, and every flow and
congestion option has a caller.
"""

import ast
import builtins
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core import FlowOptions
from repro.simnet import CongestionConfig

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


#: A fenced block, an inline code span, a quoted string inside one (data,
#: not a name: ``"<QQ48x"``), a ``file.py::Name`` test reference, a
#: CamelCase-looking name (private ones too: ``_Doorbell``), and a private
#: name (``_uint_route``, ``_HASH_MULT``) — not one next to ``*`` or
#: ``[``, which make it a pattern (``_flush*``, ``x[_one]``).
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_QUOTED = re.compile(r"\"[^\"]*\"|'[^']*'")
_TEST_REF = re.compile(r"([\w/.-]+\.py)::(\w+)")
_NAME = re.compile(r"\b(_*[A-Z][A-Za-z0-9]*)\b")
_PRIVATE = re.compile(r"(?<![\w*\[])(_[A-Za-z][A-Za-z0-9_]*)(?![\w*\[])")

#: Backticked CamelCase words that are not code names.
_NOT_CODE = {"VmHWM"}  # a /proc/self/status field


def _is_camel(name):
    name = name.lstrip("_")
    return (any(c.islower() for c in name)
            and any(c.isupper() for c in name[1:]))


def _defined_names(paths):
    """Every ``class``/``def`` name, at any depth, and every module-level
    assignment target of the Python files under ``paths``."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                names.add(node.name)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names.update(leaf.id for target in targets
                          for leaf in ast.walk(target)
                          if isinstance(leaf, ast.Name))
    return names


def _bound_names(paths):
    """Every name the Python files under ``paths`` bind, at any depth:
    ``class``/``def`` names, arguments, import aliases, and the names and
    attributes assigned to (``_NUMPY = …``, ``self._fanout = …``)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                               ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Load):
                names.add(node.attr)
    return names


@pytest.fixture(scope="module")
def code_names():
    return (_defined_names([*(ROOT / "src" / "repro").rglob("*.py"),
                            *(ROOT / "benchmarks").rglob("*.py")])
            | set(dir(builtins)) | _NOT_CODE)


@pytest.fixture(scope="module")
def private_names():
    return _bound_names([*(ROOT / "src" / "repro").rglob("*.py"),
                         *(ROOT / "benchmarks").rglob("*.py"),
                         *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("document",
                         [path for path in DOCUMENTS if path.suffix == ".md"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_named_symbol_exists(document, code_names, private_names):
    """A class, function or constant a doc names in backticks is defined
    under ``src/repro`` or ``benchmarks`` (a ``tests/…py::Name``
    reference: in that test file), and a private name is bound somewhere
    under ``src/repro``, ``benchmarks`` or ``tests``."""
    missing = set()
    for span in _SPAN.findall(_FENCE.sub("", document.read_text())):
        span = _QUOTED.sub("", span)
        for path, name in _TEST_REF.findall(span):
            if name not in _defined_names([ROOT / path]):
                missing.add(f"{path}::{name}")
        span = _TEST_REF.sub("", span)
        for name in _NAME.findall(span):
            if _is_camel(name) and name not in code_names:
                missing.add(name)
        missing.update(name for name in _PRIVATE.findall(span)
                       if name not in private_names)
    assert not missing, (
        f"{document.name} names code that does not exist: {sorted(missing)}")


def test_design_inventory_lists_every_core_module():
    """DESIGN.md §3's ``core/`` entry names each module under
    ``src/repro/core`` once, and no module that is not there."""
    text = (ROOT / "DESIGN.md").read_text()
    inventory = text.split("\n## 3. ", 1)[1].split("\n## 4. ", 1)[0]
    core = re.search(r"^  core/.*?(?=^  \S)", inventory, re.M | re.S)
    listed = re.findall(r"^ +(\w+\.py) ", core.group(0), re.M)
    modules = [path.name
               for path in (ROOT / "src" / "repro" / "core").glob("*.py")
               if path.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def _api_table(title):
    """The cells of the docs/API.md table under the line that starts with
    ``title``: one ``(class name, class, [(method names, cell)])`` per
    row, the method names the backticked ones of the cell's column
    header (``a`` / ``b``, with or without ``()``)."""
    from repro.core import combiner, replicate, sharp, shuffle

    modules = (shuffle, replicate, combiner, sharp)
    text = (ROOT / "docs" / "API.md").read_text()
    table = text.split(f"\n{title}", 1)[1].split("\n\n", 2)[1]
    header, _rule, *rows = table.splitlines()
    columns = [re.findall(r"`(\w+)(?:\(\))?`", cell)
               for cell in header.split("|")[2:-1]]
    assert rows and all(columns)
    for row in rows:
        cells = [cell.strip() for cell in row.split("|")[1:-1]]
        name = re.match(r"`(\w+)`", cells[0]).group(1)
        cls = next(getattr(module, name) for module in modules
                   if hasattr(module, name))
        yield name, cls, list(zip(columns, cells[1:]))


def test_api_sources_table_is_what_each_class_has():
    """docs/API.md's Sources table, cell by cell: ``yes`` exactly where
    the class has the method (both names, in a ``a`` / ``b`` column)."""
    for name, cls, cells in _api_table("Sources, by the class"):
        for names, cell in cells:
            assert cell in ("yes", "—")
            for method in names:
                assert hasattr(cls, method) == (cell == "yes"), (
                    f"{name}.{method}: the table says {cell}")


def test_api_targets_table_is_what_each_class_has():
    """docs/API.md's Targets table, cell by cell: a cell that starts with
    ``—`` where the class lacks the column's method (both names, in a
    ``a()`` / ``b()`` column), any other cell where it has it — and every
    name a present cell puts in backticks is an attribute of the
    class."""
    for name, cls, cells in _api_table("Targets, by the class"):
        for names, cell in cells:
            present = not cell.startswith("—")
            for method in names:
                assert hasattr(cls, method) == present, (
                    f"{name}.{method}: the table says {cell}")
            if present:
                for attribute in re.findall(r"`(\w+)`", cell):
                    assert hasattr(cls, attribute), (
                        f"{name}.{attribute}: the table names it")


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


def test_no_budget_test_names_a_number():
    """A budget's bound lives in one module constant that its failure
    message prints; a number in the test's name goes stale the first
    time the bound moves, and then names the wrong cause."""
    stale = [f"{path.name}::{node.name}"
             for path in sorted((ROOT / "tests").glob("test_*budget*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith("test") and re.search(r"\d", node.name)]
    assert not stale, f"budget tests whose names state a number: {stale}"


#: Options that no code under ``src``, ``benchmarks`` or ``examples``
#: sets, each kept for the reason given.
_CALLERLESS_OPTIONS = {
    "peer_timeout": "failure policy: the chaos matrix sets it",
    "max_backoff_retries": "failure policy: the chaos matrix sets it",
    "max_retransmits": "failure policy: the chaos matrix sets it",
    "on_target_failure": "failure policy: the chaos matrix sets it",
    "trace": "per-flow tracing request: benches and examples enable the "
             "plane cluster-wide, the obs tests drive this door",
}

#: The calls an option is set through: the two constructors, a
#: classmethod's ``cls(...)`` and ``dataclasses.replace``.
_OPTION_CALLS = {"FlowOptions", "CongestionConfig", "cls", "replace"}


def test_every_flow_and_congestion_option_has_a_caller():
    """An option is a promise to keep a second path working: each field of
    ``FlowOptions`` and ``CongestionConfig`` is set by keyword somewhere
    under ``src``, ``benchmarks`` or ``examples`` (tests do not count),
    or is allow-listed with its reason."""
    set_by_keyword = set()
    for directory in ("src", "benchmarks", "examples"):
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr",
                                                            None)
                if name in _OPTION_CALLS:
                    set_by_keyword.update(keyword.arg
                                          for keyword in node.keywords)
    fields = {field.name for config in (FlowOptions, CongestionConfig)
              for field in dataclasses.fields(config)}
    assert set(_CALLERLESS_OPTIONS) <= fields, "allow-list names a non-field"
    callerless = sorted(fields - set_by_keyword - set(_CALLERLESS_OPTIONS))
    assert not callerless, f"options nothing sets: {callerless}"
