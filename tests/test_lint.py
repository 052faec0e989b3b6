"""Tests for the ``repro.lint`` invariant linter.

Two layers:

* mechanics — suppression parsing, the JSON reporter schema, CLI exit
  codes;
* anti-vacuity — one *seeded-mutation* test per rule: a minimal clean
  project passes, then a single targeted mutation (the exact defect the
  rule exists to catch) is applied and the rule must fire.  A rule that
  passes both halves provably distinguishes the defect from its absence.

The mutant projects are written to ``tmp_path`` with real
``__init__.py`` chains so the structural module-name derivation
(``src/repro/parallel/tasks.py`` -> ``repro.parallel.tasks``) is
exercised, not mocked; nothing in them is ever imported.
"""

from __future__ import annotations

import io
import json
import textwrap

import pytest

from repro.exceptions import InvalidParameterError
from repro.lint import (
    JSON_SCHEMA_VERSION,
    SUPPRESSION_RULE,
    all_rules,
    known_rule_ids,
    parse_suppressions,
    run_lint,
)
from repro.lint.cli import main as lint_main
from repro.lint.reporters import report_github, report_json
from repro.lint.symbols import module_name_for, parse_module

ALL_RULE_IDS = {"REPRO001", "REPRO002", "REPRO003", "REPRO004", "REPRO005", "REPRO006"}


def write_tree(base, files):
    for rel, content in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return base


def lint_paths(*paths, **kwargs):
    return run_lint([str(p) for p in paths], **kwargs)


def fired(report, rule_id):
    return [f for f in report.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# registry + symbols
# ---------------------------------------------------------------------------


def test_rule_registry_is_complete_and_sorted():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert set(ids) == ALL_RULE_IDS
    assert set(known_rule_ids()) == ALL_RULE_IDS | {SUPPRESSION_RULE}


def test_module_name_derivation(tmp_path):
    write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/graph/__init__.py": "",
        "src/repro/graph/csr.py": "x = 1\n",
        "tests/test_foo.py": "y = 2\n",
    })
    assert module_name_for(str(tmp_path / "src/repro/graph/csr.py")) == "repro.graph.csr"
    assert module_name_for(str(tmp_path / "src/repro/graph/__init__.py")) == "repro.graph"
    # No __init__ chain above tests/: the stem stands alone.
    assert module_name_for(str(tmp_path / "tests/test_foo.py")) == "test_foo"


def test_relative_import_in_package_init_resolves_against_the_package(tmp_path):
    # A package's __init__.py is named after the package, so its ``.`` is
    # the package itself; in a sibling module ``.`` is the parent package.
    write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py": "from .mod import helper\n",
        "src/repro/pkg/mod.py": "def helper():\n    return 1\n",
        "src/repro/pkg/other.py": "from .mod import helper\n",
    })
    for name in ("__init__.py", "other.py"):
        module = parse_module(str(tmp_path / "src/repro/pkg" / name))
        assert module.imports["helper"] == "repro.pkg.mod.helper", name


# ---------------------------------------------------------------------------
# suppression parsing
# ---------------------------------------------------------------------------


class TestSuppressions:
    KNOWN = frozenset({SUPPRESSION_RULE, "REPRO003"})

    def parse(self, source):
        return parse_suppressions("x.py", textwrap.dedent(source), set(self.KNOWN))

    def test_trailing_directive_covers_its_line(self):
        sup = self.parse("""\
            value = boom()  # repro-lint: disable=REPRO003 -- justified here
        """)
        assert sup.problems == []
        assert sup.covers("REPRO003", 1)
        assert not sup.covers("REPRO003", 2)

    def test_comment_block_shields_first_code_line_below(self):
        sup = self.parse("""\
            # repro-lint: disable=REPRO003 -- the justification is long
            # and continues on a second comment line before the code.
            value = boom()
        """)
        assert sup.problems == []
        assert sup.covers("REPRO003", 3)

    def test_missing_reason_is_a_finding(self):
        sup = self.parse("value = boom()  # repro-lint: disable=REPRO003\n")
        assert len(sup.problems) == 1
        assert sup.problems[0].rule == SUPPRESSION_RULE
        assert "reason" in sup.problems[0].message
        assert not sup.covers("REPRO003", 1)

    def test_unknown_rule_id_is_a_finding(self):
        sup = self.parse("x = 1  # repro-lint: disable=REPRO999 -- why\n")
        assert any("REPRO999" in p.message for p in sup.problems)

    def test_meta_rule_cannot_be_suppressed(self):
        sup = self.parse(
            f"x = 1  # repro-lint: disable={SUPPRESSION_RULE} -- nice try\n"
        )
        assert any("cannot be suppressed" in p.message for p in sup.problems)
        assert not sup.covers(SUPPRESSION_RULE, 1)

    def test_disable_file_covers_every_line(self):
        sup = self.parse("""\
            # repro-lint: disable-file=REPRO003 -- battery asserts via journal
            a = 1
            b = 2
        """)
        assert sup.problems == []
        assert sup.covers("REPRO003", 3)
        assert sup.covers("REPRO003", 999)

    def test_marker_inside_string_literal_is_ignored(self):
        sup = self.parse("""\
            doc = "say # repro-lint: disable=REPRO003 in a string"
        """)
        assert sup.problems == []
        assert not sup.covers("REPRO003", 1)


# ---------------------------------------------------------------------------
# seeded mutations, one per rule
# ---------------------------------------------------------------------------

PARALLEL_PKG = {
    "src/repro/__init__.py": "",
    "src/repro/parallel/__init__.py": "",
}

TASKS_CLEAN = """\
    import time
    from repro.parallel.work import helper

    def solve_task(context, keys):
        began = time.perf_counter()  # observability, exempt by contract
        out = {}
        for key in sorted(keys):
            out[key] = helper(context, key)
        return out, time.perf_counter() - began
"""

HELPER_CLEAN = """\
    def helper(context, key):
        return context["bias"] + key
"""

HELPER_MUTANT = """\
    import random

    def helper(context, key):
        return context["bias"] + key + random.random()
"""


class TestRepro001TaskDeterminism:
    def project(self, tmp_path, helper_src, tasks_src=TASKS_CLEAN):
        return write_tree(tmp_path, {
            **PARALLEL_PKG,
            "src/repro/parallel/tasks.py": tasks_src,
            "src/repro/parallel/work.py": helper_src,
        })

    def test_clean_project_passes(self, tmp_path):
        report = lint_paths(self.project(tmp_path, HELPER_CLEAN) / "src")
        assert fired(report, "REPRO001") == []

    def test_mutation_direct_wall_clock(self, tmp_path):
        mutant = TASKS_CLEAN.replace("time.perf_counter()", "time.time()", 1)
        report = lint_paths(self.project(tmp_path, HELPER_CLEAN, mutant) / "src")
        findings = fired(report, "REPRO001")
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_mutation_set_iteration(self, tmp_path):
        mutant = TASKS_CLEAN.replace("sorted(keys)", "set(keys)", 1)
        report = lint_paths(self.project(tmp_path, HELPER_CLEAN, mutant) / "src")
        assert len(fired(report, "REPRO001")) == 1

    def test_mutation_one_call_level_deep(self, tmp_path):
        # The defect lives in the helper the task calls, not the task.
        report = lint_paths(self.project(tmp_path, HELPER_MUTANT) / "src")
        findings = fired(report, "REPRO001")
        assert len(findings) == 1
        assert "random.random" in findings[0].message
        assert "reached from task solve_task" in findings[0].message


SETSTATE_CLEAN = """\
    import math

    class Table:
        def __setstate__(self, state):
            dist = state["dist"]
            self.dist = [math.inf if d == math.inf else d for d in dist]
"""


class TestRepro002SetstateCanonicalisation:
    def test_clean_project_passes(self, tmp_path):
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/table.py": SETSTATE_CLEAN,
        })
        assert fired(lint_paths(tree / "src"), "REPRO002") == []

    def test_mutation_drops_recanonicalisation(self, tmp_path):
        mutant = SETSTATE_CLEAN.replace(
            "[math.inf if d == math.inf else d for d in dist]", "dist"
        )
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/table.py": mutant,
        })
        findings = fired(lint_paths(tree / "src"), "REPRO002")
        assert len(findings) == 1
        assert "'dist'" in findings[0].message
        assert findings[0].symbol == "Table.__setstate__"


RAISES_CLEAN = """\
    from repro.exceptions import InvalidParameterError

    def check(n):
        if n < 0:
            raise InvalidParameterError(f"n must be non-negative, got {n}")

    class Mapping:
        def __getitem__(self, key):
            raise KeyError(key)  # protocol type in a dunder: exempt

    class Base:
        def solve(self):
            raise NotImplementedError  # abstract idiom: exempt
"""


class TestRepro003TypedRaises:
    def test_clean_project_passes(self, tmp_path):
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/checks.py": RAISES_CLEAN,
        })
        assert fired(lint_paths(tree / "src"), "REPRO003") == []

    def test_mutation_untypes_the_raise(self, tmp_path):
        mutant = RAISES_CLEAN.replace("raise InvalidParameterError", "raise ValueError")
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/checks.py": mutant,
        })
        findings = fired(lint_paths(tree / "src"), "REPRO003")
        assert len(findings) == 1
        assert "ValueError" in findings[0].message

    def test_protocol_type_outside_dunder_is_flagged(self, tmp_path):
        mutant = RAISES_CLEAN + (
            "\n"
            "    def lookup(key):\n"
            "        raise KeyError(key)\n"
        )
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/checks.py": mutant,
        })
        assert len(fired(lint_paths(tree / "src"), "REPRO003")) == 1


CONTEXT_CLEAN = """\
    from repro.parallel.executor import worker_context

    def run_chunk(keys):
        context = worker_context()
        return [context["bias"] + k for k in keys]
"""


class TestRepro004FrozenContexts:
    def tree(self, tmp_path, source):
        return write_tree(tmp_path, {
            **PARALLEL_PKG,
            "src/repro/parallel/executor.py": "def worker_context():\n    return {}\n",
            "src/repro/parallel/chunk.py": source,
        })

    def test_clean_project_passes(self, tmp_path):
        report = lint_paths(self.tree(tmp_path, CONTEXT_CLEAN) / "src")
        assert fired(report, "REPRO004") == []

    def test_mutation_writes_into_the_context(self, tmp_path):
        mutant = CONTEXT_CLEAN.replace(
            'return [context["bias"] + k for k in keys]',
            'context["bias"] += 1\n    return [context["bias"] + k for k in keys]',
        )
        report = lint_paths(self.tree(tmp_path, mutant) / "src")
        findings = fired(report, "REPRO004")
        assert len(findings) == 1
        assert "context" in findings[0].message

    def test_mutation_calls_a_dict_mutator(self, tmp_path):
        mutant = CONTEXT_CLEAN.replace(
            'return [context["bias"] + k for k in keys]',
            'context.update(bias=9)\n    return list(keys)',
        )
        report = lint_paths(self.tree(tmp_path, mutant) / "src")
        assert len(fired(report, "REPRO004")) == 1


CHAOS_CLEAN = """\
    from repro.faults import Fault, FaultPlan, active_plan, fired_count

    def test_kill_recovers(tmp_path):
        plan = FaultPlan([Fault("kill_worker", chunk_index=0)])
        with active_plan(plan, str(tmp_path)) as plan_path:
            run_phase()
            assert fired_count(plan_path) == 1
"""


class TestRepro005ChaosAntivacuity:
    def tree(self, tmp_path, source):
        return write_tree(tmp_path, {"tests/test_chaos.py": source})

    def test_clean_test_passes(self, tmp_path):
        report = lint_paths(self.tree(tmp_path, CHAOS_CLEAN) / "tests")
        assert fired(report, "REPRO005") == []

    def test_mutation_drops_the_assert(self, tmp_path):
        mutant = CHAOS_CLEAN.replace(
            "            assert fired_count(plan_path) == 1\n", ""
        )
        report = lint_paths(self.tree(tmp_path, mutant) / "tests")
        findings = fired(report, "REPRO005")
        assert len(findings) == 1
        assert "test_kill_recovers" in findings[0].message

    def test_helper_that_injects_and_asserts_satisfies_callers(self, tmp_path):
        source = """\
            from repro.faults import Fault, FaultPlan, active_plan, fired_count

            def _chaos_round(tmp_path, kind):
                plan = FaultPlan([Fault(kind, chunk_index=0)])
                with active_plan(plan, str(tmp_path)) as plan_path:
                    run_phase()
                    assert fired_count(plan_path) == 1

            def test_kill(tmp_path):
                _chaos_round(tmp_path, "kill_worker")

            def test_hang(tmp_path):
                _chaos_round(tmp_path, "hang_chunk")
        """
        report = lint_paths(self.tree(tmp_path, source) / "tests")
        assert fired(report, "REPRO005") == []


NUMPY_FREE = """\
    import math

    def walk(xs):
        return [math.floor(x) for x in xs]
"""

#: where -> (anchor, anchor with a numpy import added next to it).
NUMPY_IMPORTS = {
    "top-level": ("    import math\n", "    import math\n    import numpy as np\n"),
    "function-local": (
        "        return [",
        "        import numpy as np\n        return [",
    ),
    "from-submodule": (
        "    import math\n",
        "    import math\n    from numpy.linalg import norm\n",
    ),
}


class TestRepro006DualSubstrate:
    def tree(self, tmp_path, source, test_source="x = 1\n"):
        return write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/fast.py": source,
            "tests/test_fast.py": test_source,
        })

    def test_clean_project_passes(self, tmp_path):
        report = lint_paths(self.tree(tmp_path, NUMPY_FREE) / "src")
        assert fired(report, "REPRO006") == []

    @pytest.mark.parametrize("where", sorted(NUMPY_IMPORTS))
    def test_mutation_imports_numpy(self, tmp_path, where):
        mutant = NUMPY_FREE.replace(*NUMPY_IMPORTS[where])
        assert mutant != NUMPY_FREE
        report = lint_paths(self.tree(tmp_path, mutant) / "src")
        findings = fired(report, "REPRO006")
        assert len(findings) == 1
        assert "repro.fast imports numpy" in findings[0].message

    def test_test_modules_may_import_numpy(self, tmp_path):
        tree = self.tree(tmp_path, NUMPY_FREE, "import numpy as np\n")
        report = lint_paths(tree / "src", tree / "tests")
        assert report.files_scanned == 3
        assert fired(report, "REPRO006") == []


# ---------------------------------------------------------------------------
# engine plumbing: suppression end-to-end, reporters, REPRO000
# ---------------------------------------------------------------------------


def mutant_tree(tmp_path):
    """One-file project with a single REPRO003 violation."""
    return write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/bad.py": "def f():\n    raise ValueError('x')\n",
    })


def test_suppression_silences_the_finding_end_to_end(tmp_path):
    tree = write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/bad.py": (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: disable=REPRO003 -- test fixture\n"
        ),
    })
    report = lint_paths(tree / "src")
    assert report.clean
    assert report.suppressed_count == 1


def test_unparsable_file_is_a_repro000_finding(tmp_path):
    tree = write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/broken.py": "def f(:\n",
    })
    report = lint_paths(tree / "src")
    findings = fired(report, SUPPRESSION_RULE)
    assert len(findings) == 1
    assert "does not parse" in findings[0].message


def test_json_reporter_schema(tmp_path):
    report = lint_paths(mutant_tree(tmp_path) / "src")
    stream = io.StringIO()
    report_json(report, stream)
    payload = json.loads(stream.getvalue())
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "repro-lint"
    assert payload["files_scanned"] == report.files_scanned
    assert payload["counts"] == {"findings": 1, "suppressed": 0}
    (entry,) = payload["findings"]
    assert set(entry) == {"rule", "path", "line", "col", "symbol", "message"}
    assert entry["rule"] == "REPRO003"
    assert entry["line"] == 2
    assert entry["symbol"] == "f"


def test_github_reporter_annotations(tmp_path):
    report = lint_paths(mutant_tree(tmp_path) / "src")
    stream = io.StringIO()
    report_github(report, stream)
    first = stream.getvalue().splitlines()[0]
    assert first.startswith("::error file=")
    assert "title=REPRO003" in first


def test_select_narrows_and_validates():
    with pytest.raises(InvalidParameterError):
        run_lint(["src"], select=["NOPE"])


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


class TestLintCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/ok.py": "x = 1\n",
        })
        assert lint_main([str(tree / "src")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        tree = mutant_tree(tmp_path)
        assert lint_main([str(tree / "src")]) == 1
        assert "REPRO003" in capsys.readouterr().out

    def test_bad_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "neither a file nor a directory" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in sorted(ALL_RULE_IDS | {SUPPRESSION_RULE}):
            assert rule_id in out

    def test_repo_is_lint_clean(self):
        """The committed tree itself: zero unsuppressed findings."""
        report = run_lint(["src", "tests"])
        assert report.clean, [f.location() + " " + f.rule for f in report.findings]
