"""Tests for the concurrency lint rules and the lock-discipline model."""

import ast
import os

import pytest

from repro.cli import main
from repro.lint import (
    CONCURRENCY_RULE_IDS,
    build_module_model,
    lint_paths,
    lint_source,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "lint_fixtures")
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro")


def fixture(*parts) -> str:
    return os.path.join(FIXTURES, *parts)


class TestLockModel:
    SOURCE = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.RLock()
        self._aux = threading.Lock()
        self.entries = {}
        self.hits = 0

    def put(self, k, v):
        with self._lock:
            self.entries[k] = v
            self.hits += 1

    def _evict_locked(self):
        self.entries.clear()

    def misuse(self):
        self.hits = -1
"""

    def model(self, source=None):
        return build_module_model(ast.parse(source or self.SOURCE))

    def test_lock_attrs_discovered(self):
        cls = self.model().classes[0]
        assert cls.lock_attrs == {"_lock", "_aux"}
        assert cls.lock_disciplined

    def test_guards_inferred_from_with_blocks(self):
        guards = self.model().classes[0].guards()
        # ``put`` writes under _lock; ``_evict_locked`` is credited with
        # every class lock (the *_locked convention), so the union shows
        # both for ``entries``.
        assert guards["entries"] == {"_lock", "_aux"}
        assert guards["hits"] == {"_lock"}

    def test_init_writes_exempt(self):
        cls = self.model().classes[0]
        init_writes = [w for w in cls.writes if w.in_init]
        assert {w.attr for w in init_writes} >= {"entries", "hits"}
        assert all(not w.locks_held for w in init_writes)

    def test_locked_method_body_assumed_guarded(self):
        cls = self.model().classes[0]
        evict = [w for w in cls.writes if w.method == "_evict_locked"]
        assert evict and all(
            w.locks_held == frozenset({"_lock", "_aux"}) for w in evict
        )

    def test_unguarded_write_recorded(self):
        cls = self.model().classes[0]
        bad = [w for w in cls.writes if w.method == "misuse"]
        assert len(bad) == 1
        assert not bad[0].locks_held and not bad[0].in_init

    def test_job_discovery_submit(self):
        src = """
from concurrent.futures import ThreadPoolExecutor

def run(jobs, pool):
    def job(item):
        return item * 2
    def other(item):
        return item
    ThreadPoolExecutor().submit(job, jobs)
    pool.submit(other, 1)
    return map(str, jobs)  # builtin map is not an entry point
"""
        model = build_module_model(ast.parse(src))
        names = {
            fn.name for fn in model.job_functions if hasattr(fn, "name")
        }
        assert names == {"job", "other"}
        assert len(model.entry_points) == 2

    def test_lock_context_does_not_enter_closures(self):
        src = """
import threading
from concurrent.futures import ThreadPoolExecutor

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self.done = 0

    def run(self, items):
        with self._lock:
            def job(item):
                self.done = item
                return item
            return ThreadPoolExecutor().submit(job, items)
"""
        model = build_module_model(ast.parse(src))
        writes = [
            w for w in model.classes[0].writes if w.method.endswith("job")
        ]
        assert len(writes) == 1
        assert not writes[0].locks_held  # the with-block does not carry over
        assert writes[0].in_job


class TestRulesFireOnFixtures:
    @pytest.mark.parametrize(
        "path, rule_ids",
        [
            (fixture("repro", "runtime", "race001_bad.py"), ["RACE001"]),
            (fixture("repro", "runtime", "race002_bad.py"), ["RACE002"]),
            (fixture("repro", "runtime", "lock001_bad.py"), ["LOCK001"]),
            (
                fixture("repro", "runtime", "det001_bad.py"),
                ["DET001", "DET001", "DET001"],
            ),
        ],
    )
    def test_fixture_findings(self, path, rule_ids):
        result = lint_paths([path])
        assert [f.rule_id for f in result.findings] == rule_ids
        assert all(f.line > 0 and f.col > 0 for f in result.findings)

    def test_clean_fixture_has_one_justified_suppression(self):
        result = lint_paths(
            [fixture("repro", "runtime", "concurrency_clean.py")]
        )
        assert result.findings == []
        assert result.suppressed_count == 1


class TestRuleSemantics:
    def test_out_of_scope_module_ignored(self):
        src = open(fixture("repro", "runtime", "race001_bad.py")).read()
        result = lint_source(src, module="repro.analysis.race001_bad")
        assert result.findings == []

    def test_guarded_compound_update_ok(self):
        src = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1
"""
        assert lint_source(src, module="repro.runtime.x").findings == []

    def test_undisciplined_class_not_flagged(self):
        # No lock anywhere: there is no inferred discipline to violate.
        src = """
class Plain:
    def __init__(self):
        self.n = 0

    def bump(self):
        self.n += 1
"""
        assert lint_source(src, module="repro.runtime.x").findings == []

    def test_locked_helper_call_without_lock_flagged(self):
        src = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.items = []

    def _drop_locked(self):
        self.items.clear()

    def good(self):
        with self._lock:
            self._drop_locked()

    def bad(self):
        self._drop_locked()
"""
        result = lint_source(src, module="repro.runtime.x")
        assert [f.rule_id for f in result.findings] == ["RACE001"]
        assert "_drop_locked" in result.findings[0].message

    def test_sorted_set_iteration_ok(self):
        src = "def f(s):\n    return [x for x in sorted({1, 2, 3})]\n"
        assert lint_source(src, module="repro.runtime.x").findings == []

    def test_set_in_enumerate_flagged(self):
        src = "def f(s):\n    return [x for x in enumerate(set(s))]\n"
        result = lint_source(src, module="repro.runtime.x")
        assert [f.rule_id for f in result.findings] == ["DET001"]

    def test_time_outside_job_ok(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert lint_source(src, module="repro.runtime.x").findings == []

    def test_suppression_applies_to_race_rules(self):
        src = """
import threading

class C:
    def __init__(self):
        self._lock = threading.Lock()
        self.n = 0

    def bump(self):
        with self._lock:
            self.n += 1

    def reset(self):
        # repro-lint: disable=RACE001  called before workers start
        self.n = 0
"""
        result = lint_source(src, module="repro.runtime.x")
        assert result.findings == []
        assert result.suppressed_count == 1


class TestConcurrencyCli:
    def test_concurrency_clean_on_src(self):
        assert main(["lint", "--concurrency", SRC_REPRO]) == 0

    def test_concurrency_fails_on_fixtures(self, capsys):
        assert main(
            ["lint", "--concurrency", fixture("repro", "runtime")]
        ) == 1
        out = capsys.readouterr().out
        assert "RACE001" in out and "LOCK001" in out and "DET001" in out

    def test_concurrency_excludes_other_rules(self):
        # MOD001 fixture passes under --concurrency: only RACE/LOCK/DET run.
        assert main(
            ["lint", "--concurrency", fixture("repro", "ntt", "mod001_bad.py")]
        ) == 0

    def test_concurrency_and_select_conflict(self, capsys):
        code = main(["lint", "--concurrency", "--select", "MOD001", SRC_REPRO])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_empty_target_set_is_an_error(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path), "--no-bitwidth"])
        assert code == 2
        assert "no Python files" in capsys.readouterr().err

    def test_missing_path_is_an_error(self, capsys):
        code = main(["lint", "definitely/not/a/path.py"])
        assert code == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_select_is_an_error(self, capsys):
        code = main(["lint", SRC_REPRO, "--select", "NOPE999"])
        assert code == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_rule_ids_constant_matches_registry(self):
        from repro.lint import all_rules

        registered = {r.rule_id for r in all_rules()}
        assert set(CONCURRENCY_RULE_IDS) <= registered
