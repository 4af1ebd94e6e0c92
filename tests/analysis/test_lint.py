"""AST lint rules: each rule fires on a crafted snippet and respects exemptions."""

import textwrap

from repro.analysis import lint_file, lint_package, lint_paths


def _lint_snippet(tmp_path, source, rel="repro/serving/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path, rel=rel)


def _rules(violations):
    return [v.rule for v in violations]


class TestAsyncBlocking:
    def test_time_sleep_in_serving_coroutine(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert _rules(violations) == ["async-blocking"]
        assert violations[0].line == 4

    def test_open_and_future_result(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            async def handler(fut):
                with open("/tmp/x") as f:
                    f.read()
                return fut.result()
            """,
        )
        assert _rules(violations) == ["async-blocking", "async-blocking"]

    def test_nested_sync_def_is_exempt(self, tmp_path):
        # A sync helper defined inside a coroutine runs in an executor;
        # its blocking calls are not on the event loop.
        violations = _lint_snippet(
            tmp_path,
            """\
            import time

            async def handler(loop):
                def blocking_part():
                    time.sleep(1)
                await loop.run_in_executor(None, blocking_part)
            """,
        )
        assert violations == []

    def test_outside_serving_not_checked(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []

    def test_timeout_result_allowed(self, tmp_path):
        # fut.result(timeout) inside async code is still suspicious but the
        # rule only flags the argless form used to force-join a future.
        violations = _lint_snippet(
            tmp_path,
            """\
            async def handler(fut):
                return fut.result(0)
            """,
        )
        assert violations == []


class TestHotAlloc:
    def test_allocation_in_hot_function(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import numpy as np

            # hot
            def gemm(a, b):
                out = np.zeros((4, 4))
                return out
            """,
            rel="repro/inference/kernels.py",
        )
        assert _rules(violations) == ["hot-alloc"]

    def test_astype_and_copy_in_hot_function(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def gemm(a):  # hot
                b = a.astype("int64")
                c = a.copy()
                d = a.astype("int64", copy=False)
                return b, c, d
            """,
            rel="repro/inference/plan.py",
        )
        assert _rules(violations) == ["hot-alloc", "hot-alloc"]
        assert {v.line for v in violations} == {2, 3}

    def test_unmarked_function_not_checked(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import numpy as np

            def setup(a):
                return np.zeros_like(a)
            """,
            rel="repro/inference/kernels.py",
        )
        assert violations == []

    def test_hot_marker_ignored_outside_kernel_files(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import numpy as np

            # hot
            def helper(a):
                return np.zeros_like(a)
            """,
            rel="repro/runtime/session.py",
        )
        assert violations == []


class TestExceptSwallow:
    def test_bare_except_pass(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except:
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["except-swallow"]

    def test_broad_exception_pass(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except Exception:
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["except-swallow"]

    def test_broad_exception_in_tuple(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except (ValueError, BaseException):
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["except-swallow"]

    def test_narrow_except_pass_allowed(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except OSError:
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []

    def test_handled_broad_except_allowed(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import logging

            def f():
                try:
                    risky()
                except Exception:
                    logging.exception("risky failed")
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []


class TestLockOrder:
    def test_inconsistent_acquisition_order(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def a(self):
                with self._lock:
                    with self._stats_lock:
                        pass

            def b(self):
                with self._stats_lock:
                    with self._lock:
                        pass
            """,
            rel="repro/runtime/mod.py",
        )
        # One violation per direction of the conflicting edge.
        assert set(_rules(violations)) == {"lock-order"}
        assert violations

    def test_reacquire_same_lock(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def a(self):
                with self._lock:
                    with self._lock:
                        pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["lock-order"]

    def test_consistent_order_allowed(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def a(self):
                with self._lock:
                    with self._stats_lock:
                        pass

            def b(self):
                with self._lock:
                    with self._stats_lock:
                        pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []


class TestUnusedImportAndMutableDefault:
    def test_unused_import(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import os
            import sys

            print(sys.argv)
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["unused-import"]
        assert "os" in violations[0].message

    def test_all_reexport_counts_as_use(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            from repro.runtime.options import SessionOptions

            __all__ = ["SessionOptions"]
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []

    def test_init_py_exempt(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            from repro.runtime.options import SessionOptions
            """,
            rel="repro/runtime/__init__.py",
        )
        assert violations == []

    def test_mutable_default(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f(acc=[]):
                return acc
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["mutable-default"]


class TestExemptions:
    def test_targeted_ignore_suppresses_named_rule(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            import numpy as np

            # hot
            def gemm(a):
                out = np.zeros((4, 4))  # analysis: ignore[hot-alloc]
                return out
            """,
            rel="repro/inference/kernels.py",
        )
        assert violations == []

    def test_bare_ignore_suppresses_everything(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except Exception:  # analysis: ignore
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert violations == []

    def test_ignore_for_other_rule_does_not_suppress(self, tmp_path):
        violations = _lint_snippet(
            tmp_path,
            """\
            def f():
                try:
                    risky()
                except Exception:  # analysis: ignore[hot-alloc]
                    pass
            """,
            rel="repro/runtime/mod.py",
        )
        assert _rules(violations) == ["except-swallow"]


class TestRepoSelfLint:
    def test_package_is_clean(self):
        violations = lint_package()
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_lint_paths_matches_lint_file(self, tmp_path):
        path = tmp_path / "repro" / "serving" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("import os\n")
        violations = lint_paths([path], root=tmp_path)
        assert _rules(violations) == ["unused-import"]
        assert violations[0].path == "repro/serving/mod.py"
