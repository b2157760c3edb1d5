"""Documentation stays live: stale module pointers fail tier-1.

``benchmarks/check_docs.py`` verifies every backticked ``repro.*``
dotted name, backticked repo path, backticked ``module:symbol`` pointer,
bare backticked benchmark name and relative markdown link in the
documentation set (top-level README,
docs/, benchmarks/README), and every backticked ``repro.*`` name in the
docstrings under ``src/repro``.  This test wires it into the default pytest
run, so renaming a module or a public function without updating the
architecture docs breaks the build -- the docs are part of the API
surface.
"""

import pytest

from benchmarks.check_docs import (
    DOC_FILES,
    REPO_ROOT,
    check_all,
    check_docstrings,
    check_file,
)


pytestmark = pytest.mark.docs


def test_documentation_set_is_complete():
    missing = [name for name in DOC_FILES if not (REPO_ROOT / name).exists()]
    assert not missing, f"documentation files missing: {missing}"


def test_no_stale_pointers_in_docs():
    problems = check_all()
    assert not problems, "stale documentation pointers:\n" + "\n".join(problems)


class TestModuleSymbolPointers:
    """The ``module:symbol`` form is validated, not just the module."""

    def _problems(self, tmp_path, text):
        doc = tmp_path / "doc.md"
        doc.write_text(text, encoding="utf-8")
        return check_file(doc)

    def test_live_pointers_pass(self, tmp_path):
        text = (
            "Report via `benchmarks/_report.py:report` and "
            "`benchmarks/check_docs.py:check_file`; the kernel is "
            "`repro.analysis.fps:resolved_busy_window`, the surface "
            "`repro.analysis.availability:NodeAvailability.advance` "
            "and the constant `benchmarks/check_docs.py:DOC_FILES`.\n"
        )
        assert self._problems(tmp_path, text) == []

    def test_stale_symbol_is_caught(self, tmp_path):
        problems = self._problems(
            tmp_path, "see `benchmarks/_report.py:reprot_typo`\n"
        )
        assert len(problems) == 1
        assert "reprot_typo" in problems[0]

    def test_stale_dotted_symbol_is_caught(self, tmp_path):
        problems = self._problems(
            tmp_path, "see `repro.analysis.fps:sedeed_busy_window`\n"
        )
        assert len(problems) == 1
        assert "sedeed_busy_window" in problems[0]

    def test_stale_class_attribute_is_caught(self, tmp_path):
        good = self._problems(
            tmp_path,
            "see `benchmarks/check_docs.py:Testish`"
            "`src/repro/analysis/availability.py:NodeAvailability.advance`\n",
        )
        # Only the first pointer (missing class) is stale.
        assert len(good) == 1 and "Testish" in good[0]

    def test_missing_file_is_caught(self, tmp_path):
        problems = self._problems(tmp_path, "see `no/such/file.py:thing`\n")
        assert len(problems) == 1
        assert "does not exist" in problems[0]


class TestCliFlags:
    """``python -m repro`` invocations only use flags the CLI accepts."""

    def _problems(self, tmp_path, text):
        doc = tmp_path / "doc.md"
        doc.write_text(text, encoding="utf-8")
        return check_file(doc)

    def test_live_flags_pass(self, tmp_path):
        text = (
            "Run `python -m repro optimise --algorithm obc-ee\n"
            "--workers 2 system.json`, or\n\n"
            "```sh\n"
            "PYTHONPATH=src python -m repro campaign --strategies bbc \\\n"
            "    --fabric out/fab --fabric-wait *.json  # --not-a-flag\n"
            "```\n"
        )
        assert self._problems(tmp_path, text) == []

    def test_bad_flag_in_a_wrapped_span_is_caught(self, tmp_path):
        problems = self._problems(
            tmp_path,
            "Run `python -m repro optimise --algorithm obc-cf\n"
            "--workers 4 --turbo 4 system.json`.\n",
        )
        assert len(problems) == 1
        assert "--turbo" in problems[0] and "optimise" in problems[0]

    def test_bad_flag_after_a_continuation_is_caught(self, tmp_path):
        problems = self._problems(
            tmp_path,
            "```sh\npython -m repro work out/fab \\\n    --lease 5\n```\n",
        )
        assert len(problems) == 1 and "--lease" in problems[0]

    def test_unknown_command_is_caught(self, tmp_path):
        problems = self._problems(tmp_path, "`python -m repro optimize x`\n")
        assert len(problems) == 1 and "optimize" in problems[0]


class TestBenchNames:
    """Bare ``bench_*.py`` / ``BENCH_*.json`` names must exist."""

    def _problems(self, tmp_path, text):
        doc = tmp_path / "doc.md"
        doc.write_text(text, encoding="utf-8")
        return check_file(doc)

    def test_live_names_pass(self, tmp_path):
        text = (
            "Run `bench_end_to_end.py`; it writes `BENCH_end_to_end.json`. "
            "Every `bench_*.py` file emits a `BENCH_*.json`.\n"
        )
        assert self._problems(tmp_path, text) == []

    def test_stale_names_are_caught(self, tmp_path):
        problems = self._problems(
            tmp_path,
            "See `bench_retired_sweep.py` and `BENCH_retired_sweep.json`.\n",
        )
        assert len(problems) == 2
        assert "bench_retired_sweep.py" in problems[0]
        assert "BENCH_retired_sweep.json" in problems[1]


class TestDocstringPointers:
    """``repro.*`` names in docstrings resolve, ``~``-prefixed or not."""

    def test_stale_docstring_pointers_are_caught(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            '"""See :func:`~repro.analysis.fps.resolved_busy_window` and\n'
            ':meth:`~repro.analysis.schedule_table.ScheduleTable.add_task`."""\n'
            "\n\n"
            "def f():\n"
            '    """Like ``repro.flexray.timeline.st_slot_end``."""\n',
            encoding="utf-8",
        )
        problems = check_docstrings(tmp_path)
        assert len(problems) == 2
        assert "ScheduleTable.add_task" in problems[0]
        assert "mod.py:1:" in problems[0]
        assert "timeline.st_slot_end" in problems[1]
        assert "mod.py:5:" in problems[1]
