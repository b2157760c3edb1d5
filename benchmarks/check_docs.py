"""Lightweight documentation checker (wired into tier-1 via tests/test_docs.py).

The architecture documents under ``docs/`` point into the codebase with
backticked dotted names (```repro.analysis.fps.resolved_busy_window```),
backticked repo paths (```src/repro/analysis/context.py```),
backticked ``module:symbol`` pointers (```benchmarks/_report.py:report```
or ```repro.analysis.fps:resolved_busy_window```) and relative markdown
links.  Stale pointers are the classic way architecture docs rot, so
this checker verifies, for every documentation file:

* every backticked ``repro.*`` dotted name imports (module) or resolves
  (module attribute, class attribute one level deep);
* every backticked token that looks like a repo path exists;
* every bare backticked benchmark name (```bench_end_to_end.py```,
  ```BENCH_end_to_end.json```) names a file under ``benchmarks/``;
* every backticked ``module:symbol`` pointer resolves its symbol --
  dotted modules through import + ``getattr``, ``*.py`` paths through a
  (side-effect-free) AST scan for the named top-level function, class,
  assignment or ``Class.attribute``;
* every relative markdown link resolves, and a ``#anchor`` fragment
  matches a heading slug of the target document;
* every ``--flag`` of a ``python -m repro <command> ...`` invocation --
  in an inline code span (which may wrap across lines) or a fenced
  block (with ``\\`` line continuations) -- is an option string of that
  subcommand's argparse parser, spelled out in full.

The docstrings under ``src/repro`` point into the codebase too
(```:class:`~repro.core.config.FlexRayConfig```), so every backticked
``repro.*`` dotted name in a module, class or function docstring --
``~``-prefixed Sphinx targets included -- must resolve as well.

Run directly (``python benchmarks/check_docs.py``) for a report, or let
``tests/test_docs.py`` fail tier-1 on the first stale pointer.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import re
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Documentation files under the checker's contract.
DOC_FILES = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/ANALYSIS.md",
    "benchmarks/README.md",
)

_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
_PATHISH = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.(?:py|md|json|ini|txt))`")
#: ``module:symbol`` pointers: the module half is either a ``*.py`` repo
#: path or a dotted module name; the symbol half is a dotted attribute
#: chain (``function``, ``Class``, ``Class.method``).
_MOD_SYMBOL = re.compile(
    r"`([A-Za-z0-9_./-]+\.py|[A-Za-z_][\w.]*):"
    r"([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`"
)
#: Bare benchmark script and result names (no directory part).
_BENCH_NAME = re.compile(r"`(bench_[A-Za-z0-9_]+\.py|BENCH_[A-Za-z0-9_]+\.json)`")
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")
_INVOCATION = re.compile(r"python -m repro\s+(.*)")
#: Shell syntax that ends one command line.
_COMMAND_END = re.compile(r"\s(?:#|\||&&|;)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: Backticked ``repro.*`` names in docstrings, ``~``-prefixed or not.
_DOC_DOTTED = re.compile(r"`~?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
#: The package whose docstrings are under the checker's contract.
SOURCE_ROOT = REPO_ROOT / "src" / "repro"


def _slug(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _check_dotted(name: str) -> str:
    """Empty string when *name* resolves; the failure reason otherwise."""
    parts = name.split(".")
    # Longest importable module prefix, then attribute-chain the rest.
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError as exc:
            return f"resolved module {module_name!r} but {exc}"
        return ""
    return "no importable module prefix"


def _ast_symbols(source_path: Path) -> dict:
    """Top-level names defined by a Python file, without importing it.

    Maps each top-level function/class/assignment name to the set of
    one-level attribute names it defines (methods and class-body
    assignments for classes, empty otherwise) -- enough to resolve
    ``symbol`` and ``Class.attribute`` pointers into scripts that are
    not importable as modules (or whose import would run a benchmark).
    """
    tree = ast.parse(source_path.read_text(encoding="utf-8"))
    symbols: dict = {}

    def _targets(node):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield t.id
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            yield node.target.id

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols[node.name] = set()
        elif isinstance(node, ast.ClassDef):
            members = set()
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add(sub.name)
                else:
                    members.update(_targets(sub))
            symbols[node.name] = members
        else:
            for name in _targets(node):
                symbols[name] = set()
    return symbols


def _check_mod_symbol(module: str, symbol: str, doc_dir: Path) -> str:
    """Empty string when ``module:symbol`` resolves; the reason otherwise.

    ``module`` is a ``*.py`` path (relative to the repo root, to
    ``src/``, or to the document's directory; resolved by AST scan) or a
    dotted module name (resolved by import + attribute chain).
    """
    if module.endswith(".py"):
        for base in (REPO_ROOT, REPO_ROOT / "src", doc_dir):
            candidate = base / module
            if candidate.exists():
                break
        else:
            return f"file {module!r} does not exist"
        try:
            symbols = _ast_symbols(candidate)
        except SyntaxError as exc:  # pragma: no cover - repo code parses
            return f"cannot parse {module!r}: {exc}"
        top, _, attr = symbol.partition(".")
        if top not in symbols:
            return f"{module!r} defines no top-level {top!r}"
        if attr and attr not in symbols[top]:
            return f"{module}:{top} has no attribute {attr!r}"
        return ""
    return _check_dotted(f"{module}.{symbol}")


@functools.lru_cache(maxsize=None)
def _benchmark_files() -> frozenset:
    """Names of every file under ``benchmarks/``."""
    return frozenset(
        path.name for path in (REPO_ROOT / "benchmarks").rglob("*")
        if path.is_file()
    )


@functools.lru_cache(maxsize=None)
def _cli_options() -> dict:
    """Subcommand name -> option strings of its argparse parser."""
    from repro.cli import build_parser

    options = {}
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options[name] = set(sub._option_string_actions)
    return options


def _cli_problems(text: str) -> List[str]:
    """Unknown subcommands and flags in *text*'s ``python -m repro`` lines."""
    lines = []
    for block in _FENCE.findall(text):
        lines.extend(block.replace("\\\n", " ").splitlines())
    lines.extend(_SPAN.findall(_FENCE.sub("", text)))
    problems = []
    for line in lines:
        match = _INVOCATION.search(" ".join(line.split()))
        if match is None:
            continue
        options = _cli_options()
        words = _COMMAND_END.split(match.group(1))[0].split()
        command = words[0] if words else ""
        if command not in options:
            problems.append(f"unknown command `python -m repro {command}`")
            continue
        for word in words:
            flag = word.split("=", 1)[0]
            if flag.startswith("--") and flag not in options[command]:
                problems.append(
                    f"`python -m repro {command}` has no flag `{flag}`"
                )
    return problems


def check_file(path: Path) -> List[str]:
    """Problems found in one documentation file (empty = clean)."""
    problems: List[str] = []
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:
        rel = path
    text = path.read_text(encoding="utf-8")

    for match in _MOD_SYMBOL.finditer(text):
        reason = _check_mod_symbol(match.group(1), match.group(2), path.parent)
        if reason:
            problems.append(
                f"{rel}: stale symbol pointer "
                f"`{match.group(1)}:{match.group(2)}` ({reason})"
            )

    for match in _DOTTED.finditer(text):
        reason = _check_dotted(match.group(1))
        if reason:
            problems.append(f"{rel}: stale code pointer `{match.group(1)}` ({reason})")

    for match in _PATHISH.finditer(text):
        target = match.group(1)
        if target.startswith("repro/"):
            target = "src/" + target
        if not (REPO_ROOT / target).exists():
            problems.append(f"{rel}: backticked path `{match.group(1)}` does not exist")

    for match in _BENCH_NAME.finditer(text):
        if match.group(1) not in _benchmark_files():
            problems.append(
                f"{rel}: benchmark name `{match.group(1)}` names no file "
                "under benchmarks/"
            )

    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, anchor = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if base and not dest.exists():
            problems.append(f"{rel}: broken link ({target})")
            continue
        if anchor and dest.suffix == ".md":
            slugs = {_slug(h) for h in _HEADING.findall(dest.read_text(encoding="utf-8"))}
            if anchor not in slugs:
                problems.append(f"{rel}: missing anchor ({target})")

    problems.extend(f"{rel}: {problem}" for problem in _cli_problems(text))
    return problems


def check_docstrings(root: Path = SOURCE_ROOT) -> List[str]:
    """Stale ``repro.*`` pointers in the docstrings of *root*'s modules."""
    problems: List[str] = []
    for path in sorted(root.rglob("*.py")):
        try:
            rel = path.relative_to(REPO_ROOT)
        except ValueError:
            rel = path
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                continue
            doc = ast.get_docstring(node, clean=False) or ""
            for match in _DOC_DOTTED.finditer(doc):
                reason = _check_dotted(match.group(1))
                if reason:
                    where = getattr(node, "lineno", 1)
                    problems.append(
                        f"{rel}:{where}: stale docstring pointer "
                        f"`{match.group(1)}` ({reason})"
                    )
    return problems


def check_all() -> List[str]:
    """Problems across every documentation file and docstring under the
    contract."""
    problems: List[str] = []
    for name in DOC_FILES:
        path = REPO_ROOT / name
        if not path.exists():
            problems.append(f"{name}: documentation file missing")
            continue
        problems.extend(check_file(path))
    problems.extend(check_docstrings())
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(problem)
    print(
        f"check_docs: {len(problems)} problem(s) across {len(DOC_FILES)} "
        "file(s) and the docstrings under src/repro"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
