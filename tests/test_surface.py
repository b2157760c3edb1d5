"""Every public name in ``src/repro`` is reached from outside the tests.

The test walks each module under ``src/repro`` with :mod:`ast` and
collects every public function, class and method (a name without a
leading underscore).  A definition passes when its name is referenced
somewhere outside its own body and outside ``tests/``:

* as an identifier, attribute or imported name in ``src/``,
  ``benchmarks/``, ``perfbench/`` or ``examples/`` -- a package
  ``__init__`` re-export and an ``__all__`` entry do not count;
* as a dotted-identifier string there (``"SearchDriver.run"`` in
  perfbench's boundary table, a ``getattr`` name);
* as a name in a backticked span or fenced code block of a file in
  ``check_docs.DOC_FILES``.

Names are matched bare, so the check is generous: a definition fails
only when its name appears nowhere outside the tests.  Code that only
tests reach is surface to maintain with no user; delete it, or put it on
``ALLOWLIST`` with the reason it stays.
"""

import ast
import re

from benchmarks.check_docs import DOC_FILES, REPO_ROOT

SOURCE = REPO_ROOT / "src" / "repro"
#: Trees whose code counts as a reference.
REFERENCE_TREES = ("src", "benchmarks", "perfbench", "examples")

#: Public names kept although nothing outside the tests references
#: them, each with the reason it stays.
ALLOWLIST = {
    "repro.service.server:_Handler.do_GET":
        "http.server dispatches each request to do_<METHOD> by name",
    "repro.service.server:_Handler.do_DELETE":
        "http.server dispatches each request to do_<METHOD> by name",
    "repro.service.server:_Handler.log_message":
        "overrides BaseHTTPRequestHandler's per-request stderr log",
    "repro.analysis.st_msg:static_response_times":
        "the entry-level reference the context's static WCRT fold must equal",
}

_DOTTED_STRING = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_CODE = re.compile(r"```.*?```|`[^`]+`", re.DOTALL)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _python_files():
    for tree in REFERENCE_TREES:
        yield from sorted((REPO_ROOT / tree).rglob("*.py"))


def _is_reexport(path, node):
    """A package ``__init__``'s ``from ... import`` or an ``__all__``."""
    if isinstance(node, ast.ImportFrom):
        return path.name == "__init__.py" and path.is_relative_to(SOURCE)
    return isinstance(node, (ast.Assign, ast.AugAssign)) and any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in getattr(node, "targets", [getattr(node, "target", None)])
    )


def _references(path, tree):
    """``(name, line)`` of every reference in one module."""
    skip = set()
    for node in ast.walk(tree):
        if _is_reexport(path, node):
            skip.update(id(sub) for sub in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Name):
            yield node.id, line
        elif isinstance(node, ast.Attribute):
            yield node.attr, line
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, line
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED_STRING.fullmatch(node.value)
        ):
            for part in node.value.split("."):
                yield part, line


def _definitions(tree):
    """``(qualified name, name, first line, last line)`` of every public
    function, class and method of a module (nested functions aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (
                        f"{node.name}.{sub.name}", sub.name,
                        sub.lineno, sub.end_lineno,
                    )


def _doc_names():
    names = set()
    for name in DOC_FILES:
        text = (REPO_ROOT / name).read_text(encoding="utf-8")
        for code in _CODE.findall(text):
            names.update(_IDENTIFIER.findall(code))
    return names


def unreferenced():
    """Qualified names (``module:Class.method``) of the public
    definitions no code or document outside the tests reaches."""
    refs = {}  # name -> [(path, line)]
    trees = {}
    for path in _python_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        trees[path] = tree
        for name, line in _references(path, tree):
            refs.setdefault(name, []).append((path, line))
    documented = _doc_names()
    missing = []
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
        for qualified, name, first, last in _definitions(trees[path]):
            if name.startswith("_") or name in documented:
                continue
            if any(
                where != path or not first <= line <= last
                for where, line in refs.get(name, ())
            ):
                continue
            missing.append(f"{module}:{qualified}")
    return missing


def test_no_test_only_public_surface():
    missing = [name for name in unreferenced() if name not in ALLOWLIST]
    assert not missing, (
        "public names only tests reach (delete them, or allowlist them "
        "with a reason):\n" + "\n".join(missing)
    )


def test_allowlist_is_still_needed():
    """An allowlisted name that is now referenced elsewhere, or gone,
    leaves the allowlist."""
    stale = set(ALLOWLIST) - set(unreferenced())
    assert not stale, f"allowlisted names that need no exception: {stale}"
