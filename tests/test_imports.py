"""Every module reads every name it imports, and every private helper
is read somewhere.

A stdlib `ast` scan stands in for a linter: it collects the names each
module under `src/reeslab` and `tests` binds by `import` and
`from ... import`, and fails on any the module never reads as a name.
`__init__.py` files are skipped, since their imports are re-exports.
A second scan collects the private names (one leading underscore) that
each module of `src/reeslab` binds at top level, and fails on any that
no top-level statement of `src/reeslab` other than its own definition
reads, as a name or an attribute.  A third scan fails on any statement
of `src/reeslab` that calls `_local_leads(...)` or `.groebner()` and
discards the result: both are memoized, so such a call only builds a
cache ahead of the call that reads it.  A fourth scan fails on any
`import` or `from ... import` inside a function of `src/reeslab`: the
modules import each other at the top, so the import graph is read off
the module heads.  Last, `import reeslab` and then `import reeslab.cli`
in a fresh interpreter must not load `dataclasses` or the modules it
pulls in, whose import was a measured share of every command's start.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    paths = sorted(
        p
        for folder in ("src/reeslab", "tests")
        for p in (ROOT / folder).glob("*.py")
        if p.name != "__init__.py"
    )
    assert len(paths) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _top_level_names(stmt):
    # the names a top-level definition or assignment binds
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _reads(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_no_orphaned_private_helpers():
    statements = [
        (path, stmt)
        for path in sorted((ROOT / "src/reeslab").glob("*.py"))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    defined = [
        (path, stmt, name)
        for path, stmt in statements
        for name in sorted(_top_level_names(stmt))
        if name.startswith("_") and not name.startswith("__")
    ]
    assert len(defined) > 20
    reads = [(stmt, _reads(stmt)) for _, stmt in statements]
    orphans = [
        f"{path.relative_to(ROOT)}:{stmt.lineno}: {name}"
        for path, stmt, name in defined
        if not any(name in read for other, read in reads if other is not stmt)
    ]
    assert not orphans, "private names nothing reads:\n" + "\n".join(orphans)


def _discarded_cache_builds(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        if (isinstance(func, ast.Name) and func.id == "_local_leads") or (
            isinstance(func, ast.Attribute) and func.attr == "groebner"
        ):
            found.append(node.lineno)
    return found


def test_no_discarded_cache_builds():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src/reeslab").glob("*.py"))
        for line in _discarded_cache_builds(path)
    ]
    assert not found, "results discarded:\n" + "\n".join(found)


def _function_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(
                node.lineno
                for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return sorted(set(found))


def test_no_function_level_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src/reeslab").glob("*.py"))
        for line in _function_level_imports(path)
    ]
    assert not found, "imports inside functions:\n" + "\n".join(found)


_FOOTPRINT = """
import json, sys
bare = set(sys.modules)
import reeslab
package = set(sys.modules) - bare
import reeslab.cli
cli = set(sys.modules) - bare - package
print(json.dumps([sorted(package), sorted(cli)]))
"""


def test_import_footprint():
    # against the modules the interpreter itself loaded, since `site`
    # may preload some of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        env=env, capture_output=True, text=True, check=True,
    )
    package, cli = json.loads(out.stdout)
    assert "reeslab.ring" in package and "reeslab.cli" in cli
    heavy = {"dataclasses", "inspect", "ast", "dis"}
    assert not heavy & set(package), sorted(heavy & set(package))
    assert not heavy & set(cli), sorted(heavy & set(cli))
