"""Census of the environment variables the package reads.

An environment variable is configuration that no signature shows, so
the set is pinned here: reading a new one means changing this test on
purpose.  The census is static — every ``os.environ`` / ``getenv``
use under ``src/repro``, with module-level string constants resolved.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_environ(node):
    """``os.environ``, or ``environ`` imported from :mod:`os`."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def environment_reads(tree):
    """The keys one module reads from the environment.

    A key that is neither a string literal nor a module-level string
    constant reads as ``"?"``; a use of the whole mapping (iteration,
    copying) reads as ``"*"``.  Writes (item stores, ``update``) are
    not reads.
    """
    consts = {
        target.id: stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
        for target in stmt.targets
        if isinstance(target, ast.Name)
    }

    def key(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return consts.get(node.id, "?")
        return "?"

    reads = set()
    handled = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _is_environ(func.value):
                handled.add(id(func.value))
                if func.attr != "update":
                    reads.add(key(node.args[0]) if node.args else "*")
            elif getattr(func, "attr", getattr(func, "id", None)) == "getenv":
                reads.add(key(node.args[0]))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            handled.add(id(node.value))
            if isinstance(node.ctx, ast.Load):
                reads.add(key(node.slice))
        elif isinstance(node, ast.Compare):
            for comparator in node.comparators:
                if _is_environ(comparator):
                    handled.add(id(comparator))
                    reads.add(key(node.left))
    for node in ast.walk(tree):
        if _is_environ(node) and id(node) not in handled:
            reads.add("*")
    return reads


def test_src_reads_exactly_the_backend_and_shard_variables():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in environment_reads(tree):
            found.setdefault(name, []).append(
                str(path.relative_to(SRC.parent))
            )
    assert sorted(found) == ["REPRO_BACKEND", "REPRO_SHARDS"], found


def test_census_sees_every_read_form():
    tree = ast.parse(
        "import os\n"
        "VAR = 'A'\n"
        "os.environ.get(VAR)\n"
        "os.environ['B']\n"
        "os.getenv('C')\n"
        "'D' in os.environ\n"
        "os.environ['W'] = '1'\n"
        "os.environ.update({})\n"
    )
    assert environment_reads(tree) == {"A", "B", "C", "D"}
    whole = ast.parse("from os import environ\ndict(environ)\n")
    assert environment_reads(whole) == {"*"}
