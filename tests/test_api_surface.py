"""Every public name of rbsde has a reader in the package or the benchmark.

A name that only tests read is test code: it belongs in ``tests/``
(the oracles live in ``tests/oracles.py``), not in the package's
``__all__``.  Readers are found by syntax, not by text, so a docstring
or comment that mentions a name does not count.  The benchmark's tracer
names the functions it wraps as strings, so an identifier string
constant counts as a read; a name's own ``def`` or ``class`` body does
not.
"""

import ast
from pathlib import Path

import rbsde

ROOT = Path(__file__).resolve().parent.parent
READER_FILES = sorted(
    [path for path in (ROOT / "src" / "rbsde").glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "bench").rglob("*.py")))


class _Reads(ast.NodeVisitor):
    """Identifiers read in one module, outside the body that defines them."""

    def __init__(self):
        self.names: set[str] = set()
        self._defining: list[str] = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name: str) -> None:
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Expr(self, node):
        if not (isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            self.generic_visit(node)   # a bare string statement (a docstring) reads nothing

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split("."):
                if part.isidentifier():
                    self._read(part)


def _names_read() -> set[str]:
    names: set[str] = set()
    for path in READER_FILES:
        reads = _Reads()
        reads.visit(ast.parse(path.read_text(), filename=str(path)))
        names |= reads.names
    return names


def test_every_public_name_has_a_reader_outside_the_tests():
    read = _names_read()
    unread = sorted(name for name in rbsde.__all__ if name not in read)
    assert unread == [], f"public names only tests read: {unread}"


def test_the_scan_skips_docstrings_and_a_names_own_body():
    reads = _Reads()
    reads.visit(ast.parse('def f():\n    """alpha_norm"""\n    return f, g(x.y, "h", "m.n")\n'))
    assert reads.names == {"g", "x", "y", "h", "m", "n"}
