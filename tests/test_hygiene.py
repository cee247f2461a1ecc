"""Source hygiene of the package: no module-level import goes unused, no
private module-level name or method and no public module constant lives
on without a reader in the package, every raise names a GenpiError
subclass, and a module-level cache keys on ints and tuples only."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "genpi").glob("*.py"))


def unused_imports(path: Path) -> list:
    """Names bound by the module-level imports of path that the module
    never reads, except __future__ imports and the names listed in
    __all__ (re-exports)."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def _bound_names(node) -> list:
    """Names bound at module level by the statement node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read_names(node) -> set:
    """Names the statement node reads: as names, attributes or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _units(top) -> list:
    """(statement, names it reads) of the readers in a module-level
    statement: a class split into its header (bases, keywords and
    decorators) and the statements of its body, any other statement
    whole."""
    if not isinstance(top, ast.ClassDef):
        return [(top, _read_names(top))]
    header = set().union(*map(_read_names, [*top.bases, *top.keywords, *top.decorator_list]))
    return [(top, header)] + [(node, _read_names(node)) for node in top.body]


def unread_names(paths, wanted) -> list:
    """The names for which wanted(name) holds, bound at module level or as
    methods of module-level classes of the modules in paths, that no
    statement of those modules reads, except the statement that defines
    the name (for a class, its whole body).  Tests are not among the
    readers, so a name cannot live on for tests alone."""
    units, defined = [], []  # defined: (label, name, the units that do not count as readers)
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            own = _units(top)
            units += own
            defined += [(f"{path.name}:{top.lineno} {name}", name, own) for name in _bound_names(top)]
            if isinstance(top, ast.ClassDef):
                defined += [
                    (f"{path.name}:{m.lineno} {top.name}.{m.name}", m.name, [u for u in own if u[0] is m])
                    for m in top.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [
        label
        for label, name, own in defined
        if wanted(name) and not any(name in names for node, names in units if not any(node is u for u, _ in own))
    ]


def unreferenced_private_names(paths) -> list:
    """Private names (one leading underscore) that nothing reads (see
    unread_names)."""
    return unread_names(paths, lambda name: name.startswith("_") and not name.startswith("__"))


def unread_public_constants(paths) -> list:
    """Public upper-case names that nothing reads (see unread_names): a
    constant no code reads configures nothing."""
    return unread_names(paths, lambda name: name.isupper() and not name.startswith("_"))


def test_no_unreferenced_private_names():
    assert unreferenced_private_names(SOURCES) == []


def test_private_name_guard_covers_methods(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "class _Used:\n    def _read(self): return self._helper()\n    def _helper(self): ...\n"
        "    def _alone(self): return self._alone()\n    def __repr__(self): ...\n"
        "class Public(_Used):\n    def _by_attribute(self): ...\n"
        "def _unread(): ...\n"
        "def f(x): return x._by_attribute()\n"
    )
    assert unreferenced_private_names([path]) == ["m.py:2 _Used._read", "m.py:4 _Used._alone", "m.py:8 _unread"]


def test_no_unread_public_constants():
    assert unread_public_constants(SOURCES) == []


def test_public_constant_guard_flags_unread_constants(tmp_path):
    m, n = tmp_path / "m.py", tmp_path / "n.py"
    m.write_text(
        "READ = 1\nUNREAD = (READ,)\nBY_CLASS = 2\nIMPORTED = 3\nBY_ATTRIBUTE = 4\n_PRIVATE = 5\nlower = 6\n"
        "class Holder:\n    X = BY_CLASS\n"
    )
    n.write_text("import m\nfrom m import IMPORTED\nY = m.BY_ATTRIBUTE\n")
    assert unread_public_constants([m, n]) == ["m.py:2 UNREAD", "n.py:3 Y"]


def foreign_raises(paths, errors: Path) -> list:
    """The raise statements of the modules in paths whose exception is not
    constructed from (or named by) a class defined in the module errors;
    a bare re-raise is not one."""
    known = {node.name for node in ast.parse(errors.read_text()).body if isinstance(node, ast.ClassDef)}
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", ast.unparse(exc))
                if name not in known:
                    out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_raise_names_a_package_error():
    assert foreign_raises(SOURCES, SOURCES[0].parent / "errors.py") == []


def _is_cache(decorator) -> bool:
    """Whether the decorator is functools.cache or functools.lru_cache,
    bare, called, or read as an attribute of functools."""
    d = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) in {"cache", "lru_cache"}


def _key_annotation(annotation) -> bool:
    """Whether the annotation is int, tuple or tuple[...]."""
    a = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return isinstance(a, ast.Name) and a.id in {"int", "tuple"}


def badly_keyed_caches(paths) -> list:
    """The parameters of module-level functions decorated with
    functools.cache or lru_cache that are not annotated int or tuple.  A
    cache keyed on ints and tuples holds tables of a shape only, never an
    Action, rows or an answer, which would live as long as the process.
    (What codim keeps of an action lives in its weak per-action form,
    codim._FORMS, freed with the action.)"""
    out = []
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_cache, node.decorator_list)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
                out += [f"{path.name}:{node.lineno} {node.name}({p.arg})" for p in params
                        if p.annotation is None or not _key_annotation(p.annotation)]
    return out


def test_module_level_caches_key_on_ints_and_tuples():
    assert badly_keyed_caches(SOURCES) == []


def test_cache_guard_flags_other_keys(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef ok(dim: int, shape: tuple[int, ...]) -> tuple: ...\n"
        "@functools.lru_cache(maxsize=8)\ndef rows(h: Action, n: int): ...\n"
        "@lru_cache\ndef bare(n): ...\n"
    )
    assert badly_keyed_caches([path]) == ["m.py:6 rows(h)", "m.py:8 bare(n)"]
