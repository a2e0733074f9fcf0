"""Module boundary: no pam6link module reaches into another's private names."""
import ast
from pathlib import Path

import pam6link


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def foreign_private_names(package_dir):
    """(module, name) for each underscore name that a module under
    package_dir imports from, or reads off, another module of the package."""
    package_dir = Path(package_dir)
    names = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        is_pkg = parts[-1] == "__init__"
        names[".".join(parts[:-1] if is_pkg else parts)] = (path, is_pkg)
    found = []
    for mod, (path, is_pkg) in names.items():
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> the package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name in names:
                        local = a.asname or a.name.split(".")[0]
                        aliases[local] = a.name if a.asname else local
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    up = mod.split(".")[:len(mod.split(".")) - node.level + is_pkg]
                    base = ".".join(up + ([base] if base else []))
                if base not in names:
                    continue
                for a in node.names:
                    if f"{base}.{a.name}" in names:
                        aliases[a.asname or a.name] = f"{base}.{a.name}"
                    elif _private(a.name) and base != mod:
                        found.append((mod, f"{base}.{a.name}"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and _private(node.attr)):
                continue
            owner = _dotted(node.value)
            if owner is None or owner.split(".")[0] not in aliases:
                continue
            head, _, rest = owner.partition(".")
            owner = aliases[head] + ("." + rest if rest else "")
            if owner in names and owner != mod:
                found.append((mod, f"{owner}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_names(Path(pam6link.__file__).parent) == []


def test_the_scan_sees_each_way_of_reaching_in(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text("from .inner import _x\n")
    (pkg / "sub" / "inner.py").write_text("_x = 1\n_y = _x\n")
    (pkg / "a.py").write_text(
        "from .sub.inner import _y, public\n"
        "from . import sub as s\n"
        "import pkg.sub.inner\n"
        "from .sub import inner\n"
        "v = s.inner._x + pkg.sub.inner._y + inner._x + inner.__name__\n")
    assert sorted(foreign_private_names(pkg)) == [
        ("pkg.a", "pkg.sub.inner._x"), ("pkg.a", "pkg.sub.inner._x"),
        ("pkg.a", "pkg.sub.inner._y"), ("pkg.a", "pkg.sub.inner._y"),
        ("pkg.sub", "pkg.sub.inner._x")]
