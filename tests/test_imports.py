"""No module of the package imports a name it never uses: a deletion that
leaves an import behind fails here. Nor does any import numpy: the package
has no runtime dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subsym"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module source imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_guard_sees_an_unused_import():
    source = "import os.path\nimport numpy as np\nfrom typing import Optional, cast\nx: Optional[int] = cast(int, 0)\n"
    assert unused_imports(source) == ["np", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules the source imports, absolute
    imports only (a relative import stays inside the package)."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_guard_sees_a_numpy_import():
    source = "import os\ndef f():\n    from numpy.linalg import norm\nfrom . import graphs\n"
    assert imported_modules(source) == {"os", "numpy"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_numpy(path):
    # the package has no runtime dependency; numpy is for the tests only
    assert "numpy" not in imported_modules(path.read_text(encoding="utf-8"))


def test_verify_runs_without_numpy(tmp_path):
    script = (
        "import sys\n"
        "from subsym.cli import main\n"
        f"code = main(['verify', '--out', {str(tmp_path / 'verify.jsonl')!r}])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "verify.jsonl").stat().st_size > 0
