"""The runtime has no third-party dependencies (`dependencies = []`)."""

import ast
import sys
from pathlib import Path

import rejsamp

PACKAGE_DIR = Path(rejsamp.__file__).parent


def test_package_imports_only_itself_and_the_stdlib():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] != "rejsamp"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
