"""`ybk` has no runtime dependencies: its modules import only the standard
library and `ybk` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ybk"


def test_modules_import_only_the_standard_library_and_ybk():
    allowed = set(sys.stdlib_module_names) | {"ybk"}
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 1, SRC
    foreign = {}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in allowed:
                    foreign.setdefault(path.name, []).append(name)
    assert foreign == {}
