"""The package is stdlib-only: importing the CLI loads nothing else."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# modules loaded by `import gdom.cli`, minus those a bare interpreter start
# (site hooks included) has already loaded
_PROBE = """
import sys
before = set(sys.modules)
import gdom.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _cli_imports() -> list[str]:
    path = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_cli_imports_only_the_standard_library():
    out = _cli_imports()
    assert "gdom.cli" in out
    foreign = [m for m in out if m.split(".")[0] not in {*sys.stdlib_module_names, "gdom"}]
    assert foreign == []


def test_cli_does_not_import_logging():
    # no module of gdom logs; a run pays nothing for the logging package
    assert "logging" not in _cli_imports()
