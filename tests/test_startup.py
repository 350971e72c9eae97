"""Start-up: importing the package loads no layer and defines its records
without generated code.

``dataclasses`` compiles each generated ``__init__``, ``__eq__`` and
``__repr__`` with ``exec`` when a class is created, on every start of a
process; the package's records are named tuples or slotted classes.  The
package itself only names its exports: each loads its module on first use.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_child(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports ocrank from
    ``src``.  -S: no site, so no module that a .pth file imports is counted."""
    child = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('ocrank'))\n"
        + code
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, check=True
    )
    return done.stdout


def test_importing_the_command_line_loads_no_dataclasses():
    out = run_child(
        "import ocrank, ocrank.cli\n"
        "print(ocrank.__file__)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    assert out == f"{os.path.join(SRC, 'ocrank', '__init__.py')}\nFalse\n"


def test_a_name_loads_only_its_layer_and_the_layers_it_imports():
    out = run_child(
        "import ocrank\n"
        "print(loaded())\n"
        "from ocrank import parse_regex\n"
        "print(loaded())\n"
    )
    assert out == "['ocrank']\n['ocrank', 'ocrank.regular', 'ocrank.words']\n"


@pytest.mark.parametrize("form", ["harness = ocrank.harness", "from ocrank import harness"])
def test_a_layer_name_gives_the_module(form):
    out = run_child(f"import ocrank\n{form}\nprint(harness is sys.modules['ocrank.harness'])\n")
    assert out == "True\n"


def test_an_unknown_name_raises_and_dir_lists_every_export():
    out = run_child(
        "import ocrank\n"
        "try:\n"
        "    ocrank.nope\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "print(set(ocrank.__all__) <= set(dir(ocrank)), loaded())\n"
    )
    assert out == "module 'ocrank' has no attribute 'nope'\nTrue ['ocrank']\n"
