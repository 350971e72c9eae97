"""Start-up: importing the package defines its records without generated code.

``dataclasses`` compiles each generated ``__init__``, ``__eq__`` and
``__repr__`` with ``exec`` when a class is created, on every start of a
process; the package's records are named tuples or slotted classes.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_importing_the_command_line_loads_no_dataclasses():
    # -S: no site, so no module that a .pth file imports is counted.
    child = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import ocrank, ocrank.cli\n"
        "print(ocrank.__file__)\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, check=True
    )
    assert done.stdout == f"{os.path.join(SRC, 'ocrank', '__init__.py')}\nFalse\n"
