"""Every module imports on its own, and a light one stays light.

Names are imported from the modules that define them; the package
``__init__`` files export nothing, so importing one module loads only
what that module needs.
"""

import os
import subprocess
import sys
from pathlib import Path

import tradefolio

SRC = Path(tradefolio.__file__).resolve().parent.parent

_SCRIPT = """
import importlib, sys
from pathlib import Path

import tradefolio.dated
heavy = sorted({"numpy", "requests"} & sys.modules.keys())
assert not heavy, f"import tradefolio.dated loaded {heavy}"

src = Path(sys.argv[1])
names = sorted(".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
               for p in (src / "tradefolio").rglob("*.py"))
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "tradefolio"]:
        del sys.modules[loaded]
    importlib.import_module(name)
print(len(names))
"""


def test_each_module_imports_first_and_dated_leaves_numpy_and_requests_unloaded():
    done = subprocess.run([sys.executable, "-c", _SCRIPT, str(SRC)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == len(list((SRC / "tradefolio").rglob("*.py")))
