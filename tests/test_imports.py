"""Every module imports on its own, and a light one stays light.

Names are imported from the modules that define them; the package
``__init__`` files export nothing, so importing one module loads only
what that module needs. The package talks to providers through the
standard library's ``urllib.request``, imported at the first request,
and a replay ``run`` loads neither numpy, nor any HTTP or TLS module,
nor the XML and email parsers that read fetched news: a daily run from
cron pays for none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import tradefolio

SRC = Path(tradefolio.__file__).resolve().parent.parent
FIXTURES = SRC.parent / "fixtures"

# What a replay run never uses: report's numpy, every HTTP and TLS module,
# and the parsers of fetched news: RSS's XML and RFC 2822's dates
_UNUSED = {"numpy", "requests", "urllib.request", "http.client", "ssl", "email", "xml.etree"}

_EACH_MODULE = """
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
http = sorted({"requests", "urllib3"} & sys.modules.keys())
assert not http, f"importing every module loaded {http}"
print(len(names))
"""

_CLI = """
import sys

import tradefolio.cli
print(*sys.modules)
"""

_RUN = """
import sys

from tradefolio.cli import main
try:
    main(["run", "--config", sys.argv[1]])
except SystemExit as exit:
    assert not exit.code, exit.code
print(*sys.modules)
"""


def _python(script: str, *args: str) -> str:
    done = subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_each_module_imports_first_and_none_loads_an_http_library():
    assert int(_python(_EACH_MODULE, str(SRC))) == len(list((SRC / "tradefolio").rglob("*.py")))


def test_importing_the_cli_loads_neither_numpy_nor_requests():
    loaded = _UNUSED & set(_python(_CLI).split())
    assert not loaded


def test_a_replay_run_loads_neither_numpy_nor_requests(tmp_path):
    config = (FIXTURES / "stock-replay.yaml").read_text(encoding="utf-8")
    config = config.replace("store: stock-50d", f"store: {FIXTURES / 'stock-50d'}")
    config = config.replace("out_dir: ../runs/stock-demo", f"out_dir: {tmp_path / 'runs'}")
    (tmp_path / "stock.yaml").write_text(config, encoding="utf-8")
    loaded = _UNUSED & set(_python(_RUN, str(tmp_path / "stock.yaml")).split())
    assert not loaded
    assert len(list((tmp_path / "runs").glob("*.jsonl"))) == 3
