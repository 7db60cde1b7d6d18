"""The package namespace: each public name resolves lazily from its submodule."""

import json
import subprocess
import sys

# A fresh interpreter, so that the names start unresolved and no other test has
# bound or replaced them.
PROBE = """
import importlib, json, sys
import logtan

report = {"submodules": sorted(m for m in sys.modules if m.startswith("logtan.")),
          "dir": dir(logtan), "all": logtan.__all__, "table": sorted(logtan._SUBMODULE)}
report["mismatched"] = [
    name for name, module in logtan._SUBMODULE.items()
    if getattr(logtan, name) is not getattr(importlib.import_module("logtan." + module), name)]
star = {}
exec("from logtan import *", star)
report["star_unbound"] = [name for name in logtan.__all__
                          if star.get(name) is not getattr(logtan, name)]
try:
    logtan.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_lazy_namespace():
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    # Only the two modules every entry point needs are imported with the package.
    assert report["submodules"] == ["logtan.core", "logtan.quadrature"]
    assert sorted(report["all"]) == report["table"]
    assert set(report["table"]) <= set(report["dir"])
    assert report["mismatched"] == []
    assert report["star_unbound"] == []
    assert report.get("unknown") == "module 'logtan' has no attribute 'no_such_name'"
