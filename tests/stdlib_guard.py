"""Fail if importing ocrs loads anything outside the standard library.

Run in a fresh interpreter: `PYTHONPATH=src python tests/stdlib_guard.py`.
It imports `ocrs` and every submodule, then names each newly loaded module
that is neither part of `ocrs` nor in `sys.stdlib_module_names`. Modules
loaded before the imports (site hooks, for instance) are not counted.
"""

import importlib
import pkgutil
import sys

before = set(sys.modules)
import ocrs  # noqa: E402

for info in pkgutil.walk_packages(ocrs.__path__, "ocrs."):
    importlib.import_module(info.name)
loaded = set(sys.modules) - before
tops = {name.partition(".")[0] for name in loaded}
foreign = sorted(top for top in tops if top not in sys.stdlib_module_names and top != "ocrs")
if foreign:
    sys.exit(f"ocrs loaded modules outside the standard library: {', '.join(foreign)}")
print(f"ok: ocrs and its {sum(n.startswith('ocrs.') for n in loaded)} submodules are stdlib-only")
