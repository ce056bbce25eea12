"""Run every ```python block of README.md, in order, in one namespace.

Run from the repository root: `PYTHONPATH=src python tests/readme_tour.py`.
It uses the standard library only, so it also runs without the test
extras. A block that raises fails the run, with a traceback in README.md's
own line numbers, so the library tour cannot drift from the API it shows.
"""

import re
import sys
import traceback
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
text = README.read_text(encoding="utf-8")
blocks = [
    (text.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
]
if not blocks:
    sys.exit("README.md has no python blocks")
namespace = {"__name__": "__readme__"}
for line, code in blocks:
    try:
        # Leading newlines make traceback line numbers those of README.md.
        exec(compile("\n" * (line - 1) + code, str(README), "exec"), namespace)
    except Exception:  # noqa: BLE001 - report which block broke, then fail
        traceback.print_exc()
        sys.exit(f"README.md python block starting at line {line} failed")
print(f"ok: {len(blocks)} python block(s) of README.md ran")
