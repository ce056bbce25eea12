"""Run every `ocrs ...` line of README.md's CLI block, in order, in one temp dir.

Run from the repository root: `PYTHONPATH=src python tests/readme_cli_tour.py`.
It uses the standard library only. Lines ending in a backslash are joined
with the next, `# ...` comments are dropped, and each command runs as
`python -m ocrs.cli ...` against this checkout's `src/`. The first nonzero
exit fails the run, so the CLI block cannot drift from the CLI it shows.
"""

import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
text = (ROOT / "README.md").read_text(encoding="utf-8")
match = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text, re.M | re.S)
if match is None:
    sys.exit("README.md has no CLI block")
commands = [
    shlex.split(line, comments=True)
    for line in match.group(1).replace("\\\n", " ").splitlines()
    if line.startswith("ocrs ")
]
if not commands:
    sys.exit("README.md's CLI block has no ocrs commands")
env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
with tempfile.TemporaryDirectory() as tmp:
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "ocrs.cli", *argv[1:]],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode:
            sys.stderr.write(done.stderr)
            sys.exit(f"README.md CLI line failed with exit {done.returncode}: {shlex.join(argv)}")
print(f"ok: {len(commands)} ocrs command(s) of README.md's CLI block ran")
