"""Peak memory of fairaudit commands, one fresh interpreter each.

Run from the repository root:
    python scripts/peak_rss.py "audit data.csv --threshold 0.6" \
        "mitigate data.csv --method equalize-odds --threshold 0.6 --out fixed"

Each argument is one ``fairaudit`` command line (split as a shell would,
without the program name); put ``--`` before the first one if it starts
with ``-``.  It runs through ``fairaudit.cli.main`` in a new
Python process with this tree's ``src`` first on ``PYTHONPATH``; the
command's own output is discarded.  For each command the script prints the
exit code, the max RSS after ``import fairaudit.cli`` and the max RSS of the
whole run, in MB.  A benchmark worker that runs many commands reports only
its lifetime peak; this says which command sets it.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, resource, sys
scale = 1024.0 * (1024.0 if sys.platform == "darwin" else 1.0)  # ru_maxrss: bytes or KB
import fairaudit.cli
after_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
try:
    code = fairaudit.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "import_mb": after_import, "peak_mb": peak}, fh)
"""


def measure(argv: list[str]) -> dict:
    """Exit code, RSS after import and peak RSS (MB) of one command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    with tempfile.TemporaryDirectory() as tmp:
        result = Path(tmp) / "rss.json"
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(result), *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if not result.exists():  # the interpreter itself failed
            return {"code": proc.returncode, "import_mb": None, "peak_mb": None,
                    "error": proc.stderr.strip().splitlines()[-1:]}
        return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="+", help="fairaudit command lines, one per argument")
    args = parser.parse_args()
    fmt = lambda v: "-" if v is None else f"{v:.1f}"
    print(f"{'exit':>4}  {'import_mb':>9}  {'peak_mb':>7}  command")
    for line in args.commands:
        r = measure(shlex.split(line))
        print(f"{r['code']:>4}  {fmt(r['import_mb']):>9}  {fmt(r['peak_mb']):>7}  {line}")
        for msg in r.get("error", ()):
            print(f"      {msg}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
