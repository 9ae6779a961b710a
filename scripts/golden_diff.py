"""Show which golden outputs differ between this tree and another source tree.

Run from the repository root:
    python scripts/golden_diff.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, for example of the
parent commit unpacked with ``git archive``.  For each tree, a subprocess with
that tree's ``src`` first on ``PYTHONPATH`` writes the golden inputs into a
fresh directory and runs every case of ``tests/test_golden.py`` there, with
that file's ``write_inputs`` and ``run_case``.  The script prints each output
file whose bytes differ, with the JSON leaves that differ (or the first
differing line of a file that is not JSON), and exits 1 if any file differs.
Files whose only differing leaf is ``/tool_version`` are counted on one line
instead of listed, so that a version bump does not bury a real difference.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_SHOWN = 20  # differing leaves listed per file


def dump(path: Path) -> None:
    """Every golden case's outputs, or its failure, from the fairaudit that imports."""
    import fairaudit
    from test_golden import CASES, run_case, write_inputs

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        write_inputs(root)
        for case, csv, argv in CASES:
            try:
                outputs[case] = run_case(root, case, csv, argv)
            except AssertionError as exc:  # a nonzero exit
                outputs[case] = {"failure": str(exc)}
    path.write_text(json.dumps({"module": fairaudit.__file__, "outputs": outputs}), "utf-8")


def run_tree(src: Path, tmp: Path, name: str) -> dict:
    out = tmp / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "tests")])}
    subprocess.run([sys.executable, __file__, "--dump", str(out)], env=env, check=True)
    result = json.loads(out.read_text("utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: {name} imported fairaudit from {result['module']}, not from {src}")
    return result["outputs"]


def leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}/{key}")
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from leaves(value, f"{path}[{k}]")
    else:
        yield path, repr(obj)  # repr tells -0.0 from 0.0


def differences(ours: str, theirs: str) -> list[str]:
    try:
        a, b = dict(leaves(json.loads(ours))), dict(leaves(json.loads(theirs)))
    except ValueError:
        pairs = zip(ours.splitlines() + [""], theirs.splitlines() + [""])
        k, (x, y) = next((k, p) for k, p in enumerate(pairs) if p[0] != p[1])
        return [f"line {k + 1}: {x[:100]!r} | {y[:100]!r}"]
    keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    shown = [f"{k}: {a.get(k, '(absent)')} | {b.get(k, '(absent)')}" for k in keys[:MAX_SHOWN]]
    if len(keys) > MAX_SHOWN:
        shown.append(f"... and {len(keys) - MAX_SHOWN} more")
    return shown or ["no JSON leaf differs; only the text layout"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, nargs="?", help="src directory of the other tree")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        dump(args.dump)
        return 0
    if args.other_src is None or not (args.other_src / "fairaudit").is_dir():
        parser.error("OTHER_SRC must be a directory holding the fairaudit package")
    with tempfile.TemporaryDirectory() as tmp:
        ours = run_tree(ROOT / "src", Path(tmp), "this tree")
        theirs = run_tree(args.other_src, Path(tmp), "OTHER_SRC")
    files = differ = version_only = 0
    for case in sorted(ours.keys() | theirs.keys()):
        a, b = ours.get(case, {}), theirs.get(case, {})
        for name in sorted(a.keys() | b.keys()):
            files += 1
            if a.get(name) == b.get(name):
                continue
            differ += 1
            if name not in a or name not in b:
                print(f"{case}:{name}  only in {'this tree' if name in a else 'OTHER_SRC'}")
                continue
            lines = differences(a[name], b[name])
            if len(lines) == 1 and lines[0].startswith("/tool_version: "):
                version_only += 1
                continue
            print(f"{case}:{name}  (this tree | OTHER_SRC)")
            for line in lines:
                print(f"    {line}")
    print(f"{version_only} output files differ only in /tool_version")
    print(f"{differ} of {files} output files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
