"""Run every mutant of the catalogue in tests/_mutants.py against its killers.

For each mutant, one at a time: copy the working tree into a temporary
directory, apply the mutant to the copy, and run

    python -m pytest -q -p no:cacheprovider <killers>

there, with the copy's src/ on PYTHONPATH.  A mutant is killed when pytest
reports a failing test (exit code 1); any other outcome, a clean pass
included, is a survivor.  The working tree is never patched.

Prints one JSON object, mutant id -> "killed" or "survived", and exits 1 if
any mutant survived.  A survivor is a missing test: add the test, never drop
the mutant.  pytest does not collect this script; run it from anywhere as

    python tests/run_mutants.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from _mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_work",
                              ".benchmarks", "*.egg-info", "build")


def run(mutant) -> str:
    """"killed" or "survived": mutant applied to a fresh copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        target = tree / mutant.file
        source = target.read_text()
        if source.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.id}: snippet does not occur exactly once "
                             f"in {mutant.file}")
        target.write_text(source.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *mutant.killers], cwd=tree, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return "killed" if code == 1 else "survived"


def main() -> int:
    report = {mutant.id: run(mutant) for mutant in MUTANTS}
    print(json.dumps(report, indent=2))
    return int("survived" in report.values())


if __name__ == "__main__":
    sys.exit(main())
