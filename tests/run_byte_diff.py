"""Byte-identity of every deterministic output against a parent revision.

    python tests/run_byte_diff.py --parent REV [--expect FILE] [--out FILE]

Exports REV with `git archive` into a temporary directory and runs the same
jobs on that tree and on the working tree, each tree in its own worker
process with that tree's src/ on PYTHONPATH:

- every config of `tests/test_config_sweep.py` and each of its one-key
  variants, and every config of `tests/test_golden.py`: `dfipp run --config
  c.json --out run` (exit code, stdout, stderr, CSV and JSON) and one
  transcript recorded by `record_transcript` at the goldens' transcript seed;
- every `dfipp check-lemma` report that `tests/test_golden_lemmas.py` pins,
  and its budget refusals (exit code, stdout, stderr);
- every demo that it pins, run from the tree's demos/ (exit code, stdout,
  stderr).

The job list is read from the working tree's tests, so both trees run the
same inputs.  The report is a JSON list with one entry per output: identical,
or the first field that differs with its first differing line (for a
transcript, the record's tag), and for a run the ledger delta and the verdict
change read off the two JSON reports.  --expect names a JSON list of output
ids that must differ.  Exits 1 if an output moved that --expect does not
list, or a listed one did not move; 0 otherwise.  pytest does not collect
this script.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# --- the job list, built from the working tree's tests ----------------------------

def jobs() -> list[dict]:
    """One job per output: {"id", "kind", ...} in a fixed order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_config_sweep as sweep
    import test_golden as golden
    import test_golden_lemmas as lemmas

    out = []
    for name in sorted(sweep.CONFIGS):
        base = sweep.CONFIGS[name]
        out.append({"id": f"sweep/{name}", "kind": "run", "config": base})
        for path in sweep.key_paths(base):
            for value in sweep.REPLACEMENTS:
                out.append({"id": f"sweep/{name}/{'.'.join(path)}={json.dumps(value)}",
                            "kind": "run", "config": sweep.replaced(base, path, value)})
    for name in sorted(golden.CONFIGS):
        out.append({"id": f"golden/{name}", "kind": "run", "config": golden.CONFIGS[name]})
    for lemma, trials in lemmas.TRIALS.items():
        for seed in lemmas.SEEDS:
            out.append({"id": f"lemma/{lemma}/{seed}", "kind": "cli",
                        "argv": ["check-lemma", lemma, "--trials", str(trials),
                                 "--seed", str(seed)]})
    for lemma in ("epsilons", "dpl_product", "rr20_min_dist", "appendix-a"):
        out.append({"id": f"lemma/{lemma}/budget-10", "kind": "cli",
                    "argv": ["check-lemma", lemma, "--trials", "5", "--budget", "10"]})
    for demo in sorted(lemmas.GOLDEN_DEMOS):
        out.append({"id": f"demo/{demo}", "kind": "demo", "script": demo})
    for job in out:
        if job["kind"] == "run":
            job["transcript_seed"] = golden.TRANSCRIPT_SEED
    return out


# --- the worker: runs every job on one tree --------------------------------------

def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _cli(main, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an output like any other
            code = f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run(job) -> dict:
    from dfipp.cli import main
    from dfipp.experiments import record_transcript

    for name in ("c.json", "run.csv", "run.json", "t.jsonl"):
        if os.path.exists(name):
            os.remove(name)
    with open("c.json", "w") as fh:
        json.dump(job["config"], fh)
    result = _cli(main, ["run", "--config", "c.json", "--out", "run"])
    result.update(csv=_read("run.csv"), json=_read("run.json"))
    try:
        record_transcript(job["config"], job["transcript_seed"], "t.jsonl")
        result["transcript"] = _read("t.jsonl")
    except Exception as exc:
        result["transcript"] = f"{type(exc).__name__}: {exc}"
    return result


def _demo(job, tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("DFIPP_BUDGET", None)
    proc = subprocess.run([sys.executable, str(tree / "demos" / job["script"])], cwd=tree,
                          env=env, capture_output=True, text=True, check=False)
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def worker(jobs_path: str, tree: str, out_path: str) -> None:
    """Run every job of jobs_path on tree (whose src/ is on PYTHONPATH); write
    id -> {field: text} to out_path.  Runs in a scratch working directory."""
    from dfipp.cli import main

    with open(jobs_path) as fh:
        todo = json.load(fh)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for job in todo:
            if job["kind"] == "run":
                results[job["id"]] = _run(job)
            elif job["kind"] == "cli":
                results[job["id"]] = _cli(main, job["argv"])
            else:
                results[job["id"]] = _demo(job, Path(tree))
    with open(out_path, "w") as fh:
        json.dump(results, fh)


# --- the comparison ---------------------------------------------------------------

def _first_line(a, b):
    """(1-based line number, parent line, new line) of the first differing line."""
    la = str(a).splitlines() if a is not None else []
    lb = str(b).splitlines() if b is not None else []
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else None
        y = lb[i] if i < len(lb) else None
        if x != y:
            return i + 1, x, y
    return None, a, b  # same lines, different line ends or types


def _report(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _ledger_delta(old, new) -> dict:
    """new - old for every ledger statistic that moved, as exact strings."""
    delta = {}
    for key, stats in new.get("ledger", {}).items():
        for stat, value in stats.items():
            before = old.get("ledger", {}).get(key, {}).get(stat)
            if before is not None and Fraction(str(value)) != Fraction(str(before)):
                delta[f"{key}.{stat}"] = str(Fraction(str(value)) - Fraction(str(before)))
    return delta


def compare(job_ids, parent: dict, child: dict, expect: set) -> list[dict]:
    entries = []
    for jid in job_ids:
        a, b = parent[jid], child[jid]
        field = next((f for f in a if a[f] != b.get(f)), None)
        if field is None:
            entries.append({"id": jid, "status": "identical", "expected": jid in expect})
            continue
        line, old, new = _first_line(a[field], b[field])
        entry = {"id": jid, "status": "differs", "expected": jid in expect, "field": field,
                 "line": line, "parent": old, "new": new}
        if field == "transcript" and line is not None:
            record = _report(new if new is not None else old) or {}
            entry["tag"] = record.get("tag")
        ra, rb = _report(a.get("json")), _report(b.get("json"))
        if isinstance(ra, dict) and isinstance(rb, dict):
            entry["ledger_delta"] = _ledger_delta(ra, rb)
            verdicts = [(r.get("accepted"), r.get("reject_reasons")) for r in (ra, rb)]
            if verdicts[0] != verdicts[1]:
                entry["verdict"] = {"parent": verdicts[0], "new": verdicts[1]}
        entries.append(entry)
    return entries


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--expect", help="JSON list of output ids that must differ")
    ap.add_argument("--out", help="write the JSON report here (default: stdout)")
    args = ap.parse_args()
    expect = set()
    if args.expect:
        with open(args.expect) as fh:
            expect = set(json.load(fh))

    todo = jobs()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        (tmp / "jobs.json").write_text(json.dumps(todo))
        procs = []
        for label, tree in (("parent", parent_tree), ("child", ROOT)):
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            env.pop("DFIPP_BUDGET", None)
            procs.append(subprocess.Popen(
                [sys.executable, __file__, "--worker", str(tmp / "jobs.json"), str(tree),
                 str(tmp / f"{label}.json")], env=env))
        if any(proc.wait() for proc in procs):
            raise SystemExit("a worker failed")
        parent = json.loads((tmp / "parent.json").read_text())
        child = json.loads((tmp / "child.json").read_text())

    ids = [job["id"] for job in todo]
    unknown = expect - set(ids)
    if unknown:
        raise SystemExit(f"--expect names no output: {sorted(unknown)}")
    entries = compare(ids, parent, child, expect)
    text = json.dumps(entries, indent=1, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    moved = {e["id"] for e in entries if e["status"] == "differs"}
    print(f"{len(entries)} outputs, {len(moved)} differ; unexpected: "
          f"{len(moved - expect)}, expected but identical: {len(expect - moved)}",
          file=sys.stderr)
    return int(moved != expect)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())
