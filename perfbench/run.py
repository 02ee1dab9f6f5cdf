"""dfipp benchmark: closed-loop passes over a seeded op list, one workload per process.

    python3 perfbench/run.py --workload blackbox_sessions --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root.  dfipp is imported from ./src and driven only
through its public entry points: `dfipp.cli.main(argv)` and
`dfipp.experiments.record_transcript`.  One client runs the ops of a pass
back to back, in the order shuffled from the seed, and starts whole passes
until --seconds have elapsed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones, which wrap the public callables of every module
(see tracing.py), over the same op list; it prints the per-layer metrics.
The last stdout line is one JSON object.  The exit code is 1 when an op
fails unexpectedly or a harness check fails: the determinism / transparency
checks, the exact-count checks, or the predicted zero / non-zero call
counts.  It is 2 when dfipp cannot be found.  README.md has the details.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = ("blackbox_sessions", "whitebox_sessions", "lemma_oracles")
INITIAL_SETUPS = 3
LEDGER_KEYS = ("queries", "samples", "comm_bits", "messages")

# predicted call counts per traced pass; a missed alias reads as 0 and fails here
PREDICTIONS = {
    "blackbox_sessions": {"tensors.enumerate_pval.calls": "zero",
                          "protocols.folded_eval.calls": "nonzero",
                          "field.lde_eval.calls": "nonzero",
                          "product.run_whitebox_product_ipp.calls": "zero"},
    "whitebox_sessions": {"tensors.enumerate_pval.calls": "zero",
                          "protocols.folded_eval.calls": "nonzero",
                          "product.extended_fold_phase.calls": "nonzero"},
    "lemma_oracles": {"tensors.enumerate_pval.calls": "nonzero",
                      "session.run_session.calls": "zero",
                      "protocols.folded_eval.calls": "zero"},
}
# the callable predicted to have the most self time; a mismatch is reported only
PREDICTED_TOP = {
    "blackbox_sessions": {"field.lde_eval"},
    "whitebox_sessions": {"protocols.folded_eval"},
    "lemma_oracles": {"tensors.dist", "distributions.dispersion_rho",
                      "tensors.enumerate_pval"},
}


# --- loading dfipp --------------------------------------------------------------------

def load_dfipp():
    """Import dfipp from ./src afresh (a set-up repeat re-imports every dfipp module)."""
    for name in [n for n in sys.modules if n == "dfipp" or n.startswith("dfipp.")]:
        del sys.modules[name]
    import dfipp.cli
    import dfipp.experiments
    import dfipp.field
    if Path(dfipp.__file__).resolve().parent != SRC / "dfipp":
        raise ImportError(f"dfipp imported from {dfipp.__file__}, not {SRC}")
    return SimpleNamespace(cli=dfipp.cli, experiments=dfipp.experiments,
                           field=dfipp.field)


# --- running ops ----------------------------------------------------------------------

@dataclass
class OpResult:
    ns: int
    output: object          # parsed stdout / record summary; compared across passes
    failure: str | None     # None, or why the op failed
    known: bool = False     # failure is the known empty-transcript replay defect


def _record_summary(result, path: str) -> dict:
    led = result.ledger
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"accepted": int(result.verdict.accepted), "rejected":
            int(not result.verdict.accepted),
            "reject_reasons": {} if result.verdict.accepted
            else {result.verdict.reject_reason: 1},
            "ledger": {key: {"sum": getattr(led, key)} for key in LEDGER_KEYS},
            "transcript_messages": len(result.transcript), "sha256": digest}


def run_op(api, op) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.kind == "record":
                result = api.experiments.record_transcript(op.config, op.seed, op.path)
                rc = 0
            else:
                rc = api.cli.main(op.argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(time.perf_counter_ns() - start, None,
                        f"raised {type(exc).__name__}: {exc}")
    ns = time.perf_counter_ns() - start
    try:
        output = _record_summary(result, op.path) if op.kind == "record" \
            else json.loads(out.getvalue())
    except (ValueError, OSError) as exc:
        return OpResult(ns, None, f"unparsable output ({exc}); stderr={err.getvalue()!r}")
    return OpResult(ns, output, *classify(op, rc, output))


def classify(op, rc: int, output) -> tuple[str | None, bool]:
    """(failure or None, known) for one op outcome."""
    if op.kind == "replay" and not output["match"]:
        known = (op.amplified and output["comm_bits_recomputed"] == 0
                 and output["comm_bits_recorded"] > 0)
        return "replay match: false", known
    if rc != 0:
        return f"exit code {rc}", False
    if op.kind in ("run", "record"):
        if op.honest and output["rejected"]:
            return f"honest prover rejected: {output['reject_reasons']}", False
        if op.expect_reject is not None and (
                output["accepted"] or set(output["reject_reasons"]) != {op.expect_reject}):
            return (f"expected every trial to reject at {op.expect_reject}, got "
                    f"{output['accepted']} accepted, {output['reject_reasons']}"), False
    return None, False


def run_pass(api, ops, tracer=None, first_op_id=0) -> list[OpResult]:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        results.append(run_op(api, op))
    return results


def exact_counts(ops, results) -> dict[str, int]:
    """Ledger totals and trial verdict tallies taken from the parsed outputs."""
    totals = {f"session.{key}": Fraction(0) for key in LEDGER_KEYS}
    accepted = rejected = 0
    for op, res in zip(ops, results):
        if op.kind not in ("run", "record") or res.output is None:
            continue
        out = res.output
        accepted += out["accepted"]
        rejected += out["rejected"]
        for key in LEDGER_KEYS:
            led = out["ledger"][key]
            totals[f"session.{key}"] += Fraction(led["sum"]) if "sum" in led \
                else Fraction(led["mean"]) * out["trials"]
    counts = {name: int(v) for name, v in totals.items()}
    counts["experiments.trials_accepted"] = accepted
    counts["experiments.trials_rejected"] = rejected
    return counts


# --- metrics --------------------------------------------------------------------------

def trials_per_s(ops, passes, scales=None) -> float:
    """Trials over summed op time; `scales` corrects each pass to the reference speed."""
    scales = scales or [1.0] * len(passes)
    trials = sum(op.trials for op in ops) * len(passes)
    return trials / (sum(r.ns * k for p, k in zip(passes, scales) for r in p) / 1e9)


def end_to_end(ops, passes, scales, setup_s: float) -> dict:
    op_ms = [r.ns / 1e6 * k for p, k in zip(passes, scales) for r in p]
    ranks = statistics.quantiles(op_ms, n=100, method="inclusive")
    failed = sum(1 for p in passes for r in p if r.failure)
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials_per_s(ops, passes, scales), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_p90": (ranks[89], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_op_ratio": (1 - failed / len(op_ms), "ratio"),
    }


# --- host speed -------------------------------------------------------------------------
#
# The speed of a shared host drifts: on the 2-vCPU VM this benchmark was tuned on,
# the same pass ran at 62 to 141 trials/s within ten minutes.  The end-to-end
# times are therefore corrected to a reference speed.  A fixed kernel, part of
# the benchmark and not of dfipp, is timed right before and right after every
# pass; each op time of the pass is multiplied by REFERENCE_KERNEL_MS over the
# kernel's median time.  Raw times are printed next to the corrected ones.

REFERENCE_KERNEL_MS = 5.0
KERNEL_SAMPLES = 3


def reference_kernel():
    """Fixed pure-Python work in dfipp's instruction mix: Fraction sums, tuple and dict churn."""
    rng = random.Random(1)
    acc = Fraction(0)
    table = {}
    for _ in range(600):
        acc += Fraction(rng.randrange(1, 97), rng.randrange(1, 97))
        cell = tuple(rng.randrange(17) for _ in range(8))
        table[cell] = sum(a * b for a, b in zip(cell, cell[1:])) % 17
    return acc, len(table)


def kernel_ms() -> list[float]:
    """Kernel times, with the collector off so the size of dfipp's heap does not enter."""
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_SAMPLES):
            start = time.perf_counter_ns()
            reference_kernel()
            times.append((time.perf_counter_ns() - start) / 1e6)
    finally:
        gc.enable()
    return times


# <callable>: the statistics reported for it; units follow the statistic
PER_LAYER = {
    "field.lde_eval": ("calls", "self_s", "us_per_call"),
    "field.basis_row": ("calls", "self_s"),
    "field.lagrange_eval_univariate": ("calls", "self_s"),
    "tensors.enumerate_pval": ("calls", "members", "self_s"),
    "tensors.dist": ("calls", "self_s"),
    "tensors.dist_to_pval_bruteforce": ("total_s",),
    "tensors.pval_min_distance": ("total_s",),
    "distributions.dispersion_rho": ("calls", "self_s", "us_per_call"),
    "distributions.Pmf.__init__": ("calls", "self_s"),
    "distributions.Pmf.sample": ("calls", "us_per_call"),
    "distributions.granularise": ("calls", "self_s"),
    "distributions.marginal_first": ("calls", "self_s"),
    "distributions.SamplingCircuit.eval": ("calls", "self_s"),
    "session.run_session": ("calls", "total_s"),
    "session.Session.ask": ("calls", "self_s"),
    "session.Session.tell": ("calls", "self_s"),
    "session.dump_transcript": ("calls", "total_s"),
    "session.load_transcript": ("calls", "total_s"),
    "session.amplify": ("calls",),
    "protocols.folded_eval": ("calls", "self_s", "us_per_call"),
    **{f"protocols.run_{name}": ("calls", "ms_per_call")
       for name in ("fin_ipp", "df_ipp_nc", "dispersed_ipp_nc", "poly_fold", "ham_ipp",
                    "rlcc_transform")},
    "protocols.generate_pval_claims": ("total_s",),
    "protocols.HonestFoldProver.reply": ("self_s",),
    "protocols.HonestFoldProver.observe": ("self_s",),
    "protocols.check_distance_preservation": ("total_s",),
    "protocols.check_subspace_lemma": ("total_s",),
    "protocols.check_appendix_claims": ("total_s",),
    "product.run_whitebox_product_ipp": ("calls", "ms_per_call"),
    "product.run_set_lower_bound": ("calls", "ms_per_call"),
    "product.slb_verify": ("calls", "self_s"),
    "product.extended_fold_phase": ("calls", "self_s"),
    "product.WhiteboxFoldProver.reply": ("self_s",),
    "product.WhiteboxFoldProver.observe": ("self_s",),
    "product.HonestSlbProver.__init__": ("self_s",),
    "product.HonestSlbProver.reply": ("self_s",),
    "product.gen_product_fixture": ("calls", "self_s"),
    "product.check_product_dpl": ("total_s",),
    "experiments.run_protocol": ("calls", "self_s"),
    "experiments.cmd_run": ("calls", "self_s"),
    "experiments.cmd_check_lemma": ("calls", "self_s"),
    "experiments.cmd_replay": ("calls", "self_s"),
    "experiments.record_transcript": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "members": "count", "self_s": "s", "total_s": "s",
         "us_per_call": "us", "ms_per_call": "ms"}
# exact counts from the parsed outputs, and what tracing costs
PER_LAYER_EXTRA = {
    **{f"session.{key}": "count" for key in LEDGER_KEYS},
    "experiments.trials_accepted": "count",
    "experiments.trials_rejected": "count",
    "field.lagrange_basis.hit_ratio": "ratio",
    "trace.trials_per_s_untraced": "1/s",
    "trace.trials_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
}


def per_layer(tracer, n_passes: int, counts: dict, hit_ratio: float,
              tps_untraced: float, tps_traced: float) -> dict:
    """Per traced pass: counts exact, times averaged over the traced passes."""
    out = {}
    for name, stats in PER_LAYER.items():
        agg = tracer.aggs[name]
        calls = agg.calls // n_passes
        incl_s = agg.incl_ns / 1e9 / n_passes
        values = {"calls": calls, "members": agg.items // n_passes,
                  "self_s": agg.self_ns / 1e9 / n_passes, "total_s": incl_s,
                  "us_per_call": incl_s / calls * 1e6 if calls else 0.0,
                  "ms_per_call": incl_s / calls * 1e3 if calls else 0.0}
        for stat in stats:
            out[f"{name}.{stat}"] = (values[stat], UNITS[stat])
    values = {**counts, "field.lagrange_basis.hit_ratio": hit_ratio,
              "trace.trials_per_s_untraced": tps_untraced,
              "trace.trials_per_s_traced": tps_traced,
              "trace.overhead_ratio": tps_untraced / tps_traced}
    for name, unit in PER_LAYER_EXTRA.items():
        out[name] = (values[name], unit)
    return out


# --- checks ---------------------------------------------------------------------------

def check_repeatable(label: str, reference, passes, problems: list) -> None:
    """Every pass must give the same parsed outputs as the reference pass."""
    for n, results in enumerate(passes):
        for i, (want, got) in enumerate(zip(reference, results)):
            if want.output != got.output:
                problems.append(f"{label} pass {n}: op {i} output differs from the "
                                f"reference pass")
                return


def check_trace(workload, ops, snapshots, problems) -> None:
    per_pass = [{name: snap[name][:2] for name in snap} for snap in snapshots]
    deltas = [{n: (b[n][0] - a[n][0], b[n][1] - a[n][1]) for n in b}
              for a, b in zip(per_pass, per_pass[1:])]
    for d in deltas[1:]:
        if d != deltas[0]:
            problems.append("call counts differ between traced passes")
            break
    calls = {name: c for name, (c, _items) in deltas[0].items()}
    expected = {
        "session.run_session": sum(op.sessions for op in ops),
        "cli.main": sum(1 for op in ops if op.kind != "record"),
        "experiments.cmd_run": sum(1 for op in ops if op.kind == "run"),
        "experiments.record_transcript": sum(1 for op in ops if op.kind == "record"),
        "experiments.cmd_replay": sum(1 for op in ops if op.kind == "replay"),
        "experiments.cmd_check_lemma": sum(1 for op in ops if op.kind == "lemma"),
    }
    for name, want in expected.items():
        if calls[name] != want:
            problems.append(f"{name}.calls = {calls[name]} per pass, op list implies {want}")
    for metric, kind in PREDICTIONS[workload].items():
        got = calls[metric.rsplit(".", 1)[0]]
        if (kind == "zero") != (got == 0):
            problems.append(f"{metric} = {got}, predicted {kind}")


# --- main -----------------------------------------------------------------------------

def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_all(args) -> int:
    """Each workload in its own process; a table of the end-to-end metrics."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dfipp" / "__init__.py").is_file():
        return fail(f"no dfipp package under {SRC}; run from the repository root")
    if args.workload == "all":
        return run_all(args)
    # lemma enumeration work depends on the budget, so the default must hold
    os.environ.pop("DFIPP_BUDGET", None)
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload

    setup_times: list[float] = []

    def set_up(started: float | None = None):
        """A fresh dfipp import, the seeded op list and its config files."""
        if started is None:
            # drop the previous pass's modules first, so memory does not grow
            # with the number of passes
            gc.collect()
            started = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        api = load_dfipp()
        ops = workloads.build(args.workload, args.seed, api, workdir)
        setup_times.append(time.perf_counter() - started)
        return api, ops

    # the first set-up counts from process start; every pass gets a fresh one,
    # so each pass starts cold, as a new `dfipp` process would
    api, ops = set_up(PROCESS_START)
    for _ in range(INITIAL_SETUPS - 1):
        api, ops = set_up()

    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        from tracing import Tracer
        cache = api.field.lagrange_basis
        before = cache.cache_info()
        reference = run_pass(api, ops)
        after = cache.cache_info()
        lookups = (after.hits - before.hits) + (after.misses - before.misses)
        hit_ratio = (after.hits - before.hits) / lookups if lookups else 0.0
        counts = exact_counts(ops, reference)
        tracer = Tracer(PER_LAYER)
        snapshots = [tracer.snapshot()]
        untraced, passes = [reference], []
        # untraced and traced passes alternate, so the overhead compares like periods
        while not passes or time.perf_counter() < deadline:
            api, ops = set_up()
            if len(untraced) > len(passes):
                tracer.install()
                passes.append(run_pass(api, ops, tracer,
                                       first_op_id=len(passes) * len(ops)))
                snapshots.append(tracer.snapshot())
            else:
                untraced.append(run_pass(api, ops))
        check_repeatable("traced", reference, passes, problems)
        check_repeatable("untraced", reference, untraced[1:], problems)
        for results in passes + untraced[1:]:
            if exact_counts(ops, results) != counts:
                problems.append("exact counts differ between traced and untraced passes")
                break
        check_trace(args.workload, ops, snapshots, problems)
        tracer.write(workdir / "spans.bin")
        metrics = per_layer(tracer, len(passes), counts, hit_ratio,
                            trials_per_s(ops, untraced), trials_per_s(ops, passes))
        all_passes = untraced + passes
    else:
        passes, kernel = [], []
        while not passes or time.perf_counter() < deadline:
            if passes:
                api, ops = set_up()
            before = kernel_ms()
            passes.append(run_pass(api, ops))
            kernel.append(statistics.median(before + kernel_ms()))
        check_repeatable("untraced", passes[0], passes[1:], problems)
        scales = [REFERENCE_KERNEL_MS / k for k in kernel]
        # the initial set-ups precede pass 0; every later one precedes its own pass
        setup_scales = [scales[0]] * (INITIAL_SETUPS - 1) + scales
        setup_s = statistics.median(t * k for t, k in zip(setup_times, setup_scales))
        metrics = end_to_end(ops, passes, scales, setup_s)
        raw = end_to_end(ops, passes, [1.0] * len(passes), statistics.median(setup_times))
        all_passes = passes

    attempted = sum(len(p) for p in all_passes)
    failed = [(op, r) for p in all_passes for op, r in zip(ops, p) if r.failure]
    unexpected = sorted({f"{op.label}: {r.failure}" for op, r in failed if not r.known})
    problems.extend(f"op failed: {u}" for u in unexpected)
    known = sum(1 for _op, r in failed if r.known)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(passes)} "
          f"{'traced ' if args.trace else ''}passes x {len(ops)} ops, "
          f"{sum(op.trials for op in ops)} trials per pass")
    if not args.trace:
        n = len(ops) * len(passes)
        print(f"  host speed: reference kernel median {statistics.median(kernel):.3f} ms "
              f"against {REFERENCE_KERNEL_MS} ms; corrected values first, raw in brackets")
        for name, note in (
                ("setup_s", f"median of {len(setup_times)} set-ups (the first from process "
                            f"start: {setup_times[0]:.4f} s raw)"),
                ("trials_per_s", f"{sum(op.trials for op in ops) * len(passes)} trials"),
                ("op_ms_p50", f"n={n} ops"),
                ("op_ms_p90", f"n={n} ops, {n - int(0.9 * n)} beyond")):
            value, unit = metrics[name]
            print(f"  {name:<16}{value:12.4f} {unit:<4} [{raw[name][0]:.4f}]  {note}")
        print(f"  {'peak_rss_mb':<16}{metrics['peak_rss_mb'][0]:12.1f} MB")
        print(f"  {'failed_op_ratio':<16}{len(failed) / attempted:12.4f}       "
              f"{len(failed)} of {attempted} ops failed, {known} of them the known "
              f"empty-transcript replay of amplified trials")
    else:
        ranked = sorted(PER_LAYER, key=lambda n: tracer.aggs[n].self_ns, reverse=True)
        top = ", ".join(f"{n} {tracer.aggs[n].self_ns / 1e9 / len(passes):.3f} s"
                        for n in ranked[:3])
        verdict = "as predicted" if ranked[0] in PREDICTED_TOP[args.workload] \
            else "NOT as predicted"
        print(f"  top self time per pass: {top} ({verdict}: "
              f"{' / '.join(sorted(PREDICTED_TOP[args.workload]))})")
        print(f"  trials_per_s untraced {metrics['trace.trials_per_s_untraced'][0]:.2f}, "
              f"traced {metrics['trace.trials_per_s_traced'][0]:.2f}; "
              f"{tracer.span_count} spans written to {workdir / 'spans.bin'}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
