"""Benchmark entry point: each workload runs in a child process of its own.

    python3 bench/run.py --workload train-email --seed 1 --seconds 24 --trace 0
    python3 bench/run.py                  # every workload, untraced then traced
    python3 bench/run.py --selfcheck      # reduced shapes, every path, seconds

Human-readable lines come first. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
The exit code is 0 only when every operation and every check succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170  # a single-workload run must end within 180 s
ALIASES = {  # the name a user of that workload knows the end-to-end metric by
    ("train", "docs_per_s"): "train_docs_per_s",
    ("score", "docs_per_s"): "score_docs_per_s",
    ("score", "request_s.p50"): "score_batch_s.p50",
    ("score", "request_s.tail"): "score_batch_s.tail",
}


def run_child(workload, name: str, seed: int, seconds: float, trace: int, scale: str = "paper") -> dict:
    """Run one workload in its own process; a crash becomes one failed attempt."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{name}-seed{seed}-trace{trace}-{scale}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale, "--out", str(out)]
    reason = None
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        reason = f"no result within {CHILD_TIMEOUT_S} s"
    else:
        if proc.returncode < 0:
            reason = f"killed by {signal.Signals(-proc.returncode).name} (out of memory?)"
        elif proc.returncode != 0:
            reason = f"exit code {proc.returncode}"
        elif not out.is_file():
            reason = "no result file"
    finally:
        shutil.rmtree(workload.scratch_dir(out), ignore_errors=True)
    if reason is not None:
        return {"workload": name, "seed": seed, "trace": trace, "crashed": reason,
                "attempted": 1, "failed": 1, "errors": [f"workload process: {reason}"],
                "checks": {}, "metrics": {}}
    return json.loads(out.read_text())


def correct(result: dict) -> bool:
    return "crashed" not in result and result["failed"] == 0


def report(result: dict, untraced: dict | None = None) -> None:
    """Print one workload's result for a human reader."""
    w = result["workload"]
    mode = "traced" if result.get("trace") else "untraced"
    print(f"== {w}  seed {result['seed']}  {mode}")
    if "crashed" in result:
        print(f"  CRASHED: {result['crashed']}  (failed_share 1 = 1 failed / 1 attempted)")
        return
    env = result["environment"]
    threads = ", ".join(f"{k}={v}" for k, v in env["threads"].items() if v) or "defaults"
    blas = env["blas"] or {}
    print(f"  env: rev {env['git_rev'] or 'unknown'}{' (dirty)' if env['git_dirty'] else ''}, "
          f"python {env['python']}, numpy {env['numpy']}, {blas.get('name')} {blas.get('version')}, "
          f"threads {threads}, nproc {env['nproc']}, MemAvailable {env['mem_available_mb']:.0f} MB")
    for warning in env["warnings"]:
        print(f"  WARNING: {warning}")
    kind = "score" if w.startswith("score") else "train"
    for name, m in result["metrics"].items():
        alias = ALIASES.get((kind, name))
        note = f"  ({alias})" if alias else ""
        if name.endswith(".tail") and name in result["info"]:
            tail = result["info"][name]
            note += f"  p{tail['percentile']:.0f} of {tail['samples']} samples"
        src = result.get("per_layer_source", {}).get(name)
        if name in result.get("absent", []):
            note += "  absent"
        elif src == "setup":
            note += "  per set-up repetition"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<28} {value:>14} {m['unit']:<7}{note}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<28} {share:>14.6g} share    ({result['failed']} failed / "
          f"{result['attempted']} attempted operations and checks)")
    info, inp = result["info"], result["input"]
    if "heldout_auc" in info:
        print(f"  {'heldout_auc':<28} {info['heldout_auc']:>14.6g} AUC      (reported, not gated)")
    print(f"  input: {inp['tokens_per_doc']:.1f} tokens/doc, truncated share {inp['truncated_share']:.3f}, "
          f"OOV share {inp['oov_share']:.3f}")
    print("  checks: " + ", ".join(f"{k} {'ok' if c['ok'] else 'FAILED'}" for k, c in result["checks"].items()))
    print(f"  digests: params {info.get('params_digest')}  scores {info.get('scores_digest')}")
    if result.get("trace"):
        if result["absent_targets"]:
            print(f"  wrappers absent (no such function): {', '.join(result['absent_targets'])}")
        if result["hook_errors"]:
            print(f"  tracer hook errors: {result['hook_errors']}")
        print("  self time in the window: " + ", ".join(f"{k} {v:.3f}s" for k, v in result["self_s"].items()))
        print(f"  spans: {result['spans_file']}")
        if untraced is not None and correct(untraced) and correct(result):
            plain = untraced["end_to_end"]["docs_per_s"]
            traced = result["end_to_end"]["docs_per_s"]
            print(f"  tracing overhead: {plain:.4g} docs/s untraced, {traced:.4g} traced "
                  f"({100 * (plain - traced) / plain:+.1f}%)")
    for e in result["errors"]:
        print(f"  ERROR: {e}")


def emit(ok: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def run_all(workload, seed: int, seconds: float) -> int:
    results = []
    metrics = {}
    for w in workload.WORKLOADS:
        plain = run_child(workload, w, seed, seconds, 0)
        report(plain)
        traced = run_child(workload, w, seed, seconds, 1)
        report(traced, untraced=plain)
        results += [plain, traced]
        for k, m in plain["metrics"].items():
            metrics[f"{w}/{k}"] = m
    return emit(all(map(correct, results)), sum(r["attempted"] for r in results),
                sum(r["failed"] for r in results), metrics)


def selfcheck(workload) -> int:
    """Every workload, untraced and traced, at reduced shapes; then the tracer's fallbacks."""
    import tracing

    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", workload.END_TO_END), ("per_layer", workload.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from bench/workload.py")
    if [w["name"] for w in bench["workloads"]] != list(workload.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from bench/workload.py")

    runs = 0
    for w in workload.WORKLOADS:
        for trace in (0, 1):
            r = run_child(workload, w, seed=1, seconds=1, trace=trace, scale="tiny")
            runs += 1
            report(r)
            if not correct(r):
                problems.append(f"{w} trace {trace}: {r['errors']}")
                continue
            table = workload.PER_LAYER if trace else workload.END_TO_END
            if set(r["metrics"]) != set(table):
                problems.append(f"{w} trace {trace}: metric names differ from the table")
            for k, m in r["metrics"].items():
                if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0):
                    problems.append(f"{w} trace {trace}: {k} = {m['value']}")
            if trace:
                training_layers = {"autodiff.backward_s", "training.adam_s"}
                absent = training_layers & set(r["absent"])
                if absent != (training_layers if w == "score-email" else set()):
                    problems.append(f"{w}: backward/Adam absent = {sorted(absent)}")
                if r["absent_targets"] or r["hook_errors"]:
                    problems.append(f"{w}: tracer {r['absent_targets']} {r['hook_errors']}")

    # a workload process that dies is one failed attempt, not a lost run
    r = run_child(workload, "no-such-workload", seed=1, seconds=1, trace=0, scale="tiny")
    if "crashed" not in r or (r["attempted"], r["failed"]) != (1, 1):
        problems.append(f"a crashed workload was not counted as failed: {r}")

    # a wrapped function that a refactor removed is reported, not fatal
    tr = tracing.Tracer()
    tracing.instrument(tr, targets=[("hanspam.model", "no_such_layer", "x", None, None),
                                    ("hanspam.no_such_module", "f", "y", None, None)])
    if tr.absent != ["hanspam.model.no_such_layer", "hanspam.no_such_module.f"] or tr.wrapped:
        problems.append(f"tracer fallback: absent {tr.absent}, wrapped {tr.wrapped}")

    for p in problems:
        print(f"SELFCHECK PROBLEM: {p}")
    print(f"selfcheck: {runs} workload runs, {len(problems)} problem(s)")
    return emit(not problems, runs + 1, len(problems), {})


def main(argv=None) -> int:
    if not (ROOT / "src" / "hanspam" / "__init__.py").is_file():
        print(f"bench: no hanspam source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(HERE))
    import workload  # imports hanspam from the checkout's src/

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workload.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)

    if args.selfcheck:
        return selfcheck(workload)
    if args.workload == "all":
        return run_all(workload, args.seed, args.seconds)
    result = run_child(workload, args.workload, args.seed, args.seconds, args.trace)
    report(result)
    return emit(correct(result), result["attempted"], result["failed"], result["metrics"])


if __name__ == "__main__":
    sys.exit(main())
