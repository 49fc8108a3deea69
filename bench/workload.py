"""Run one benchmark workload in this process and write its result as JSON.

    python3 bench/workload.py --workload train-email --seed 1 --seconds 24 \
        --trace 0 --out .bench_out/result.json [--scale paper|tiny]

Each workload sets up (timed several times, median reported), warms up once
outside the measured window, runs closed-loop operations until ``--seconds``
have passed, then checks its outputs. ``bench/run.py`` starts this file in a
child process, so a crash or OOM kill costs one workload, not the others.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's own source, not an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import hanspam  # noqa: E402,F401  (imports every module the tracer rebinds)
from hanspam import evaluation, ingest, model as hm, synth, training, vocab  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("train-email", "train-short", "score-email")
SETUP_REPS = 7
SAMPLE_DOCS = 4  # documents re-scored one by one for the padding-invariance check
PAD_TOL = 1e-10
SUM_TOL = 1e-12

END_TO_END = {  # name -> unit; every workload reports all of them
    "docs_per_s": "docs/s",
    "request_s.p50": "s",
    "request_s.tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {  # name -> unit; a layer a workload never runs reads 0 and is listed as absent
    "ingest.parse_s": "s",
    "ingest.to_document_s": "s",
    "ingest.emails": "count",
    "ingest.skipped": "count",
    "ingest.decode_errors": "count",
    "ingest.truncated_docs": "count",
    "vocab.build_s": "s",
    "vocab.encode_s": "s",
    "vocab.tokens": "count",
    "vocab.oov_share": "share",
    "model.init_s": "s",
    "model.load_s": "s",
    "model.load_self_s": "s",
    "model.collate_s": "s",
    "model.score_s": "s",
    "model.score_self_s": "s",
    "model.forward_s": "s",
    "model.embed_s": "s",
    "model.conv_s": "s",
    "model.word_gru_s": "s",
    "model.word_attn_s": "s",
    "model.sent_s": "s",
    "model.head_self_s": "s",
    "model.real_slot_share": "share",
    "model.distinct_token_share": "share",
    "autodiff.backward_s": "s",
    "autodiff.tape_entries": "count",
    "training.train_s": "s",
    "training.train_self_s": "s",
    "training.steps": "count",
    "training.step_s.p50": "s",
    "training.step_s.tail": "s",
    "training.step_self_s": "s",
    "training.clip_s": "s",
    "training.adam_s": "s",
    "training.val_score_s": "s",
    "evaluation.metrics_s": "s",
    "rss.after_forward_mb": "MB",
    "rss.after_backward_mb": "MB",
    "rss.after_adam_mb": "MB",
    "input.tokens_per_doc": "count",
    "input.truncated_share": "share",
    "trace.docs_per_s": "docs/s",
}


@dataclass(frozen=True)
class Scale:
    """Shapes for one scale; ``paper`` is the default model at email lengths."""

    han: dict
    gen: gen.Shape
    email_batch: int  # train-email batch; the corpus is one batch plus a 10% holdout
    short_docs: int  # synth.make_corpus size for train-short
    request: int  # emails per score-email request (the eval batch)
    pool: int  # distinct requests score-email cycles through
    vocab_docs: int  # token documents the score-email vocabulary is built from


SCALES = {
    "paper": Scale(han={}, gen=gen.Shape(), email_batch=16, short_docs=200,
                   request=64, pool=6, vocab_docs=200),
    "tiny": Scale(
        han=dict(embed_dim=16, gru_hidden=8, cnn_windows=(2, 3), cnn_maps=4, tcn_levels=2,
                 tcn_kernel=2, tcn_channels=8, s_max=6, t_max=10, embed_buckets=997),
        gen=gen.Shape(vocab_types=2000, sentences=(3, 6), tokens=(3, 10)),
        email_batch=4, short_docs=40, request=8, pool=3, vocab_docs=20,
    ),
}


# --- helpers --------------------------------------------------------------


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it: (value, pct, n).

    Below 21 samples that percentile would not lie above the median, so the
    maximum (p100) is reported instead; the sample count says which.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    k = n - 11  # ten samples lie above index k
    return ordered[k], 100.0 * (k + 1) / n, n


def scratch_dir(out: Path) -> Path:
    """Where a run keeps its checkpoints; ``run.py`` removes it even after a crash."""
    return out.with_suffix(".tmp")


def digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def params_digest(model) -> str:
    return digest(model.params[k].data for k in sorted(model.params))


def stratified_holdout(labels: np.ndarray, frac: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per class, a seeded ``frac`` share (at least one) goes to validation."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x401D])))
    val = np.zeros(labels.size, dtype=bool)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        val[idx[: max(1, int(round(idx.size * frac)))]] = True
    return np.flatnonzero(~val), np.flatnonzero(val)


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HANSPAM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        env["blas"] = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    env["mem_available_mb"] = int(line.split()[1]) / 1024
    except OSError:
        env["mem_available_mb"] = None
    env["git_rev"], env["git_dirty"] = None, None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                env["git_rev"] = rev.stdout.strip()
                env["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas_threads = env["threads"]["OPENBLAS_NUM_THREADS"] or env["threads"]["OMP_NUM_THREADS"]
    env["warnings"] = []
    if blas_threads and blas_threads.isdigit() and int(blas_threads) > env["nproc"]:
        env["warnings"].append(f"BLAS threads {blas_threads} exceed nproc {env['nproc']}")
    return env


@dataclass
class Run:
    """Book-keeping shared by the workloads: ops, checks, tracer phase."""

    name: str
    seed: int
    seconds: float
    scale: Scale
    tracer: tracing.Tracer | None
    setup_times: list[float] = field(default_factory=list)
    op_times: list[float] = field(default_factory=list)
    op_docs: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    peak_rss: float | None = None  # MB, through set-up, warm-up and the window
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    doc_props: dict = field(default_factory=lambda: {"docs": 0, "tokens": 0, "truncated": 0,
                                                     "oov": 0, "emails": 0, "skipped": 0,
                                                     "decode_errors": 0})

    def phase(self, name: str, request: int = 0) -> None:
        if self.tracer is not None:
            self.tracer.phase = name
            self.tracer.request = request

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            self.failed += 1
            self.errors.append(f"check {name} failed: {detail}")

    def timed_loop(self, op, prepare=None, tally=None) -> None:
        """Closed loop, one operation in flight, until the window has passed.

        ``prepare(i)`` runs before operation ``i`` and ``tally(i)`` after a
        successful one; neither is inside the operation's measured time.
        """
        started = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - started < self.seconds:
            if prepare is not None:
                prepare(i)
            gc.collect()
            self.phase("timed", request=i)
            t0 = time.perf_counter()
            try:
                n_docs, n_ops = op(i)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the loop goes on
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"operation {i}: {type(exc).__name__}: {exc}")
                ok = False
            else:
                self.op_times.append(time.perf_counter() - t0)
                self.op_docs.append(n_docs)
                self.attempted += n_ops
                ok = True
            self.phase("post", request=i)
            if ok and tally is not None:
                tally(i)
            i += 1
        # the checks that follow load extra models; they are not what a user pays
        self.peak_rss = tracing.peak_rss_mb()


def check_probabilities(run: Run, model, enc_docs, batch_scores) -> None:
    """Rows of a batch forward are distributions; per-document forwards match the batch."""
    batch = hm.collate(enc_docs)
    probs = model.forward_batch(batch, training=False)[0].data
    ok = bool(np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0
              and np.max(np.abs(probs.sum(axis=1) - 1.0)) <= SUM_TOL)
    run.check("probabilities_valid", ok,
              f"{probs.shape[0]} rows, max |row sum - 1| = {np.max(np.abs(probs.sum(axis=1) - 1.0)):.3g}")
    worst = 0.0
    for doc, p_batch, s_batch in zip(enc_docs, probs, batch_scores):
        p_doc = model.forward_document(doc)[0]
        worst = max(worst, float(np.max(np.abs(p_doc - p_batch))), abs(float(p_doc[1]) - float(s_batch)))
    run.check("padding_invariance", worst <= PAD_TOL,
              f"{len(enc_docs)} documents, max |batch - single| = {worst:.3g} (tolerance {PAD_TOL})")


def check_checkpoint(run: Run, model, scratch: Path, first: Path | None = None) -> None:
    """Save, load and save again: the two files must be byte-identical."""
    if first is None:
        first = scratch / "first.ckpt"
        hm.save_checkpoint(first, model)
    reloaded = hm.HanModel.load(first)
    second = scratch / "second.ckpt"
    hm.save_checkpoint(second, reloaded)
    same = first.stat().st_size == second.stat().st_size and _file_digest(first) == _file_digest(second)
    run.check("checkpoint_roundtrip", same, f"{first.stat().st_size} bytes")
    second.unlink()


def _file_digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def count_docs(run: Run, docs) -> None:
    for d in docs:
        run.doc_props["docs"] += 1
        run.doc_props["tokens"] += d.token_count
        run.doc_props["truncated"] += int(d.truncated_sentences or d.truncated_tokens)


def count_oov(run: Run, enc_docs) -> None:
    for e in enc_docs:
        run.doc_props["oov"] += int(sum(np.count_nonzero(w == 0.0) for w in e.word_weight))


# --- workloads ------------------------------------------------------------


def train_workload(run: Run, config: hm.HanConfig, docs, batch_size: int, scratch: Path) -> None:
    """Repeated ``training.train`` calls (one epoch each) from the same start."""
    labels = np.array([d.label for d in docs])
    tr_idx, va_idx = stratified_holdout(labels, 0.1, run.seed)
    train_docs = [docs[i] for i in tr_idx]
    val_docs = [docs[i] for i in va_idx]
    count_docs(run, train_docs + val_docs)

    model = None
    for rep in range(SETUP_REPS):
        model = None
        gc.collect()
        run.phase("setup", request=rep)
        t0 = time.perf_counter()
        voc = vocab.build_vocab(train_docs, min_count=2)
        model = hm.HanModel(config, voc, seed=run.seed)
        enc_train = model.encode(train_docs)
        enc_val = model.encode(val_docs)
        run.setup_times.append(time.perf_counter() - t0)
    count_oov(run, enc_train + enc_val)
    run.info.update(vocab_size=len(voc), train_docs=len(enc_train), val_docs=len(enc_val))

    # every call starts from the parameters as set up; they are kept in a
    # file, not in memory, so the copy does not count in peak_rss_mb
    start = scratch / "start.bin"
    with open(start, "wb") as fh:
        for k in sorted(model.params):
            fh.write(memoryview(model.params[k].data).cast("B"))

    def reset(i: int) -> None:
        with open(start, "rb") as fh:
            for k in sorted(model.params):
                buf = memoryview(model.params[k].data).cast("B")
                if fh.readinto(buf) != buf.nbytes:
                    raise RuntimeError(f"{start} is short at parameter {k}")

    tcfg = training.TrainConfig(batch_size=batch_size, epochs=1, seed=run.seed)
    losses, digests = [], []

    def call(i: int):
        result = training.train(model, enc_train, enc_val, tcfg)
        losses.append(result.log[0].train_loss)
        return len(enc_train), result.steps

    def after_call():
        digests.append(params_digest(model))

    run.phase("warmup")
    reset(-1)
    call(-1)
    after_call()
    run.timed_loop(call, prepare=reset)
    # the digest is taken after each timed call, outside its measured time
    run.phase("check")
    after_call()

    run.check("repeat_identical", len(set(digests)) == 1,
              "parameters after the warm-up call and after the last timed call, "
              f"both from the same start: {len(set(digests))} distinct digest(s)")
    sample = enc_val + enc_train[: max(0, SAMPLE_DOCS - len(enc_val))]
    sample_scores = model.score(sample, batch_size=64)
    check_probabilities(run, model, sample, sample_scores)
    check_checkpoint(run, model, scratch)
    val_scores = sample_scores[: len(enc_val)]
    run.info["heldout_auc"] = evaluation.roc_auc(val_scores, np.array([d.label for d in enc_val]))
    run.info["train_loss"] = losses[0]
    run.info["params_digest"] = digests[0]
    run.info["scores_digest"] = digest([val_scores])


def score_workload(run: Run, config: hm.HanConfig, generator: gen.EmailGenerator, scratch: Path) -> None:
    """Raw emails to spam probabilities and metrics, 64 per request, with a reloaded model."""
    run.phase("fixture")
    vocab_docs = [ingest.EmailDocument(label=lab, sentences=s, doc_id=f"vocab-{i}")
                  for i, (lab, s) in enumerate(generator.documents(run.scale.vocab_docs, stream=1))]
    voc = vocab.build_vocab(vocab_docs, min_count=2)
    ckpt = scratch / "model.ckpt"
    hm.save_checkpoint(ckpt, hm.HanModel(config, voc, seed=run.seed))
    requests = [generator.raw_emails(run.scale.request, stream=2 + k) for k in range(run.scale.pool)]
    run.info.update(vocab_size=len(voc), checkpoint_bytes=ckpt.stat().st_size)

    model = None
    for rep in range(SETUP_REPS):
        model = None
        gc.collect()
        run.phase("setup", request=rep)
        t0 = time.perf_counter()
        model = hm.HanModel.load(ckpt)
        run.setup_times.append(time.perf_counter() - t0)

    first: dict = {}
    last: dict = {}

    def request(i: int):
        batch = requests[i % len(requests)]
        parsed = [ingest.parse_email(b, f"req{i % len(requests)}-{j}", lab) for j, (lab, b) in enumerate(batch)]
        docs = [ingest.to_document(e, s_max=config.s_max, t_max=config.t_max) for e in parsed]
        kept = [d for d in docs if not d.empty]
        enc = model.encode(kept)
        scores = model.score(enc, batch_size=run.scale.request)
        evaluation.evaluate_scores(scores, [d.label for d in kept])  # as `hanspam eval` reports
        last.update(parsed=parsed, docs=docs, kept=kept, enc=enc)
        if not first:
            first.update(enc=enc, scores=scores)
        all_scores.append(scores)
        return len(batch), 1

    def tally(i: int) -> None:
        run.doc_props["emails"] += len(last["parsed"])
        run.doc_props["skipped"] += len(last["docs"]) - len(last["kept"])
        run.doc_props["decode_errors"] += sum(e.had_decode_errors for e in last["parsed"])
        count_docs(run, last["kept"])
        count_oov(run, last["enc"])

    all_scores: list[np.ndarray] = []
    run.phase("warmup")
    request(-1)
    run.timed_loop(request, tally=tally)

    run.phase("check")
    scores = np.concatenate(all_scores)
    run.check("scores_in_range", bool(np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0),
              f"{scores.size} scores in [{scores.min():.6f}, {scores.max():.6f}]")
    check_probabilities(run, model, first["enc"][:SAMPLE_DOCS], first["scores"][:SAMPLE_DOCS])
    check_checkpoint(run, model, scratch, first=ckpt)
    run.info["scores_digest"] = digest([first["scores"]])
    run.info["params_digest"] = params_digest(model)


# --- results --------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    """The end-to-end metrics; None where no operation succeeded."""
    if not run.op_times:
        return dict.fromkeys(END_TO_END)
    rates = [n / t for n, t in zip(run.op_docs, run.op_times)]
    tail, pct, n = percentile_tail(run.op_times)
    run.info["request_s.tail"] = {"percentile": pct, "samples": n}
    return {
        "docs_per_s": statistics.median(rates),
        "request_s.p50": statistics.median(run.op_times),
        "request_s.tail": tail,
        "peak_rss_mb": run.peak_rss,
        "setup_s": statistics.median(run.setup_times),
    }


def input_properties(props: dict) -> dict:
    return {
        "tokens_per_doc": props["tokens"] / props["docs"] if props["docs"] else 0.0,
        "truncated_share": props["truncated"] / props["docs"] if props["docs"] else 0.0,
        "oov_share": props["oov"] / props["tokens"] if props["tokens"] else 0.0,
    }


def per_layer(run: Run, e2e: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer values, the phase each came from, and the layers never seen."""
    tr = run.tracer
    timed, timed_self = tr.totals("timed")
    setup, setup_self = tr.totals("setup")
    values, source, absent = {}, {}, []

    def span(metric: str, name: str, self_time: bool = False) -> None:
        # a layer on the measured path is summed over the window; a set-up
        # layer (vocab build, model init, load) is given per set-up repetition
        if name in timed:
            values[metric] = (timed_self if self_time else timed)[name]
            source[metric] = "timed"
        elif name in setup:
            values[metric] = (setup_self if self_time else setup)[name] / SETUP_REPS
            source[metric] = "setup"
        else:
            values[metric] = 0.0
            absent.append(metric)

    for metric, name in (
        ("ingest.parse_s", "ingest.parse"), ("ingest.to_document_s", "ingest.to_document"),
        ("vocab.build_s", "vocab.build"), ("vocab.encode_s", "vocab.encode"),
        ("model.init_s", "model.init"), ("model.load_s", "model.load"),
        ("model.collate_s", "model.collate"), ("model.score_s", "model.score"),
        ("model.forward_s", "model.forward"), ("model.embed_s", "model.embed"),
        ("model.conv_s", "model.conv"), ("model.word_gru_s", "model.word_gru"),
        ("model.word_attn_s", "model.word_attn"), ("autodiff.backward_s", "autodiff.backward"),
        ("training.train_s", "training.train"), ("training.clip_s", "training.clip"),
        ("training.adam_s", "training.adam"), ("evaluation.metrics_s", "evaluation.metrics"),
    ):
        span(metric, name)
    for metric, name in (
        ("model.load_self_s", "model.load"), ("model.score_self_s", "model.score"),
        ("model.head_self_s", "model.forward"), ("training.train_self_s", "training.train"),
        ("training.step_self_s", "training.step"),
    ):
        span(metric, name, self_time=True)

    sent = [timed[n] for n in ("model.sent_gru", "model.sent_attn") if n in timed]
    values["model.sent_s"] = sum(sent)
    if not sent:
        absent.append("model.sent_s")

    steps = tr.durations("training.step", "timed")
    values["training.steps"] = len(steps)
    if steps:
        values["training.step_s.p50"] = statistics.median(steps)
        values["training.step_s.tail"], pct, n = percentile_tail(steps)
        run.info["training.step_s.tail"] = {"percentile": pct, "samples": n}
    else:
        values["training.step_s.p50"] = values["training.step_s.tail"] = 0.0
        absent += ["training.steps", "training.step_s.p50", "training.step_s.tail"]

    # validation scoring is the score spans nested under a train span
    spans = tr.spans
    val = 0.0
    for s in spans:
        if s[0] == "model.score" and s[5] == "timed" and s[2] is not None:
            p = s[3]
            while p >= 0 and spans[p][0] != "training.train":
                p = spans[p][3]
            if p >= 0:
                val += s[2] - s[1]
    values["training.val_score_s"] = val
    if "training.train" not in timed:
        absent.append("training.val_score_s")

    c = tr.counts
    for metric, num, den in (
        ("model.real_slot_share", "model.real_slots", "model.padded_slots"),
        ("model.distinct_token_share", "model.distinct_tokens", "model.real_slots"),
    ):
        values[metric] = c[num] / c[den] if c[den] else 0.0
        if not c[den]:
            absent.append(metric)
    for metric in ("autodiff.tape_entries", "rss.after_forward_mb", "rss.after_backward_mb", "rss.after_adam_mb"):
        samples = tr.samples.get(metric, [])
        agg = statistics.median if metric == "autodiff.tape_entries" else max
        values[metric] = agg(samples) if samples else 0.0
        if not samples:
            absent.append(metric)

    props = run.doc_props
    inputs = input_properties(props)
    values.update({
        "ingest.emails": props["emails"],
        "ingest.skipped": props["skipped"],
        "ingest.decode_errors": props["decode_errors"],
        "ingest.truncated_docs": props["truncated"] if props["emails"] else 0,
        "vocab.tokens": props["tokens"],
        "vocab.oov_share": inputs["oov_share"],
        "input.tokens_per_doc": inputs["tokens_per_doc"],
        "input.truncated_share": inputs["truncated_share"],
        "trace.docs_per_s": e2e["docs_per_s"],
    })
    if not props["emails"]:
        absent += ["ingest.emails", "ingest.skipped", "ingest.decode_errors", "ingest.truncated_docs"]
    return values, source, sorted(set(absent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="paper")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    scale = SCALES[args.scale]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    run = Run(args.workload, args.seed, args.seconds, scale, tracer)
    scratch = scratch_dir(args.out)
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if args.workload == "train-email":
            generator = gen.EmailGenerator(args.seed, scale.gen)
            docs = [ingest.EmailDocument(label=lab, sentences=s, doc_id=f"email-{i}")
                    for i, (lab, s) in enumerate(generator.documents(scale.email_batch + 2, stream=1))]
            train_workload(run, hm.HanConfig(**scale.han), docs, scale.email_batch, scratch)
        elif args.workload == "train-short":
            docs = synth.make_corpus(n_docs=scale.short_docs, seed=args.seed)
            train_workload(run, hm.HanConfig(variant="tcn", **scale.han), docs, 32, scratch)
        else:
            generator = gen.EmailGenerator(args.seed, scale.gen)
            score_workload(run, hm.HanConfig(**scale.han), generator, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    e2e = end_to_end(run)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "checks": run.checks,
        "end_to_end": e2e,
        "op_times": run.op_times,
        "setup_times": run.setup_times,
        "info": run.info,
        "input": input_properties(run.doc_props),
        "environment": environment(),
        "wall_s": time.perf_counter() - started,
    }
    if tracer is None:
        result["metrics"] = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        values, source, absent = per_layer(run, e2e)
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        result.update(per_layer_source=source, absent=absent,
                      absent_targets=tracer.absent, hook_errors=dict(tracer.hook_errors))
        _, self_times = tracer.totals("timed")
        result["self_s"] = dict(sorted(self_times.items()))
        spans_path = args.out.with_name(args.out.stem + "-spans.json")
        spans_path.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = str(spans_path)
    args.out.write_text(json.dumps(result, indent=1, default=float, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
