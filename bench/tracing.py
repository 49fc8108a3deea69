"""Span recorder that rebinds hanspam's public functions from outside.

``instrument`` replaces each named function or method with a wrapper that
records a span (name, start, end, parent, request id, phase) around the
original call. A function is rebound in every ``hanspam`` module that holds
it, so ``training.collate`` is traced as well as ``model.collate``. A name
the program no longer defines is reported as absent and skipped, so the
traced run survives refactors. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import sys
import time
from collections import Counter, defaultdict

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory spans; ``phase`` and ``request`` are set by the benchmark."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, request, phase]
        self.stack: list[int] = []
        self.request = 0
        self.phase = "setup"
        self.counts: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self.steps = 0
        self.step_span: int | None = None
        self.hook_errors: Counter[str] = Counter()

    def begin(self, name: str, request: int | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        rid = self.request if request is None else request
        self.spans.append([name, time.perf_counter(), None, parent, rid, self.phase])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        # a span left open by a raising callee is closed with its parent
        while self.stack and self.stack[-1] != sid:
            self.spans[self.stack.pop()][2] = self.spans[sid][2]
        if self.stack:
            self.stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        if self.phase == "timed":
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        if self.phase == "timed":
            self.samples[name].append(value)

    # --- aggregation -----------------------------------------------------

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time per span name in ``phase``.

        Self time is a span's duration minus the durations of its children;
        one thread runs them one after another, so they never overlap.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        total, self_t = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _, span_phase) in enumerate(self.spans):
            if end is None or span_phase != phase:
                continue
            total[name] += end - start
            self_t[name] += (end - start) - child_time[i]
        return dict(total), dict(self_t)

    def durations(self, name: str, phase: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[5] == phase and s[2] is not None]

    def dump(self) -> dict:
        keys = ("name", "start", "end", "parent", "request", "phase")
        return {
            "fields": list(keys),
            "spans": self.spans,
            "absent": self.absent,
            "wrapped": self.wrapped,
            "hook_errors": dict(self.hook_errors),
        }


def _level(param) -> str:
    """'word' or 'sent' from a parameter name such as ``sent_gru.fw.w_z``."""
    name = getattr(getattr(param, "w_z", param), "name", "") or ""
    return "sent" if str(name).startswith("sent") else "word"


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _targets(tr: Tracer):
    """(module, dotted attribute, span name or namer, before-hook, after-hook) per layer."""

    def after_collate(args, kwargs, out):
        if tr.phase != "timed":
            return
        docs = _arg(args, kwargs, 0, "docs")
        mask = out.tok_mask
        tr.count("model.real_slots", int(mask.sum()))
        tr.count("model.padded_slots", mask.size)
        distinct = set()
        for doc in docs:
            for ids, buckets in zip(doc.word_ids, doc.bucket_ids):
                distinct.update(zip(ids.tolist(), buckets))
        tr.count("model.distinct_tokens", len(distinct))

    def before_forward(args, kwargs):
        if _arg(args, kwargs, 2, "training", False):
            if tr.step_span is not None:  # the last step never reached Adam
                tr.end(tr.step_span)
            tr.step_span = tr.begin("training.step", request=tr.steps)
            tr.steps += 1

    def after_forward(args, kwargs, out):
        if _arg(args, kwargs, 2, "training", False):
            tr.sample("rss.after_forward_mb", rss_mb())

    def before_backward(args, kwargs):
        tape = _arg(args, kwargs, 1, "tape")
        if tape is not None:
            tr.sample("autodiff.tape_entries", len(tape))

    def after_backward(args, kwargs, out):
        tr.sample("rss.after_backward_mb", rss_mb())

    def after_adam(args, kwargs, out):
        tr.sample("rss.after_adam_mb", rss_mb())
        if tr.step_span is not None:
            tr.end(tr.step_span)
            tr.step_span = None

    return [
        ("hanspam.ingest", "parse_email", "ingest.parse", None, None),
        ("hanspam.ingest", "to_document", "ingest.to_document", None, None),
        ("hanspam.vocab", "build_vocab", "vocab.build", None, None),
        ("hanspam.model", "HanModel.encode", "vocab.encode", None, None),
        ("hanspam.model", "HanModel.__init__", "model.init", None, None),
        ("hanspam.model", "load_checkpoint", "model.load", None, None),
        ("hanspam.model", "collate", "model.collate", None, after_collate),
        ("hanspam.model", "HanModel.forward_batch", "model.forward", before_forward, after_forward),
        ("hanspam.model", "HanModel.score", "model.score", None, None),
        ("hanspam.autodiff", "embedding_lookup", "model.embed", None, None),
        ("hanspam.model", "conv_feature_stack", "model.conv", None, None),
        ("hanspam.model", "tcn_stack", "model.conv", None, None),
        ("hanspam.model", "bigru_encode",
         lambda a, k: f"model.{_level(_arg(a, k, 2, 'forward'))}_gru", None, None),
        ("hanspam.model", "attention_pool",
         lambda a, k: f"model.{_level(_arg(a, k, 2, 'w'))}_attn", None, None),
        ("hanspam.autodiff", "backward", "autodiff.backward", before_backward, after_backward),
        ("hanspam.training", "clip_gradients", "training.clip", None, None),
        ("hanspam.training", "Adam.step", "training.adam", None, after_adam),
        ("hanspam.training", "train", "training.train", None, None),
        ("hanspam.evaluation", "roc_auc", "evaluation.metrics", None, None),
        ("hanspam.evaluation", "confusion_metrics", "evaluation.metrics", None, None),
    ]


def _wrapper(tr: Tracer, fn, name, before, after):
    namer = name if callable(name) else (lambda a, k: name)

    def hook(run, *hook_args):
        # a hook that no longer fits the program's signature must not end the run
        try:
            return run(*hook_args)
        except Exception as exc:  # noqa: BLE001 - reported, the traced call goes on
            tr.hook_errors[f"{getattr(run, '__name__', run)}: {type(exc).__name__}: {exc}"] += 1
            return None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            hook(before, args, kwargs)
        span = hook(namer, args, kwargs) or (name if isinstance(name, str) else fn.__name__)
        sid = tr.begin(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr.end(sid)
        if after is not None:
            hook(after, args, kwargs, out)
        return out

    return traced


def instrument(tr: Tracer, targets=None) -> None:
    """Rebind every target in place; record missing ones in ``tr.absent``."""
    for module_name, attr, name, before, after in targets or _targets(tr):
        label = f"{module_name}.{attr}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tr.absent.append(label)
            continue
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            tr.absent.append(label)
            continue
        traced = _wrapper(tr, original, name, before, after)
        if path:
            setattr(owner, leaf, traced)  # a method: the class is its one home
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "hanspam" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        tr.wrapped.append(label)
