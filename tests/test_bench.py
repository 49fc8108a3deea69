"""The benchmark harness must keep running against the current source."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# instruments the layers as the benchmark does, runs three evaluation-mode
# forwards and one training forward per variant, and prints each forward's
# child span names
_TRACED_FORWARDS = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
tr = tracing.Tracer()
tracing.instrument(tr)
from hanspam import gradcheck
from hanspam.ingest import EmailDocument
from hanspam.model import collate
from hanspam.vocab import encode_document

docs = [
    EmailDocument(label=1, sentences=[["alpha", "beta", "unseen"], ["gamma"]]),
    EmailDocument(label=0, sentences=[["delta", "alpha"]]),
]
children = {}
for variant in ("none", "cnn", "tcn"):
    model = gradcheck.tiny_model(variant)
    batch = collate([encode_document(d, model.vocab, model.table) for d in docs])
    for training in (False, False, False, True):
        model.forward_batch(batch, training=training)
for i, (name, *_rest) in enumerate(tr.spans):
    if name == "model.forward":
        children[i] = [s[0] for s in tr.spans if s[3] == i]
print(json.dumps({"absent": tr.absent, "forwards": list(children.values())}))
"""


def test_bench_selfcheck_passes():
    # reduced shapes on every workload path; writes only under .bench_out/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selfcheck"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_tracer_splits_the_gru_levels():
    # in a child process: instrumenting rebinds the model's functions for good
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_FORWARDS, str(ROOT / "bench"), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert "hanspam.model.bigru_encode" not in report["absent"]
    assert len(report["forwards"]) == 12
    for names in report["forwards"]:
        assert names.count("model.word_gru") == 1, names
        assert names.count("model.sent_gru") == 1, names
        assert names.count("model.word_attn") == 1, names
        assert names.count("model.sent_attn") == 1, names
