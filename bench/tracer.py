"""In-memory tracing of the program's layers, installed from outside.

`Tracer.install()` replaces public functions and methods of the `asrfuse`
modules with timing wrappers, in every module namespace that binds them (so
`asrfuse.cli`'s and `ssl_objectives.trainers`' imported names are traced
too); `uninstall()` puts the originals back.  Nothing inside the program is
edited.

Calls listed as hot (about 28 k `align_and_count` calls per eval pass) are
aggregated per pass as count, total and self time.  Every other call becomes
a `Span` with its parent span and op.  Hot functions must not call traced
non-hot functions, or that time would be subtracted twice.  The tracer keeps
one call stack and assumes the program runs its ops on one thread, which is
what the benchmark does (default `--workers`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("numcore", "ssl_objectives", "bottleneck", "features", "a2a", "combine",
          "scoring", "formats", "cli", "config", "models")


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    pass_index: int
    name: str
    objective: str | None
    start: float
    end: float
    agg_child_s: float = 0.0  # time in aggregated (hot) calls made directly inside

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _count_bytes(key):
    def hook(tracer, args, kwargs, result):
        tracer.count(key, _size(args[0] if args else None))
    return hook


def _count_nodes(tracer, args, kwargs, result):
    if result._backward_fn is not None:
        tracer.count("nodes.extract" if tracer.command == "extract" else
                     "nodes.train" if tracer.objective not in (None, "a2a-mtl") else
                     "nodes.other")


def _count_ctc(tracer, args, kwargs, result):
    tracer.count("ctc_cells", args[0].shape[0] * (2 * len(args[1]) + 1))


def _count_align(tracer, args, kwargs, result):
    ref, hyp = args[0], args[1]
    tracer.count("align_cells", len(ref) * len(hyp))
    tracer.pairs.add((tuple(ref), tuple(hyp)))


def _count_grid(tracer, args, kwargs):
    """Wrap the scorer so each grid point it evaluates is counted."""
    scorer = args[2] if len(args) > 2 else kwargs.pop("scorer")

    def counted(*a, **k):
        tracer.count("grid_points")
        return scorer(*a, **k)

    return (*args[:2], counted, *args[3:]), kwargs


# (module, attribute, hot, pre-call hook, post-call hook); "Class.method" names
# a method.  `Tensor._make` is counted only: it runs once per autograd node.
TARGETS = [
    ("asrfuse.numcore.tensor", "forward_backward", False, None, None),
    ("asrfuse.numcore.tensor", "Tensor.backward", False, None, None),
    ("asrfuse.numcore.optim", "Adam.step", False, None, None),
    ("asrfuse.numcore.rng", "derive_rng", True, None, None),
    ("asrfuse.ssl_objectives.trainers", "build_ssl_model", False, None, None),
    ("asrfuse.ssl_objectives.trainers", "train_ssl", False, None, None),
    ("asrfuse.ssl_objectives.trainers", "SslModel.encode", False, None, None),
    ("asrfuse.ssl_objectives.trainers", "SslModel.utterance_loss", False, None, None),
    ("asrfuse.ssl_objectives.context", "TransformerBlock.__call__", False, None, None),
    ("asrfuse.ssl_objectives.ctc", "ctc_loss", False, None, _count_ctc),
    ("asrfuse.ssl_objectives.ema", "ema_update", False, None, None),
    ("asrfuse.ssl_objectives.losses", "contrastive_loss", False, None, None),
    ("asrfuse.ssl_objectives.losses", "diversity_loss", False, None, None),
    ("asrfuse.ssl_objectives.losses", "masked_prediction_loss", False, None, None),
    ("asrfuse.ssl_objectives.losses", "data2vec_loss", False, None, None),
    ("asrfuse.ssl_objectives.masking", "MaskSpec.sample", True, None, None),
    ("asrfuse.ssl_objectives.quantizers", "KMeansQuantizer.fit", False, None, None),
    ("asrfuse.ssl_objectives.quantizers", "KMeansQuantizer.assign", False, None, None),
    ("asrfuse.ssl_objectives.quantizers", "GumbelQuantizer.quantize", False, None, None),
    ("asrfuse.bottleneck", "BottleneckModule.forward", False, None, None),
    ("asrfuse.features", "FeatureSequence.__post_init__", True, None, None),
    ("asrfuse.a2a", "train_a2a", False, None, None),
    ("asrfuse.a2a", "MdnHead.forward", False, None, None),
    ("asrfuse.a2a", "mtl_loss", False, None, None),
    ("asrfuse.combine", "grid_search_weights", False, _count_grid, None),
    ("asrfuse.combine", "joint_decode", True, None, None),
    ("asrfuse.combine", "rescore_nbest", True, None, None),
    ("asrfuse.combine", "truncate_nbest", True, None, None),
    ("asrfuse.scoring", "align_and_count", True, None, _count_align),
    ("asrfuse.scoring", "tokenize", True, None, None),
    ("asrfuse.scoring", "ScoredTranscriptSet.from_texts", False, None, None),
    ("asrfuse.scoring", "wer", False, None, None),
    ("asrfuse.scoring", "mapsswe", False, None, None),
    ("asrfuse.formats", "read_afm1", True, None, _count_bytes("bytes_read")),
    ("asrfuse.formats", "write_afm1", True, None, _count_bytes("bytes_written")),
    ("asrfuse.formats", "read_fss1", True, None, _count_bytes("bytes_read")),
    ("asrfuse.formats", "write_fss1", True, None, _count_bytes("bytes_written")),
    ("asrfuse.formats", "read_nbest", False, None, _count_bytes("bytes_read")),
    ("asrfuse.formats", "write_nbest", False, None, _count_bytes("bytes_written")),
    ("asrfuse.formats", "read_transcripts_tsv", False, None, _count_bytes("bytes_read")),
    ("asrfuse.formats", "write_transcripts_tsv", False, None, _count_bytes("bytes_written")),
    ("asrfuse.formats", "read_mdl1", False, None, _count_bytes("bytes_read")),
    ("asrfuse.formats", "write_mdl1", False, None, _count_bytes("bytes_written")),
    ("asrfuse.config", "read_manifest", False, None, None),
    ("asrfuse.config", "load_train_config", False, None, None),
    ("asrfuse.models", "save_ssl_checkpoint", False, None, None),
    ("asrfuse.models", "load_ssl_checkpoint", False, None, None),
    ("asrfuse.models", "save_mdn_checkpoint", False, None, None),
    ("asrfuse.models", "load_mdn_checkpoint", False, None, None),
    ("asrfuse.cli", "cmd_train", False, None, None),
    ("asrfuse.cli", "cmd_extract", False, None, None),
    ("asrfuse.cli", "cmd_combine", False, None, None),
    ("asrfuse.cli", "cmd_score", False, None, None),
    ("asrfuse.cli", "cmd_significance", False, None, None),
]


def layer_of(module: str) -> str:
    return module.split(".")[1]


class Tracer:
    """Spans, hot-call aggregates and counters, grouped by pass."""

    def __init__(self):
        self.spans: list[Span] = []
        # (pass, name, objective) -> [calls, total s, self s] for hot calls
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (pass, counter) -> count
        self.counters: dict = defaultdict(int)
        self.pairs: set = set()
        self.pass_index = 0
        self.op: str | None = None
        self.command: str | None = None
        self.objective: str | None = None
        # frames: [span id or None for hot calls, time in children to subtract]
        self._stack: list = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------------

    def count(self, key: str, n: int = 1):
        self.counters[(self.pass_index, key)] += n

    def begin_pass(self, index: int):
        self.pass_index = index
        self.pairs = set()

    def end_pass(self):
        self.counters[(self.pass_index, "align_unique")] = len(self.pairs)

    def call_op(self, op, call):
        """Run one CLI invocation as the root span `cli.main` of its op."""
        self.op = f"pass{self.pass_index}.{op.name}"
        self.command, self.objective = op.command, op.objective
        try:
            return self._traced("cli.main", False, call, (), {}, None, None)
        finally:
            self.op = self.command = self.objective = None

    def _traced(self, name, hot, fn, args, kwargs, pre, post):
        if pre is not None:
            args, kwargs = pre(self, args, kwargs)
        stack = self._stack
        span_id = None
        if not hot:
            span_id = len(self.spans)
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            self.spans.append(Span(span_id, parent, self.op or "", self.pass_index, name,
                                   self.objective, 0.0, 0.0))
        frame = [span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if hot:
                entry = self.agg[(self.pass_index, name, self.objective)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
            else:
                span = self.spans[span_id]
                span.start, span.end, span.agg_child_s = start, end, frame[1]
            if stack and (hot or stack[-1][0] is None):
                stack[-1][1] += duration
        if post is not None:
            post(self, args, kwargs, result)
        return result

    # -- installation -------------------------------------------------------------

    def _wrap(self, name, hot, fn, pre, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._traced(name, hot, fn, args, kwargs, pre, post)

        return wrapper

    def _wrap_make(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            _count_nodes(tracer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target where callers look it up; idempotent per tracer."""
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "asrfuse" or n.startswith("asrfuse.")) and m is not None]
        for module_name, attr, hot, pre, post in TARGETS:
            module = sys.modules[module_name]
            name = f"{layer_of(module_name)}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    inner = raw.__func__
                    wrapped = type(raw)(self._wrap(name, hot, inner, pre, post))
                else:
                    wrapped = self._wrap(name, hot, raw, pre, post)
                self._patch(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, hot, original, pre, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        tensor_cls = sys.modules["asrfuse.numcore.tensor"].Tensor
        make = tensor_cls.__dict__["_make"]
        self._patch(tensor_cls, "_make", staticmethod(self._wrap_make(make.__func__)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path: str):
        """Spans as JSON Lines, then one line per hot-call aggregate."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            for (p, name, objective), (calls, total, own) in sorted(
                    self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))):
                fh.write(json.dumps({"aggregate": name, "pass_index": p,
                                     "objective": objective, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")


def span_self_times(spans: list) -> dict:
    """span id -> self time: its duration minus the union of its children's
    intervals (clipped to it) minus time in aggregated hot calls."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[s.id] = (s.end - s.start) - covered - s.agg_child_s
    return result


def layer_self_ms(spans: list, agg: dict, pass_index: int) -> dict:
    """layer -> self time in ms for one pass, from spans and hot aggregates."""
    out = dict.fromkeys(LAYERS, 0.0)
    selected = {s.id: s for s in spans if s.pass_index == pass_index}
    for s_id, own in span_self_times(list(selected.values())).items():
        out[selected[s_id].layer] += own * 1e3
    for (p, name, _), (_, _, own) in agg.items():
        if p == pass_index:
            out[name.split(".", 1)[0]] += own * 1e3
    return out
