"""Command-line surface: train, extract, combine, score, significance.

Exit codes: 0 success, 2 rejected input (a ValidationError or an OSError),
3 numerical failure; any other exception is a bug and escapes `main`.  The
ASRFUSE_SEED environment variable overrides config seeds.

`main` runs each command with numpy's bundled OpenBLAS at one thread and then
restores the caller's count, so outputs do not depend on the CPU count or on
OPENBLAS_NUM_THREADS; library calls keep the caller's BLAS setting.
`extract` spreads utterances that average at least POOL_MIN_FRAMES input
frames over one thread per usable CPU, and writes the same bytes as one
thread would; every other command runs serially.

Each command works in one order.  It checks its flags, reads its config and
manifests, and checks its file plan with `_check_files`: no output may lie in
a missing directory, be a directory, or name the file of another output or of
an input, by path, symlink or hard link; a train `out_model` may be its
`resume`.  It then loads the checkpoint it extracts with or resumes from and
checks its header against the flags and the config, and only then reads its
data (a resume's `opt.step` is checked after, as it needs the data's step
count).  It validates its whole input before its first write, all writes are
atomic, and `extract` and frame-joint `combine` stage their files and rename
them into place after the last is written, so a command that exits 2 or 3
writes no output file.  A command returns its report and its text lines;
`main` prints the lines, or with `--json` the report as one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import os
import sys
from contextlib import contextmanager

import numpy as np

from .a2a import (
    ParallelPair,
    build_mdn_head,
    generate_parallel,
    steps_per_epoch,
    train_a2a,
)
from .combine import (
    JOINT_PRESETS,
    RESCORE_PRESETS,
    CombinationWeights,
    check_streams,
    joint_decode,
    rescore_nbest,
    truncate_nbest,
    tune_joint_weights,
    tune_rescore_weights,
)
from .config import RunConfig, load_train_config, read_manifest
from .errors import ValidationError
from .features import FeatureSequence
from .formats import (
    atomic_write,
    dump_json,
    read_afm1,
    read_fss1,
    read_nbest,
    read_transcripts_tsv,
    staged,
    write_afm1,
    write_fss1,
    write_nbest,
    write_transcripts_tsv,
)
from .models import (
    load_mdn_checkpoint,
    load_ssl_checkpoint,
    save_mdn_checkpoint,
    save_ssl_checkpoint,
)
from .numcore import NonFiniteError, Tensor, no_grad
from .scoring import ScoredTranscriptSet, mapsswe, wer
from .ssl_objectives import min_frames_for
from .ssl_objectives.trainers import build_ssl_model, make_synthetic_utterances, train_ssl

# preferred column order for the grouped report tables
_GROUP_ORDER = ["unseen", "seen", "VL", "L", "M", "H",
                "Severe", "Moderate", "Mild", "PAR", "INV"]

# The mean input frames per utterance from which `extract` runs its
# utterances on one thread per CPU.  Measured with a d_model 64, 4-block model
# on 2 CPUs, two threads took x1.37 the time of one at T=64, x1.19 at T=80,
# x0.92-1.05 at T=100, x0.86 at T=128 and x0.58 at T=400: below about 100
# frames each numpy call is too short to pay for handing over the GIL, and
# 128 is the shortest length that gained in every run.
POOL_MIN_FRAMES = 128


# -- process-level settings ----------------------------------------------------------


@functools.cache
def _blas_threads():
    """(getter, setter) of the thread count of the OpenBLAS that numpy's
    wheels bundle, or None where numpy links another BLAS, whose threads are
    left alone."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    paths = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])  # the copy numpy loaded: the loader matches the file
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread, then
    restore the caller's count.  BLAS splits a product differently over more
    threads, which changes low bits, so a command's outputs would depend on
    the CPU count and on OPENBLAS_NUM_THREADS; `main` runs every command in
    here.  Library calls keep the caller's setting."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _blas_at_one_thread() -> bool:
    threads = _blas_threads()
    return threads is not None and threads[0]() == 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_M_ARENA_MAX = -8  # glibc's mallopt parameter


@functools.cache
def _share_malloc_arena():
    """Have every thread allocate from glibc's main malloc arena.  An arena
    per worker thread keeps its own freed memory: a long-form benchmark run
    peaked at 93-98 MiB with them, against 84-85 MiB shared, with or without
    `malloc_trim`.  The setting holds for the rest of the process; only
    `extract`'s workers allocate on more than one thread.  Skipped where libc
    has no `mallopt`."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _run_each(fn, items: list, workers: int):
    """`fn(item)` for each item, on `workers` threads when more than one.
    The first failure in item order is raised, as a serial loop would."""
    if workers < 2:
        for item in items:
            fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor  # 0.5 MiB: only where workers run

    _share_malloc_arena()  # before the first worker starts
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(fn, items):
            pass


# -- train -----------------------------------------------------------------------


def _load_each(manifest: str, entries: list, load) -> list:
    """`load(entry)` for each of a manifest's entries; a ValidationError or
    OSError is re-raised naming the manifest and the entry's utterance."""
    loaded = []
    for entry in entries:
        try:
            loaded.append(load(entry))
        except (ValidationError, OSError) as e:
            raise ValidationError(f"{manifest}: {entry.utt_id}: {e}") from None
    return loaded


def _check_files(inputs: list, outputs: list, manifests=(), out_dir=None, suffix="",
                 where: str = "", alias=None):
    """Check a command's file plan, by the rule of the module docstring, before
    any data is read.  Paths are (key, path) pairs, None skipped; each of
    `manifests` is (key, path, entries), an input whose entries' files are
    inputs too, and with `out_dir` the first one's entries write
    `<utt_id><suffix>` there.  `alias` is the one (output key, input key)
    pair that may name one file.  A file that exists is its (st_dev, st_ino),
    so links count; a new one is its directory's realpath, resolved once, and
    its name.  A missing input is left to fail when it is read."""
    for key, manifest, entries in manifests:
        inputs = inputs + [(key, manifest)] + [(f"{manifest}: {e.utt_id} {k} path", path)
                                               for e in entries for k, path in e.paths.items()]
    rows = [(key, path, os.path.dirname(path) or ".", os.path.basename(path))
            for key, path in outputs if path is not None]  # (key, path, directory, name)
    if out_dir is not None:
        _, manifest, entries = manifests[0]
        rows[:0] = [("--out-dir", out_dir, out_dir, None)] + [
            (f"{manifest}: {e.utt_id}", os.path.join(out_dir, e.utt_id + suffix), out_dir,
             e.utt_id) for e in entries]
    owners, real = {}, {}  # file -> the key of the first path to it; directory -> realpath
    for key, path in inputs:
        if path is not None and os.path.exists(path):
            st = os.stat(path)
            owners.setdefault((st.st_dev, st.st_ino), key)
    for key, path, directory, name in rows:
        if directory not in real:
            if not os.path.isdir(directory):
                raise ValidationError(f"{where}{key} {path}: output directory does not exist")
            real[directory] = os.path.realpath(directory)
        if name is None:
            continue
        if os.path.isdir(path):
            raise ValidationError(f"{where}{key} {path} is a directory")
        if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
            raise ValidationError(f"{where}{key}: {name!r} names an output file, "
                                  "so it must be a plain file name")
        st = os.path.exists(path) and os.stat(path)
        this = (st.st_dev, st.st_ino) if st else (real[directory], os.path.basename(path))
        if this in owners and (key, owners[this]) != alias:
            raise ValidationError(f"{where}{key} and {owners[this]} name the same file {path}")
        owners[this] = key


def _read_input(entry, width: int, key: str = "default", label: str = "SSL") -> FeatureSequence:
    """The AFM1 features at a manifest entry's `key` path, checked to fit a
    model input: `width` features per frame and at least one frame."""
    path = entry.paths[key]
    seq = read_afm1(path, label=label)
    if seq.dim != width:
        raise ValidationError(f"{path}: feature dim {seq.dim}, model expects {width}")
    if seq.num_frames < 1:
        raise ValidationError(f"{path} has no frames")
    return seq


def _load_ssl_utterances(run: RunConfig, config: str, entries: list) -> list:
    data, model = run.data, run.model
    if data.kind == "synthetic":
        return make_synthetic_utterances(model, data.n_utts, data.frames_per_utt, run.seed)

    def load(entry):
        frames = _read_input(entry, model.d_in).frames
        if model.objective != "ctc":
            if run.epochs > 0 and len(frames) < 2:
                raise ValidationError(f"{model.objective} masks at least 2 frames of "
                                      f"each utterance, got {len(frames)}")
            return {"frames": frames}
        return {"frames": frames, "labels": _ctc_labels(entry, model.vocab, len(frames))}

    utts = _load_each(data.manifest, entries, load)
    frames = sum(len(utt["frames"]) for utt in utts)
    if model.objective == "hubert" and model.entries > frames:
        raise ValidationError(f"{config}: model.entries must be at most the {frames} frames "
                              f"of data.manifest {data.manifest}, got {model.entries}")
    return utts


def _ctc_labels(entry, vocab: int, num_frames: int) -> list:
    """A manifest entry's `metadata.labels`, checked to be CTC targets that a
    `num_frames`-frame utterance can emit: integers in [0, vocab)."""
    labels = entry.metadata.get("labels")
    if labels is None:
        raise ValidationError("ctc training from a manifest needs metadata.labels")
    if not isinstance(labels, list) or any(type(x) is not int for x in labels):
        raise ValidationError(f"metadata.labels must be a list of integers, got {labels!r}")
    for label in labels:
        if not 0 <= label < vocab:
            raise ValidationError(f"label {label} outside [0, {vocab})")
    if min_frames_for(labels) > num_frames:
        raise ValidationError(f"{len(labels)} labels need at least "
                              f"{min_frames_for(labels)} frames, got {num_frames}")
    return labels


def _load_a2a_pairs(run: RunConfig, entries: list):
    data, model = run.data, run.model
    if data.kind == "synthetic":
        return generate_parallel(run.seed, data.num_frames, model.d_articulatory,
                                 model.d_acoustic, noise_sigma=data.noise_sigma,
                                 n_utts=data.n_utts, max_freq=data.max_freq).pairs

    def load(entry):
        return ParallelPair(_read_input(entry, model.d_acoustic, "acoustic"),
                            _read_input(entry, model.d_articulatory, "articulatory", "UTI"))

    return _load_each(data.manifest, entries, load)


def _write_log(path, log):
    if path is None:
        return
    with atomic_write(path, "w") as fh:
        for entry in log:
            fh.write(dump_json(path, entry, sort_keys=True) + "\n")


def cmd_train(args) -> tuple:
    # The model, checkpoint and trainer functions are looked up by name on
    # every call, not kept in a table, so wrappers installed on these module
    # names (bench/tracer.py) apply.
    run = load_train_config(args.config)
    seed, a2a = run.seed, run.objective == "a2a-mtl"
    run_until = run.stop_after_epoch or run.epochs
    manifest = run.data.manifest if run.data.kind == "manifest" else None
    keys = ("acoustic", "articulatory") if a2a else ("default",)
    entries = read_manifest(manifest, keys=keys) if manifest else []
    _check_files([("--config", args.config), ("resume", run.resume)],
                 [("out_model", run.out_model), ("log", run.log)],
                 [("data.manifest", manifest, entries)],
                 where=f"{args.config}: ", alias=("out_model", "resume"))
    model = build_mdn_head(run.model, seed) if a2a else build_ssl_model(run.model, seed)
    optimizer, done = None, 0
    if run.resume:
        load = load_mdn_checkpoint if a2a else load_ssl_checkpoint
        resumed, header, optimizer = load(run.resume)
        if header.seed != seed:
            raise ValidationError(f"{run.resume}: checkpoint seed {header.seed} "
                                  f"differs from the run seed {seed}")
        if resumed.config_dict() != model.config_dict():
            raise ValidationError(f"{run.resume}: checkpoint model config differs "
                                  "from the run config")
        model, done = resumed, header.epochs_completed
        if done > run_until:
            raise ValidationError(f"{run.resume}: checkpoint has {done} epochs "
                                  f"completed, past the run's last epoch {run_until}")
        if done and optimizer is None:
            raise ValidationError(f"{run.resume}: checkpoint has {done} epochs "
                                  "completed but no optimizer state")
    if a2a:
        data = _load_a2a_pairs(run, entries)
        frames = sum(pair.acoustic.num_frames for pair in data)
        if frames < 2:  # every batch needs 2; synthetic data has at least 16
            raise ValidationError(f"{args.config}: data.manifest {manifest} must hold at "
                                  f"least 2 frames for a2a-mtl, got {frames}")
        steps = steps_per_epoch(frames, run.model.batch_frames)
    else:
        data = _load_ssl_utterances(run, args.config, entries)
        steps = len(data)
    step = optimizer.state_arrays()["step"][0] if optimizer is not None else 0
    if step != done * steps:  # the one resume check that needs the data
        raise ValidationError(f"{run.resume}: opt.step must be {done * steps} "
                              f"({done} epochs of {steps} steps), got {float(step)!r}")
    train = train_a2a if a2a else train_ssl
    log, optimizer = train(model, data, run_until, seed, lr=run.lr, optimizer=optimizer,
                           total_epochs=run.epochs)
    save = save_mdn_checkpoint if a2a else save_ssl_checkpoint
    save(run.out_model, model, seed, run_until, optimizer=optimizer)
    _write_log(run.log, log)
    return ({"out_model": os.path.basename(run.out_model), "epochs": run_until,
             "final_loss": log[-1]["loss"] if log else None},
            [f"trained {run.objective} for {run_until} epochs -> {run.out_model}"])


# -- extract -----------------------------------------------------------------------


def cmd_extract(args) -> tuple:
    entries = read_manifest(args.manifest, allow_empty=True)
    _check_files([("--model", args.model)], [], [("--manifest", args.manifest, entries)],
                 args.out_dir, ".afm1")
    model, _, _ = load_ssl_checkpoint(args.model)
    available = [model.cfg.bottleneck_position] if model.bottleneck is not None else []
    if args.position not in available:
        raise ValidationError(
            f"model has no bottleneck at {args.position!r}; available: {available or 'none'}"
        )
    if args.dim != model.cfg.bottleneck_dim:
        raise ValidationError(
            f"model bottleneck dim is {model.cfg.bottleneck_dim}, requested {args.dim}"
        )
    if not entries:
        print("warning: empty manifest, nothing to extract", file=sys.stderr)

    inputs = _load_each(args.manifest, entries, lambda e: _read_input(e, model.cfg.d_in))
    long_enough = sum(seq.num_frames for seq in inputs) >= POOL_MIN_FRAMES * len(inputs)
    # BLAS threads beside the workers would oversubscribe the CPUs
    workers = min(_usable_cpus(), len(inputs)) if long_enough and _blas_at_one_thread() else 1

    def extract(item):
        entry, seq = item
        features = model.extract(Tensor(seq.frames)).data
        write_afm1(os.path.join(args.out_dir, f"{entry.utt_id}.afm1"),
                   FeatureSequence(features, seq.frame_period_ms / 2.0, label="SSL"),
                   stage=stage)

    # no_grad's flag is process-wide, so it is set here, not in each worker
    with staged() as stage, no_grad():
        _run_each(extract, list(zip(entries, inputs)), workers)
    return ({"extracted": len(inputs), "dim": args.dim, "position": args.position},
            [f"extracted {len(inputs)} utterances at {args.position}, dim {args.dim}"])


# -- combine -----------------------------------------------------------------------


def _parse_joint_weights(text: str):
    if text in JOINT_PRESETS:
        return JOINT_PRESETS[text]
    try:
        values = tuple(float(x) for x in text.split(":"))
    except ValueError:
        raise ValidationError(
            f"weights must be a preset {sorted(JOINT_PRESETS)}, a ratio like 8:5:5, "
            f"or 'tune'; got {text!r}"
        )
    return CombinationWeights(values)


def _parse_rescore_weights(text: str):
    if text in RESCORE_PRESETS:
        return RESCORE_PRESETS[text]
    try:
        named = {}
        for part in text.split(","):
            name, value = part.split(":")
            named[name.strip()] = float(value)
    except ValueError:
        raise ValidationError(
            f"weights must be a preset {sorted(RESCORE_PRESETS)}, pairs like "
            f"ctc:0.9,tdnn:0.1, or 'tune'; got {text!r}"
        )
    if len(named) <= text.count(","):
        raise ValidationError(f"weights must name each score once; got {text!r}")
    return CombinationWeights(tuple(named.values()), names=tuple(named))


def _load_streams(manifests: list, systems: list) -> list:
    """Per utterance, its FrameScoreStream from each system's manifest, whose
    entries are `systems`.  The manifests list the same utterances in the
    same order, and each stream must fit the first system's as `joint_decode`
    requires."""
    for m, entries in zip(manifests[1:], systems[1:]):
        if [e.utt_id for e in entries] != [e.utt_id for e in systems[0]]:
            raise ValidationError(f"{m}: utterance ids differ from {manifests[0]}")
    first = {}  # utt_id -> the first system's stream, which every later one must fit

    def load(entry):
        stream = read_fss1(entry.paths["default"], utt_id=entry.utt_id)
        check_streams([first.setdefault(entry.utt_id, stream), stream])
        return stream

    return list(zip(*[_load_each(m, entries, load) for m, entries in zip(manifests, systems)]))


# per mode, the other mode's flags, which it rejects
_FOREIGN_FLAGS = {"frame-joint": ("nbest", "truncate", "out"), "rescore": ("streams", "out_dir")}


def cmd_combine(args) -> tuple:
    for name in _FOREIGN_FLAGS[args.mode]:
        if getattr(args, name) not in (None, []):
            raise ValidationError(f"--mode {args.mode} does not take "
                                  f"--{name.replace('_', '-')}")
    tune = args.weights == "tune"
    if tune and not args.dev_ref:
        raise ValidationError("--dev-ref is required when weights=tune")
    if tune and not 0.0 < args.grid_step <= 1.0:
        raise ValidationError(f"--grid-step must be in (0, 1], got {args.grid_step}")
    if args.mode == "frame-joint":
        if not args.streams:
            raise ValidationError("frame-joint mode needs --streams manifests")
        if not args.out_dir:
            raise ValidationError("frame-joint mode needs --out-dir")
        if len(args.streams) < 2 and tune:
            raise ValidationError("tuning needs at least two stream manifests")
        if not tune:
            weights = _parse_joint_weights(args.weights)
            if len(weights.values) != len(args.streams):
                raise ValidationError(f"--weights {args.weights} gives {len(weights.values)} "
                                      f"weights for {len(args.streams)} --streams manifests")
        systems = [read_manifest(m) for m in args.streams]
        _check_files([("--dev-ref", args.dev_ref)], [("--hyp-out", args.hyp_out)],
                     [("--streams", m, entries) for m, entries in zip(args.streams, systems)],
                     args.out_dir, ".fss1")
        by_utt = _load_streams(args.streams, systems)
        if tune:
            refs, _ = read_transcripts_tsv(args.dev_ref)
            weights, dev_wer = tune_joint_weights(by_utt, refs, args.dev_ref, args.grid_step)
        rows = []
        with staged() as stage:
            for streams in by_utt:
                stream, tokens = joint_decode(streams, weights)
                write_fss1(os.path.join(args.out_dir, f"{stream.utt_id}.fss1"), stream,
                           stage=stage)
                rows.append((stream.utt_id, " ".join(tokens), {}))
        report = {"mode": "frame-joint", "weights": list(weights.values)}
        lines = [f"weights: {':'.join(str(v) for v in weights.values)}"
                 + (f" (tuned, dev WER {dev_wer:.2f}%)" if tune else ""),
                 f"fused {len(rows)} utterances -> {args.out_dir}"]
    else:
        if not args.nbest:
            raise ValidationError("rescore mode needs --nbest")
        if args.truncate is not None and args.truncate < 1:
            raise ValidationError(f"--truncate must be >= 1, got {args.truncate}")
        if not tune:
            weights = _parse_rescore_weights(args.weights)
        _check_files([("--nbest", args.nbest), ("--dev-ref", args.dev_ref)],
                     [("--out", args.out), ("--hyp-out", args.hyp_out)])
        lists = read_nbest(args.nbest)
        if args.truncate is not None:
            lists = [truncate_nbest(nb, args.truncate) for nb in lists]
        if tune:
            if not lists:
                raise ValidationError(f"{args.nbest}: no N-best lists to tune on")
            if not lists[0].hyps[0].scores:
                raise ValidationError(f"{args.nbest}: {lists[0].utt_id}: no scores to tune")
            names = sorted(lists[0].hyps[0].scores)
        else:
            names = weights.names
        # a list's hypotheses share their score names (NBestList), so its first one speaks for it
        lacking = next(((nb.utt_id, name) for nb in lists for name in names
                        if name not in nb.hyps[0].scores), None)
        if lacking is not None:
            raise ValidationError(f"{args.nbest}: {lacking[0]}: hypothesis 0 is missing "
                                  f"score {lacking[1]!r}")
        if tune:
            refs, _ = read_transcripts_tsv(args.dev_ref)
            weights, dev_wer = tune_rescore_weights(lists, refs, args.dev_ref, args.grid_step)
        reranked, rows = [], []
        for nb in lists:
            try:
                best, new_list = rescore_nbest(nb, weights)
            except ValidationError as e:  # a combined score that overflows
                raise ValidationError(f"{args.nbest}: {e}") from None
            reranked.append(new_list)
            rows.append((nb.utt_id, best.text, {}))
        if args.out:
            write_nbest(args.out, reranked)
        report = {"mode": "rescore", "weights": weights.as_dict()}
        lines = [f"weights: {weights.as_dict()}", f"rescored {len(rows)} utterances"]
    if args.hyp_out:
        write_transcripts_tsv(args.hyp_out, rows)
    report["utterances"] = len(rows)
    if tune:
        report["dev_wer"] = dev_wer
    return report, lines


# -- score -------------------------------------------------------------------------


def _format_table(title: str, groups: dict, overall: float) -> list:
    def rank(v):
        return (_GROUP_ORDER.index(v) if v in _GROUP_ORDER else len(_GROUP_ORDER), str(v))

    order = sorted(groups, key=rank)
    return [title,
            " | ".join(f"{g:>8}" for g in order) + " | " + f"{'All':>8}",
            " | ".join(f"{groups[g]:8.2f}" for g in order) + " | " + f"{overall:8.2f}"]


def _scored_sets(args, hyp_paths: list) -> list:
    """One ScoredTranscriptSet per hypothesis TSV against the reference TSV
    `args.ref`, in `args.mode` tokens; records carry the reference's metadata.
    A hypothesis TSV that lacks a reference utterance raises naming it, and
    an empty reference raises naming `args.ref`."""
    ref_texts, ref_meta = read_transcripts_tsv(args.ref)
    if not ref_texts:
        raise ValidationError(f"{args.ref}: no transcripts to score")
    hyps = [read_transcripts_tsv(path)[0] for path in hyp_paths]
    for path, hyp in zip(hyp_paths, hyps):
        missing = sorted(ref_texts.keys() - hyp.keys())
        if missing:
            raise ValidationError(f"{path}: hypotheses missing for {len(missing)} utts, "
                                  f"first 10: {missing[:10]}")
    mode = "char" if args.mode == "cer" else "word"
    try:
        return [ScoredTranscriptSet.from_texts(ref_texts, hyp, ref_meta, mode=mode)
                for hyp in hyps]
    except ValidationError as e:  # every hypothesis is there, so a reference is empty
        raise ValidationError(f"{args.ref}: {e}") from None


def cmd_score(args) -> tuple:
    group_keys = [k.strip() for k in args.groups.split(",") if k.strip()]
    repeated = next((k for i, k in enumerate(group_keys) if k in group_keys[:i]), None)
    if repeated is not None:
        raise ValidationError(f"--groups names {repeated!r} more than once")
    _check_files([("--hyp", args.hyp), ("--ref", args.ref)], [("--out", args.out)])
    (tset,) = _scored_sets(args, [args.hyp])
    for key in group_keys:
        lacking = next((rec.utt_id for rec in tset.records if key not in rec.metadata), None)
        if lacking is not None:
            raise ValidationError(f"{args.ref}: no metadata column {key!r} "
                                  f"for utterance {lacking}")
    overall, _ = wer(tset)
    label = args.mode.upper()
    report = {"mode": args.mode, "overall": overall, "groups": {}}
    lines = [f"{label}(%) overall: {overall:.2f}"]
    nested = [",".join(group_keys)] if len(group_keys) > 1 else []
    for name in group_keys + nested:
        _, groups = wer(tset, group_by=tuple(name.split(",")))
        report["groups"][name] = groups
        lines += _format_table(f"{label}(%) by {name}", groups, overall)
    _write_log(args.out, [report])
    return report, lines


# -- significance --------------------------------------------------------------------


def cmd_significance(args) -> tuple:
    if not 0.0 < args.alpha < 1.0:
        raise ValidationError(f"--alpha must lie in (0, 1), got {args.alpha}")
    set_a, set_b = _scored_sets(args, [args.hyp_a, args.hyp_b])
    report = mapsswe(set_a, set_b, alpha=args.alpha)
    verdict = "significant" if report.significant else "not significant"
    payload = {
        "z": report.z,
        "p": report.p,
        "alpha": report.alpha,
        "significant": report.significant,
        "degenerate": report.degenerate,
        "marker": report.marker,
    }
    if report.degenerate:
        lines = [f"degenerate (no variance or too few segments): {verdict}"]
    else:
        lines = [
            f"Z = {report.z:.4f}, two-sided p = {report.p:.4f}, alpha = {report.alpha}",
            f"verdict: {verdict} {report.marker}".rstrip(),
        ]
    return payload, lines


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrfuse",
        description="SSL objectives, bottleneck features, A2A inversion, "
                    "system combination and scoring at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an objective from a JSON config")
    p.add_argument("--config", required=True, help="JSON run description")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract bottleneck features to AFM1 files")
    p.add_argument("--model", required=True, help="MDL1 model with a bottleneck")
    p.add_argument("--manifest", required=True, help="JSONL manifest of AFM1 inputs")
    p.add_argument("--position", default="after-last-block",
                   choices=["after-encoder", "after-middle-block", "after-last-block"])
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("combine", help="frame-level joint decoding or N-best rescoring")
    p.add_argument("--mode", required=True, choices=["frame-joint", "rescore"])
    p.add_argument("--streams", nargs="*", default=[],
                   help="frame-joint: one FSS1 manifest per system")
    p.add_argument("--nbest", help="rescore: NBEST JSONL file")
    p.add_argument("--weights", required=True,
                   help="preset name (e.g. uaspeech-3way, uaspeech-rescore), "
                        "ratio like 8:5:5, name:value pairs, or 'tune'")
    p.add_argument("--dev-ref", help="reference TSV for weights=tune")
    p.add_argument("--grid-step", type=float, default=0.1)
    p.add_argument("--truncate", type=int, default=None,
                   help="rescore: keep top-N hypotheses before rescoring (paper uses 30)")
    p.add_argument("--out-dir", help="frame-joint: directory for fused FSS1 files")
    p.add_argument("--out", help="rescore: path for the re-ranked NBEST file")
    p.add_argument("--hyp-out", help="TSV of 1-best hypotheses")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("score", help="WER/CER with per-group breakdowns")
    p.add_argument("--hyp", required=True, help="hypothesis TSV")
    p.add_argument("--ref", required=True, help="reference TSV with metadata columns")
    p.add_argument("--groups", default="", help="comma-separated metadata keys")
    p.add_argument("--mode", default="wer", choices=["wer", "cer"])
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("significance", help="MAPSSWE matched-pairs test")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mode", default="wer", choices=["wer", "cer"])
    p.set_defaults(func=cmd_significance)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with one_blas_thread():
            report, lines = args.func(args)
        for line in [dump_json("--json report", report, sort_keys=True)] if args.json else lines:
            print(line)
    except NonFiniteError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
