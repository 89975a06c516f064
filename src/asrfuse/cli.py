"""Command-line surface: train, extract, combine, score, significance.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  The
ASRFUSE_SEED environment variable overrides config seeds.  Every command
validates its whole input before writing anything, and all writes are atomic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .a2a import MtlWeights, ParallelPair, build_mdn_head, generate_parallel, train_a2a
from .combine import (
    JOINT_PRESETS,
    RESCORE_PRESETS,
    CombinationWeights,
    grid_search_weights,
    joint_decode,
    rescore_nbest,
    truncate_nbest,
)
from .config import ManifestEntry, ValidationError, load_train_config, read_manifest
from .features import FeatureSequence
from .formats import (
    atomic_write,
    read_afm1,
    read_fss1,
    read_nbest,
    read_transcripts_tsv,
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
from .numcore import NonFiniteError, Tensor
from .scoring import ScoredTranscriptSet, mapsswe, wer
from .ssl_objectives.trainers import (
    SslConfig,
    build_ssl_model,
    make_synthetic_utterances,
    train_ssl,
)

# preferred column order for the grouped report tables
_GROUP_ORDER = ["unseen", "seen", "VL", "L", "M", "H",
                "Severe", "Moderate", "Mild", "PAR", "INV"]


def _ordered_map(fn, items, workers: int = 1):
    """Apply fn to items, preserving item order in the results."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _emit(args, report: dict, text_lines: list):
    if getattr(args, "json", False):
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# -- train -----------------------------------------------------------------------


def _ssl_config(cfg: dict) -> SslConfig:
    return SslConfig(objective=cfg["objective"], **cfg["model"])


def _load_ssl_utterances(cfg: dict) -> list:
    data = cfg["data"]
    if data.get("kind", "synthetic") == "synthetic":
        return make_synthetic_utterances(_ssl_config(cfg), data.get("n_utts", 2),
                                         data.get("frames_per_utt", 50), cfg["seed"])
    utts = []
    for entry in read_manifest(data["manifest"]):
        seq = read_afm1(entry.paths["default"], label="SSL")
        utt = {"frames": seq.frames}
        if "labels" in entry.metadata:
            utt["labels"] = [int(x) for x in entry.metadata["labels"]]
        elif cfg["objective"] == "ctc":
            raise ValidationError(
                f"{entry.utt_id}: ctc training from a manifest needs metadata.labels"
            )
        utts.append(utt)
    return utts


def _load_a2a_pairs(cfg: dict):
    data = cfg["data"]
    model = cfg["model"]
    if data.get("kind", "synthetic") == "synthetic":
        made = generate_parallel(
            cfg["seed"],
            data.get("num_frames", 2000),
            model.get("d_articulatory", 4),
            model.get("d_acoustic", 8),
            noise_sigma=data.get("noise_sigma", 0.05),
            n_utts=data.get("n_utts", 1),
            max_freq=data.get("max_freq", 0.05),
        )
        return made.pairs
    pairs = []
    for entry in read_manifest(data["manifest"]):
        pairs.append(ParallelPair(
            read_afm1(entry.paths["acoustic"], label="SSL"),
            read_afm1(entry.paths["articulatory"], label="UTI"),
        ))
    return pairs


def _write_log(path, log):
    if path is None:
        return
    with atomic_write(path, "w") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _objective(cfg: dict):
    """(training data, model built from the run config, checkpoint loader,
    checkpoint saver, trainer, its objective-specific keywords) for the run.

    The functions are looked up on every call, not stored in a module-level
    table, so wrappers installed on these module names (bench/tracer.py) apply.
    """
    model_cfg, seed = cfg["model"], cfg["seed"]
    if cfg["objective"] == "a2a-mtl":
        keywords = {"weights": MtlWeights(*model_cfg.get("mtl_weights", (1.0, 1.0, 1.0))),
                    "batch_frames": model_cfg.get("batch_frames", 400)}
        return (_load_a2a_pairs(cfg), build_mdn_head(model_cfg, seed),
                load_mdn_checkpoint, save_mdn_checkpoint, train_a2a, keywords)
    return (_load_ssl_utterances(cfg), build_ssl_model(_ssl_config(cfg), seed),
            load_ssl_checkpoint, save_ssl_checkpoint, train_ssl, {})


def cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    seed = cfg["seed"]
    run_until = cfg["stop_after_epoch"] or cfg["epochs"]
    data, model, load, save, train, keywords = _objective(cfg)
    start_epoch, opt_state = 0, None
    if cfg["resume"]:
        resumed, header, opt_state = load(cfg["resume"])
        if header["seed"] != seed:
            raise ValidationError(f"{cfg['resume']}: checkpoint seed {header['seed']} "
                                  f"differs from the run seed {seed}")
        if resumed.config_dict() != model.config_dict():
            raise ValidationError(f"{cfg['resume']}: checkpoint model config differs "
                                  "from the run config")
        model, start_epoch = resumed, header["hyperparameters"]["epochs_completed"]
    log, opt = train(model, data, max(0, run_until - start_epoch), seed, lr=cfg["lr"],
                     optimizer_state=opt_state, start_epoch=start_epoch,
                     total_epochs=cfg["epochs"], **keywords)
    save(cfg["out_model"], model, seed, run_until, optimizer=opt)
    _write_log(cfg["log"], log)
    _emit(args, {"out_model": os.path.basename(cfg["out_model"]),
                 "epochs": run_until,
                 "final_loss": log[-1]["loss"] if log else None},
          [f"trained {cfg['objective']} for {run_until} epochs -> {cfg['out_model']}"])
    return 0


# -- extract -----------------------------------------------------------------------


def cmd_extract(args) -> int:
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
    entries = read_manifest(args.manifest, allow_empty=True)
    if not entries:
        print("warning: empty manifest, nothing to extract", file=sys.stderr)
        return 0
    if not os.path.isdir(args.out_dir):
        raise ValidationError(f"output directory does not exist: {args.out_dir}")

    def extract_one(entry: ManifestEntry):
        seq = read_afm1(entry.paths["default"], label="SSL")
        if seq.dim != model.cfg.d_in:
            raise ValidationError(
                f"{entry.utt_id}: feature dim {seq.dim}, model expects {model.cfg.d_in}"
            )
        _, _, extracted = model.encode(Tensor(seq.frames))
        out = FeatureSequence(extracted.data, seq.frame_period_ms / 2.0, label="SSL")
        out_path = os.path.join(args.out_dir, f"{entry.utt_id}.afm1")
        write_afm1(out_path, out)
        return out_path

    paths = _ordered_map(extract_one, entries, args.workers)
    _emit(args, {"extracted": len(paths), "dim": args.dim, "position": args.position},
          [f"extracted {len(paths)} utterances at {args.position}, dim {args.dim}"])
    return 0


# -- combine -----------------------------------------------------------------------


def _parse_joint_weights(text: str, num_systems: int):
    if text in JOINT_PRESETS:
        return JOINT_PRESETS[text]
    try:
        values = tuple(float(x) for x in text.split(":"))
    except ValueError:
        raise ValidationError(
            f"weights must be a preset {sorted(JOINT_PRESETS)}, a ratio like 8:5:5, "
            f"or 'tune'; got {text!r}"
        )
    if len(values) != num_systems:
        raise ValidationError(f"{len(values)} weights for {num_systems} systems")
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
    return CombinationWeights(tuple(named.values()), names=tuple(named))


def _load_stream_table(manifests: list):
    """One FrameScoreStream table per system, all sharing the utt_id list."""
    systems = [read_manifest(m) for m in manifests]
    ids = [e.utt_id for e in systems[0]]
    for m, entries in zip(manifests[1:], systems[1:]):
        if [e.utt_id for e in entries] != ids:
            raise ValidationError(f"{m}: utterance ids differ from {manifests[0]}")
    tables = []
    for entries in systems:
        tables.append({
            e.utt_id: read_fss1(e.paths["default"], utt_id=e.utt_id) for e in entries
        })
    return ids, tables


def _frame_joint_wer(weights, data):
    ids, tables, refs = data
    hyps = {}
    for utt_id in ids:
        _, tokens = joint_decode([t[utt_id] for t in tables], weights)
        hyps[utt_id] = " ".join(tokens)
    tset = ScoredTranscriptSet.from_texts({u: refs[u] for u in ids}, hyps)
    overall, _ = wer(tset)
    return overall


def cmd_combine(args) -> int:
    if args.mode == "frame-joint":
        if not args.streams:
            raise ValidationError("frame-joint mode needs --streams manifests")
        if not args.out_dir:
            raise ValidationError("frame-joint mode needs --out-dir")
        if len(args.streams) < 2 and args.weights == "tune":
            raise ValidationError("tuning needs at least two stream manifests")
        ids, tables = _load_stream_table(args.streams)
        if args.weights == "tune":
            if not args.dev_ref:
                raise ValidationError("--dev-ref is required when weights=tune")
            refs, _ = read_transcripts_tsv(args.dev_ref)
            missing = [u for u in ids if u not in refs]
            if missing:
                raise ValidationError(f"dev reference missing utts, first 10: {missing[:10]}")
            weights, dev_score = grid_search_weights(
                (ids, tables, refs), len(tables), _frame_joint_wer, step=args.grid_step
            )
        else:
            weights, dev_score = _parse_joint_weights(args.weights, len(tables)), None
        if not os.path.isdir(args.out_dir):
            raise ValidationError(f"output directory does not exist: {args.out_dir}")

        def fuse_one(utt_id):
            fused, tokens = joint_decode([t[utt_id] for t in tables], weights)
            write_fss1(os.path.join(args.out_dir, f"{utt_id}.fss1"), fused)
            return utt_id, " ".join(tokens)

        rows = _ordered_map(fuse_one, ids, args.workers)
        if args.hyp_out:
            write_transcripts_tsv(args.hyp_out, [(u, h, {}) for u, h in rows])
        report = {"mode": "frame-joint", "weights": list(weights.values),
                  "utterances": len(rows)}
        if dev_score is not None:
            report["dev_wer"] = dev_score
        _emit(args, report, [
            f"weights: {':'.join(str(v) for v in weights.values)}"
            + (f" (tuned, dev WER {dev_score:.2f}%)" if dev_score is not None else ""),
            f"fused {len(rows)} utterances -> {args.out_dir}",
        ])
        return 0

    # rescore mode
    if not args.nbest:
        raise ValidationError("rescore mode needs --nbest")
    lists = read_nbest(args.nbest)
    if args.truncate is not None:
        lists = [truncate_nbest(nb, args.truncate) for nb in lists]
    if args.weights == "tune":
        if not args.dev_ref:
            raise ValidationError("--dev-ref is required when weights=tune")
        refs, _ = read_transcripts_tsv(args.dev_ref)
        names = sorted(lists[0].hyps[0].scores)

        def rescore_wer(values, data):
            weights = CombinationWeights(values, names=tuple(names))
            hyps = {}
            for nb in data:
                best, _ = rescore_nbest(nb, weights)
                hyps[nb.utt_id] = best.text
            tset = ScoredTranscriptSet.from_texts(
                {nb.utt_id: refs[nb.utt_id] for nb in data}, hyps
            )
            overall, _ = wer(tset)
            return overall

        weights, dev_score = grid_search_weights(lists, len(names), rescore_wer,
                                                 step=args.grid_step)
        weights = CombinationWeights(weights.values, names=tuple(names))
    else:
        weights, dev_score = _parse_rescore_weights(args.weights), None
    reranked, rows = [], []
    for nb in lists:
        best, new_list = rescore_nbest(nb, weights)
        reranked.append(new_list)
        rows.append((nb.utt_id, best.text, {}))
    if args.out:
        write_nbest(args.out, reranked)
    if args.hyp_out:
        write_transcripts_tsv(args.hyp_out, rows)
    report = {"mode": "rescore", "utterances": len(rows)}
    if isinstance(weights, CombinationWeights) and weights.names:
        report["weights"] = weights.as_dict()
    if dev_score is not None:
        report["dev_wer"] = dev_score
    _emit(args, report, [
        f"weights: {weights.as_dict() if weights.names else weights.values}",
        f"rescored {len(rows)} utterances",
    ])
    return 0


# -- score -------------------------------------------------------------------------


def _ordered_groups(groups: dict) -> list:
    def key(v):
        return (_GROUP_ORDER.index(v) if v in _GROUP_ORDER else len(_GROUP_ORDER), str(v))

    return sorted(groups, key=key)


def _format_table(title: str, groups: dict | None, overall: float) -> list:
    lines = []
    if groups:
        order = _ordered_groups(groups)
        header = " | ".join(f"{g:>8}" for g in order) + " | " + f"{'All':>8}"
        values = " | ".join(f"{groups[g]:8.2f}" for g in order) + " | " + f"{overall:8.2f}"
        lines.append(f"{title}")
        lines.append(header)
        lines.append(values)
    else:
        lines.append(f"{title}: {overall:.2f}%")
    return lines


def cmd_score(args) -> int:
    mode = "char" if args.mode == "cer" else "word"
    ref_texts, ref_meta = read_transcripts_tsv(args.ref)
    hyp_texts, _ = read_transcripts_tsv(args.hyp)
    try:
        tset = ScoredTranscriptSet.from_texts(ref_texts, hyp_texts, ref_meta, mode=mode)
    except ValueError as e:
        raise ValidationError(str(e)) from None
    overall, _ = wer(tset)
    label = args.mode.upper()
    report = {"mode": args.mode, "overall": overall, "groups": {}}
    lines = [f"{label}(%) overall: {overall:.2f}"]
    group_keys = [k.strip() for k in args.groups.split(",") if k.strip()] if args.groups else []
    for key in group_keys:
        _, groups = wer(tset, group_by=key)
        report["groups"][key] = groups
        lines += _format_table(f"{label}(%) by {key}", groups, overall)
    if len(group_keys) > 1:
        for rec in tset.records:
            rec.metadata[",".join(group_keys)] = "/".join(
                str(rec.metadata.get(k, "")) for k in group_keys
            )
        _, nested = wer(tset, group_by=",".join(group_keys))
        report["groups"][",".join(group_keys)] = nested
        lines += _format_table(f"{label}(%) by {','.join(group_keys)}", nested, overall)
    if args.out:
        with atomic_write(args.out, "w") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    _emit(args, report, lines)
    return 0


# -- significance --------------------------------------------------------------------


def cmd_significance(args) -> int:
    ref_texts, _ = read_transcripts_tsv(args.ref)
    hyp_a, _ = read_transcripts_tsv(args.hyp_a)
    hyp_b, _ = read_transcripts_tsv(args.hyp_b)
    mode = "char" if args.mode == "cer" else "word"
    try:
        set_a = ScoredTranscriptSet.from_texts(ref_texts, hyp_a, mode=mode)
        set_b = ScoredTranscriptSet.from_texts(ref_texts, hyp_b, mode=mode)
        report = mapsswe(set_a, set_b, alpha=args.alpha)
    except ValueError as e:
        raise ValidationError(str(e)) from None
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
    _emit(args, payload, lines)
    return 0


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
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract bottleneck features to AFM1 files")
    p.add_argument("--model", required=True, help="MDL1 model with a bottleneck")
    p.add_argument("--manifest", required=True, help="JSONL manifest of AFM1 inputs")
    p.add_argument("--position", default="after-last-block",
                   choices=["after-encoder", "after-middle-block", "after-last-block"])
    p.add_argument("--dim", type=int, default=256)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
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
                   help="keep top-N hypotheses before rescoring (paper uses 30)")
    p.add_argument("--out-dir", help="frame-joint: directory for fused FSS1 files")
    p.add_argument("--out", help="rescore: path for the re-ranked NBEST file")
    p.add_argument("--hyp-out", help="TSV of 1-best hypotheses")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("score", help="WER/CER with per-group breakdowns")
    p.add_argument("--hyp", required=True, help="hypothesis TSV")
    p.add_argument("--ref", required=True, help="reference TSV with metadata columns")
    p.add_argument("--groups", default="", help="comma-separated metadata keys")
    p.add_argument("--mode", default="wer", choices=["wer", "cer"])
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("significance", help="MAPSSWE matched-pairs test")
    p.add_argument("--hyp-a", required=True)
    p.add_argument("--hyp-b", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--mode", default="wer", choices=["wer", "cer"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_significance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, KeyError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
