"""Acceptance criteria, one test per criterion.

Each test prints a [PASS] line (visible with `pytest -s`); a failing assertion
is the corresponding [FAIL].  Criteria with runtime budgets assert them.
"""

import itertools
import json
import math
import time

import numpy as np

from asrfuse.a2a import (
    A2aConfig,
    MdnFrameParams,
    MdnHead,
    generate_parallel,
    invert,
    mdn_loss,
    mse_loss,
    mtl_loss,
    MtlWeights,
    pearson_corr,
    train_a2a,
)
from asrfuse.bottleneck import BottleneckModule
from asrfuse.cli import main
from asrfuse.combine import (
    FrameScoreStream,
    Hypothesis,
    NBestList,
    grid_search_weights,
    joint_decode,
    rescore_nbest,
)
from asrfuse.features import FeatureSequence, fuse_features
from asrfuse.formats import (
    read_afm1,
    write_afm1,
    write_fss1,
    write_nbest,
    write_transcripts_tsv,
)
from asrfuse.numcore import Tensor, derive_rng, forward_backward, make_rng, no_grad
from asrfuse.scoring import ScoredTranscriptSet, align_and_count, classification_metrics, mapsswe
from asrfuse.ssl_objectives import (
    contrastive_diversity_loss,
    contrastive_loss,
    ctc_loss,
    data2vec_loss,
    diversity_loss,
    masked_prediction_loss,
    min_frames_for,
    smooth_l1,
)
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

from oracles import (
    ctc_all_label_probs,
    edit_distances_to_all,
    finite_difference_grads,
    grad_rel_err,
)

GRAD_TOL = 1e-4


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def fd_check(build, arrays, tol=GRAD_TOL):
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    _, grads = forward_backward(lambda: build(tensors), tensors)
    numeric = finite_difference_grads(
        lambda arrs: build([Tensor(a) for a in arrs]).item(),
        [a.copy() for a in arrays],
    )
    worst = max(grad_rel_err(g, n) for g, n in zip(grads, numeric))
    assert worst < tol, worst
    return worst


def test_criterion_1_analytic_loss_values():
    # contrastive uniform over 10 candidates
    q = Tensor(np.tile([0.6, 0.8], (4, 1)))
    c = Tensor(make_rng(0).normal(size=(4, 2)))
    lc = contrastive_loss(c, q, np.arange(4), num_distractors=9, kappa=0.1,
                          rng=make_rng(1)).item()
    assert abs(lc - math.log(10.0)) < 1e-9

    # diversity uniform: -alpha * ln(V) / V per codebook, total independent of G
    for g_books, v, alpha in [(2, 4, 1.0), (3, 8, 0.5)]:
        soft = Tensor(np.full((5, g_books, v), 1.0 / v))
        ld = diversity_loss(soft, alpha).item()
        assert abs(ld - (-alpha * math.log(v) / v)) < 1e-9

    # single-Gaussian MDN at its mode: 0.5*ln(2*pi) per frame
    t = 8
    a = make_rng(2).normal(size=(t, 1))
    params = MdnFrameParams(Tensor(np.zeros((t, 1))), Tensor(a.reshape(t, 1, 1)),
                            Tensor(np.zeros((t, 1, 1))))
    per_frame = mdn_loss(params, a).item() / t
    assert abs(per_frame - 0.5 * math.log(2 * math.pi)) < 1e-9

    # smooth-L1 knee continuity at beta = 0.25
    knee = smooth_l1(Tensor(np.array([0.25])), 0.25).data[0]
    assert abs(knee - 0.125) < 1e-9
    above = smooth_l1(Tensor(np.array([0.25 + 1e-12])), 0.25).data[0]
    assert abs(above - 0.125) < 1e-9
    report(1, "analytic loss values match closed forms within 1e-9")


def test_criterion_2_gradient_suite():
    start = time.time()
    worst = 0.0
    for seed in range(5):
        rng = make_rng(1000 + seed)

        # contrastive + diversity (quantizer path included via soft probs)
        c0 = rng.normal(size=(5, 4))
        q0 = rng.normal(size=(5, 4))
        raw = rng.random((5, 2, 3))
        soft0 = raw / raw.sum(axis=-1, keepdims=True)
        mask = np.arange(5)
        worst = max(worst, fd_check(
            lambda p: contrastive_diversity_loss(p[0], p[1], p[2], mask,
                                                 num_distractors=3, kappa=0.2,
                                                 alpha=0.5, rng=make_rng(7)),
            [c0, q0, soft0],
        ))

        # masked prediction
        student0 = rng.normal(size=(4, 3))
        emb0 = rng.normal(size=(5, 3))
        labels = rng.integers(0, 5, size=(4, 1))
        worst = max(worst, fd_check(
            lambda p: masked_prediction_loss(p[0], labels, [p[1]], [0, 2], tau=0.4),
            [student0, emb0],
        ))

        # data2vec regression
        teacher = [rng.normal(size=(4, 3)) for _ in range(2)]
        worst = max(worst, fd_check(
            lambda p: data2vec_loss(p[0], teacher, top_k=2, beta=0.25,
                                    mask_indices=[0, 3]),
            [rng.normal(size=(4, 3))],
        ))

        # MDN, MSE, Pearson and the interpolated objective
        t_len, m, d = 3, 2, 2
        targets = rng.normal(size=(t_len, d))
        mdn_arrays = [rng.normal(size=(t_len, m)), rng.normal(size=(t_len, m, d)),
                      rng.normal(size=(t_len, m, d)) * 0.3]
        worst = max(worst, fd_check(
            lambda p: mdn_loss(MdnFrameParams(*p), targets), mdn_arrays))
        worst = max(worst, fd_check(
            lambda p: mse_loss(p[0], targets), [rng.normal(size=(t_len, d))]))
        worst = max(worst, fd_check(
            lambda p: pearson_corr(p[0], targets), [rng.normal(size=(t_len, d))]))
        worst = max(worst, fd_check(
            lambda p: mtl_loss(MdnFrameParams(*p), targets, MtlWeights(1, 1, 1)),
            mdn_arrays,
        ))

        # CTC
        raw = rng.random((5, 4)) + 0.1
        logp0 = np.log(raw / raw.sum(axis=1, keepdims=True))
        worst = max(worst, fd_check(
            lambda p: ctc_loss(p[0], [0, 2], blank=3), [logp0]))

        # bottleneck (scalar head over both outputs)
        module = BottleneckModule(4, 3, 0.0, make_rng(seed))
        params = [t for _, t in module.named_parameters()]
        x = rng.normal(size=(3, 4))

        def bn_loss():
            extracted, restored = module.forward(Tensor(x))
            return (extracted**2).sum() + (restored**2).sum()

        _, grads = forward_backward(bn_loss, params)
        arrays = [p.data.copy() for p in params]

        def numeric_fn(arrs):
            for p, arr in zip(params, arrs):
                p.data = arr
            return bn_loss().item()

        numeric = finite_difference_grads(numeric_fn, arrays)
        for p, arr in zip(params, arrays):
            p.data = arr
        worst = max(worst, max(grad_rel_err(g, n) for g, n in zip(grads, numeric)))

    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(2, f"gradient suite passed on 5 seeds (worst rel err {worst:.2e}, "
              f"{elapsed:.1f}s)")


def test_criterion_3_ctc_oracle_equivalence():
    rng = make_rng(30)
    checked = 0
    for vocab in range(1, 5):
        n_sym = vocab + 1  # plus the blank column
        for t_len in range(1, 7):
            raw = rng.random((t_len, n_sym)) + 0.05
            logp = np.log(raw / raw.sum(axis=1, keepdims=True))
            table = ctc_all_label_probs(logp, blank=vocab)
            for lab_len in range(0, 4):
                for labels in itertools.product(range(vocab), repeat=lab_len):
                    if min_frames_for(labels) > t_len:
                        continue
                    got = ctc_loss(Tensor(logp), list(labels), blank=vocab).item()
                    want = -math.log(table[labels])
                    assert abs(got - want) < 1e-10, (vocab, t_len, labels)
                    checked += 1
    report(3, f"CTC equals brute-force path enumeration on {checked} instances")


def test_criterion_4_a2a_synthetic_benchmark():
    start = time.time()
    train = generate_parallel(seed=100, num_frames=2000, d_articulatory=4,
                              d_acoustic=8, noise_sigma=0.05)
    held_out = generate_parallel(seed=101, num_frames=500, d_articulatory=4,
                                 d_acoustic=8, noise_sigma=0.05,
                                 weight=train.weight, bias=train.bias)
    head = MdnHead(A2aConfig(), derive_rng(42, 0))
    log, _ = train_a2a(head, train.pairs, epochs=20, seed=7)
    losses = [e["loss"] for e in log]
    assert all(a > b for a, b in zip(losses, losses[1:])), "loss not strictly decreasing"
    pred = invert(head, held_out.pairs[0].acoustic)
    rho = pearson_corr(Tensor(pred.frames), held_out.pairs[0].articulatory.frames).item()
    assert rho >= 0.8, rho
    elapsed = time.time() - start
    assert elapsed < 120.0, f"benchmark took {elapsed:.1f}s"
    report(4, f"A2A benchmark: held-out Pearson {rho:.3f}, strictly decreasing "
              f"loss, {elapsed:.1f}s")


def test_criterion_5_combination_correctness():
    rng = make_rng(50)
    tokens = ["a", "b", "c"]

    # projection: weights (1, 0) reproduce stream 1 bit-exactly
    s1 = FrameScoreStream("u", tokens, -rng.random((6, 3)))
    s2 = FrameScoreStream("u", tokens, -rng.random((6, 3)))
    fused, _ = joint_decode([s1, s2], (1.0, 0.0))
    assert np.array_equal(fused.scores, s1.scores)

    # argmax scale invariance over 100 random instances
    for _ in range(100):
        streams = [FrameScoreStream("u", tokens, -rng.random((4, 3)))
                   for _ in range(2)]
        w = tuple(rng.random(2) + 0.05)
        _, t1 = joint_decode(streams, w)
        _, t2 = joint_decode(streams, tuple(11.7 * x for x in w))
        assert t1 == t2

    # unit weight vectors reproduce single-system rankings
    nbest = NBestList("u", [
        Hypothesis("h0", [], {"ctc": 3.0, "tdnn": 1.0}),
        Hypothesis("h1", [], {"ctc": 1.0, "tdnn": 2.0}),
        Hypothesis("h2", [], {"ctc": 2.0, "tdnn": 3.0}),
    ])
    for name in ("ctc", "tdnn"):
        _, reranked = rescore_nbest(nbest, {name: 1.0})
        want = sorted(nbest.hyps, key=lambda h: h.scores[name])
        assert [h.text for h in reranked.hyps] == [h.text for h in want]

    # complementary-errors fixture: only (0.5, 0.5) repairs both frames
    refs = {"u1": ["a", "b"]}
    sys1 = FrameScoreStream("u1", ["a", "b"], np.array([[-2.0, 0.0], [-2.5, 0.0]]))
    sys2 = FrameScoreStream("u1", ["a", "b"], np.array([[0.0, -2.5], [0.0, -2.0]]))

    def scorer(weights, data):
        errors = total = 0
        for utt_id, ref in data.items():
            _, hyp = joint_decode([sys1, sys2], weights)
            errors += sum(1 for r, h in zip(ref, hyp) if r != h)
            total += len(ref)
        return 100.0 * errors / total

    assert scorer((1.0, 0.0), refs) > 0.0
    assert scorer((0.0, 1.0), refs) > 0.0
    weights, fused_wer = grid_search_weights(refs, 2, scorer, step=0.1)
    assert weights.values == (0.5, 0.5)
    assert fused_wer == 0.0
    report(5, "joint decoding, rescoring and grid search behave as specified")


def test_criterion_6_eval_correctness():
    # exhaustive edit-distance check: all refs and hyps, len <= 6, 3 symbols
    alphabet = ["a", "b", "c"]
    refs = [list(s) for n in range(1, 7)
            for s in itertools.product(alphabet, repeat=n)]
    pairs = 0
    for ref in refs:
        table = edit_distances_to_all(ref, alphabet, 6)
        for hyp, want in table.items():
            assert align_and_count(ref, list(hyp)).errors == want
            pairs += 1

    # MAPSSWE fixture d = [2, 0, 2, 0]
    def hyp_with_errors(k):
        return ["x"] * k + ["w"] * (5 - k)

    from asrfuse.scoring import TranscriptRecord

    set_a = ScoredTranscriptSet([
        TranscriptRecord(f"u{i}", ["w"] * 5, hyp_with_errors(e))
        for i, e in enumerate([2, 0, 2, 0])
    ])
    set_b = ScoredTranscriptSet([
        TranscriptRecord(f"u{i}", ["w"] * 5, hyp_with_errors(0)) for i in range(4)
    ])
    rep = mapsswe(set_a, set_b, alpha=0.05)
    assert abs(rep.z - 1.732) < 0.001
    assert abs(rep.p - 0.0833) < 0.001

    # Acc = (Sen*P + Spec*N) / (P+N) on 100 random confusion matrices
    rng = make_rng(60)
    for _ in range(100):
        n_pos = int(rng.integers(1, 12))
        n_neg = int(rng.integers(1, 12))
        labels = ["AD"] * n_pos + ["HC"] * n_neg
        preds = [("AD" if rng.random() < 0.5 else "HC") for _ in labels]
        out = classification_metrics(preds, labels, positive="AD")
        expected = (out["sensitivity"] * n_pos + out["specificity"] * n_neg) / (
            n_pos + n_neg
        )
        assert abs(out["accuracy"] - expected) < 1e-9
    report(6, f"edit distance exhaustive on {pairs} pairs; MAPSSWE and "
              f"classification identities hold")


# -- criterion 7: end-to-end smoke pipeline ------------------------------------


def run_pipeline(root):
    """Train, extract, fuse, combine, rescore, score, test significance."""
    root.mkdir(parents=True, exist_ok=True)
    rng = make_rng(777)

    # 1) train a desk-scale HuBERT-style model with a 256-d bottleneck at (g),
    #    50 steps = 50 epochs x 1 utterance
    cfg = {
        "objective": "hubert",
        "seed": 31,
        "epochs": 50,
        "lr": 3e-3,
        "out_model": str(root / "hubert.mdl1"),
        "log": str(root / "train_log.jsonl"),
        "model": {"d_in": 8, "n_blocks": 4, "d_model": 64, "n_heads": 4, "d_ff": 128,
                  "num_codebooks": 2, "entries": 4, "code_dim": 16,
                  "mask_probability": 0.2, "mask_span": 3,
                  "bottleneck_position": "after-last-block", "bottleneck_dim": 256},
        "data": {"kind": "synthetic", "n_utts": 1, "frames_per_utt": 24},
    }
    cfg_path = root / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0

    # 2) extract bottleneck features for two utterances
    feat_dir = root / "feats"
    feat_dir.mkdir()
    utt_ids = ["spk1_u1", "spk1_u2"]
    manifest = root / "feats.jsonl"
    with open(manifest, "w") as fh:
        for i, utt in enumerate(utt_ids):
            seq = FeatureSequence(make_rng(200 + i).normal(size=(10, 8)), 20.0, "SSL")
            write_afm1(feat_dir / f"{utt}.afm1", seq)
            fh.write(json.dumps({"utt_id": utt,
                                 "path": str(feat_dir / f"{utt}.afm1")}) + "\n")
    ext_dir = root / "extracted"
    ext_dir.mkdir()
    assert main(["extract", "--model", str(root / "hubert.mdl1"),
                 "--manifest", str(manifest), "--dim", "256", "--out-dir", str(ext_dir)]) == 0

    # 3) fuse with synthetic 40-d FBK at 10 ms -> 296-d
    fused_dir = root / "fused_feats"
    fused_dir.mkdir()
    for i, utt in enumerate(utt_ids):
        ssl = read_afm1(ext_dir / f"{utt}.afm1", label="SSL")
        fbk = FeatureSequence(make_rng(300 + i).normal(size=(ssl.num_frames, 40)),
                              10.0, label="FBK")
        fused = fuse_features(fbk, ssl)
        assert fused.dim == 296
        write_afm1(fused_dir / f"{utt}.afm1", fused)

    # 4) three toy frame-score streams per utterance over a small inventory
    tokens = ["a", "b", "c", "d"]
    refs = {"spk1_u1": ["a", "b", "c", "a", "d"], "spk1_u2": ["d", "c", "b", "b", "a"]}
    stream_manifests = []
    for k in range(3):
        d = root / f"sys{k}"
        d.mkdir()
        m = root / f"sys{k}.jsonl"
        with open(m, "w") as fh:
            for utt in utt_ids:
                t_len = len(refs[utt])
                scores = -2.0 - rng.random((t_len, len(tokens)))
                for t, sym in enumerate(refs[utt]):
                    # each system is noisy-correct in its own way
                    scores[t, tokens.index(sym)] = -0.2 - 0.3 * rng.random()
                if k > 0:  # corrupt one frame per non-primary system
                    scores[k % t_len] = np.log(np.full(len(tokens), 0.25))
                write_fss1(d / f"{utt}.fss1", FrameScoreStream(utt, tokens, scores))
                fh.write(json.dumps({"utt_id": utt,
                                     "path": str(d / f"{utt}.fss1")}) + "\n")
        stream_manifests.append(str(m))

    # 5) 3-way frame-level joint decoding with the 8:5:5 preset
    fused_streams = root / "fused_streams"
    fused_streams.mkdir()
    joint_hyp = root / "joint_hyp.tsv"
    assert main(["combine", "--mode", "frame-joint", "--streams", *stream_manifests,
                 "--weights", "uaspeech-3way", "--out-dir", str(fused_streams),
                 "--hyp-out", str(joint_hyp)]) == 0

    # 6) rescore 30-truncated N-best lists with the 0.9:0.001:0.1 preset
    nbest_path = root / "nbest.jsonl"
    lists = []
    for u_idx, utt in enumerate(utt_ids):
        hyps = []
        for i in range(40):
            tok = list(refs[utt])
            if i > 0:
                tok[i % len(tok)] = tokens[i % len(tokens)]
            text = " ".join(tok)
            ctc = float(i) * 0.1 + (0.0 if i == 0 else 0.5)
            if u_idx == 1 and i in (0, 1):
                # second utterance: rescoring prefers a one-substitution
                # hypothesis, so downstream WER and MAPSSWE are non-trivial
                ctc = 0.9 if i == 0 else 0.0
            hyps.append(Hypothesis(text, tok, {
                "ctc": ctc,
                "attention": float(40 - i),
                "tdnn": rng.random(),
            }))
        lists.append(NBestList(utt, hyps))
    write_nbest(nbest_path, lists)
    rescored = root / "rescored.jsonl"
    rescore_hyp = root / "rescore_hyp.tsv"
    assert main(["combine", "--mode", "rescore", "--nbest", str(nbest_path),
                 "--weights", "uaspeech-rescore", "--truncate", "30",
                 "--out", str(rescored), "--hyp-out", str(rescore_hyp)]) == 0

    # 7) score WER with subgroup breakdowns
    ref_tsv = root / "ref.tsv"
    write_transcripts_tsv(ref_tsv, [
        ("spk1_u1", " ".join(refs["spk1_u1"]),
         {"intelligibility": "VL", "seen": "seen"}),
        ("spk1_u2", " ".join(refs["spk1_u2"]),
         {"intelligibility": "H", "seen": "unseen"}),
    ])
    score_report = root / "score_report.json"
    assert main(["score", "--hyp", str(rescore_hyp), "--ref", str(ref_tsv),
                 "--groups", "intelligibility,seen", "--out", str(score_report)]) == 0

    # 8) MAPSSWE between the joint-decoded and rescored hypotheses
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["significance", "--hyp-a", str(joint_hyp),
                     "--hyp-b", str(rescore_hyp), "--ref", str(ref_tsv), "--json"])
    assert code == 0
    (root / "significance.json").write_text(buf.getvalue())

    return [
        root / "hubert.mdl1",
        root / "train_log.jsonl",
        *(ext_dir / f"{u}.afm1" for u in utt_ids),
        *(fused_dir / f"{u}.afm1" for u in utt_ids),
        *(fused_streams / f"{u}.fss1" for u in utt_ids),
        joint_hyp,
        rescored,
        rescore_hyp,
        score_report,
        root / "significance.json",
    ]


def test_criterion_7_end_to_end_smoke_pipeline(tmp_path):
    start = time.time()
    files1 = run_pipeline(tmp_path / "run1")
    files2 = run_pipeline(tmp_path / "run2")
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes(), f"{f1.name} differs between runs"
    report_data = json.loads((tmp_path / "run1" / "score_report.json").read_text())
    assert "overall" in report_data and report_data["overall"] >= 0.0
    elapsed = time.time() - start
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
    report(7, f"end-to-end pipeline deterministic across runs ({elapsed:.1f}s, "
              f"WER {report_data['overall']:.2f}%)")


def test_criterion_8_bottleneck_shape_contract():
    # through the SSL model, which places the bottleneck: 3 blocks put the
    # middle one (after block 2) apart from the encoder and the last block
    rng = make_rng(80)
    checked = 0
    for position in ("after-encoder", "after-middle-block", "after-last-block"):
        for inner in (128, 256, 512):
            model = build_ssl_model(SslConfig(d_in=4, n_blocks=3, d_model=16, n_heads=2,
                                              d_ff=16, bottleneck_position=position,
                                              bottleneck_dim=inner), seed=inner)
            lengths = [1, 512] + [int(x) for x in rng.integers(2, 512, size=4)]
            for t_in in lengths:
                x = Tensor(rng.normal(size=(t_in, 4)))
                with no_grad():
                    output, extracted = model.encode(x)
                    inference = model.extract(x)
                assert extracted.shape == (2 * t_in, inner)
                assert output.shape == (t_in, 16)
                assert inference.data.tobytes() == extracted.data.tobytes()
                checked += 1
    report(8, f"shape contract holds on {checked} (position, dim, T) combinations")
