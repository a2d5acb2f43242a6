"""Acceptance suite: one test per shipped guarantee.

Each test prints a single verdict line (shown with `pytest -s` and in any
failure report) and asserts the stated tolerance. Criteria 6 and 7 are
seed-pinned end-to-end runs at desk scale; everything else is exact or
oracle-checked.
"""

import time

import numpy as np

from cascadekd.checkpoint import load_checkpoint, save_checkpoint
from cascadekd.config import RunConfig, CascadeSection, CorpusSection, \
    FinetuneSection, PretrainSection, SeedsSection, parse_config
from cascadekd.corpus import (
    CorpusSpec,
    LanguageSpec,
    TokenizerVocab,
    batch_stream,
    class_marker,
    encode_batch,
    generate_labeled_task,
    generate_synthetic_corpus,
    shuffle_lines,
)
from cascadekd.distill import (
    build_cascade_plan,
    run_cascade,
    top_layer_init,
    total_distill_loss,
)
from cascadekd.encoder import (
    ClassifierHead,
    ForwardTrace,
    ModelConfig,
    init_random,
)
from cascadekd.reporting import AVG_COLUMN, MetricsWriter, emit_report
from cascadekd.tensor import Tensor, backward, no_grad
from cascadekd.training import (
    FineTuneConfig,
    OptimizerConfig,
    ScheduleConfig,
    accuracy,
    fine_tune,
    lr_at,
    zero_shot_eval,
)

from oracles import fd_denominator_floor, reference_distill_loss


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _scale_weights(model, qk: float, other: float) -> None:
    # 0.02-std init leaves attention uniform and layers near-identity;
    # widen it so every gradient/loss path carries real signal
    for name, p in model.parameters():
        if name.endswith(("wq", "wk")):
            p.data = p.data * qk
        elif name.endswith(("wv", "wo", "w_ffn_in", "w_ffn_out")):
            p.data = p.data * other


# ---------------------------------------------------------------------------
# 1. analytic gradients match finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_gradients_match_finite_differences():
    start = time.time()
    t_config = ModelConfig(vocab_size=32, hidden_dim=8, num_layers=3,
                           num_heads=2, ffn_dim=16, max_seq_len=4,
                           dropout_rate=0.0)
    s_config = ModelConfig(vocab_size=32, hidden_dim=8, num_layers=2,
                           num_heads=2, ffn_dim=16, max_seq_len=4,
                           dropout_rate=0.0)
    teacher = init_random(t_config, seed=21)
    student = init_random(s_config, seed=22)
    _scale_weights(teacher, qk=15.0, other=2.0)
    _scale_weights(student, qk=15.0, other=2.0)
    rng = np.random.default_rng(23)
    ids = rng.integers(0, 32, size=(2, 4))
    mask = np.array([[True, True, True, True], [True, True, True, False]])

    def loss_value():
        t = teacher.forward(ids, mask)
        s = student.forward(ids, mask)
        return float(total_distill_loss(t, s).data)

    t = teacher.forward(ids, mask)
    s = student.forward(ids, mask)
    loss = total_distill_loss(t, s)
    backward(loss)

    h, tol = 1e-5, 1e-6
    floor = fd_denominator_floor(abs(float(loss.data)), h=h, tol=tol)
    worst = 0.0
    coords = 0
    for name, p in student.trainable_parameters():
        assert p.grad is not None, name
        flat = p.data.reshape(-1)
        g_flat = p.grad.reshape(-1)
        signal = 0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_value()
            flat[i] = orig - h
            f_minus = loss_value()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            denom = max(abs(numeric), abs(g_flat[i]), floor)
            worst = max(worst, abs(g_flat[i] - numeric) / denom)
            if max(abs(numeric), abs(g_flat[i])) > floor:
                signal += 1
            coords += 1
        assert signal > 0, f"no gradient signal through {name}"
    teacher_clean = all(p.grad is None for _, p in teacher.parameters())
    elapsed = time.time() - start
    ok = worst <= tol and teacher_clean and elapsed <= 60.0
    _verdict(1, ok, f"{coords} coordinates, max rel err {worst:.2e} "
                    f"(tol {tol:.0e}), teacher untouched, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss equals the explicit-loop oracle
# ---------------------------------------------------------------------------

def _trace(hidden, attentions, mask):
    return ForwardTrace(hidden=[Tensor(x) for x in hidden],
                        attentions=[Tensor(a) for a in attentions],
                        attention_mask=np.asarray(mask, dtype=bool))


def test_criterion_2_loss_matches_oracle():
    rng = np.random.default_rng(31)
    worst = 0.0
    for case in range(100):
        n = case % 3 + 1
        batch = int(rng.integers(1, 4))
        seq = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 6))
        heads = int(rng.integers(1, 4))
        t_hidden = [rng.normal(size=(batch, seq, dim)) for _ in range(n + 2)]
        t_attn = [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n + 1)]
        s_hidden = [rng.normal(size=(batch, seq, dim)) for _ in range(n + 1)]
        s_attn = [rng.normal(size=(batch, heads, seq, seq)) for _ in range(n)]
        mask = np.ones((batch, seq), dtype=bool)
        if case % 2:
            for b in range(batch):
                mask[b, rng.integers(1, seq + 1):] = False
        got = float(total_distill_loss(_trace(t_hidden, t_attn, mask),
                                       _trace(s_hidden, s_attn, mask)).data)
        want = reference_distill_loss(t_hidden, t_attn, s_hidden, s_attn, mask)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-10
    _verdict(2, ok, f"100 random traces (n in 1..3, half padded), "
                    f"max |diff| {worst:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. student initialization and cascade plan arithmetic
# ---------------------------------------------------------------------------

def test_criterion_3_initialization_and_plan(paper_ini):
    config = ModelConfig(vocab_size=64, hidden_dim=16, num_layers=12,
                         num_heads=2, ffn_dim=32, max_seq_len=8,
                         dropout_rate=0.1)
    teacher = init_random(config, seed=33)
    student = top_layer_init(teacher)
    layers_copied = student.num_layers == 11 and all(
        np.array_equal(getattr(student.layers[i], name).data,
                       getattr(teacher.layers[i], name).data)
        for i in range(11) for name, _ in teacher.layers[i].parameters())
    distinct = all(
        getattr(student.layers[i], name) is not getattr(teacher.layers[i], name)
        for i in range(11) for name, _ in teacher.layers[i].parameters())
    shared = (student.token_embeddings is teacher.token_embeddings
              and student.position_embeddings is teacher.position_embeddings)

    paper = parse_config(paper_ini)
    plan = paper.cascade_plan(paper.model.num_layers)
    plan_ok = (len(plan.stages) == 6 and plan.total_steps == 399_996
               and [s.teacher_depth for s in plan.stages] == list(range(12, 6, -1)))
    ok = layers_copied and distinct and shared and plan_ok
    _verdict(3, ok, "lowest 11 layers copied value-identical, embeddings "
                    "shared, 12->6 plan = 6 stages / 399,996 steps")


# ---------------------------------------------------------------------------
# 4. learning-rate schedule exactness
# ---------------------------------------------------------------------------

def test_criterion_4_schedule_exactness():
    peak = 1e-7
    standard = ScheduleConfig(total_steps=66_666, warmup_steps=6_666)
    fixed = (lr_at(standard, peak, 0) == 0.0
             and lr_at(standard, peak, 6_666) == peak
             and lr_at(standard, peak, 66_666) == 0.0)
    full = ScheduleConfig(total_steps=66_666, warmup_steps=66_666)
    fixed = fixed and lr_at(full, peak, 66_666) == peak

    def closed_form(schedule, step):
        if step <= schedule.warmup_steps:
            return peak * step / schedule.warmup_steps
        return peak * (schedule.total_steps - step) / \
            (schedule.total_steps - schedule.warmup_steps)

    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(1_000):
        schedule = standard if rng.integers(2) else full
        step = int(rng.integers(0, schedule.total_steps + 1))
        got = lr_at(schedule, peak, step)
        want = closed_form(schedule, step)
        if want == 0.0:
            assert got == 0.0
        else:
            worst = max(worst, abs(got - want) / abs(want))
    ok = fixed and worst <= 1e-15
    _verdict(4, ok, f"endpoints exact, 1,000 random steps max rel err "
                    f"{worst:.2e} (tol 1e-15)")


# ---------------------------------------------------------------------------
# 5. smoothed sampling correctness
# ---------------------------------------------------------------------------

def test_criterion_5_sampling_correctness():
    start = time.time()
    spec = CorpusSpec(languages=(
        LanguageSpec("en", 1048576.0), LanguageSpec("es", 65536.0),
        LanguageSpec("de", 16384.0), LanguageSpec("ur", 1024.0)))
    smoothed = spec.sampling_probabilities()
    ratio = smoothed["en"] / smoothed["ur"]
    ratio_err = abs(ratio - 100.0) / 100.0

    lines = generate_synthetic_corpus(spec, 100_000, seed=31)
    counts = {}
    for lang, _ in lines:
        counts[lang] = counts.get(lang, 0) + 1
    l1 = sum(abs(counts.get(name, 0) / 100_000 - p)
             for name, p in smoothed.items())
    elapsed = time.time() - start
    ok = ratio_err <= 1e-9 and l1 <= 0.01 and elapsed <= 10.0
    _verdict(5, ok, f"anchor ratio err {ratio_err:.2e} (tol 1e-9), "
                    f"100k-draw L1 {l1:.4f} (tol 0.01), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. end-to-end cascade at desk scale
# ---------------------------------------------------------------------------

def test_criterion_6_cascade_end_to_end():
    start = time.time()
    spec = CorpusSpec(languages=(
        LanguageSpec("aa", 1048576.0), LanguageSpec("bb", 65536.0),
        LanguageSpec("cc", 4096.0)))
    lines = shuffle_lines(generate_synthetic_corpus(spec, 15_000, seed=41), 42)
    texts = [text for _, text in lines]
    vocab = TokenizerVocab.build(texts, 256)

    config = ModelConfig(vocab_size=256, hidden_dim=32, num_layers=6,
                         num_heads=4, ffn_dim=64, max_seq_len=16,
                         dropout_rate=0.1)
    teacher = init_random(config, seed=43)
    _scale_weights(teacher, qk=15.0, other=2.0)
    plan = build_cascade_plan(
        6, 3, OptimizerConfig(peak_lr=3e-3, batch_size=16, micro_batch_size=16,
                              epsilon=1e-9),
        steps_per_stage=300, warmup_steps=30)

    stages = []
    result = run_cascade(plan, teacher,
                         batch_stream(texts[:14_400], vocab, 16, 16),
                         seed=44, dropout=False,
                         on_stage_done=lambda r: stages.append(r))
    ratios = []
    for r in stages:
        first = float(np.mean(r.loss_trace[:50]))
        last = float(np.mean(r.loss_trace[-50:]))
        ratios.append(last / first)

    held_out = list(batch_stream(texts[14_400:14_912], vocab, 16, 16))
    direct_teacher = stages[-2].model

    def held_out_loss(student):
        with no_grad():
            return sum(
                float(total_distill_loss(
                    direct_teacher.forward(b.token_ids, b.attention_mask),
                    student.forward(b.token_ids, b.attention_mask)).data)
                for b in held_out) / len(held_out)

    at_init = held_out_loss(top_layer_init(direct_teacher))
    trained = held_out_loss(result.final_model)
    generalization = trained / at_init
    elapsed = time.time() - start
    ok = (all(r <= 0.5 for r in ratios) and generalization <= 0.5
          and elapsed <= 600.0)
    _verdict(6, ok, f"stage loss ratios {[f'{r:.3f}' for r in ratios]} "
                    f"(each <= 0.5), held-out ratio {generalization:.3f} "
                    f"(<= 0.5), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. fine-tune accuracy and zero-shot report
# ---------------------------------------------------------------------------

def test_criterion_7_finetune_and_zero_shot():
    spec = CorpusSpec(languages=(
        LanguageSpec("aa", 1048576.0), LanguageSpec("bb", 65536.0),
        LanguageSpec("cc", 4096.0)))
    pretrain_lines = generate_synthetic_corpus(spec, 4_000, seed=41)
    markers = [class_marker(c) for c in range(3)]
    vocab = TokenizerVocab.build((t for _, t in pretrain_lines), 256,
                                 extra_tokens=markers)

    def labeled(language, n, seed):
        rows = generate_labeled_task(spec, language, n, seed, num_classes=3)
        return encode_batch([text for _, _, text in rows], vocab, 16,
                            labels=[label for _, label, _ in rows])

    train = labeled("aa", 192, seed=45)
    evals = {lang: labeled(lang, 64, seed=46 + i)
             for i, lang in enumerate(("aa", "bb", "cc"))}

    config = ModelConfig(vocab_size=256, hidden_dim=32, num_layers=3,
                         num_heads=4, ffn_dim=64, max_seq_len=16,
                         dropout_rate=0.1)
    model = init_random(config, seed=47)
    tok_before = model.token_embeddings.data.copy()
    pos_before = model.position_embeddings.data.copy()
    ft = FineTuneConfig(
        optimizer=OptimizerConfig(peak_lr=3e-3, batch_size=16,
                                  micro_batch_size=16, epsilon=2e-7),
        epochs=12, num_classes=3, seed=48)
    model, head = fine_tune(model, train, ft)
    train_acc = accuracy(model, head, train)

    result = zero_shot_eval(model, head, evals)
    exact_mean = sum(result.per_language.values()) / 3
    table = emit_report([("student-3", result.per_language)],
                        provided_averages={"student-3": result.average})
    avg_cell = table.splitlines()[1].split()[-1]
    frozen = (np.array_equal(model.token_embeddings.data, tok_before)
              and np.array_equal(model.position_embeddings.data, pos_before))
    ok = (train_acc >= 0.95 and result.average == exact_mean
          and AVG_COLUMN in table.splitlines()[0]
          and avg_cell == f"{exact_mean * 100:.2f}" and frozen)
    _verdict(7, ok, f"train accuracy {train_acc:.3f} (>= 0.95), zero-shot "
                    f"{ {k: round(v, 3) for k, v in result.per_language.items()} }, "
                    f"AVG column exact, embeddings bit-unchanged")


# ---------------------------------------------------------------------------
# 8. persistence and bit-reproducibility
# ---------------------------------------------------------------------------

def _tiny_run_config():
    model = ModelConfig(vocab_size=64, hidden_dim=16, num_layers=2,
                        num_heads=2, ffn_dim=32, max_seq_len=8,
                        dropout_rate=0.1)
    return RunConfig(
        model=model,
        cascade=CascadeSection(start_depth=2, end_depth=1,
                               steps_per_stage=8, warmup_steps=2),
        pretrain=PretrainSection(peak_lr=1e-3, batch_size=8, micro_batch_size=8),
        finetune=FinetuneSection(),
        corpus=CorpusSection(languages="aa:102400,bb:256", total_lines=160,
                             vocab_size=64),
        seeds=SeedsSection())


def _pipeline(run_config: RunConfig, out_dir) -> None:
    lines = generate_synthetic_corpus(run_config.corpus_spec(),
                                      run_config.corpus.total_lines,
                                      run_config.seeds.corpus)
    lines = shuffle_lines(lines, run_config.seeds.shuffle)
    texts = [text for _, text in lines]
    vocab = TokenizerVocab.build(texts, run_config.corpus.vocab_size)
    teacher = init_random(run_config.model, run_config.seeds.cascade)
    batches = batch_stream(texts, vocab, run_config.model.max_seq_len,
                           run_config.pretrain.batch_size)
    with MetricsWriter(out_dir / "metrics.jsonl") as writer:
        result = run_cascade(run_config.cascade_plan(teacher.num_layers), teacher, batches,
                             run_config.seeds.cascade, metrics=writer.write)
    save_checkpoint(out_dir / "final", result.final_model)


def test_criterion_8_persistence_and_reproducibility(tmp_path):
    config = ModelConfig(vocab_size=32, hidden_dim=16, num_layers=2,
                         num_heads=2, ffn_dim=32, max_seq_len=8,
                         dropout_rate=0.1)
    model = init_random(config, seed=81)
    head = ClassifierHead(16, num_classes=3, seed=82)
    save_checkpoint(tmp_path / "ckpt", model, head=head,
                    stage_index=2, step_count=17)
    bundle = load_checkpoint(tmp_path / "ckpt")
    restored = dict(bundle.model.parameters())
    restored.update(("head." + n, p) for n, p in bundle.head.parameters())
    original = dict(model.parameters())
    original.update(("head." + n, p) for n, p in head.parameters())
    round_trip = (
        set(restored) == set(original)
        and all(np.array_equal(restored[n].data, original[n].data)
                for n in original)
        and bundle.stage_index == 2 and bundle.step_count == 17)

    run_config = _tiny_run_config()
    for name in ("run_a", "run_b"):
        (tmp_path / name).mkdir()
        _pipeline(run_config, tmp_path / name)
    metrics_same = (tmp_path / "run_a" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "run_b" / "metrics.jsonl").read_bytes()
    weights_same = (tmp_path / "run_a" / "final" / "weights.bin").read_bytes() == \
        (tmp_path / "run_b" / "final" / "weights.bin").read_bytes()
    ok = round_trip and metrics_same and weights_same
    _verdict(8, ok, "checkpoint round-trip value-identical; pipeline rerun "
                    "byte-identical (metrics and weights)")
