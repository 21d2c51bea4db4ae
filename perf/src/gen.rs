//! `gen`: TinyLM generation, closed loop, one request at a time, under the
//! FP16 baseline and the accuracy suite (KIVI-2, GEAR-2, H2O-64,
//! Stream-64).
//!
//! Two phases per policy. *Long-context*: every LongBench-style task type
//! at a long context; answers are short, so the phase is mostly prefill.
//! *Chat*: ShareGPT-shaped prompts decoded greedily to the paper's
//! 1024-token cap; eviction policies that lose the supporting span run on
//! until the cap, so the phase is mostly decode. No request repeats.
//!
//! Each request replays `TinyLm::generate` step by step through the public
//! `start_session` / `Session::prefill` / `Sampler::sample` /
//! `Session::decode` calls, so the traced run can time each of them.

use std::ops::Range;
use std::time::Instant;

use rkvc_kvcache::{CacheStats, CompressionConfig, CompressionFamily, KvCache};
use rkvc_model::vocab::{self, TokenId};
use rkvc_model::{ModelConfig, Sampler, TinyLm};
use rkvc_tensor::{seeded_rng, Matrix};
use rkvc_workload::{
    generate_suite, sample_conversations, scaled_gear, scaled_h2o, scaled_kivi, scaled_streaming,
    ConversationRequest, LongBenchConfig, ShareGptConfig, TaskSample,
};

use crate::trace::Tracer;
use crate::util::{median, Metrics};
use crate::{Round, Workload};

/// Prompt length of the long-context phase (tokens).
const CONTEXT_LEN: usize = 1024;
/// Long-context samples per task type (six task types).
const SAMPLES_PER_TASK: usize = 1;
/// Chat prompts per policy whose supporting span lies outside the eviction
/// window, and as many whose span lies inside it.
const CHAT_PER_STRATUM: usize = 3;
/// The paper's generation cap.
const CHAT_CAP: usize = 1024;
/// Eviction budget of H2O-64 / Stream-64, per head.
const EVICTION_BUDGET: usize = 64;

/// Request ids: policy, phase and index packed into one number.
fn req_id(policy: usize, chat: bool, i: usize) -> u64 {
    (policy as u64) << 32 | (chat as u64) << 31 | i as u64
}

fn policy_of(req: u64) -> usize {
    (req >> 32) as usize
}

fn is_chat(req: u64) -> bool {
    req >> 31 & 1 == 1
}

/// Distance from the last demonstration to the prompt end: how far back the
/// span the answer copies from lies.
fn tail_len(c: &ConversationRequest) -> usize {
    c.prompt
        .iter()
        .rposition(|&t| t == vocab::EOS_SYM)
        .map_or(c.prompt.len(), |p| c.prompt.len() - 1 - p)
}

/// ShareGPT-shaped chat prompts, stratified so every seed carries the same
/// mix: `CHAT_PER_STRATUM` whose supporting span lies beyond the eviction
/// budget (eviction policies lose it and run on to the cap) and as many
/// whose span lies well inside it.
fn stratified_chat(seed: u64, vocab_size: usize) -> Vec<ConversationRequest> {
    let pool = sample_conversations(&ShareGptConfig::tiny_scale(64, seed ^ 0xc4a7), vocab_size);
    let outside = pool.iter().filter(|c| tail_len(c) > EVICTION_BUDGET);
    let inside = pool
        .iter()
        .filter(|c| tail_len(c) + c.reference_response_len < EVICTION_BUDGET / 2);
    let chat: Vec<ConversationRequest> = outside
        .take(CHAT_PER_STRATUM)
        .chain(inside.take(CHAT_PER_STRATUM))
        .cloned()
        .collect();
    assert_eq!(
        chat.len(),
        2 * CHAT_PER_STRATUM,
        "the sampler draws both strata"
    );
    chat
}

/// One finished request.
pub struct Generated {
    pub tokens: Vec<TokenId>,
    pub prompt_len: usize,
    pub stats: CacheStats,
}

pub struct Gen {
    model: TinyLm,
    policies: Vec<(&'static str, CompressionConfig)>,
    long: Vec<TaskSample>,
    chat: Vec<ConversationRequest>,
}

impl Gen {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let model = tr.span(
            "model.new",
            0,
            |_| TinyLm::new(ModelConfig::induction_mha()),
        );
        let vocab_size = model.config().vocab_size;
        let long = generate_suite(&LongBenchConfig {
            samples_per_task: SAMPLES_PER_TASK,
            context_len: CONTEXT_LEN,
            vocab_size,
            seed: seed ^ 0x10b6,
        });
        let chat = stratified_chat(seed, vocab_size);
        let g = Gen {
            model,
            policies: vec![
                ("fp16", CompressionConfig::Fp16),
                ("kivi2", scaled_kivi(2)),
                ("gear2", scaled_gear(2)),
                ("h2o64", scaled_h2o(EVICTION_BUDGET)),
                ("stream64", scaled_streaming(EVICTION_BUDGET)),
            ],
            long,
            chat,
        };
        // Warm-up: one long-context request under every policy.
        for (p, (_, cfg)) in g.policies.iter().enumerate() {
            let s = &g.long[0];
            g.generate(tr, req_id(p, false, 0), &s.prompt, cfg, s.max_new_tokens);
        }
        g
    }

    /// `TinyLm::generate` (greedy), one public call at a time.
    fn generate(
        &self,
        tr: &mut Tracer,
        req: u64,
        prompt: &[TokenId],
        cfg: &CompressionConfig,
        max_new: usize,
    ) -> Generated {
        tr.span("gen.request", req, |tr| {
            let mut session = tr.span("model.start_session", req, |_| {
                self.model.start_session(cfg)
            });
            let mut sampler = Sampler::greedy();
            let mut logits = tr.span("model.prefill", req, |_| session.prefill(prompt));
            let mut tokens = Vec::new();
            for _ in 0..max_new {
                let t = tr.span("model.sample", req, |_| sampler.sample(&logits));
                if t == vocab::EOS_SYM {
                    break;
                }
                tokens.push(t);
                logits = tr.span("model.decode", req, |_| session.decode(t));
            }
            Generated {
                tokens,
                prompt_len: prompt.len(),
                stats: session.cache_stats(),
            }
        })
    }

    /// Heads whose caches `CacheStats` sums over.
    fn heads(&self) -> usize {
        let c = self.model.config();
        c.n_layers * c.n_kv_heads
    }
}

/// A check of a request's output tokens against what the workload built.
pub type Expect<'a> = dyn Fn(&[TokenId]) -> Result<(), String> + 'a;

/// The output checks of one request, independent of the model: `None`
/// when every check passes.
pub fn check_request(
    policy: &CompressionConfig,
    heads: usize,
    out: &Generated,
    expect: Option<&Expect<'_>>,
) -> Option<String> {
    let s = &out.stats;
    let tokens = out.prompt_len + out.tokens.len();
    if s.tokens_seen != tokens * heads {
        return Some(format!(
            "tokens_seen {} != {} tokens x {heads} heads",
            s.tokens_seen, tokens
        ));
    }
    match policy.family() {
        CompressionFamily::Sparsity if s.tokens_retained > EVICTION_BUDGET * heads => {
            return Some(format!(
                "retains {} > budget {}",
                s.tokens_retained,
                EVICTION_BUDGET * heads
            ));
        }
        CompressionFamily::Quantization if s.memory_bytes >= s.fp16_baseline_bytes => {
            return Some(format!(
                "holds {} B >= fp16 {} B",
                s.memory_bytes, s.fp16_baseline_bytes
            ));
        }
        _ => {}
    }
    expect.and_then(|f| f(&out.tokens).err())
}

impl Workload for Gen {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let heads = self.heads();
        let (mut prompt_tokens, mut long_s) = (0usize, 0.0);
        let (mut gen_tokens, mut chat_s) = (0usize, 0.0);
        let (mut kv_bytes, mut kv_tokens) = (0usize, 0usize);
        for (p, (_, cfg)) in self.policies.iter().enumerate() {
            let fp16 = p == 0;
            for (i, s) in self.long.iter().enumerate() {
                let t = Instant::now();
                let out = self.generate(tr, req_id(p, false, i), &s.prompt, cfg, s.max_new_tokens);
                long_s += t.elapsed().as_secs_f64();
                prompt_tokens += out.prompt_len;
                kv_bytes += out.stats.resident_bytes;
                kv_tokens += out.prompt_len + out.tokens.len();
                let full_marks = |toks: &[TokenId]| {
                    let score = s.scorer.score(toks);
                    if score == 100.0 {
                        Ok(())
                    } else {
                        Err(format!(
                            "fp16 scores {score} on {:?} sample {}",
                            s.task, s.id
                        ))
                    }
                };
                r.attempted += 1;
                if let Some(e) = check_request(cfg, heads, &out, fp16.then_some(&full_marks as _)) {
                    r.fail(format!("{}: long {i}: {e}", cfg.label()));
                }
            }
            for (i, c) in self.chat.iter().enumerate() {
                let t = Instant::now();
                let out = self.generate(tr, req_id(p, true, i), &c.prompt, cfg, CHAT_CAP);
                chat_s += t.elapsed().as_secs_f64();
                gen_tokens += out.tokens.len();
                kv_bytes += out.stats.resident_bytes;
                kv_tokens += out.prompt_len + out.tokens.len();
                let reference = |toks: &[TokenId]| {
                    if toks == c.reference_response.as_slice() {
                        Ok(())
                    } else {
                        Err(format!(
                            "fp16 output differs from the reference of chat prompt {}",
                            c.id
                        ))
                    }
                };
                r.attempted += 1;
                if let Some(e) = check_request(cfg, heads, &out, fp16.then_some(&reference as _)) {
                    r.fail(format!("{}: chat {i}: {e}", cfg.label()));
                }
            }
        }
        r.wall_s = long_s + chat_s;
        r.outcome
            .push("prefill_tok_s", prompt_tokens as f64 / long_s, "tok/s");
        r.outcome
            .push("decode_tok_s", gen_tokens as f64 / chat_s, "tok/s");
        r.outcome.push(
            "kv_bytes_per_token",
            kv_bytes as f64 / kv_tokens as f64,
            "B/token",
        );
        r
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, spans: Range<usize>, out: &mut Metrics) {
        // Model: per-policy prefill/decode cost per token and session
        // start-up, from the traced round's spans.
        // Every policy sees the same prompts.
        let prompt_tokens = self.long.iter().map(|s| s.prompt.len()).sum::<usize>()
            + self.chat.iter().map(|c| c.prompt.len()).sum::<usize>();
        let mut chat_len = vec![0u64; self.policies.len()];
        let (sample_ns, samples) = tr.total(spans.clone(), "model.sample", |_| true);
        for (p, (label, _)) in self.policies.iter().enumerate() {
            let of = |q: u64| policy_of(q) == p;
            let (pre_ns, _) = tr.total(spans.clone(), "model.prefill", of);
            let (dec_ns, decodes) = tr.total(spans.clone(), "model.decode", of);
            let (start_ns, starts) = tr.total(spans.clone(), "model.start_session", of);
            let (_, chat_decodes) =
                tr.total(spans.clone(), "model.decode", |q| of(q) && is_chat(q));
            chat_len[p] = chat_decodes;
            out.push(
                format!("model.prefill_ns_per_tok.{label}"),
                pre_ns as f64 / prompt_tokens as f64,
                "ns/token",
            );
            out.push(
                format!("model.decode_ns_per_tok.{label}"),
                dec_ns as f64 / decodes.max(1) as f64,
                "ns/token",
            );
            out.push(
                format!("model.start_session_ns.{label}"),
                start_ns as f64 / starts.max(1) as f64,
                "ns",
            );
        }
        for (p, (label, _)) in self.policies.iter().enumerate() {
            out.push(
                format!("model.length_ratio.{label}"),
                chat_len[p] as f64 / chat_len[0].max(1) as f64,
                "ratio",
            );
        }
        out.push(
            "model.sample_ns",
            sample_ns as f64 / samples.max(1) as f64,
            "ns",
        );
        self.kvcache_replay(tr, out);
        self.tensor_probes(tr, out);
    }
}

impl Gen {
    /// Replays a long-context-sized K/V stream through each policy's cache:
    /// the prompt appended in one go (prefill), then decode steps that
    /// attend and append one token each.
    fn kvcache_replay(&self, tr: &mut Tracer, out: &mut Metrics) {
        const DECODE_STEPS: usize = 256;
        let dim = self.model.config().head_dim();
        let n = CONTEXT_LEN + DECODE_STEPS;
        let mut rng = seeded_rng(0x6b76);
        let stream: Vec<f32> = (0..3 * n * dim)
            .map(|_| rng.gen_f64() as f32 - 0.5)
            .collect();
        let kqv = |t: usize, j: usize| &stream[(3 * t + j) * dim..(3 * t + j + 1) * dim];
        for (label, cfg) in &self.policies {
            let mut cache: Box<dyn KvCache> = cfg.build(dim);
            let append_ns = tr.span("kvcache.append", 0, |tr| {
                let t0 = tr.now_ns();
                for t in 0..CONTEXT_LEN {
                    cache.append(kqv(t, 0), kqv(t, 1), t);
                }
                cache.finish_prefill();
                (tr.now_ns() - t0) as f64 / CONTEXT_LEN as f64
            });
            let (mut scores, mut weights, mut o) = (Vec::new(), Vec::new(), vec![0.0f32; dim]);
            let (mut attend_ns, mut rows) = (0u64, 0usize);
            tr.span("kvcache.decode", 0, |tr| {
                for t in CONTEXT_LEN..n {
                    rows += cache.len();
                    let t0 = tr.now_ns();
                    cache.attend(kqv(t, 2), 0.125, &mut scores, &mut weights, &mut o);
                    attend_ns += tr.now_ns() - t0;
                    cache.append(kqv(t, 0), kqv(t, 1), t);
                }
            });
            let s = cache.stats();
            out.push(format!("kvcache.append_ns.{label}"), append_ns, "ns");
            out.push(
                format!("kvcache.attend_ns_per_row.{label}"),
                attend_ns as f64 / rows as f64,
                "ns/row",
            );
            out.push(
                format!("kvcache.retained_ratio.{label}"),
                s.tokens_retained as f64 / s.tokens_seen as f64,
                "ratio",
            );
            out.push(
                format!("kvcache.bytes_per_token.{label}"),
                s.resident_bytes as f64 / s.tokens_seen as f64,
                "B/token",
            );
        }
    }

    /// The matmul microkernel at the prefill projection shape, and the
    /// cost of one empty `par` fan-out.
    fn tensor_probes(&self, tr: &mut Tracer, out: &mut Metrics) {
        let d = self.model.config().d_model();
        let mut rng = seeded_rng(0x7e45);
        let a = Matrix::from_vec(
            CONTEXT_LEN,
            d,
            (0..CONTEXT_LEN * d).map(|_| rng.gen_f64() as f32).collect(),
        );
        let b = Matrix::from_vec(d, d, (0..d * d).map(|_| rng.gen_f64() as f32).collect());
        let mut reps = Vec::new();
        tr.span("tensor.matmul", 0, |_| {
            for _ in 0..20 {
                let t = Instant::now();
                std::hint::black_box(a.matmul(&b));
                reps.push(t.elapsed().as_secs_f64());
            }
        });
        let flops = 2.0 * (CONTEXT_LEN * d * d) as f64;
        out.push(
            "tensor.matmul_gflops",
            flops / median(&reps) / 1e9,
            "GFLOP/s",
        );
        let items = [0u64, 1];
        const FANOUTS: u64 = 2000;
        let ns = tr.span("tensor.par_map", 0, |tr| {
            let t0 = tr.now_ns();
            for _ in 0..FANOUTS {
                std::hint::black_box(rkvc_tensor::par::par_map(&items, 1, |x| x + 1));
            }
            (tr.now_ns() - t0) as f64 / FANOUTS as f64
        });
        out.push("tensor.par_dispatch_ns", ns, "ns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> Gen {
        Gen::setup(3, &mut Tracer::new(false))
    }

    /// Each checker catches a corrupted output.
    #[test]
    fn checks_catch_corrupted_outputs() {
        let g = gen();
        let heads = g.heads();
        let c = &g.chat[0];
        let fp16 = &g.policies[0].1;
        let mut out = g.generate(&mut Tracer::new(false), 0, &c.prompt, fp16, CHAT_CAP);
        let reference = |toks: &[TokenId]| {
            if toks == c.reference_response.as_slice() {
                Ok(())
            } else {
                Err("differs".to_owned())
            }
        };
        assert_eq!(check_request(fp16, heads, &out, Some(&reference)), None);
        // One changed token.
        out.tokens[0] += 1;
        assert!(check_request(fp16, heads, &out, Some(&reference)).is_some());
        out.tokens[0] -= 1;
        // Unaccounted tokens.
        out.stats.tokens_seen += 1;
        assert!(check_request(fp16, heads, &out, None).is_some());

        let h2o = &g.policies[3].1;
        let mut ev = g.generate(&mut Tracer::new(false), 0, &g.long[0].prompt, h2o, 4);
        assert_eq!(check_request(h2o, heads, &ev, None), None);
        ev.stats.tokens_retained = EVICTION_BUDGET * heads + 1;
        assert!(check_request(h2o, heads, &ev, None).is_some());

        let kivi = &g.policies[1].1;
        let mut q = g.generate(&mut Tracer::new(false), 0, &g.long[0].prompt, kivi, 4);
        assert_eq!(check_request(kivi, heads, &q, None), None);
        q.stats.memory_bytes = q.stats.fp16_baseline_bytes;
        assert!(check_request(kivi, heads, &q, None).is_some());
    }

    #[test]
    fn replay_matches_generate() {
        let g = gen();
        for (_, cfg) in &g.policies {
            let p = &g.chat[1].prompt;
            let mine = g.generate(&mut Tracer::new(false), 0, p, cfg, 64);
            let theirs = g
                .model
                .generate(p, cfg, &rkvc_model::GenerateParams::greedy(64));
            assert_eq!(mine.tokens, theirs.tokens);
            assert_eq!(mine.stats, theirs.cache_stats);
        }
    }
}
