//! `serve`: the paper's Table-8 router. One FP16 and three H2O A6000
//! servers behind `RoutingPolicy::Both`, routed by the fitted `ToolRouter`
//! (fitting is set-up work). Pools are pinned and run the preemptive
//! scheduler. Requests carry ShareGPT paper-scale lengths, with the
//! compressed servers' lengths shifted as Table 8 shifts them, and arrive
//! open-loop Poisson in simulated time at a ladder of fixed offered rates.
//! One operation is one simulated request.
//!
//! Every round also keeps ROADMAP item 4's head-of-line fault as two
//! operations: a pinned 256-token pool holding a 1024-token prompt ahead
//! of a 64-token one completes neither. They count as failed and stay out
//! of every simulated metric.

use std::ops::Range;
use std::time::Instant;

use rkvc_core::router::ToolRouter;
use rkvc_core::{LengthDataset, LengthPredictor, ProfileGrid, ThroughputPredictor};
use rkvc_gpu::{DeploymentSpec, EngineKind, GpuSpec, LlmSpec};
use rkvc_kvcache::CompressionConfig;
use rkvc_model::{vocab, GenerateParams, ModelConfig, TinyLm};
use rkvc_serving::{
    BlockManager, Cluster, CompletedRequest, RoutingPolicy, SchedulerConfig, ServerSim,
    ServingConfig, SimRequest, SloTargets,
};
use rkvc_tensor::seeded_rng;
use rkvc_workload::{sample_conversations, scaled_h2o, ConversationRequest, ShareGptConfig};

use crate::trace::Tracer;
use crate::util::{mean, quantile, Metrics};
use crate::{Round, Workload};

/// Distinct conversations drawn in set-up.
const N_DISTINCT: usize = 20_000;
/// Times the distinct conversations repeat back to back in the stream;
/// every ladder rung replays the stream at its own rate.
const TILES: usize = 3;
/// Conversations drawn per sampler call (keeps prompt tokens out of memory).
const CHUNK: usize = 2_000;
/// Offered rates (requests per simulated second), light to overloaded.
const RATES: [f64; 6] = [4.0, 8.0, 12.0, 16.0, 20.0, 24.0];
/// Rate at which the latency percentiles and goodput are reported.
const REF_RATE: f64 = 12.0;
/// The sampler's own Poisson rate (`ShareGptConfig::paper_scale`).
const BASE_RPS: f64 = 10.0;
const MAX_BATCH: usize = 16;
const POOL_TOKENS: usize = 16_384;
/// Ids of the two head-of-line requests (outside the ladder's id range).
const HOL_IDS: [u64; 2] = [u64::MAX - 1, u64::MAX];

pub fn a6000() -> DeploymentSpec {
    DeploymentSpec {
        gpu: GpuSpec::a6000(),
        llm: LlmSpec::llama2_7b(),
        engine: EngineKind::LmDeploy,
        tensor_parallel: 1,
    }
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        max_batch: MAX_BATCH,
        pool_tokens: Some(POOL_TOKENS),
        scheduler: SchedulerConfig::Preemptive,
        ..ServingConfig::default()
    }
}

/// Distance from the last demonstration to the prompt end: whether an
/// eviction window still covers the span the answer copies from.
fn tail_len(c: &ConversationRequest) -> usize {
    c.prompt
        .iter()
        .rposition(|&t| t == vocab::EOS_SYM)
        .map_or(c.prompt.len(), |p| c.prompt.len() - 1 - p)
}

/// Outcome of one ladder rung.
struct Rung {
    done: Vec<CompletedRequest>,
    ttft_p99: f64,
    tbt_p99: f64,
    growing: bool,
}

pub struct Serve {
    dep: DeploymentSpec,
    algo: CompressionConfig,
    base: Vec<SimRequest>,
    router: ToolRouter,
    slo: SloTargets,
    length_fit_s: f64,
    throughput_fit_s: f64,
    sample_ns_per_req: f64,
    /// Requests the last reference-rate rung routed to the FP16 server.
    ref_fp16_ids: Vec<u64>,
}

impl Serve {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let dep = a6000();
        let algo = CompressionConfig::h2o(64, 448);
        let budget = 64 + 448; // H2O heavy + recent tokens

        // Length shift under compression, measured on TinyLM the way
        // Table 8 measures it: sampled generations under FP16 vs the
        // scaled H2O policy, split into benign and wandering multipliers.
        let model = TinyLm::new(ModelConfig::induction_mha());
        let tiny = sample_conversations(&ShareGptConfig::tiny_scale(24, seed ^ 0x88), 64);
        let mult: Vec<f64> = tiny
            .iter()
            .map(|r| {
                let params = GenerateParams::sampled(
                    (r.reference_response_len * 3).clamp(24, 96),
                    1.0,
                    seed.wrapping_add(r.id as u64),
                );
                let out = tr.span("model.generate", r.id as u64, |_| {
                    model.generate(&r.prompt, &scaled_h2o(64), &params)
                });
                out.response_len().max(1) as f64 / r.reference_response_len.max(1) as f64
            })
            .collect();
        let wander: Vec<f64> = mult.iter().copied().filter(|&m| m > 1.25).collect();
        let benign: Vec<f64> = mult.iter().copied().filter(|&m| m <= 1.25).collect();
        let mut rng = seeded_rng(seed ^ 0x5e7e);
        let mut draw = |pool: &[f64]| {
            if pool.is_empty() {
                1.0
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        };

        // Paper-scale conversations, drawn in chunks; only lengths and the
        // length predictors' inputs are kept.
        let (mut fp16_data, mut comp_data) = (LengthDataset::new(), LengthDataset::new());
        let mut base = Vec::with_capacity(N_DISTINCT * TILES);
        let mut fit = None;
        let mut preds: Vec<(f64, f64)> = Vec::with_capacity(N_DISTINCT);
        let (mut t_off, mut sample_ns, mut length_fit_s) = (0.0, 0u64, 0.0);
        for k in 0..N_DISTINCT / CHUNK {
            let t0 = tr.now_ns();
            let convs = tr.span("workload.sample_conversations", k as u64, |_| {
                sample_conversations(
                    &ShareGptConfig::paper_scale(CHUNK, seed ^ (k as u64) << 20),
                    64,
                )
            });
            sample_ns += tr.now_ns() - t0;
            let mut last = 0.0;
            for c in &convs {
                let fp16_len = c.reference_response_len.clamp(1, 1024);
                let m = if tail_len(c) > budget {
                    draw(&wander)
                } else {
                    draw(&benign)
                };
                let comp_len = ((fp16_len as f64 * m).round() as usize).clamp(1, 1024);
                let id = base.len() as u64;
                let mut r =
                    SimRequest::new(id, t_off + c.arrival_s, c.prompt_len.min(3500), fp16_len);
                r.response_len_by_server = vec![fp16_len, comp_len, comp_len, comp_len];
                last = c.arrival_s;
                if k == 0 {
                    fp16_data.push(&c.prompt, fp16_len);
                    comp_data.push(&c.prompt, comp_len);
                }
                base.push(r);
            }
            t_off += last;
            // The predictors train on the first chunk, then predict every
            // request from its prompt.
            if k == 0 {
                let t = Instant::now();
                fit = Some(tr.span("core.length_predictor_fit", 0, |_| {
                    (
                        LengthPredictor::fit(&fp16_data),
                        LengthPredictor::fit(&comp_data),
                    )
                }));
                length_fit_s = t.elapsed().as_secs_f64();
            }
            let (pf, pc) = fit.as_ref().unwrap_or_else(|| unreachable!());
            preds.extend(
                convs
                    .iter()
                    .map(|c| (pf.predict(&c.prompt), pc.predict(&c.prompt))),
            );
        }

        let t = Instant::now();
        let grid = ProfileGrid::standard();
        let thr = tr.span("core.throughput_predictor_fit", 0, |_| {
            (0..4)
                .map(|s| {
                    let a = if s == 0 {
                        CompressionConfig::Fp16
                    } else {
                        algo
                    };
                    ThroughputPredictor::fit(&dep, &a, grid.clone(), 0.05, seed + s as u64)
                })
                .collect::<Vec<_>>()
        });
        let throughput_fit_s = t.elapsed().as_secs_f64();
        let span_s = t_off;
        for tile in 1..TILES {
            for i in 0..N_DISTINCT {
                let r = &base[i];
                let next = SimRequest {
                    id: (tile * N_DISTINCT + i) as u64,
                    arrival_s: r.arrival_s + tile as f64 * span_s,
                    ..r.clone()
                };
                base.push(next);
            }
        }
        let mut router = ToolRouter::new(thr, Default::default());
        for (r, (pf, pc)) in base.iter().zip(preds.iter().cycle()) {
            router.set_predicted_len(r.id, 0, *pf);
            for s in 1..4 {
                router.set_predicted_len(r.id, s, *pc);
            }
        }

        let mut serve = Serve {
            dep,
            algo,
            base,
            router,
            slo: serving_config().slo,
            length_fit_s,
            throughput_fit_s,
            sample_ns_per_req: sample_ns as f64 / N_DISTINCT as f64,
            ref_fp16_ids: Vec::new(),
        };
        // Warm-up: the first thousand requests at the reference rate.
        let warm: Vec<SimRequest> = serve.at_rate(REF_RATE).into_iter().take(1000).collect();
        let servers = serve.servers();
        tr.span("cluster.run", 0, |_| {
            Cluster::new(servers, RoutingPolicy::Both).map(|c| c.run(warm, &serve.router))
        })
        .ok();
        serve.base.shrink_to_fit();
        serve
    }

    fn servers(&self) -> Vec<ServerSim> {
        (0..4)
            .filter_map(|i| {
                let a = if i == 0 {
                    CompressionConfig::Fp16
                } else {
                    self.algo
                };
                ServerSim::with_config(i, self.dep.clone(), a, serving_config()).ok()
            })
            .collect()
    }

    fn algo_of(&self, server: usize) -> CompressionConfig {
        if server == 0 {
            CompressionConfig::Fp16
        } else {
            self.algo
        }
    }

    /// The request stream with arrivals compressed to `rate`.
    fn at_rate(&self, rate: f64) -> Vec<SimRequest> {
        let scale = BASE_RPS / rate;
        self.base
            .iter()
            .map(|r| SimRequest {
                arrival_s: r.arrival_s * scale,
                ..r.clone()
            })
            .collect()
    }

    fn check_rung(&self, done: &[CompletedRequest], r: &mut Round) {
        check_rung(
            &self.dep,
            |s| self.algo_of(s),
            &self.slo,
            &self.base,
            done,
            |e| r.fail(e),
        );
    }
}

/// Checks one rung: every request id completes exactly once, and every
/// completion passes [`check_completion`]. Calls `fail` once per failed
/// request.
fn check_rung(
    dep: &DeploymentSpec,
    algo_of: impl Fn(usize) -> CompressionConfig,
    slo: &SloTargets,
    base: &[SimRequest],
    done: &[CompletedRequest],
    mut fail: impl FnMut(String),
) {
    let mut seen = vec![0u32; base.len()];
    for c in done {
        let Some(req) = base.get(c.id as usize) else {
            fail(format!("unknown request id {}", c.id));
            continue;
        };
        seen[c.id as usize] += 1;
        if let Some(e) = check_completion(dep, &algo_of(c.server_id), slo, req, c) {
            fail(format!("request {}: {e}", c.id));
        }
    }
    for (id, n) in seen.iter().enumerate() {
        if *n != 1 {
            fail(format!("request {id} completed {n} times"));
        }
    }
}

/// Output checks of one completion, independent of the simulator's own
/// bookkeeping.
pub fn check_completion(
    dep: &DeploymentSpec,
    algo: &CompressionConfig,
    slo: &SloTargets,
    req: &SimRequest,
    c: &CompletedRequest,
) -> Option<String> {
    if c.generated != req.response_len_on(c.server_id) {
        return Some(format!(
            "generated {} != {}",
            c.generated,
            req.response_len_on(c.server_id)
        ));
    }
    let floor = dep.prefill(algo, 1, req.prompt_len).total();
    if c.ttft_s < floor * (1.0 - 1e-9) {
        return Some(format!(
            "ttft {} below the roofline prefill {floor}",
            c.ttft_s
        ));
    }
    if c.ttft_s > c.e2e_s || c.ttft_s.is_nan() || c.e2e_s.is_nan() {
        return Some(format!("ttft {} > e2e {}", c.ttft_s, c.e2e_s));
    }
    if c.slo_ok != slo.target(c.slo).met(c.ttft_s, c.tbot_s()) {
        return Some(format!("slo_ok {} disagrees with the targets", c.slo_ok));
    }
    None
}

fn rung_stats(done: Vec<CompletedRequest>) -> Rung {
    let ttft: Vec<f64> = done.iter().map(|c| c.ttft_s).collect();
    let tbt: Vec<f64> = done.iter().map(|c| c.tbot_s()).collect();
    // A backlog grows when late arrivals queue much longer than earlier
    // ones did.
    let mut by_arrival: Vec<(f64, f64)> = done
        .iter()
        .map(|c| (c.arrival_s, c.queue_delay_s))
        .collect();
    by_arrival.sort_by(|a, b| a.0.total_cmp(&b.0));
    let q = by_arrival.len() / 4;
    let wait = |s: &[(f64, f64)]| mean(&s.iter().map(|x| x.1).collect::<Vec<_>>());
    let growing = wait(&by_arrival[3 * q..]) > 2.0 * wait(&by_arrival[q..2 * q]) + 1.0;
    Rung {
        ttft_p99: quantile(&ttft, 0.99),
        tbt_p99: quantile(&tbt, 0.99),
        growing,
        done,
    }
}

impl Workload for Serve {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let target = self.slo.target(rkvc_serving::SloClass::Standard);
        let mut capacity = 0.0f64;
        for (i, &rate) in RATES.iter().enumerate() {
            let t = Instant::now();
            let reqs = self.at_rate(rate);
            let servers = self.servers();
            let done = tr.span("cluster.run", i as u64, |_| {
                Cluster::new(servers, RoutingPolicy::Both).and_then(|c| c.run(reqs, &self.router))
            });
            r.wall_s += t.elapsed().as_secs_f64();
            r.attempted += self.base.len() as u64;
            let done = match done {
                Ok(d) => d,
                Err(e) => {
                    r.fail(format!("cluster at {rate} req/s: {e}"));
                    Vec::new()
                }
            };
            self.check_rung(&done, &mut r);
            let rung = rung_stats(done);
            if rung.ttft_p99 <= target.ttft_s && rung.tbt_p99 <= target.tbt_s && !rung.growing {
                capacity = capacity.max(rate);
            }
            if rate == REF_RATE {
                let ttft: Vec<f64> = rung.done.iter().map(|c| c.ttft_s).collect();
                let span_s = rung
                    .done
                    .iter()
                    .map(|c| c.arrival_s + c.e2e_s)
                    .fold(0.0, f64::max);
                let good: usize = rung
                    .done
                    .iter()
                    .filter(|c| c.slo_ok)
                    .map(|c| c.generated)
                    .sum();
                r.outcome
                    .push("sim_ttft_p50_s", quantile(&ttft, 0.5), "sim_s");
                r.outcome.push("sim_ttft_p99_s", rung.ttft_p99, "sim_s");
                r.outcome.push("sim_tbt_p99_s", rung.tbt_p99, "sim_s");
                r.outcome
                    .push("sim_goodput_tok_s", good as f64 / span_s, "tok/sim_s");
                self.ref_fp16_ids = rung
                    .done
                    .iter()
                    .filter(|c| c.server_id == 0)
                    .map(|c| c.id)
                    .collect();
            }
        }
        r.outcome.push("sim_capacity_rps", capacity, "req/sim_s");

        // The kept head-of-line fault: two operations.
        let t = Instant::now();
        let hol = tr.span("server.run_to_completion", HOL_IDS[0], |_| {
            let cfg = ServingConfig {
                pool_tokens: Some(256),
                ..serving_config()
            };
            ServerSim::with_config(0, self.dep.clone(), CompressionConfig::Fp16, cfg).map(
                |mut s| {
                    s.enqueue(SimRequest::new(HOL_IDS[0], 0.0, 1024, 16));
                    s.enqueue(SimRequest::new(HOL_IDS[1], 0.0, 64, 16));
                    s.run_to_completion()
                },
            )
        });
        // A lone request must match the roofline's request latency.
        let (prompt, new) = (512, 128);
        let lone = tr.span("server.run_to_completion", 0, |_| {
            ServerSim::with_config(
                0,
                self.dep.clone(),
                CompressionConfig::Fp16,
                ServingConfig::default(),
            )
            .map(|mut s| {
                s.enqueue(SimRequest::new(0, 0.0, prompt, new));
                s.run_to_completion()
            })
        });
        r.wall_s += t.elapsed().as_secs_f64();
        let hol = hol.unwrap_or_default();
        for id in HOL_IDS {
            r.attempted += 1;
            if !hol.iter().any(|c| c.id == id) {
                r.fail(format!(
                    "head-of-line: request {} never completed",
                    if id == HOL_IDS[0] {
                        "1024-token"
                    } else {
                        "64-token"
                    }
                ));
            }
        }
        r.attempted += 1;
        let expect = self
            .dep
            .request_latency(&CompressionConfig::Fp16, 1, prompt, new);
        match lone.ok().as_deref() {
            Some([c]) if ((c.e2e_s - expect) / expect).abs() <= 1e-4 => {}
            other => r.fail(format!(
                "lone request: {other:?} vs request_latency {expect}"
            )),
        }
        r
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, _spans: Range<usize>, out: &mut Metrics) {
        out.push("core.length_predictor_fit_s", self.length_fit_s, "s");
        out.push(
            "core.throughput_predictor_fit_s",
            self.throughput_fit_s,
            "s",
        );
        out.push(
            "workload.conversations_ns_per_req",
            self.sample_ns_per_req,
            "ns",
        );
        out.push(
            "cluster.fp16_share",
            self.ref_fp16_ids.len() as f64 / self.base.len() as f64,
            "ratio",
        );
        let reqs = self.at_rate(REF_RATE);

        // Roofline calls over the stream's lengths.
        let (n, mut acc) = (reqs.len() as u64, 0.0);
        let pre = tr.span("gpu.prefill", 0, |tr| {
            let t0 = tr.now_ns();
            for r in &reqs {
                acc += self.dep.prefill(&self.algo, 1, r.prompt_len).total();
            }
            tr.now_ns() - t0
        });
        let dec = tr.span("gpu.decode_step", 0, |tr| {
            let t0 = tr.now_ns();
            for r in &reqs {
                acc += self
                    .dep
                    .decode_step(&self.algo, MAX_BATCH, r.prompt_len + r.response_len / 2)
                    .total();
            }
            tr.now_ns() - t0
        });
        std::hint::black_box(acc);
        out.push("gpu.prefill_ns", pre as f64 / n as f64, "ns");
        out.push("gpu.decode_step_ns", dec as f64 / n as f64, "ns");

        // Routing decisions against an idle cluster.
        let cluster = Cluster::new(self.servers(), RoutingPolicy::Both).ok();
        if let Some(c) = cluster {
            let ns = tr.span("cluster.route", 0, |tr| {
                let t0 = tr.now_ns();
                let mut sum = 0;
                for r in &reqs {
                    sum += c.route(r, &self.router);
                }
                std::hint::black_box(sum);
                tr.now_ns() - t0
            });
            out.push("core.route_ns", ns as f64 / n as f64, "ns");
        }

        flat_block_replay(tr, &reqs, out);
        self.server_replay(tr, out);
    }
}

/// The flat `BlockManager` path over the stream's lengths, sixteen
/// sequences at a time: register the prompts, append the responses token
/// by token (round-robin, as a decode batch does), free.
fn flat_block_replay(tr: &mut Tracer, reqs: &[SimRequest], out: &mut Metrics) {
    let mut bm = BlockManager::new(1 << 16, 16);
    let (mut reg, mut app, mut free) = (0u64, 0u64, 0u64);
    let (mut tokens, mut seqs) = (0u64, 0u64);
    tr.span("blocks.flat", 0, |tr| {
        for batch in reqs.chunks(MAX_BATCH) {
            let t0 = tr.now_ns();
            for r in batch {
                let _ = bm.register_seq(r.id, r.prompt_len);
            }
            let t1 = tr.now_ns();
            let longest = batch.iter().map(|r| r.response_len).max().unwrap_or(0);
            for step in 0..longest {
                for r in batch.iter().filter(|r| r.response_len > step) {
                    let _ = bm.append_token(r.id);
                    tokens += 1;
                }
            }
            let t2 = tr.now_ns();
            for r in batch {
                let _ = bm.free_seq(r.id);
            }
            let t3 = tr.now_ns();
            reg += t1 - t0;
            app += t2 - t1;
            free += t3 - t2;
            seqs += batch.len() as u64;
        }
    });
    out.push("blocks.register_ns.flat", reg as f64 / seqs as f64, "ns");
    out.push(
        "blocks.append_token_ns.flat",
        app as f64 / tokens as f64,
        "ns",
    );
    out.push("blocks.free_ns.flat", free as f64 / seqs as f64, "ns");
}

impl Serve {
    /// Server 0's share of the reference rung replayed on one server
    /// through `advance_to` / `enqueue` / `step`.
    fn server_replay(&self, tr: &mut Tracer, out: &mut Metrics) {
        let scale = BASE_RPS / REF_RATE;
        let share: Vec<SimRequest> = self
            .ref_fp16_ids
            .iter()
            .map(|&id| {
                let r = &self.base[id as usize];
                SimRequest {
                    arrival_s: r.arrival_s * scale,
                    ..r.clone()
                }
            })
            .collect();
        let Ok(mut sim) = ServerSim::with_config(
            0,
            self.dep.clone(),
            CompressionConfig::Fp16,
            serving_config(),
        ) else {
            return;
        };
        let n = share.len();
        let t0 = tr.now_ns();
        for r in share {
            tr.span("server.advance_to", r.id, |_| sim.advance_to(r.arrival_s));
            tr.span("server.enqueue", r.id, |_| sim.enqueue(r));
        }
        while sim.has_work() {
            if !tr.span("server.step", 0, |_| sim.step()) {
                break;
            }
        }
        let busy = tr.now_ns() - t0;
        let done = sim.completed();
        let col = |f: &dyn Fn(&CompletedRequest) -> f64| done.iter().map(f).collect::<Vec<f64>>();
        let generated: usize = done.iter().map(|c| c.generated).sum();
        let iters = sim.iterations().max(1) as f64;
        out.push("server.step_ns", busy as f64 / iters, "ns");
        out.push("server.batch_mean", generated as f64 / iters, "seqs");
        out.push(
            "server.prefill_p50_s",
            quantile(&col(&|c| c.ttft_s - c.queue_delay_s), 0.5),
            "sim_s",
        );
        out.push(
            "server.decode_p50_s",
            quantile(&col(&|c| c.e2e_s - c.ttft_s), 0.5),
            "sim_s",
        );
        out.push(
            "scheduler.queue_delay_p50_s",
            quantile(&col(&|c| c.queue_delay_s), 0.5),
            "sim_s",
        );
        out.push(
            "scheduler.queue_delay_p99_s",
            quantile(&col(&|c| c.queue_delay_s), 0.99),
            "sim_s",
        );
        let pre: usize = done.iter().map(|c| c.preemptions).sum();
        out.push(
            "scheduler.preemptions_per_kreq",
            pre as f64 * 1000.0 / n.max(1) as f64,
            "1/kreq",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_serving::OraclePredictor;

    /// Each checker catches a corrupted output.
    #[test]
    fn checks_catch_corrupted_outputs() {
        let dep = a6000();
        let algo = CompressionConfig::h2o(64, 448);
        let algo_of = |s: usize| {
            if s == 0 {
                CompressionConfig::Fp16
            } else {
                algo
            }
        };
        let base: Vec<SimRequest> = (0..40)
            .map(|i| {
                let mut r =
                    SimRequest::new(i, i as f64 * 0.2, 300 + 40 * i as usize, 50 + i as usize);
                r.response_len_by_server = vec![r.response_len, 70, 70, 70];
                r
            })
            .collect();
        let servers = (0..4)
            .map(|i| ServerSim::with_config(i, dep.clone(), algo_of(i), serving_config()).unwrap())
            .collect();
        let done = Cluster::new(servers, RoutingPolicy::Both)
            .unwrap()
            .run(base.clone(), &OraclePredictor)
            .unwrap();
        let slo = serving_config().slo;
        let count = |done: &[CompletedRequest]| {
            let mut n = 0;
            check_rung(&dep, algo_of, &slo, &base, done, |_| n += 1);
            n
        };
        assert_eq!(count(&done), 0);
        // One missing completion.
        assert_eq!(count(&done[1..]), 1);
        // One duplicated completion.
        let mut twice = done.clone();
        twice.push(done[0].clone());
        assert_eq!(count(&twice), 1);
        // A wrong token count, a TTFT below the roofline prefill, a wrong
        // SLO verdict.
        for corrupt in [
            |c: &mut CompletedRequest| c.generated += 1,
            |c: &mut CompletedRequest| c.ttft_s = 1e-6,
            |c: &mut CompletedRequest| c.slo_ok = !c.slo_ok,
        ] {
            let mut bad = done.clone();
            corrupt(&mut bad[3]);
            assert_eq!(count(&bad), 1);
        }
    }
}
