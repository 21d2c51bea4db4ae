//! `fleet`: the `FleetWorkloadConfig::assistants` traffic (16 system-prompt
//! groups; Interactive/Standard/Batch classes) on a diurnal schedule,
//! scaled to hundreds of thousands of requests, through `Fleet::run` with
//! consistent-hash sharding and the autoscaler, at a load the autoscaled
//! fleet serves without a growing backlog. One operation is one simulated
//! request.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use rkvc_kvcache::CompressionConfig;
use rkvc_serving::{
    jump_hash, prefix_hash_chain, shard_key, AutoscaleConfig, BlockManager, CompletedRequest,
    Fleet, FleetConfig, FleetOutcome, FleetTelemetry, ServingConfig, ShardPolicy, SimRequest,
    SloTargets,
};
use rkvc_workload::{sample_fleet, ArrivalPattern, FleetWorkloadConfig};

use crate::serve::a6000;
use crate::trace::Tracer;
use crate::util::{quantile, Metrics};
use crate::{Round, Workload};

const N_REQUESTS: usize = 200_000;
const PATTERN: ArrivalPattern = ArrivalPattern::Diurnal {
    base_rps: 4.0,
    peak_rps: 24.0,
    period_s: 120.0,
};
const EPOCH_S: f64 = 5.0;
const BLOCK_TOKENS: usize = 16;

fn fleet_config() -> FleetConfig {
    FleetConfig {
        replicas: 8,
        sharding: ShardPolicy::ConsistentHash,
        epoch_s: EPOCH_S,
        serving: ServingConfig {
            max_batch: 12,
            block_tokens: BLOCK_TOKENS,
            pool_tokens: Some(8192),
            prefix_sharing: true,
            ..ServingConfig::default()
        },
        autoscale: Some(AutoscaleConfig {
            min_replicas: 4,
            max_replicas: 24,
            queue_high: 4.0,
            queue_low: 0.5,
            p99_ttft_high_s: 8.0,
            cooldown_epochs: 1,
            step: 4,
        }),
    }
}

pub struct FleetLoad {
    requests: Vec<SimRequest>,
    sample_ns_per_req: f64,
    /// Layer figures of the last round's run.
    last: Metrics,
}

impl FleetLoad {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let t = Instant::now();
        let requests = tr.span("workload.sample_fleet", 0, |_| {
            sample_fleet(&FleetWorkloadConfig::assistants(
                N_REQUESTS,
                PATTERN,
                seed ^ 0xF1EE7,
            ))
        });
        let sample_ns_per_req = t.elapsed().as_nanos() as f64 / N_REQUESTS as f64;
        // Warm-up: the first fifth of the stream.
        let warm = requests[..N_REQUESTS / 5].to_vec();
        tr.span("fleet.run", 0, |_| run_fleet(warm)).ok();
        FleetLoad {
            requests,
            sample_ns_per_req,
            last: Metrics::default(),
        }
    }
}

fn run_fleet(requests: Vec<SimRequest>) -> Result<FleetOutcome, String> {
    Fleet::new(a6000(), CompressionConfig::Fp16, fleet_config())
        .and_then(|f| f.run(requests))
        .map_err(|e| e.to_string())
}

/// Index of the telemetry frame under which a request arriving at `t` was
/// dispatched: the first epoch boundary past its arrival.
fn frame_of(frames: &[FleetTelemetry], t: f64) -> usize {
    frames.partition_point(|f| f.time_s <= t)
}

/// Output checks over one fleet run, independent of its own summaries:
/// every request completes exactly once with TTFT <= E2E and a correct
/// `slo_ok`, and between scaling actions every request of a prefix group
/// lands on one replica. Calls `fail` once per failed request.
pub fn check_outcome(
    requests: &[SimRequest],
    o: &FleetOutcome,
    slo: &SloTargets,
    mut fail: impl FnMut(String),
) {
    let mut by_id: Vec<Option<&CompletedRequest>> = vec![None; requests.len()];
    for c in &o.completed {
        match by_id.get_mut(c.id as usize) {
            Some(slot @ None) => *slot = Some(c),
            Some(Some(_)) => fail(format!("request {} completed twice", c.id)),
            None => fail(format!("unknown request id {}", c.id)),
        }
    }
    // Scaling segment of each frame: bumps whenever the active count moves.
    let mut segment = Vec::with_capacity(o.telemetry.len());
    for (i, f) in o.telemetry.iter().enumerate() {
        let moved = i > 0 && f.active_replicas != o.telemetry[i - 1].active_replicas;
        segment.push(segment.last().copied().unwrap_or(0) + moved as usize);
    }
    let mut owner: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for (req, c) in requests.iter().zip(&by_id) {
        let Some(c) = c else {
            fail(format!("request {} never completed", req.id));
            continue;
        };
        if c.ttft_s > c.e2e_s || c.ttft_s.is_nan() || c.e2e_s.is_nan() {
            fail(format!(
                "request {}: ttft {} > e2e {}",
                c.id, c.ttft_s, c.e2e_s
            ));
        } else if c.slo_ok != slo.target(c.slo).met(c.ttft_s, c.tbot_s()) {
            fail(format!(
                "request {}: slo_ok {} disagrees with the targets",
                c.id, c.slo_ok
            ));
        } else {
            let seg = segment
                .get(frame_of(&o.telemetry, req.arrival_s))
                .copied()
                .unwrap_or(usize::MAX);
            let first = *owner.entry((seg, req.prefix_group)).or_insert(c.server_id);
            if first != c.server_id {
                fail(format!(
                    "request {}: group {} on replica {} and {first} between scaling actions",
                    c.id, req.prefix_group, c.server_id
                ));
            }
        }
    }
}

impl Workload for FleetLoad {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        let t = Instant::now();
        let reqs = self.requests.clone();
        let out = tr.span("fleet.run", 1, |_| run_fleet(reqs));
        r.wall_s = t.elapsed().as_secs_f64();
        r.attempted = self.requests.len() as u64;
        let o = match out {
            Ok(o) => o,
            Err(e) => {
                r.failed = r.attempted;
                r.errors.push(e);
                return r;
            }
        };
        check_outcome(&self.requests, &o, &fleet_config().serving.slo, |e| {
            r.fail(e)
        });
        let ttft: Vec<f64> = o.completed.iter().map(|c| c.ttft_s).collect();
        let tbt: Vec<f64> = o.completed.iter().map(|c| c.tbot_s()).collect();
        r.outcome
            .push("sim_ttft_p50_s", quantile(&ttft, 0.5), "sim_s");
        r.outcome
            .push("sim_ttft_p99_s", quantile(&ttft, 0.99), "sim_s");
        r.outcome
            .push("sim_tbt_p99_s", quantile(&tbt, 0.99), "sim_s");
        r.outcome
            .push("sim_goodput_tok_s", o.slo.goodput_tps, "tok/sim_s");
        r.outcome.push("sim_dedup_ratio", o.dedup_ratio, "ratio");
        self.last = self.run_figures(&o, r.wall_s);
        r
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, _spans: Range<usize>, out: &mut Metrics) {
        out.0.extend(self.last.0.iter().cloned());
        out.push("workload.fleet_ns_per_req", self.sample_ns_per_req, "ns");

        // Jump hashing over the stream's shard keys at every fleet width.
        let keys: Vec<u64> = self.requests.iter().map(shard_key).collect();
        let ns = tr.span("shard.jump_hash", 0, |tr| {
            let t0 = tr.now_ns();
            let mut sum = 0usize;
            for (i, k) in keys.iter().enumerate() {
                sum += jump_hash(*k, 4 + i % 21);
            }
            std::hint::black_box(sum);
            tr.now_ns() - t0
        });
        out.push("shard.jump_hash_ns", ns as f64 / keys.len() as f64, "ns");
        shared_block_replay(tr, &self.requests[..N_REQUESTS / 10], out);
    }
}

impl FleetLoad {
    /// Fleet, scaling and sharding figures of one run that took `wall_s`.
    fn run_figures(&self, o: &FleetOutcome, wall_s: f64) -> Metrics {
        let mut out = Metrics::default();
        let actions = o
            .telemetry
            .windows(2)
            .filter(|w| w[0].active_replicas != w[1].active_replicas)
            .count();
        out.push("fleet.epochs", o.epochs as f64, "count");
        out.push(
            "fleet.ns_per_epoch",
            wall_s * 1e9 / o.epochs.max(1) as f64,
            "ns",
        );
        out.push("fleet.peak_replicas", o.peak_replicas as f64, "count");
        out.push("scaling.actions", actions as f64, "count");
        // Share of requests served where the previous request of their
        // prefix group was served (the replica already holding the prefix).
        let mut last: BTreeMap<u64, usize> = BTreeMap::new();
        let (mut hits, mut follows) = (0u64, 0u64);
        let mut order: Vec<&CompletedRequest> = o.completed.iter().collect();
        order.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        for c in order {
            let group = self.requests[c.id as usize].prefix_group;
            if let Some(prev) = last.insert(group, c.server_id) {
                follows += 1;
                hits += (prev == c.server_id) as u64;
            }
        }
        out.push(
            "shard.prefix_affinity",
            hits as f64 / follows.max(1) as f64,
            "ratio",
        );
        out
    }
}

/// The prefix-sharing `BlockManager` path over the stream's lengths,
/// twelve sequences at a time: register against the group's prefix hash
/// chain, append the responses token by token (copy-on-write into shared
/// tails), free.
fn shared_block_replay(tr: &mut Tracer, reqs: &[SimRequest], out: &mut Metrics) {
    let mut chains: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in reqs {
        chains.entry(r.prefix_group).or_insert_with(|| {
            prefix_hash_chain(r.prefix_group, BLOCK_TOKENS, r.prefix_len / BLOCK_TOKENS)
        });
    }
    let mut bm = BlockManager::new(1 << 16, BLOCK_TOKENS);
    let (mut reg, mut app, mut free) = (0u64, 0u64, 0u64);
    let (mut tokens, mut seqs) = (0u64, 0u64);
    tr.span("blocks.shared", 0, |tr| {
        for batch in reqs.chunks(12) {
            let t0 = tr.now_ns();
            for r in batch {
                let _ = bm.register_seq_shared(r.id, r.prompt_len, &chains[&r.prefix_group]);
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
    out.push("blocks.register_shared_ns", reg as f64 / seqs as f64, "ns");
    out.push(
        "blocks.append_token_ns.shared",
        app as f64 / tokens as f64,
        "ns",
    );
    out.push("blocks.free_ns.shared", free as f64 / seqs as f64, "ns");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each checker catches a corrupted output.
    #[test]
    fn checks_catch_corrupted_outputs() {
        let reqs = sample_fleet(&FleetWorkloadConfig::assistants(3000, PATTERN, 5));
        let o = run_fleet(reqs.clone()).unwrap();
        let slo = fleet_config().serving.slo;
        let count = |o: &FleetOutcome| {
            let mut n = 0;
            check_outcome(&reqs, o, &slo, |_| n += 1);
            n
        };
        assert_eq!(count(&o), 0);
        // One missing completion.
        let mut bad = o.clone();
        bad.completed.pop();
        assert_eq!(count(&bad), 1);
        // TTFT past E2E.
        let mut bad = o.clone();
        bad.completed[0].ttft_s = bad.completed[0].e2e_s + 1.0;
        assert_eq!(count(&bad), 1);
        // A wrong SLO verdict.
        let mut bad = o.clone();
        bad.completed[1].slo_ok = !bad.completed[1].slo_ok;
        assert_eq!(count(&bad), 1);
        // A group split across replicas.
        let mut bad = o.clone();
        let g = reqs[bad.completed[2].id as usize].prefix_group;
        let other = bad
            .completed
            .iter()
            .skip(3)
            .position(|c| reqs[c.id as usize].prefix_group == g)
            .unwrap()
            + 3;
        bad.completed[other].server_id += 1;
        assert!(count(&bad) >= 1);
    }
}
