//! End-to-end benchmark of the model and serving paths.
//!
//! ```text
//! rkvc-perf --workload gen|repro|serve|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`): runs whole rounds of the workload's operations
//! for `--seconds`, checking every output, and sets the workload up five
//! times between the first rounds (the median is `setup_s`); prints the
//! end-to-end metrics.
//!
//! Traced (`--trace 1`): alternates untraced and traced rounds of the named
//! workload for `--seconds` (their difference is the tracing overhead),
//! then runs one traced round of every other workload and the layer
//! replays, so every traced run yields every per-layer metric. Spans are
//! written to `perf/out/trace-<workload>-<seed>.json`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fleet;
mod gen;
mod repro;
mod serve;
mod trace;
mod util;

use std::time::Instant;

use trace::Tracer;
use util::{median, Metrics};

/// What one round of a workload did.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted: generate calls, experiments or simulated
    /// requests.
    pub attempted: u64,
    /// Operations whose output failed a check (or that never completed).
    pub failed: u64,
    /// Host seconds spent in the measured calls.
    pub wall_s: f64,
    /// Workload outcome metrics (tokens/s, simulated latencies, ...).
    pub outcome: Metrics,
    /// The first few check failures, for the log.
    pub errors: Vec<String>,
}

impl Round {
    /// Records a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// A benchmark workload: inputs built once in set-up, then rounds of the
/// same operations.
pub trait Workload {
    fn round(&mut self, tr: &mut Tracer) -> Round;

    /// Per-layer metrics of a traced round whose spans are `spans`, plus
    /// the replays of the layers whose inputs this workload owns.
    fn layer_metrics(&mut self, tr: &mut Tracer, spans: std::ops::Range<usize>, out: &mut Metrics);
}

const WORKLOADS: [&str; 4] = ["gen", "repro", "serve", "fleet"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
    match name {
        "gen" => Box::new(gen::Gen::setup(seed, tr)),
        "repro" => Box::new(repro::Repro::setup(seed, tr)),
        "serve" => Box::new(serve::Serve::setup(seed, tr)),
        "fleet" => Box::new(fleet::FleetLoad::setup(seed, tr)),
        _ => unreachable!("workload names are validated in main"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: rkvc-perf --workload gen|repro|serve|fleet --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match k.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = v == "1",
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) || a.seconds.is_nan() || a.seconds <= 0.0 {
        usage();
    }
    a
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

fn log_round(name: &str, i: usize, r: &Round) {
    eprintln!(
        "[{name}] round {i}: {:.3} s, {} attempted, {} failed, peak rss {:.1} MB",
        r.wall_s,
        r.attempted,
        r.failed,
        util::peak_rss_mb()
    );
    for e in &r.errors {
        eprintln!("[{name}]   check failed: {e}");
    }
}

fn run_untraced(a: &Args) {
    // Set-ups are spread between the first rounds (and any left over run
    // after the last one), so a slow spell of the host does not land on
    // all of them; each replaces the previous instance.
    let mut tr = Tracer::new(false);
    let mut setups = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    let set_up = |w: &mut Option<Box<dyn Workload>>, setups: &mut Vec<f64>| {
        drop(w.take());
        let t = Instant::now();
        *w = Some(setup(&a.workload, a.seed, &mut Tracer::new(false)));
        setups.push(t.elapsed().as_secs_f64());
        eprintln!(
            "[{}] set-up {:.3} s, peak rss {:.1} MB",
            a.workload,
            setups[setups.len() - 1],
            util::peak_rss_mb()
        );
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    loop {
        if setups.len() < SETUP_REPEATS {
            set_up(&mut w, &mut setups);
        }
        let wl = w.as_mut().unwrap_or_else(|| unreachable!());
        let t = Instant::now();
        let r = wl.round(&mut tr);
        let last = t.elapsed().as_secs_f64();
        measured += last;
        log_round(&a.workload, rounds.len(), &r);
        rounds.push(r);
        if measured + last > a.seconds {
            break;
        }
    }
    while setups.len() < SETUP_REPEATS {
        set_up(&mut w, &mut setups);
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    // Outcome metrics go to the log: they are per-workload, and the
    // traced run reports them as per-layer numbers.
    for (n, v, u) in &rounds[rounds.len() - 1].outcome.0 {
        eprintln!("[{}] {n} = {v:.6} {u}", a.workload);
    }
    let mut m = Metrics::default();
    m.push("setup_s", median(&setups), "s");
    m.push("wall_s", median(&walls), "s");
    m.push("peak_rss_mb", util::peak_rss_mb(), "MB");
    eprintln!(
        "[{}] {} rounds, set-ups {:?} s, available_parallelism {}, RKVC_THREADS {}",
        a.workload,
        rounds.len(),
        setups,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rkvc_tensor::par::num_threads()
    );
    let correct = m.0.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    print_result(correct, attempted, failed, &m);
}

fn run_traced(a: &Args) {
    let mut tr = Tracer::new(true);
    let mut layers = Metrics::default();
    let mut coverage = Metrics::default();
    // Only the named workload's rounds count as operations, so a traced
    // run fails the same share of operations as that workload's untraced
    // runs; the other workloads' rounds still run every check (logged).
    let (mut attempted, mut failed) = (0u64, 0u64);
    let order = std::iter::once(a.workload.as_str())
        .chain(WORKLOADS.iter().copied().filter(|w| *w != a.workload));
    for name in order {
        let mut w = setup(name, a.seed, &mut tr);
        let traced_round = |w: &mut dyn Workload, tr: &mut Tracer| {
            tr.set_on(true);
            let first = tr.spans().len();
            let r = w.round(tr);
            (first..tr.spans().len(), r)
        };
        let (spans, r) = if name == a.workload {
            // Alternate untraced and traced rounds; the difference of their
            // median walls is the tracing overhead.
            let mut last;
            let mut walls = (Vec::new(), Vec::new());
            let start = Instant::now();
            loop {
                let pair = Instant::now();
                tr.set_on(false);
                let u = w.round(&mut tr);
                log_round(name, walls.0.len(), &u);
                walls.0.push(u.wall_s);
                attempted += u.attempted;
                failed += u.failed;
                let (spans, t) = traced_round(w.as_mut(), &mut tr);
                log_round(name, walls.1.len(), &t);
                walls.1.push(t.wall_s);
                attempted += t.attempted;
                failed += t.failed;
                last = (spans, t);
                if start.elapsed().as_secs_f64() + pair.elapsed().as_secs_f64() > a.seconds {
                    break;
                }
            }
            let overhead = median(&walls.1) / median(&walls.0) - 1.0;
            eprintln!("[{name}] tracing overhead {:.2}%", overhead * 100.0);
            layers.push("trace.overhead_pct", overhead * 100.0, "%");
            last
        } else {
            let (spans, r) = traced_round(w.as_mut(), &mut tr);
            log_round(name, 0, &r);
            (spans, r)
        };
        let cov = tr.top_level_ns(spans.clone()) as f64 * 1e-9 / r.wall_s;
        eprintln!(
            "[{name}] top-level spans cover {:.1}% of the round",
            cov * 100.0
        );
        coverage.push(format!("trace.coverage_pct.{name}"), cov * 100.0, "%");
        for (n, v, u) in &r.outcome.0 {
            layers.push(format!("{name}.{n}"), *v, u);
        }
        w.layer_metrics(&mut tr, spans, &mut layers);
    }
    layers.0.extend(coverage.0);

    let (by_layer, by_name) = tr.self_time_report();
    eprintln!("self time by layer (s):");
    for (l, s) in &by_layer {
        eprintln!("  {l:<10} {s:>10.4}");
    }
    eprintln!("self time by call (count, s):");
    for (n, (c, s)) in &by_name {
        eprintln!("  {n:<32} {c:>9} {s:>10.4}");
    }
    let dir = std::path::Path::new("perf/out");
    let path = dir.join(format!("trace-{}-{}.json", a.workload, a.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    let correct = layers.0.iter().all(|(_, v, _)| v.is_finite());
    print_result(correct, attempted, failed, &layers);
}

fn main() {
    let a = parse_args();
    if a.trace {
        run_traced(&a);
    } else {
        run_untraced(&a);
    }
}
