//! `repro`: the quick-scale paper experiments that dominate `repro`
//! wall-clock, each run through `run_by_id` exactly as `repro --scale
//! quick` runs it, with the reproduction's own seed. The workload seed sets
//! the order the experiments run in, so every seed does the same work. One
//! operation is one experiment.

use std::ops::Range;
use std::time::Instant;

use rkvc_core::experiments::{run_by_id, ExperimentResult, RunOptions};
use rkvc_core::report::Table;
use rkvc_tensor::seeded_rng;

use crate::trace::Tracer;
use crate::util::Metrics;
use crate::{Round, Workload};

pub const EXPERIMENTS: [&str; 6] = [
    "table4",
    "table5",
    "fig4",
    "table6",
    "appendix_c",
    "appendix_d",
];

pub struct Repro {
    opts: RunOptions,
    /// Experiment indices in run order.
    order: Vec<usize>,
}

impl Repro {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let opts = RunOptions::quick();
        let mut order: Vec<usize> = (0..EXPERIMENTS.len()).collect();
        seeded_rng(seed).shuffle_slice(&mut order);
        // Warm-up: the cheapest of the round's experiments.
        tr.span("core.exp", 0, |_| run_by_id(EXPERIMENTS[0], &opts));
        Repro { opts, order }
    }
}

fn cell(t: &Table, row: usize, col: usize) -> Result<f64, String> {
    let s = t.rows[row][col].trim_end_matches('%');
    s.parse::<f64>().map_err(|_| {
        format!(
            "{}: cell ({row}, {col}) {:?} is not a number",
            t.title, t.rows[row][col]
        )
    })
}

fn col(t: &Table, name: &str) -> Option<usize> {
    t.headers.iter().position(|h| h == name)
}

/// Output checks that hold for any seed, independent of the numbers the
/// experiment itself reports as its result.
pub fn check_experiment(r: &ExperimentResult) -> Result<(), String> {
    for t in &r.tables {
        // Every share lies in [0, 100] %.
        for (i, row) in t.rows.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                if c.ends_with('%') {
                    let v = cell(t, i, j)?;
                    if !(0.0..=100.0).contains(&v) {
                        return Err(format!("{}: share {c} outside [0, 100] %", t.title));
                    }
                }
            }
        }
        // The FP16 anchor has no length increase.
        if let (Some(fp16), Some(row)) = (
            col(t, "FP16"),
            t.rows
                .iter()
                .position(|r| r[0].starts_with("Length Increase")),
        ) {
            let v = cell(t, row, fp16)?;
            if (v - 1.0).abs() > 0.005 {
                return Err(format!(
                    "{}: FP16 length increase {v}, expected 1.00",
                    t.title
                ));
            }
        }
        // The uncompressed baseline scores 100 on the negative benchmark.
        if t.title.contains("negative benchmark") {
            let base =
                col(t, "Baseline").ok_or_else(|| format!("{}: no Baseline column", t.title))?;
            for row in 0..t.rows.len() {
                let v = cell(t, row, base)?;
                if v != 100.0 {
                    return Err(format!("{}: Baseline scores {v} on row {row}", t.title));
                }
            }
        }
        // Negative-sample counts never rise with the threshold, and a
        // combined (C) set never exceeds any of its members (the columns
        // since the previous combined column).
        if t.headers.first().is_some_and(|h| h == "threshold") {
            let mut members = Vec::new();
            for j in 1..t.headers.len() {
                for row in 1..t.rows.len() {
                    if cell(t, row, j)? > cell(t, row - 1, j)? {
                        return Err(format!(
                            "{}: {} rises with the threshold at row {row}",
                            t.title, t.headers[j]
                        ));
                    }
                }
                if t.headers[j].ends_with("(C)") {
                    for row in 0..t.rows.len() {
                        for &m in &members {
                            if cell(t, row, j)? > cell(t, row, m)? {
                                return Err(format!(
                                    "{}: {} exceeds member {} at row {row}",
                                    t.title, t.headers[j], t.headers[m]
                                ));
                            }
                        }
                    }
                    members.clear();
                } else {
                    members.push(j);
                }
            }
        }
    }
    Ok(())
}

impl Workload for Repro {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut r = Round::default();
        for &i in &self.order {
            let id = EXPERIMENTS[i];
            let t = Instant::now();
            let res = tr.span("core.exp", i as u64, |_| run_by_id(id, &self.opts));
            let dt = t.elapsed().as_secs_f64();
            r.wall_s += dt;
            r.attempted += 1;
            match res.as_ref().map(check_experiment) {
                Some(Ok(())) => {}
                Some(Err(e)) => r.fail(format!("{id}: {e}")),
                None => r.fail(format!("{id}: unknown experiment")),
            }
        }
        r
    }

    fn layer_metrics(&mut self, tr: &mut Tracer, spans: Range<usize>, out: &mut Metrics) {
        for (i, id) in EXPERIMENTS.iter().enumerate() {
            let (ns, _) = tr.total(spans.clone(), "core.exp", |q| q == i as u64);
            out.push(format!("core.exp_s.{id}"), ns as f64 * 1e-9, "s");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rkvc_core::experiments::Scale;
    use rkvc_serving::SchedulerConfig;

    fn table(title: &str, headers: &[&str], rows: &[&[&str]]) -> ExperimentResult {
        let mut t = Table::new(title, headers);
        for r in rows {
            t.push_row(r.iter().map(|s| s.to_string()).collect());
        }
        ExperimentResult {
            id: "x".to_owned(),
            title: "x".to_owned(),
            tables: vec![t],
            notes: vec![],
        }
    }

    /// Each checker catches a corrupted output.
    #[test]
    fn checks_catch_corrupted_outputs() {
        let h = [
            "threshold",
            "KIVI",
            "GEAR",
            "Quant (C)",
            "H2O",
            "Stream",
            "Sparse (C)",
        ];
        let ok = table(
            "counts",
            &h,
            &[
                &["5%", "4", "3", "2", "9", "8", "7"],
                &["10%", "3", "3", "1", "9", "8", "7"],
            ],
        );
        assert_eq!(check_experiment(&ok), Ok(()));
        let rising = table(
            "counts",
            &h,
            &[
                &["5%", "4", "3", "2", "9", "8", "7"],
                &["10%", "5", "3", "1", "9", "8", "7"],
            ],
        );
        assert!(check_experiment(&rising).is_err());
        let combined = table("counts", &h, &[&["5%", "4", "3", "2", "9", "8", "9"]]);
        assert!(check_experiment(&combined).is_err());
        let share = table("shares", &["a", "b"], &[&["x", "100.5%"]]);
        assert!(check_experiment(&share).is_err());
        let neg = table(
            "Table 7: scores on the negative benchmark",
            &["Task", "Baseline"],
            &[&["QA", "99.0"]],
        );
        assert!(check_experiment(&neg).is_err());
        let len = table(
            "t4",
            &["Metric", "FP16"],
            &[&["Length Increase (x)", "1.10"]],
        );
        assert!(check_experiment(&len).is_err());
    }

    #[test]
    fn quick_experiments_pass_on_several_seeds() {
        for seed in [RunOptions::quick().seed, 1] {
            let opts = RunOptions {
                scale: Scale::Quick,
                seed,
                scheduler: SchedulerConfig::Fcfs,
            };
            for id in ["table4", "appendix_d"] {
                let r = run_by_id(id, &opts).unwrap();
                assert_eq!(check_experiment(&r), Ok(()), "{id} seed {seed}");
            }
        }
    }
}
