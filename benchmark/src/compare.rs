//! `--compare a.json b.json`: is `b` worse than `a` by more than a metric's bound?
//!
//! Each file holds one summary (`run.sh --json`) per line; several lines are several
//! sets of one commit. The value compared is the median over a side's sets. The spread
//! is the distance between the quartiles of a side's set values relative to their
//! median, known once a side has at least four sets; with fewer, a pair can be told
//! regressed but not told unchanged with any confidence, and the table says `n/a`.

use crate::report::{parse_summary, Better, Measured, WorkloadReport, END_TO_END};
use crate::stats::{median, quantile};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Sets a side needs before their own quartiles are taken as the spread.
const SETS_FOR_SPREAD: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// Not worse by more than the bound, but the spread is wider than the bound, so
    /// "unchanged" cannot be told from "changed".
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's value and relative spread for a (workload, metric) pair.
fn side(sets: &[&Measured]) -> (f64, Option<f64>) {
    let values: Vec<f64> = sets.iter().map(|m| m.value).collect();
    let value = median(&values);
    let spread =
        (sets.len() >= SETS_FOR_SPREAD).then(|| quantile(&values, 0.75) - quantile(&values, 0.25));
    (
        value,
        spread.map(|s| s / value.abs().max(f64::MIN_POSITIVE)),
    )
}

/// How much worse `b` is than `a`, as a share of `a` (negative when better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

pub fn verdict(worse_by: f64, spread: Option<f64>, bound: f64) -> Verdict {
    if worse_by > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Reads every summary line of a file.
pub fn read_sets(path: &str) -> Result<Vec<Vec<WorkloadReport>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let sets: Vec<Vec<WorkloadReport>> = text
        .lines()
        .filter(|line| line.trim_start().starts_with('{'))
        .map(|line| parse_summary(line).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<_, _>>()?;
    if sets.is_empty() {
        return Err(format!("{path}: no summary line found"));
    }
    Ok(sets)
}

/// The comparison table and the worst verdict in it. Failed runs, a workload missing on
/// one side and differing trajectory hashes all count as regressed: the first two mean
/// the numbers are not comparable, the last that the arithmetic changed.
pub fn compare(a: &[Vec<WorkloadReport>], b: &[Vec<WorkloadReport>]) -> (String, Verdict) {
    let mut out = String::new();
    let mut worst = Verdict::Ok;
    let mut note = |v: Verdict| {
        if v == Verdict::Regressed || worst == Verdict::Ok {
            worst = v;
        }
    };
    let _ = writeln!(
        out,
        "{:<20} {:<22} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict   (a: {} set(s), b: {} set(s); delta is (b-a)/a)",
        "workload", "metric", "a", "b", "delta", "bound", "spread", a.len(), b.len()
    );
    for workload in &WORKLOADS {
        let of = |sets: &[Vec<WorkloadReport>]| -> Vec<WorkloadReport> {
            sets.iter()
                .filter_map(|set| set.iter().find(|r| r.workload == workload.name).cloned())
                .collect()
        };
        let (ra, rb) = (of(a), of(b));
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(out, "{:<20} missing on one side  regressed", workload.name);
            note(Verdict::Regressed);
            continue;
        }
        let failed: usize = ra.iter().chain(&rb).map(|r| r.failed).sum();
        let incorrect = ra.iter().chain(&rb).any(|r| !r.correct);
        let same_hash = ra
            .iter()
            .chain(&rb)
            .all(|r| r.trajectory_hash == ra[0].trajectory_hash);
        let check = if failed == 0 && !incorrect && same_hash {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        note(check);
        let _ = writeln!(
            out,
            "{:<20} {:<22} {:>12} {:>12} {:>9} {:>7} {:>8}  {}",
            workload.name,
            "trajectory_hash",
            ra[0].trajectory_hash,
            rb[0].trajectory_hash,
            if same_hash { "same" } else { "DIFFERS" },
            "exact",
            format!("fail {failed}"),
            check.name()
        );
        for def in END_TO_END {
            let pick = |reports: &[WorkloadReport]| -> Vec<Measured> {
                reports
                    .iter()
                    .filter_map(|r| r.end_to_end.get(def.name).cloned())
                    .collect()
            };
            let (ma, mb) = (pick(&ra), pick(&rb));
            if ma.is_empty() || mb.is_empty() {
                continue;
            }
            let (va, spread_a) = side(&ma.iter().collect::<Vec<_>>());
            let (vb, spread_b) = side(&mb.iter().collect::<Vec<_>>());
            let spread = match (spread_a, spread_b) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let bound = def.bound.unwrap_or(0.0);
            let worse_by = worsening(va, vb, def.better);
            let v = verdict(worse_by, spread, bound);
            note(v);
            let _ = writeln!(
                out,
                "{:<20} {:<22} {:>12.4} {:>12.4} {:>+8.2}% {:>6.0}% {:>8}  {}",
                workload.name,
                def.name,
                va,
                vb,
                (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                v.name()
            );
        }
    }
    (out, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 112.0, Better::Higher) + 0.12).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdict_orders_regressed_over_unresolved_over_ok() {
        assert_eq!(verdict(0.12, Some(0.02), 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.12, Some(0.30), 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.05, Some(0.30), 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.05, Some(0.02), 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.40, None, 0.10), Verdict::Ok);
    }

    #[test]
    fn spread_is_known_from_four_sets_on() {
        let m = |value: f64| Measured {
            value,
            unit: "ms".to_string(),
            quartiles: Some((value - 20.0, value + 20.0)),
        };
        let one = [m(100.0)];
        let (value, spread) = side(&one.iter().collect::<Vec<_>>());
        assert_eq!((value, spread), (100.0, None));
        let four = [m(98.0), m(100.0), m(102.0), m(104.0)];
        let (value, spread) = side(&four.iter().collect::<Vec<_>>());
        assert_eq!(value, 101.0);
        assert!((spread.unwrap() - 3.0 / 101.0).abs() < 1e-12);
    }
}
