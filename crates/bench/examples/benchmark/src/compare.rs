//! `--compare`: judge a change against its parent from alternating
//! runs, one result file per run, by the rule every performance claim
//! in this repository is held to.

use crate::report::{Definition, ResultFile};
use crate::stats::{median, quartiles};

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Over at least ten pairs, the change wins at least 9 of 10 and the
    /// medians differ by more than the parent's interquartile spread.
    Gain,
    /// The change's median is no worse than the parent's by more than
    /// the bound.
    NoRegression,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// The parent's own spread exceeds the bound, so no-regression
    /// cannot be shown (unless every change run beats every parent run).
    Unresolved,
}

/// Alternating pairs a gain needs at least.
const MIN_PAIRS: usize = 10;

/// One judged (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub wins: usize,
    pub pairs: usize,
    pub parent_median: f64,
    pub change_median: f64,
    pub verdict: Verdict,
}

/// Judge change runs against parent runs; `parent[i]` and `change[i]`
/// form pair `i`. Ties count for neither side.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (p_med, c_med) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let spread = q3 - q1;
    let worse_by = if lower_is_better {
        c_med - p_med
    } else {
        p_med - c_med
    } / p_med.abs().max(f64::MIN_POSITIVE);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && better(c_med, p_med)
        && (c_med - p_med).abs() > spread
    {
        Verdict::Gain
    } else if spread / p_med.abs().max(f64::MIN_POSITIVE) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::NoRegression
    };
    Judgement {
        wins,
        pairs,
        parent_median: p_med,
        change_median: c_med,
        verdict,
    }
}

/// Print one row per (workload, end-to-end metric), then the failed
/// fraction per workload, compared exactly.
pub fn run(def: &Definition, parent: &[ResultFile], change: &[ResultFile]) {
    for w in &def.workloads {
        for m in &def.end_to_end {
            let values = |files: &[ResultFile]| -> Vec<f64> {
                files
                    .iter()
                    .flat_map(|f| &f.workloads)
                    .filter(|r| r.workload == w.name && !r.trace)
                    .filter_map(|r| r.metrics.get(&m.name).map(|x| x.value))
                    .collect()
            };
            let (p, c) = (values(parent), values(change));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let j = judge(&p, &c, m.better == "lower", m.bound);
            let (pq1, pq3) = quartiles(&p);
            let (cq1, cq3) = quartiles(&c);
            println!(
                "{} {} parent {:.6} [{pq1:.6}, {pq3:.6}] change {:.6} [{cq1:.6}, {cq3:.6}] \
                 wins {}/{} bound {} -> {:?}",
                w.name,
                m.name,
                j.parent_median,
                j.change_median,
                j.wins,
                j.pairs,
                m.bound,
                j.verdict
            );
        }
        let failed = |files: &[ResultFile]| -> Option<(u64, u64)> {
            let rs: Vec<_> = files
                .iter()
                .flat_map(|f| &f.workloads)
                .filter(|r| r.workload == w.name)
                .collect();
            (!rs.is_empty()).then(|| {
                (
                    rs.iter().map(|r| r.failed).sum(),
                    rs.iter().map(|r| r.attempted).sum(),
                )
            })
        };
        if let (Some((pf, pa)), Some((cf, ca))) = (failed(parent), failed(change)) {
            // Cross-multiplied so equal fractions compare exactly.
            let verdict =
                match (u128::from(cf) * u128::from(pa)).cmp(&(u128::from(pf) * u128::from(ca))) {
                    std::cmp::Ordering::Equal => "same",
                    std::cmp::Ordering::Less => "fewer failures",
                    std::cmp::Ordering::Greater => "more failures (no gain counts)",
                };
            println!(
                "{} failed_frac parent {pf}/{pa} change {cf}/{ca} -> {verdict}",
                w.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_win_is_a_gain() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let j = judge(&parent, &change, true, 0.1);
        assert_eq!((j.wins, j.pairs, j.verdict), (10, 10, Verdict::Gain));
        // Higher-is-better reads the same data the other way round.
        assert_eq!(judge(&change, &parent, false, 0.1).verdict, Verdict::Gain);
    }

    #[test]
    fn fewer_than_ten_pairs_is_never_a_gain() {
        let parent = [10.0; 9];
        let change = [5.0; 9];
        let j = judge(&parent, &change, true, 0.1);
        assert_eq!((j.wins, j.verdict), (9, Verdict::NoRegression));
    }

    #[test]
    fn eight_wins_of_ten_is_not_a_gain() {
        let parent = [10.0; 10];
        let mut change = [9.0; 10];
        change[0] = 10.5;
        change[1] = 10.5;
        let j = judge(&parent, &change, true, 0.1);
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::NoRegression);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [10.0; 10];
        let j = judge(&parent, &parent, true, 0.1);
        assert_eq!((j.wins, j.verdict), (0, Verdict::NoRegression));
    }

    #[test]
    fn win_inside_the_parent_spread_is_not_a_gain() {
        let parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p - 0.2).collect();
        let j = judge(&parent, &change, true, 0.5);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::NoRegression);
    }

    #[test]
    fn regression_past_the_bound() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            judge(&parent, &change, true, 0.1).verdict,
            Verdict::Regression
        );
        // Within the bound it is no regression.
        let change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(
            judge(&parent, &change, true, 0.1).verdict,
            Verdict::NoRegression
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [6.0, 14.0, 7.0, 13.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.02).collect();
        assert_eq!(
            judge(&parent, &change, true, 0.1).verdict,
            Verdict::Unresolved
        );
        // Unless every change run beats every parent run: then it is no
        // regression even where the medians differ by less than the
        // spread (4.1 < 4.5 here), and a gain where they differ by more.
        let change = [5.9; 10];
        assert_eq!(
            judge(&parent, &change, true, 0.1).verdict,
            Verdict::NoRegression
        );
        let change = [5.0; 10];
        assert_eq!(judge(&parent, &change, true, 0.1).verdict, Verdict::Gain);
    }
}
