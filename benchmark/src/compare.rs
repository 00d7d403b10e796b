//! `compare a.json b.json`: judges result set `b` against baseline `a`
//! with the bounds of `BENCHMARK.json`, one row per (metric, workload).

use crate::json::{self, Value};
use crate::metrics::Contract;
use crate::stats;

/// `fail_share` may rise by this much, absolutely, before it counts.
const FAIL_SHARE_BOUND: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the baseline by more than the bound.
    Pass,
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// The medians cannot be told apart: either side's run-to-run spread
    /// is wider than the bound, or a difference beyond the bound rests on
    /// a single set a side, whose spread is unknown. Not a pass.
    Unresolved,
}

/// One (metric, workload) judgement.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub base: f64,
    pub new: f64,
    /// How much worse `new` is, as a share of `base` (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads; `None` when a side
    /// has a single set.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judges the medians of `new` against `base`.
pub fn judge(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Row {
    let (b, n) = (stats::median(base), stats::median(new));
    let change = if b == 0.0 { 0.0 } else { (n - b) / b.abs() };
    let worse_by = if lower_is_better { change } else { -change };
    let spread = (base.len() > 1 && new.len() > 1)
        .then(|| stats::quartile_spread(base).max(stats::quartile_spread(new)));
    let verdict = match spread {
        Some(spread) if spread > bound => Verdict::Unresolved,
        None if worse_by > bound => Verdict::Unresolved,
        _ if worse_by > bound => Verdict::Regressed,
        _ => Verdict::Pass,
    };
    Row {
        base: b,
        new: n,
        worse_by,
        spread,
        verdict,
    }
}

/// Every set's value of one workload's metric in a results document;
/// `metric == "fail_share"` reads the workload's own field.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let sets = doc.get("sets").and_then(Value::as_arr).unwrap_or_default();
    sets.iter()
        .filter_map(|set| {
            let w = set
                .get("workloads")?
                .as_arr()?
                .iter()
                .find(|w| w.get("workload").and_then(Value::as_str) == Some(workload))?;
            if metric == "fail_share" {
                return w.get("fail_share")?.as_f64();
            }
            w.get("e2e")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(false)` when any row regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare <baseline.json> <new.json>".into());
    };
    let (base, new) = (load(a)?, load(b)?);
    let contract = Contract::load();
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "worse by", "spread", "bound"
    );
    let mut regressed = false;
    for workload in &contract.workloads {
        for def in &contract.end_to_end {
            let bound = def.bound.unwrap_or(0.0);
            let (va, vb) = (
                values(&base, workload, &def.name),
                values(&new, workload, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<14} {:<18} missing from one side", def.name);
                regressed = true;
                continue;
            }
            let row = judge(&va, &vb, def.lower_is_better, bound);
            regressed |= row.verdict == Verdict::Regressed;
            println!(
                "{workload:<14} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>8} {:>5.1}%  {:?}",
                def.name,
                row.base,
                row.new,
                row.worse_by * 100.0,
                row.spread
                    .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
                bound * 100.0,
                row.verdict
            );
        }
        let (fa, fb) = (
            stats::median(&values(&base, workload, "fail_share")),
            stats::median(&values(&new, workload, "fail_share")),
        );
        let failed_more = fb - fa > FAIL_SHARE_BOUND;
        regressed |= failed_more;
        println!(
            "{workload:<14} {:<18} {fa:>14.6} {fb:>14.6} {:>+9.6} (absolute, bound {FAIL_SHARE_BOUND})  {}",
            "fail_share",
            fb - fa,
            if failed_more { "Regressed" } else { "Pass" }
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_inputs() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: 4 % slower passes a 5 % bound, 8 % does not.
        let slower = |by: f64| steady.map(|v| v * (1.0 + by));
        assert_eq!(
            judge(&steady, &slower(0.04), true, 0.05).verdict,
            Verdict::Pass
        );
        assert_eq!(
            judge(&steady, &slower(0.08), true, 0.05).verdict,
            Verdict::Regressed
        );
        // Faster is never a regression, whatever the size.
        assert_eq!(
            judge(&steady, &slower(-0.5), true, 0.05).verdict,
            Verdict::Pass
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&steady, &slower(0.08), false, 0.05).verdict,
            Verdict::Pass
        );
        assert_eq!(
            judge(&steady, &slower(-0.08), false, 0.05).verdict,
            Verdict::Regressed
        );
        let row = judge(&steady, &slower(-0.08), false, 0.05);
        assert!((row.worse_by - 0.08).abs() < 1e-9);
        // A side noisier than the bound cannot pass, better or worse.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&steady, &noisy, true, 0.05).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &steady, true, 0.05).verdict,
            Verdict::Unresolved
        );
        // One set a side: the spread is unknown, so a difference beyond
        // the bound proves nothing either way.
        assert_eq!(judge(&[100.0], &[103.0], true, 0.05).verdict, Verdict::Pass);
        let lone = judge(&[100.0], &[106.0], true, 0.05);
        assert_eq!((lone.verdict, lone.spread), (Verdict::Unresolved, None));
    }

    #[test]
    fn values_are_read_per_set() {
        let doc = json::parse(
            r#"{"sets": [
                {"seed": 1, "workloads": [{"workload": "churn", "fail_share": 0,
                  "e2e": {"metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}}]},
                {"seed": 2, "workloads": [{"workload": "churn", "fail_share": 0.25,
                  "e2e": {"metrics": {"setup_s": {"value": 0.7, "unit": "s"}}}}]}]}"#,
        )
        .unwrap();
        assert_eq!(values(&doc, "churn", "setup_s"), vec![0.5, 0.7]);
        assert_eq!(values(&doc, "churn", "fail_share"), vec![0.0, 0.25]);
        assert!(values(&doc, "read_hot", "setup_s").is_empty());
    }
}
