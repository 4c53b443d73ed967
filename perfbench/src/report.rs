//! Aggregation of measured passes into the named metrics, and the output
//! line the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("falsify_s", "s"),
    ("verify_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("models.build_s", "s"),
    ("scenarios.generate_s", "s"),
    ("dsl.parse_s", "s"),
    ("dsl.parse_p50_ms", "ms"),
    ("ts.encode_s", "s"),
    ("ts.frame_ms", "ms"),
    ("ts.frame_clauses", "count"),
    ("ts.frame_vars", "count"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.learnt_clauses", "count"),
    ("bdd.fixpoint_s", "s"),
    ("bdd.nodes_allocated", "count"),
    ("bdd.peak_live_nodes", "count"),
    ("bdd.ite_hit_rate", "ratio"),
    ("bdd.sifts", "count"),
    ("mc.certify_s", "s"),
    ("mc.replay_s", "s"),
    ("mc.self_s", "s"),
    ("mc.fixpoint_iterations", "count"),
    ("mc.max_depth", "count"),
    ("mc.synth_s", "s"),
    ("mc.assignment_ms", "ms"),
    ("server.submit_ms", "ms"),
    ("server.wait_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.waits_over_100ms", "count"),
    ("server.hedges_launched", "count"),
    ("server.hedges_won", "count"),
    ("server.jobs_rejected", "count"),
    ("journal.appends", "count"),
    ("journal.group_commits", "count"),
    ("journal.fsyncs", "count"),
    ("journal.appends_per_fsync", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The highest percentile of `v` with at least ten samples beyond it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// How many samples it was taken over.
    pub samples: usize,
}

/// [`Tail`] of `v`; with ten samples or fewer, the smallest one.
pub fn tail(v: &[f64]) -> Tail {
    if v.is_empty() {
        return Tail::default();
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = s.len().saturating_sub(11);
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / s.len() as f64,
        samples: s.len(),
    }
}

/// One pass over a batch workload's fixed job set.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Milliseconds from the pass start to each verdict's delivery.
    pub verdict_ms: Vec<f64>,
    /// Seconds spent in the pass's falsification checks.
    pub falsify_s: f64,
    /// Seconds spent in the pass's verification checks.
    pub verify_s: f64,
    /// Verdicts attempted.
    pub attempted: u64,
    /// Verdicts wrong or undecided.
    pub failed: u64,
    /// Every verdict's tag (`safe`, `unsafe`, `unknown`), in job order.
    pub verdicts: Vec<&'static str>,
}

/// The end-to-end figures of one set of passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Falsification seconds per pass.
    pub falsify_s: f64,
    /// Verification seconds per pass.
    pub verify_s: f64,
    /// Correct verdicts per second.
    pub verdicts_per_s: f64,
    /// Median time to verdict, in ms.
    pub p50_ms: f64,
    /// Tail time to verdict, in ms.
    pub tail: Tail,
    /// Passes measured.
    pub passes: f64,
    /// Measured seconds.
    pub window_s: f64,
}

impl EndToEnd {
    /// Aggregates batch passes: work per second and seconds per pass over
    /// all of them. A pass submits its whole job set at once, so a
    /// verdict's latency is its time from the pass start: the p50 is the
    /// median over passes of each pass's median verdict time, and the
    /// tail is the median over passes of the time to each pass's last
    /// verdict. (Percentiles pooled over passes would jump between
    /// checks of different size as the pass count changes.)
    pub fn from_passes(setup: &[f64], passes: &[&Pass]) -> EndToEnd {
        let n = passes.len().max(1) as f64;
        let window_s: f64 = passes.iter().map(|p| p.wall_s).sum();
        let verdicts: u64 = passes.iter().map(|p| p.attempted - p.failed).sum();
        let per_pass = |f: fn(&[f64]) -> f64| -> f64 {
            median(&passes.iter().map(|p| f(&p.verdict_ms)).collect::<Vec<_>>())
        };
        EndToEnd {
            setup_s: median(setup),
            falsify_s: passes.iter().map(|p| p.falsify_s).sum::<f64>() / n,
            verify_s: passes.iter().map(|p| p.verify_s).sum::<f64>() / n,
            verdicts_per_s: verdicts as f64 / window_s.max(1e-9),
            p50_ms: per_pass(median),
            tail: Tail {
                value: per_pass(|v| v.iter().copied().fold(0.0, f64::max)),
                percentile: 100.0,
                samples: passes.len(),
            },
            passes: passes.len() as f64,
            window_s,
        }
    }

    /// The figures as on the reference host: times multiplied by `scale`
    /// ([`crate::probe::Summary::scale`]), the rate divided by it.
    pub fn scaled(&self, scale: f64) -> EndToEnd {
        EndToEnd {
            setup_s: self.setup_s * scale,
            falsify_s: self.falsify_s * scale,
            verify_s: self.verify_s * scale,
            verdicts_per_s: self.verdicts_per_s / scale,
            p50_ms: self.p50_ms * scale,
            tail: Tail {
                value: self.tail.value * scale,
                ..self.tail
            },
            ..*self
        }
    }

    /// The seven end-to-end metrics by name.
    pub fn metrics(&self, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", self.setup_s),
            ("falsify_s", self.falsify_s),
            ("verify_s", self.verify_s),
            ("verdicts_per_s", self.verdicts_per_s),
            ("verdict_p50_ms", self.p50_ms),
            ("verdict_tail_ms", self.tail.value),
            ("peak_rss_mb", peak_rss_mb),
        ])
    }

    /// One human-readable line.
    pub fn describe(&self, label: &str) -> String {
        format!(
            "{label}: {:.0} pass(es) in {:.2} s; setup {:.4} s, falsify {:.4} s/pass, \
             verify {:.4} s/pass, {:.2} verdicts/s, p50 {:.2} ms, \
             p{:.2} {:.2} ms over {} samples",
            self.passes,
            self.window_s,
            self.setup_s,
            self.falsify_s,
            self.verify_s,
            self.verdicts_per_s,
            self.p50_ms,
            self.tail.percentile,
            self.tail.value,
            self.tail.samples
        )
    }
}

/// Renders a number for the output line; non-finite values become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`
/// holding every name of `names` (absent values read 0).
pub fn result_line(
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut m = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0 && attempted > 0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.samples, 100);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
