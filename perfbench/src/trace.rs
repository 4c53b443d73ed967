//! In-memory spans and counters recorded around the benchmark's calls
//! into the workspace's public functions.
//!
//! A span has a name, a start, an end, a parent and a job id. Measured
//! spans wrap a call; derived spans turn the phase totals an engine
//! returns in its `Stats` into children of the call's span, laid back to
//! back from the parent's start (the totals carry no timestamps). Spans
//! stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use verdict_mc::stats::Phase;
use verdict_mc::Stats;

/// Index of an open or closed span; `NONE` is the parent of a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No span: the parent of a root, or any span of a disabled tracer.
    pub const NONE: SpanId = SpanId(None);
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: u64,
    derived: bool,
}

/// Span and counter recorder. A disabled tracer records nothing, so the
/// same pass code serves traced and untraced passes.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    sums: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            job: 0,
            spans: Vec::new(),
            sums: BTreeMap::new(),
            maxima: BTreeMap::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Turns recording on or off for the spans and counters that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True while recording.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with a job id.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.0,
            job: self.job,
            derived: false,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.epoch.elapsed();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Adds children of a closed span from durations the callee reported,
    /// laid back to back from the parent's start and clipped to its end.
    pub fn derived(&mut self, parent: SpanId, children: &[(&'static str, Duration)]) {
        let Some(p) = parent.0 else { return };
        let (mut at, end) = (self.spans[p].start, self.spans[p].end);
        for &(name, dur) in children {
            if dur.is_zero() {
                continue;
            }
            let stop = (at + dur).min(end);
            self.spans.push(Span {
                name,
                start: at,
                end: stop,
                parent: Some(p),
                job: self.spans[p].job,
                derived: true,
            });
            at = stop;
        }
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.sums.entry(name).or_default() += v;
        }
    }

    /// Raises the high-water mark `name` to `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let m = self.maxima.entry(name).or_default();
            *m = m.max(v);
        }
    }

    /// Sum of the counter `name` (0 when never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// High-water mark `name` (0 when never raised).
    pub fn high(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    /// Every counter and high-water mark except the timings (names
    /// ending in `_s`): the values that repeat exactly between runs.
    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.sums
            .iter()
            .chain(&self.maxima)
            .filter(|(k, _)| !k.ends_with("_s"))
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Total seconds in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    /// Durations, in milliseconds, of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Records the phase totals and counters an engine call returned:
    /// encode and solve become children of `call` (attributed to `bdd`
    /// when the call built BDDs, to `ts` and `sat` otherwise), and the
    /// call's self time is what its phases leave uncovered.
    pub fn engine_call(&mut self, call: SpanId, stats: &Stats, wall: Duration) {
        if !self.enabled {
            return;
        }
        let phase = |p: Phase| Duration::from_nanos(stats.phase_nanos(p));
        let symbolic = stats.bdd.nodes_allocated > 0;
        let children = [
            (
                if symbolic { "bdd.encode" } else { "ts.encode" },
                phase(Phase::Encode),
            ),
            (
                if symbolic {
                    "bdd.fixpoint"
                } else {
                    "sat.solve"
                },
                phase(Phase::Solve),
            ),
            ("mc.certify", phase(Phase::Certify)),
            ("mc.replay", phase(Phase::Replay)),
        ];
        let phases: Duration = children.iter().map(|c| c.1).sum();
        self.derived(call, &children);
        self.add("mc.self_s", wall.saturating_sub(phases).as_secs_f64());
        self.add("sat.conflicts", stats.sat.conflicts as f64);
        self.add("sat.decisions", stats.sat.decisions as f64);
        self.add("sat.propagations", stats.sat.propagations as f64);
        self.add("sat.learnt_clauses", stats.sat.learnt_clauses as f64);
        self.add("bdd.nodes_allocated", stats.bdd.nodes_allocated as f64);
        self.add("bdd.ite_cache_lookups", stats.bdd.ite_cache_lookups as f64);
        self.add("bdd.ite_cache_hits", stats.bdd.ite_cache_hits as f64);
        self.add("bdd.sifts", stats.bdd.sifts as f64);
        self.max("bdd.peak_live_nodes", stats.bdd.peak_live_nodes as f64);
        self.add("mc.fixpoint_iterations", stats.fixpoint_iterations as f64);
        let depth = stats.depths.iter().map(|d| d.depth).max().unwrap_or(0);
        self.max("mc.max_depth", depth as f64);
    }

    /// Per-pass engine metrics over `passes` traced passes, from the
    /// spans and counters [`Tracer::engine_call`] recorded.
    pub fn engine_layers(&self, passes: f64) -> BTreeMap<&'static str, f64> {
        let per = |v: f64| v / passes.max(1.0);
        let lookups = self.sum("bdd.ite_cache_lookups");
        let hit_rate = if lookups > 0.0 {
            self.sum("bdd.ite_cache_hits") / lookups
        } else {
            0.0
        };
        BTreeMap::from([
            ("ts.encode_s", per(self.seconds("ts.encode"))),
            ("sat.solve_s", per(self.seconds("sat.solve"))),
            ("sat.conflicts", per(self.sum("sat.conflicts"))),
            ("sat.decisions", per(self.sum("sat.decisions"))),
            ("sat.propagations", per(self.sum("sat.propagations"))),
            ("sat.learnt_clauses", per(self.sum("sat.learnt_clauses"))),
            ("bdd.fixpoint_s", per(self.seconds("bdd.fixpoint"))),
            ("bdd.nodes_allocated", per(self.sum("bdd.nodes_allocated"))),
            ("bdd.peak_live_nodes", self.high("bdd.peak_live_nodes")),
            ("bdd.ite_hit_rate", hit_rate),
            ("bdd.sifts", per(self.sum("bdd.sifts"))),
            ("mc.certify_s", per(self.seconds("mc.certify"))),
            ("mc.replay_s", per(self.seconds("mc.replay"))),
            ("mc.self_s", per(self.sum("mc.self_s"))),
            (
                "mc.fixpoint_iterations",
                per(self.sum("mc.fixpoint_iterations")),
            ),
            ("mc.max_depth", self.high("mc.max_depth")),
        ])
    }

    /// Appends another thread's spans and counters.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        for (k, v) in other.maxima {
            let m = self.maxima.entry(k).or_default();
            *m = m.max(v);
        }
    }

    /// Share of the wall time under root spans that no leaf span covers:
    /// time the benchmark spent outside any layer's reported work.
    pub fn uncovered_share(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        let roots: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.end))
            .collect();
        let leaves: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .zip(&has_child)
            .filter(|(s, &c)| !c && s.parent.is_some())
            .map(|(s, _)| (s.start, s.end))
            .collect();
        let wall = union_len(roots);
        if wall.is_zero() {
            return 0.0;
        }
        1.0 - union_len(leaves).as_secs_f64() / wall.as_secs_f64()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"job\":{},\"derived\":{}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.job,
                s.derived
            );
        }
        std::fs::write(path, out)
    }
}

/// Total length of the union of intervals.
fn union_len(mut v: Vec<(Duration, Duration)>) -> Duration {
    v.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let ms = Duration::from_millis;
        let v = vec![(ms(0), ms(10)), (ms(5), ms(20)), (ms(30), ms(40))];
        assert_eq!(union_len(v), ms(30));
    }

    #[test]
    fn derived_children_cover_the_parent() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        let root = t.open("pass", SpanId::NONE);
        let call = t.open("call", root);
        std::thread::sleep(Duration::from_millis(20));
        t.close(call);
        t.close(root);
        t.derived(call, &[("a", Duration::from_secs(5))]);
        // The child is clipped to the parent, so nothing is uncovered but
        // the sliver between the root's and the call's timestamps.
        assert!(t.uncovered_share() < 0.05, "{}", t.uncovered_share());
    }
}
