//! Drives `verdict_ts::Unroller` directly, frame by frame, to measure
//! per-frame encode time and CNF size from outside the engines.

use verdict_ts::{Expr, System, Unroller};

use crate::trace::{SpanId, Tracer};

/// Per-frame cost of one unrolling.
#[derive(Debug, Default)]
pub struct Frames {
    /// Encode seconds over all frames.
    pub encode_s: f64,
    /// Frames encoded.
    pub frames: usize,
    /// Clauses emitted over all frames.
    pub clauses: usize,
    /// SAT variables allocated over all frames.
    pub vars: u64,
}

impl Frames {
    /// Adds another unrolling's frames.
    pub fn absorb(&mut self, o: Frames) {
        self.encode_s += o.encode_s;
        self.frames += o.frames;
        self.clauses += o.clauses;
        self.vars += o.vars;
    }

    /// Mean encode milliseconds per frame.
    pub fn frame_ms(&self) -> f64 {
        self.encode_s * 1e3 / self.frames.max(1) as f64
    }

    /// Mean clauses per frame.
    pub fn frame_clauses(&self) -> f64 {
        self.clauses as f64 / self.frames.max(1) as f64
    }

    /// Mean SAT variables per frame.
    pub fn frame_vars(&self) -> f64 {
        self.vars as f64 / self.frames.max(1) as f64
    }
}

/// Encodes `sys` (from its initial states, or from any state when `free`)
/// up to step `depth`, lowering `query` at every step the way the SAT
/// engines lower their per-depth bad-state query.
pub fn drive(
    sys: &System,
    query: &Expr,
    depth: usize,
    free: bool,
    t: &mut Tracer,
    parent: SpanId,
) -> Result<Frames, String> {
    let start = std::time::Instant::now();
    let mut u = t
        .span("ts.Unroller::new", parent, || {
            if free {
                Unroller::new_free(sys)
            } else {
                Unroller::new(sys)
            }
        })
        .map_err(|e| e.to_string())?;
    let mut out = Frames::default();
    for step in 0..=depth {
        let frame = t.open("ts.frame", parent);
        let vars_before = u.num_sat_vars();
        t.span("ts.extend_to", frame, || u.extend_to(step));
        t.span("ts.lower_bool", frame, || {
            let f = u.lower_bool(query, step);
            u.literal_for(&f)
        });
        let clauses = t.span("ts.drain_clauses", frame, || u.drain_clauses());
        t.close(frame);
        out.frames += 1;
        out.clauses += clauses.len();
        out.vars += u64::from(u.num_sat_vars() - vars_before);
    }
    out.encode_s = start.elapsed().as_secs_f64();
    Ok(out)
}
