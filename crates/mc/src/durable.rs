//! Crash-safe synthesis sweeps: journal recording and resume.
//!
//! A long parameter sweep (hours at fat-tree scale) must survive process
//! death. This module bridges [`crate::params`] to the `verdict-journal`
//! crate: a [`SweepRecorder`] durably appends one record per decided
//! assignment as workers complete, and [`start_sweep_journal`] rebuilds a
//! [`ResumeState`] from an interrupted journal so the next run skips
//! every assignment that already has a trustworthy verdict.
//!
//! Trust on resume is deliberately asymmetric:
//!
//! * `Unsafe` records are only believed if their stored counterexample
//!   still parses against the current system; under
//!   [`CheckOptions::certify`] the trace is additionally replayed through
//!   the independent reference interpreter (the PR-2 gate).
//! * `Safe` records are believed as-is without certification; with
//!   certification they are only believed when the journal recorded the
//!   induction depth, and the proof is then re-run at that depth with
//!   fresh solvers ([`crate::certify::recheck_induction`]). No depth, or
//!   a failed re-proof, means the assignment is simply re-solved.
//! * `Unknown` and cancelled records are never reused — a resumed run
//!   gets a fresh chance (possibly with bigger budgets) at them.
//!
//! A journal write failure mid-sweep must not kill a healthy run: the
//! recorder warns on stderr once, stops journaling, and the sweep
//! completes normally (it is merely no longer resumable).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use verdict_journal::{fnv1a64, Journal, Record, TraceRec, VerdictTag};
use verdict_logic::Rational;
use verdict_ts::{Sort, System, Trace, Value, VarId};

use crate::params::{pin_system, validate_and_enumerate, Property, SynthesisEngine};
use crate::result::{Budget, CheckOptions, CheckResult, McError, UnknownReason};

/// Fingerprint of a synthesis run: system name and variables, parameter
/// domains, property, engine. A resumed journal must match, so verdicts
/// from a different model or property are never silently mixed in.
pub fn sweep_fingerprint(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
) -> u64 {
    let mut canon = String::new();
    canon.push_str(sys.name());
    for v in sys.var_ids() {
        canon.push_str(&format!(";{}:{}", sys.name_of(v), sys.sort_of(v)));
    }
    canon.push('|');
    for &p in params {
        canon.push_str(&format!("{},", sys.name_of(p)));
    }
    canon.push('|');
    canon.push_str(&format!("{property:?}"));
    canon.push('|');
    canon.push_str(engine.tag());
    fnv1a64(canon.as_bytes())
}

/// Parses one `Display`-formatted value back against its sort.
fn parse_value(sort: &Sort, s: &str) -> Option<Value> {
    match sort {
        Sort::Bool => match s {
            "true" => Some(Value::Bool(true)),
            "false" => Some(Value::Bool(false)),
            _ => None,
        },
        Sort::Int { lo, hi } => {
            let n: i64 = s.parse().ok()?;
            (*lo..=*hi).contains(&n).then_some(Value::Int(n))
        }
        Sort::Real => s.parse::<Rational>().ok().map(Value::Real),
        Sort::Enum(e) => e.variant(s).map(|i| Value::Enum(e.clone(), i)),
    }
}

/// Rebuilds a [`Trace`] from its journal form, checking every variable
/// name and value against the current system. Any mismatch returns
/// `None` — a stale trace must not be trusted.
fn parse_trace(sys: &System, rec: &TraceRec) -> Option<Trace> {
    let vars: Vec<VarId> = rec
        .vars
        .iter()
        .map(|n| sys.var_by_name(n))
        .collect::<Option<Vec<_>>>()?;
    let states = rec
        .states
        .iter()
        .map(|st| {
            if st.len() != vars.len() {
                return None;
            }
            st.iter()
                .zip(&vars)
                .map(|(s, &v)| parse_value(sys.sort_of(v), s))
                .collect::<Option<Vec<_>>>()
        })
        .collect::<Option<Vec<_>>>()?;
    if rec.loop_back.is_some_and(|l| l >= states.len()) {
        return None;
    }
    Some(Trace {
        var_names: rec.vars.clone(),
        states,
        loop_back: rec.loop_back,
    })
}

/// Thread-safe durable recorder shared by sweep workers.
///
/// Appends are serialized through a mutex (fsync dominates anyway). On
/// the first write failure the recorder warns on stderr, drops the
/// journal, and every later call becomes a no-op: losing resumability
/// must not fail the sweep itself.
pub struct SweepRecorder {
    journal: Mutex<Option<Journal>>,
}

impl SweepRecorder {
    /// Wraps an open journal.
    pub fn new(journal: Journal) -> SweepRecorder {
        SweepRecorder {
            journal: Mutex::new(Some(journal)),
        }
    }

    fn append(&self, rec: &Record) {
        let mut guard = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        let Some(journal) = guard.as_mut() else {
            return;
        };
        if let Err(e) = journal.append(rec) {
            eprintln!(
                "warning: journal {}: write failed ({e}); journaling disabled, \
                 this run will not be resumable past this point",
                journal.path().display()
            );
            *guard = None;
        }
    }

    /// Records a failed attempt that is about to be retried.
    pub fn record_attempt(&self, idx: usize, attempt: u32, reason: UnknownReason) {
        self.append(&Record::Attempt {
            idx: idx as u64,
            attempt,
            reason: reason.tag().to_string(),
        });
    }

    /// Records a final per-assignment verdict. Cancelled slots are not
    /// persisted: they carry nothing a resumed run could reuse.
    pub fn record_verdict(
        &self,
        idx: usize,
        values: &[Value],
        result: &CheckResult,
        attempts: u32,
        depth: Option<usize>,
    ) {
        let (verdict, reason, trace) = match result {
            CheckResult::Holds => (VerdictTag::Safe, None, None),
            CheckResult::Violated(t) => (
                VerdictTag::Unsafe,
                None,
                Some(TraceRec {
                    vars: t.var_names.clone(),
                    states: t
                        .states
                        .iter()
                        .map(|st| st.iter().map(Value::to_string).collect())
                        .collect(),
                    loop_back: t.loop_back,
                }),
            ),
            CheckResult::Unknown(UnknownReason::Cancelled) => return,
            CheckResult::Unknown(r) => (VerdictTag::Unknown, Some(r.tag().to_string()), None),
        };
        self.append(&Record::Verdict {
            idx: idx as u64,
            values: values.iter().map(Value::to_string).collect(),
            verdict,
            reason,
            attempts,
            depth: depth.map(|d| d as u64),
            trace,
        });
    }

    /// Records a per-property verdict from a `check` run.
    pub fn record_property(&self, name: &str, result: &CheckResult, engine: &str) {
        let (verdict, reason) = match result {
            CheckResult::Holds => (VerdictTag::Safe, None),
            CheckResult::Violated(_) => (VerdictTag::Unsafe, None),
            CheckResult::Unknown(UnknownReason::Cancelled) => return,
            CheckResult::Unknown(r) => (VerdictTag::Unknown, Some(r.tag().to_string())),
        };
        self.append(&Record::Property {
            name: name.to_string(),
            verdict,
            reason,
            engine: engine.to_string(),
        });
    }
}

/// Verdicts recovered from a journal: assignment index → trusted result
/// plus the attempts already spent on it.
#[derive(Default)]
pub struct ResumeState {
    decided: HashMap<usize, (CheckResult, u32)>,
}

impl ResumeState {
    /// A state with nothing decided (fresh run).
    pub fn empty() -> ResumeState {
        ResumeState::default()
    }

    /// The trusted verdict for an assignment, if resumed.
    pub fn get(&self, idx: usize) -> Option<&(CheckResult, u32)> {
        self.decided.get(&idx)
    }

    /// Number of assignments that will be skipped.
    pub fn len(&self) -> usize {
        self.decided.len()
    }

    /// True iff nothing was resumed.
    pub fn is_empty(&self) -> bool {
        self.decided.is_empty()
    }
}

/// Journal hooks for one sweep: both ends optional, so the same
/// `run_assignments` code path serves plain, journaled, and resumed runs.
#[derive(Clone, Copy, Default)]
pub struct Durability<'a> {
    /// Where completed verdicts are durably recorded.
    pub recorder: Option<&'a SweepRecorder>,
    /// Verdicts recovered from a previous run, to be skipped.
    pub resume: Option<&'a ResumeState>,
}

impl Durability<'_> {
    /// No journaling, no resume.
    pub fn none() -> Durability<'static> {
        Durability {
            recorder: None,
            resume: None,
        }
    }

    pub(crate) fn resumed(&self, idx: usize) -> Option<(CheckResult, u32)> {
        self.resume.and_then(|r| r.get(idx)).cloned()
    }

    pub(crate) fn record_attempt(&self, idx: usize, attempt: u32, reason: UnknownReason) {
        if let Some(rec) = self.recorder {
            rec.record_attempt(idx, attempt, reason);
        }
    }

    pub(crate) fn record_verdict(
        &self,
        idx: usize,
        values: &[Value],
        result: &CheckResult,
        attempts: u32,
        depth: Option<usize>,
    ) {
        if let Some(rec) = self.recorder {
            rec.record_verdict(idx, values, result, attempts, depth);
        }
    }
}

/// Decides whether one journaled verdict is trustworthy for this run;
/// returns the reconstructed result to skip with, or `None` to re-solve.
#[allow(clippy::too_many_arguments)]
fn trust_verdict(
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
    assignment: &[Value],
    verdict: VerdictTag,
    depth: Option<u64>,
    trace: Option<&TraceRec>,
) -> Option<CheckResult> {
    match verdict {
        VerdictTag::Safe => {
            if !opts.certify {
                return Some(CheckResult::Holds);
            }
            // Certified resume: only believe a Safe verdict we can
            // re-prove — k-induction at the recorded depth with fresh
            // solvers. Anything else (no depth on record, BDD/explicit
            // proof, LTL property) is re-solved from scratch.
            let depth = depth? as usize;
            let (Property::Invariant(p), SynthesisEngine::KInduction) = (property, engine) else {
                return None;
            };
            let pinned = pin_system(sys, params, assignment);
            let budget = Budget::new(opts);
            crate::certify::recheck_induction(&pinned, p, depth, &budget)
                .ok()
                .map(|_| CheckResult::Holds)
        }
        VerdictTag::Unsafe => {
            let trace = parse_trace(sys, trace?)?;
            if !opts.certify {
                return Some(CheckResult::Violated(trace));
            }
            let pinned = pin_system(sys, params, assignment);
            let gated = match property {
                Property::Invariant(p) => crate::certify::gate_invariant_cex(&pinned, p, trace),
                Property::Ltl(phi) => crate::certify::gate_ltl_cex(&pinned, phi, trace),
                // Sweeps reject CTL before a journal is opened.
                Property::Ctl(_) => return None,
            };
            gated.violated().then_some(gated)
        }
        // Unknown/cancelled slots get a fresh chance on resume.
        VerdictTag::Unknown | VerdictTag::Cancelled => None,
    }
}

/// Opens (or creates) the journal for a synthesis sweep.
///
/// With `resume` and an existing file at `path`, the journal is verified
/// (torn tail truncated), its header fingerprint checked against this
/// run, and every trustworthy verdict loaded into the returned
/// [`ResumeState`]; recording continues by appending to the same file.
/// Otherwise a fresh journal with a header record is created.
pub fn start_sweep_journal(
    path: &Path,
    resume: bool,
    sys: &System,
    params: &[VarId],
    property: &Property,
    engine: SynthesisEngine,
    opts: &CheckOptions,
) -> Result<(SweepRecorder, ResumeState), McError> {
    let fp = sweep_fingerprint(sys, params, property, engine);
    let (names, space) = validate_and_enumerate(sys, params, property, engine)?;
    let header = Record::Header {
        version: verdict_journal::FORMAT_VERSION,
        fingerprint: fp,
        space: space.len() as u64,
        params: names,
        property: format!("{property:?}"),
        engine: engine.tag().to_string(),
    };
    if resume && path.exists() {
        let (journal, records) = Journal::open_resume(path, Some(fp))
            .map_err(|e| McError(format!("cannot resume journal {}: {e}", path.display())))?;
        let mut state = ResumeState::empty();
        for rec in &records {
            let Record::Verdict {
                idx,
                verdict,
                attempts,
                depth,
                trace,
                ..
            } = rec
            else {
                continue;
            };
            let idx = *idx as usize;
            if idx >= space.len() {
                continue;
            }
            let assignment = space.get(idx);
            if let Some(result) = trust_verdict(
                sys,
                params,
                property,
                engine,
                opts,
                &assignment,
                *verdict,
                *depth,
                trace.as_ref(),
            ) {
                state.decided.insert(idx, (result, *attempts));
            }
        }
        Ok((SweepRecorder::new(journal), state))
    } else {
        let journal = Journal::create(path, &header)
            .map_err(|e| McError(format!("cannot create journal {}: {e}", path.display())))?;
        Ok((SweepRecorder::new(journal), ResumeState::empty()))
    }
}

/// A per-property verdict recovered from a `check` journal. Only
/// decided outcomes (`Safe`/`Unsafe`) are ever returned — see
/// [`start_check_journal`].
pub struct ResumedProperty {
    /// The recorded outcome.
    pub verdict: VerdictTag,
    /// Engine that produced it.
    pub engine: String,
}

/// Fingerprint of a `check` run over named properties. Hashes the same
/// canonical material as [`sweep_fingerprint`] — the system's name and
/// every variable's `name:sort`, plus each selected property's name
/// *and formula rendering*, plus the engine — so editing the model or a
/// property body between runs (names unchanged) invalidates the journal
/// instead of silently resuming stale verdicts.
pub fn check_fingerprint(sys: &System, properties: &[(String, String)], engine: &str) -> u64 {
    let mut canon = String::from("check:");
    canon.push_str(sys.name());
    for v in sys.var_ids() {
        canon.push_str(&format!(";{}:{}", sys.name_of(v), sys.sort_of(v)));
    }
    canon.push('|');
    for (name, formula) in properties {
        canon.push_str(&format!("{name}={formula};"));
    }
    canon.push('|');
    canon.push_str(engine);
    fnv1a64(canon.as_bytes())
}

/// Opens (or creates) the journal for a `check` run over `properties`,
/// given as `(name, formula rendering)` pairs. On resume, returns the
/// recorded *decided* per-property verdicts: `Unknown` and cancelled
/// records are filtered out here so a resumed run always re-solves them
/// (possibly with bigger budgets), matching the sweep trust policy.
/// Whether to reuse the decided ones is the caller's business (the CLI
/// skips them only when certification is off — with `--certify` every
/// property is re-verified, which is trivially sound).
pub fn start_check_journal(
    path: &Path,
    resume: bool,
    sys: &System,
    properties: &[(String, String)],
    engine: &str,
) -> Result<(SweepRecorder, HashMap<String, ResumedProperty>), McError> {
    let fp = check_fingerprint(sys, properties, engine);
    let property_names: Vec<String> = properties.iter().map(|(n, _)| n.clone()).collect();
    let header = Record::Header {
        version: verdict_journal::FORMAT_VERSION,
        fingerprint: fp,
        space: 0,
        params: Vec::new(),
        property: property_names.join(","),
        engine: engine.to_string(),
    };
    if resume && path.exists() {
        let (journal, records) = Journal::open_resume(path, Some(fp))
            .map_err(|e| McError(format!("cannot resume journal {}: {e}", path.display())))?;
        let mut props = HashMap::new();
        for rec in records {
            if let Record::Property {
                name,
                verdict: verdict @ (VerdictTag::Safe | VerdictTag::Unsafe),
                engine,
                ..
            } = rec
            {
                props.insert(name, ResumedProperty { verdict, engine });
            }
        }
        Ok((SweepRecorder::new(journal), props))
    } else {
        let journal = Journal::create(path, &header)
            .map_err(|e| McError(format!("cannot create journal {}: {e}", path.display())))?;
        Ok((SweepRecorder::new(journal), HashMap::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_ts::{EnumSort, Expr};

    #[test]
    fn value_round_trip_via_display() {
        let cases = vec![
            (Sort::Bool, Value::Bool(true)),
            (Sort::Int { lo: -5, hi: 9 }, Value::Int(-3)),
            (Sort::Real, Value::Real(Rational::new(7, 4))),
        ];
        for (sort, v) in cases {
            assert_eq!(parse_value(&sort, &v.to_string()), Some(v));
        }
        let e = EnumSort::new("mode", &["off", "on"]);
        let v = Value::Enum(e.clone(), 1);
        assert_eq!(parse_value(&Sort::Enum(e), &v.to_string()), Some(v));
        // Out-of-range / malformed inputs are rejected.
        assert_eq!(parse_value(&Sort::Int { lo: 0, hi: 3 }, "7"), None);
        assert_eq!(parse_value(&Sort::Bool, "maybe"), None);
    }

    #[test]
    fn trace_round_trip() {
        let mut sys = System::new("t");
        let _x = sys.int_var("x", 0, 10);
        let _b = sys.bool_var("b");
        let trace = Trace {
            var_names: vec!["x".into(), "b".into()],
            states: vec![
                vec![Value::Int(0), Value::Bool(false)],
                vec![Value::Int(3), Value::Bool(true)],
            ],
            loop_back: Some(0),
        };
        let rec = TraceRec {
            vars: trace.var_names.clone(),
            states: trace
                .states
                .iter()
                .map(|s| s.iter().map(Value::to_string).collect())
                .collect(),
            loop_back: trace.loop_back,
        };
        assert_eq!(parse_trace(&sys, &rec), Some(trace));
        // Unknown variable names or bad loop indices are rejected.
        let mut bad = rec.clone();
        bad.vars[0] = "nope".into();
        assert_eq!(parse_trace(&sys, &bad), None);
        let mut bad = rec.clone();
        bad.loop_back = Some(9);
        assert_eq!(parse_trace(&sys, &bad), None);
    }

    #[test]
    fn check_fingerprint_tracks_model_and_formulas() {
        let mut sys = System::new("s");
        let _n = sys.int_var("n", 0, 5);
        let props = vec![("p".to_string(), "n != 5".to_string())];
        let a = check_fingerprint(&sys, &props, "kind");
        assert_eq!(a, check_fingerprint(&sys, &props, "kind"));
        // Same property name, edited body → different fingerprint.
        let edited = vec![("p".to_string(), "n != 4".to_string())];
        assert_ne!(a, check_fingerprint(&sys, &edited, "kind"));
        // Same property names, edited model → different fingerprint.
        let mut sys2 = System::new("s");
        let _n = sys2.int_var("n", 0, 5);
        let _m = sys2.bool_var("m");
        assert_ne!(a, check_fingerprint(&sys2, &props, "kind"));
        assert_ne!(a, check_fingerprint(&sys, &props, "bdd"));
    }

    #[test]
    fn check_resume_skips_unknown_records() {
        let mut sys = System::new("cj");
        let _n = sys.int_var("n", 0, 3);
        let props = vec![
            ("good".to_string(), "n != 3".to_string()),
            ("flaky".to_string(), "n != 2".to_string()),
        ];
        let path = std::env::temp_dir().join(format!(
            "verdict-durable-check-unknown-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let (rec, resumed) = start_check_journal(&path, false, &sys, &props, "kind").unwrap();
            assert!(resumed.is_empty());
            rec.record_property("good", &CheckResult::Holds, "kind");
            rec.record_property(
                "flaky",
                &CheckResult::Unknown(UnknownReason::EngineFailure),
                "kind",
            );
        }
        let (_rec, resumed) = start_check_journal(&path, true, &sys, &props, "kind").unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(
            resumed.get("good").map(|p| p.verdict),
            Some(VerdictTag::Safe)
        );
        // The infra-unknown property gets a fresh chance on resume.
        assert!(!resumed.contains_key("flaky"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_separates_runs() {
        let mut sys = System::new("s");
        let n = sys.int_var("n", 0, 5);
        let p = sys.int_param("p", 0, 2);
        let prop_a = Property::Invariant(Expr::var(n).ne(Expr::int(5)));
        let prop_b = Property::Invariant(Expr::var(n).ne(Expr::int(4)));
        let a = sweep_fingerprint(&sys, &[p], &prop_a, SynthesisEngine::KInduction);
        assert_eq!(
            a,
            sweep_fingerprint(&sys, &[p], &prop_a, SynthesisEngine::KInduction)
        );
        assert_ne!(
            a,
            sweep_fingerprint(&sys, &[p], &prop_b, SynthesisEngine::KInduction)
        );
        assert_ne!(
            a,
            sweep_fingerprint(&sys, &[p], &prop_a, SynthesisEngine::Bdd)
        );
    }
}
