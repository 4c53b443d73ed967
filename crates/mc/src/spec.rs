//! The unified job specification: one [`JobSpec`] shared by every
//! entry point.
//!
//! Historically the CLI's `check` and `synth`, the server's `submit`
//! path, and the bench harness each hand-rolled their own flag parsing
//! and options structs before reaching [`CheckOptions`], so the local
//! and remote execution paths could drift apart silently. This module
//! is the single parse / validate / build / execute path:
//!
//! * [`JobSpec`] — model source + property selection + engine + budgets,
//!   with the wire JSON shape the server journals and ships
//!   ([`JobSpec::to_json`] / [`JobSpec::from_json`]) and the CLI flag
//!   form ([`JobSpec::from_cli_args`]).
//! * [`JobSpec::validate`] — the one admission gate: the model must
//!   parse, the engine tag must resolve, named properties and
//!   parameters must exist. The CLI calls it before running; the server
//!   calls it before journaling.
//! * [`execute`] — runs a validated spec through [`crate::engine::check`]
//!   (one call per property) or a parameter sweep to [`VerdictRow`]s. The
//!   server's workers, the scenario sweep, and tests all execute jobs
//!   through this one function, which is what makes "local and remote
//!   verdicts agree" structural rather than aspirational.
//! * [`options_from_args`] — the shared `--depth/--timeout/--jobs/…` →
//!   [`CheckOptions`] flag parser.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use verdict_journal::json::Json;

use crate::engine::{check, synthesis_engine, EngineKind};
use crate::result::{CheckOptions, CheckResult, Supervision, UnknownReason};
use crate::retry::RetryPolicy;
use crate::stats::{Stats, TraceSink};

/// Builds a JSON object from ordered pairs.
fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// What kind of work a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Check every (or one named) property of the model.
    Check,
    /// Parameter synthesis sweep over the named frozen params.
    Synth,
}

impl JobKind {
    /// Stable lowercase tag used on the wire and in the WAL.
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::Check => "check",
            JobKind::Synth => "synth",
        }
    }

    /// Parses a tag produced by [`JobKind::tag`].
    pub fn from_tag(s: &str) -> Option<JobKind> {
        match s {
            "check" => Some(JobKind::Check),
            "synth" => Some(JobKind::Synth),
            _ => None,
        }
    }
}

/// A job request: the model source travels inline so the daemon never
/// depends on the submitter's filesystem, and so the WAL's `submit`
/// record pins the exact model — recovery re-runs byte-identical input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Check or synth.
    pub kind: JobKind,
    /// The `.vd` model source text.
    pub source: String,
    /// Restrict to one named property (required for synth with several).
    pub prop: Option<String>,
    /// Engine tag (`auto`, `bmc`, `kind`, `bdd`, `explicit`, `smtbmc`,
    /// `portfolio`); parsed by [`EngineKind::from_tag`].
    pub engine: String,
    /// Unrolling depth bound; engine default when absent.
    pub depth: Option<usize>,
    /// Wall-clock budget for the whole job, in milliseconds. Counted
    /// from *admission*: time spent waiting in the queue is charged
    /// against it, so a client's deadline means what it says.
    pub deadline_ms: Option<u64>,
    /// Frozen parameter names (synth only).
    pub params: Vec<String>,
    /// Certify verdicts before reporting (trace replay + proof
    /// re-checking), exactly like the CLI's `--certify`.
    pub certify: bool,
    /// Client-chosen idempotency key: a resubmit carrying a key the
    /// daemon has already admitted returns the original job id instead
    /// of double-running — what makes reconnect-and-resubmit safe.
    pub idem: Option<String>,
}

/// Why a [`JobSpec`] failed validation — split so callers can map the
/// two classes to different wire rejections (`parse-error` vs
/// `bad-request`) or exit codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The `.vd` source failed to parse.
    Parse(String),
    /// The source parsed but the spec is inconsistent with it (unknown
    /// engine, missing property, bad params, …).
    BadRequest(String),
}

impl SpecError {
    /// The human-readable detail, whichever class it is.
    pub fn message(&self) -> &str {
        match self {
            SpecError::Parse(m) | SpecError::BadRequest(m) => m,
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl JobSpec {
    /// A check job over `source` with defaults everywhere else.
    pub fn check(source: &str) -> JobSpec {
        JobSpec {
            kind: JobKind::Check,
            source: source.to_string(),
            prop: None,
            engine: "auto".to_string(),
            depth: None,
            deadline_ms: None,
            params: Vec::new(),
            certify: false,
            idem: None,
        }
    }

    /// A synth job over `source` sweeping `params`.
    pub fn synth(source: &str, params: &[&str]) -> JobSpec {
        JobSpec {
            kind: JobKind::Synth,
            source: source.to_string(),
            prop: None,
            engine: "auto".to_string(),
            depth: None,
            deadline_ms: None,
            params: params.iter().map(|p| p.to_string()).collect(),
            certify: false,
            idem: None,
        }
    }

    /// Builds a spec from CLI-style arguments: `--prop NAME`,
    /// `--engine E`, `--depth N`, `--deadline SECS`, `--params a,b`,
    /// `--certify`. This is the flag surface `verdict submit` and the
    /// scenario sweep share; a typo'd value is an error, not a silent
    /// fallback.
    pub fn from_cli_args(kind: JobKind, source: &str, args: &[String]) -> Result<JobSpec, String> {
        let mut spec = match kind {
            JobKind::Check => JobSpec::check(source),
            JobKind::Synth => JobSpec::synth(source, &[]),
        };
        spec.prop = flag_value(args, "--prop");
        if let Some(engine) = flag_value(args, "--engine") {
            if EngineKind::from_tag(&engine).is_none() {
                return Err(format!("unknown engine `{engine}`"));
            }
            spec.engine = engine;
        }
        if let Some(d) = flag_value(args, "--depth") {
            spec.depth = Some(
                d.parse()
                    .map_err(|_| format!("--depth expects a number, got `{d}`"))?,
            );
        }
        if let Some(t) = flag_value(args, "--deadline") {
            let secs: u64 = t
                .parse()
                .map_err(|_| format!("--deadline expects seconds, got `{t}`"))?;
            spec.deadline_ms = Some(secs * 1000);
        }
        if let Some(params) = flag_value(args, "--params") {
            spec.params = params
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
        }
        spec.certify = args.iter().any(|a| a == "--certify");
        Ok(spec)
    }

    /// The spec's check fingerprint: a stable 64-bit hash over the
    /// fields that determine *what runs* (kind, source, prop, engine,
    /// depth, params) — deadlines and idempotency keys are excluded.
    /// The quarantine table and the hedge-latency sketch key on this.
    pub fn fingerprint(&self) -> u64 {
        let canon = format!(
            "{}\u{0}{}\u{0}{}\u{0}{}\u{0}{}\u{0}{}",
            self.kind.tag(),
            self.source,
            self.prop.as_deref().unwrap_or(""),
            self.engine,
            self.depth.map_or(-1i64, |d| d as i64),
            self.params.join(","),
        );
        verdict_journal::fnv1a64(canon.as_bytes())
    }

    /// JSON form (wire `submit` requests and WAL `submit` records).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("kind", Json::Str(self.kind.tag().to_string())),
            ("source", Json::Str(self.source.clone())),
            (
                "prop",
                self.prop
                    .as_ref()
                    .map_or(Json::Null, |p| Json::Str(p.clone())),
            ),
            ("engine", Json::Str(self.engine.clone())),
            (
                "depth",
                self.depth.map_or(Json::Null, |d| Json::Int(d as i64)),
            ),
            (
                "deadline_ms",
                self.deadline_ms.map_or(Json::Null, |d| Json::Int(d as i64)),
            ),
            (
                "params",
                Json::Arr(self.params.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("certify", Json::Bool(self.certify)),
            (
                "idem",
                self.idem
                    .as_ref()
                    .map_or(Json::Null, |k| Json::Str(k.clone())),
            ),
        ])
    }

    /// Parses the JSON form.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .and_then(JobKind::from_tag)
            .ok_or("spec missing or bad `kind`")?;
        let source = v
            .get("source")
            .and_then(Json::as_str)
            .ok_or("spec missing `source`")?
            .to_string();
        let params = match v.get("params") {
            None | Some(Json::Null) => Vec::new(),
            Some(p) => p
                .as_arr()
                .ok_or("spec `params` must be an array")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(str::to_string)
                        .ok_or("non-string param name")
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(JobSpec {
            kind,
            source,
            prop: v.get("prop").and_then(Json::as_str).map(str::to_string),
            engine: v
                .get("engine")
                .and_then(Json::as_str)
                .unwrap_or("auto")
                .to_string(),
            depth: v.get("depth").and_then(Json::as_int).map(|d| d as usize),
            deadline_ms: v
                .get("deadline_ms")
                .and_then(Json::as_int)
                .map(|d| d as u64),
            params,
            certify: matches!(v.get("certify"), Some(Json::Bool(true))),
            idem: v.get("idem").and_then(Json::as_str).map(str::to_string),
        })
    }

    /// The engine this spec asks for; [`EngineKind::Auto`] when the tag
    /// is unknown (validation rejects unknown tags before execution).
    pub fn engine_kind(&self) -> EngineKind {
        EngineKind::from_tag(&self.engine).unwrap_or(EngineKind::Auto)
    }

    /// The one validation gate, shared by the CLI (before running
    /// locally) and the daemon (at admission, before anything is
    /// journaled): the model must parse, the engine tag must exist,
    /// named properties and parameters must resolve, and the kind's
    /// arity rules must hold. Returns the compiled model so callers
    /// don't parse twice.
    pub fn validate(&self) -> Result<verdict_dsl::CompiledModel, SpecError> {
        let model =
            verdict_dsl::parse(&self.source).map_err(|e| SpecError::Parse(e.to_string()))?;
        if EngineKind::from_tag(&self.engine).is_none() {
            return Err(SpecError::BadRequest(format!(
                "unknown engine `{}`",
                self.engine
            )));
        }
        if let Some(prop) = &self.prop {
            if !model.properties.iter().any(|(n, _)| n == prop) {
                return Err(SpecError::BadRequest(format!(
                    "model has no property `{prop}`"
                )));
            }
        }
        match self.kind {
            JobKind::Check => {
                if model.properties.is_empty() {
                    return Err(SpecError::BadRequest("model has no properties".into()));
                }
            }
            JobKind::Synth => {
                if self.params.is_empty() {
                    return Err(SpecError::BadRequest("synth requires params".into()));
                }
                for p in &self.params {
                    if model.system.var_by_name(p).is_none() {
                        return Err(SpecError::BadRequest(format!("unknown parameter `{p}`")));
                    }
                }
                let selected = model
                    .properties
                    .iter()
                    .filter(|(n, _)| self.prop.as_deref().is_none_or(|p| p == n))
                    .count();
                if selected != 1 {
                    return Err(SpecError::BadRequest(
                        "synth needs exactly one property (use prop)".into(),
                    ));
                }
            }
        }
        Ok(model)
    }

    /// Overlays this spec's budgets onto `base` options: depth,
    /// deadline (as a wall-clock timeout), certification.
    pub fn check_options(&self, mut base: CheckOptions) -> CheckOptions {
        if let Some(d) = self.depth {
            base.max_depth = d;
        }
        if let Some(ms) = self.deadline_ms {
            base = base.with_timeout(Duration::from_millis(ms));
        }
        if self.certify {
            base = base.with_certify();
        }
        base
    }
}

/// One per-property (check) or per-assignment (synth) verdict row, as
/// carried in WAL `done` records, `status`/`wait` responses, and the
/// scenario matrix report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictRow {
    /// Property name (check) or `a=1,b=2`-style assignment (synth).
    pub name: String,
    /// Coarse tag: `safe`, `unsafe`, `unknown`, `cancelled`.
    pub verdict: String,
    /// `UnknownReason` tag when `verdict` is `unknown`/`cancelled`.
    pub reason: Option<String>,
    /// The engine that produced the verdict.
    pub engine: String,
    /// Human-readable detail (counterexample summary etc.).
    pub detail: String,
}

impl VerdictRow {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("verdict", Json::Str(self.verdict.clone())),
            (
                "reason",
                self.reason
                    .as_ref()
                    .map_or(Json::Null, |r| Json::Str(r.clone())),
            ),
            ("engine", Json::Str(self.engine.clone())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }

    /// Parses the JSON form.
    pub fn from_json(v: &Json) -> Result<VerdictRow, String> {
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("verdict row missing `{k}`"))
        };
        Ok(VerdictRow {
            name: field("name")?,
            verdict: field("verdict")?,
            reason: v.get("reason").and_then(Json::as_str).map(str::to_string),
            engine: field("engine")?,
            detail: field("detail")?,
        })
    }

    /// True for decided verdicts (safe/unsafe) — the re-gating policy
    /// trusts these across a restart; anything else re-runs.
    pub fn decided(&self) -> bool {
        self.verdict == "safe" || self.verdict == "unsafe"
    }
}

/// The coarse verdict bucket used in rows, JSON output, and exit
/// codes. Cooperatively-cancelled slots get their own tag: they are
/// skipped on purpose, not failed.
pub fn verdict_tag(r: &CheckResult) -> &'static str {
    match r {
        CheckResult::Holds => "safe",
        CheckResult::Violated(_) => "unsafe",
        CheckResult::Unknown(UnknownReason::Cancelled) => "cancelled",
        CheckResult::Unknown(_) => "unknown",
    }
}

/// Runtime context for [`execute`]: everything about *how* to run that
/// is not part of the job's identity (and so is excluded from the
/// fingerprint) — cancellation, tracing, supervision, the remaining
/// deadline budget, and hedged engine overrides.
#[derive(Clone, Default)]
pub struct ExecContext {
    /// Cooperative cancellation flag, polled by every engine budget.
    pub stop: Option<Arc<AtomicBool>>,
    /// JSONL trace sink for span/depth/mark events.
    pub sink: Option<Arc<TraceSink>>,
    /// Watchdog heartbeat / solver-poisoning handle.
    pub supervision: Option<Arc<Supervision>>,
    /// Remaining wall-clock budget; takes precedence over the spec's
    /// `deadline_ms` (the daemon charges queue time against it).
    pub timeout: Option<Duration>,
    /// Replaces the spec's engine tag (hedged re-execution).
    pub engine_override: Option<String>,
    /// Worker threads for the engines themselves; defaults to 1 (the
    /// daemon parallelizes across jobs, not within them).
    pub jobs: usize,
}

/// Runs a spec to a verdict-row list through [`crate::engine::check`]. This
/// is the single execution path behind the server's workers, the
/// scenario sweep's local mode, and the agreement tests — a spec
/// executed here and a spec shipped over the socket run byte-identical
/// input through identical code.
pub fn execute(spec: &JobSpec, ctx: &ExecContext) -> (Vec<VerdictRow>, Option<Stats>) {
    let model = match verdict_dsl::parse(&spec.source) {
        Ok(m) => m,
        Err(e) => {
            // Validated at admission; reaching this means the model was
            // corrupted in flight — surface as an engine failure.
            return (
                vec![VerdictRow {
                    name: "(model)".into(),
                    verdict: "unknown".into(),
                    reason: Some(UnknownReason::EngineFailure.tag().into()),
                    engine: spec.engine.clone(),
                    detail: e.to_string(),
                }],
                None,
            );
        }
    };
    let engine_tag = ctx.engine_override.as_deref().unwrap_or(&spec.engine);
    let engine = EngineKind::from_tag(engine_tag).unwrap_or(EngineKind::Auto);
    let mut opts = CheckOptions::default().with_jobs(ctx.jobs.max(1));
    if let Some(stop) = &ctx.stop {
        opts = opts.with_stop(Arc::clone(stop));
    }
    if let Some(d) = spec.depth {
        opts.max_depth = d;
    }
    if let Some(t) = ctx.timeout.or(spec.deadline_ms.map(Duration::from_millis)) {
        opts = opts.with_timeout(t);
    }
    if spec.certify {
        opts = opts.with_certify();
    }
    if let Some(sup) = &ctx.supervision {
        opts = opts.with_supervision(Arc::clone(sup));
    }
    if let Some(sink) = &ctx.sink {
        opts = opts.with_trace(Arc::clone(sink));
    }
    let failed = |name: &str, detail: String| VerdictRow {
        name: name.to_string(),
        verdict: "unknown".into(),
        reason: Some(UnknownReason::EngineFailure.tag().into()),
        engine: engine_tag.to_string(),
        detail,
    };
    let mut selected = model
        .properties
        .iter()
        .filter(|(n, _)| spec.prop.as_deref().is_none_or(|p| p == n));
    match spec.kind {
        JobKind::Check => {
            let mut rows = Vec::new();
            let mut agg = Stats::default();
            for (name, property) in selected {
                match check(&model.system, property, engine, &opts) {
                    Ok(r) => {
                        agg.merge(&r.stats);
                        rows.push(VerdictRow {
                            name: name.clone(),
                            verdict: verdict_tag(&r.result).to_string(),
                            reason: unknown_reason(&r.result),
                            engine: r.winner.to_string(),
                            detail: r.result.to_string(),
                        });
                    }
                    Err(e) => rows.push(failed(name, e.to_string())),
                }
            }
            (rows, Some(agg))
        }
        JobKind::Synth => {
            let params: Vec<_> = spec
                .params
                .iter()
                .filter_map(|p| model.system.var_by_name(p))
                .collect();
            let Some((name, property)) = selected.next() else {
                return (Vec::new(), None);
            };
            let synth_engine = synthesis_engine(engine, property);
            match crate::params::synthesize(&model.system, &params, property, synth_engine, &opts) {
                Ok(result) => {
                    let rows = result
                        .verdicts
                        .iter()
                        .map(|v| {
                            let assignment: Vec<String> = result
                                .param_names
                                .iter()
                                .zip(&v.values)
                                .map(|(n, x)| format!("{n}={x}"))
                                .collect();
                            VerdictRow {
                                name: assignment.join(","),
                                verdict: verdict_tag(&v.result).to_string(),
                                reason: unknown_reason(&v.result),
                                engine: synth_engine.kind().to_string(),
                                detail: v.result.to_string(),
                            }
                        })
                        .collect();
                    (rows, None)
                }
                Err(e) => (vec![failed(name, e.to_string())], None),
            }
        }
    }
}

/// The [`UnknownReason`] tag of an undecided verdict.
fn unknown_reason(r: &CheckResult) -> Option<String> {
    match r {
        CheckResult::Unknown(reason) => Some(reason.tag().to_string()),
        _ => None,
    }
}

/// Pulls `--flag value` out of an argument list.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the shared engine-budget flags (`--depth`, `--timeout`,
/// `--jobs`, `--certify`, `--incremental`/`--no-incremental`,
/// `--no-sharing`, the `--bdd-*` family, `--max-bdd-nodes`,
/// `--retries`/`--retry-factor`/`--retry-backoff-ms`) into
/// [`CheckOptions`] with validation — a typo'd value is an error, not a
/// silent fallback to the default. Every subcommand that runs engines
/// locally parses through this one function.
pub fn options_from_args(args: &[String]) -> Result<CheckOptions, String> {
    let mut opts = CheckOptions::default();
    if let Some(d) = flag_value(args, "--depth") {
        opts.max_depth = d
            .parse()
            .map_err(|_| format!("--depth expects a number, got `{d}`"))?;
    }
    if let Some(t) = flag_value(args, "--timeout") {
        let secs: u64 = t
            .parse()
            .map_err(|_| format!("--timeout expects seconds, got `{t}`"))?;
        opts = opts.with_timeout(Duration::from_secs(secs));
    }
    if let Some(j) = flag_value(args, "--jobs") {
        let jobs: usize = j
            .parse()
            .map_err(|_| format!("--jobs expects a number, got `{j}`"))?;
        if jobs == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        opts = opts.with_jobs(jobs);
    }
    if args.iter().any(|a| a == "--certify") {
        opts = opts.with_certify();
    }
    let incremental = args.iter().any(|a| a == "--incremental");
    let no_incremental = args.iter().any(|a| a == "--no-incremental");
    if incremental && no_incremental {
        return Err("--incremental and --no-incremental are mutually exclusive".to_string());
    }
    if incremental {
        opts = opts.with_incremental(true);
    } else if no_incremental {
        opts = opts.with_incremental(false);
    }
    if args.iter().any(|a| a == "--no-sharing") {
        opts = opts.with_sharing(false);
    }
    let bdd_part = args.iter().any(|a| a == "--bdd-partitioned");
    let bdd_mono = args.iter().any(|a| a == "--bdd-monolithic");
    if bdd_part && bdd_mono {
        return Err("--bdd-partitioned and --bdd-monolithic are mutually exclusive".to_string());
    }
    if bdd_mono {
        opts = opts.with_bdd_partitioned(false);
    }
    if let Some(m) = flag_value(args, "--max-bdd-nodes") {
        let max: usize = m
            .parse()
            .map_err(|_| format!("--max-bdd-nodes expects a node count, got `{m}`"))?;
        opts = opts.with_max_bdd_nodes(max);
    }
    if let Some(r) = flag_value(args, "--retries") {
        let retries: u32 = r
            .parse()
            .map_err(|_| format!("--retries expects a number, got `{r}`"))?;
        if retries > 0 {
            let mut policy = RetryPolicy::with_retries(retries);
            if let Some(f) = flag_value(args, "--retry-factor") {
                policy = policy.with_factor(
                    f.parse()
                        .map_err(|_| format!("--retry-factor expects a number, got `{f}`"))?,
                );
            }
            if let Some(b) = flag_value(args, "--retry-backoff-ms") {
                policy = policy
                    .with_backoff(Duration::from_millis(b.parse().map_err(|_| {
                        format!("--retry-backoff-ms expects millis, got `{b}`")
                    })?));
            }
            opts = opts.with_retry(policy);
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_journal::json::parse;

    const COUNTER: &str = "system s {
        var n : 0..7;
        param p : 1..3;
        init n = 0;
        trans next(n) = if n < 7 then n + p else n;
        invariant in_range: n <= 7;
        invariant miss5: n != 5;
    }";

    #[test]
    fn spec_round_trip() {
        let spec = JobSpec {
            kind: JobKind::Synth,
            source: "system s { var n : 0..3; init n = 0; trans next(n) = n; }".into(),
            prop: Some("miss".into()),
            engine: "kind".into(),
            depth: Some(32),
            deadline_ms: Some(5000),
            params: vec!["a".into(), "b".into()],
            certify: true,
            idem: Some("client-7-42".into()),
        };
        assert_eq!(
            JobSpec::from_json(&parse(&spec.to_json().to_string()).unwrap()).unwrap(),
            spec
        );
        let bare = JobSpec::check("system s {}");
        assert_eq!(
            JobSpec::from_json(&parse(&bare.to_json().to_string()).unwrap()).unwrap(),
            bare
        );
    }

    #[test]
    fn fingerprint_ignores_deadline_and_idem() {
        let mut a = JobSpec::check("system s {}");
        let mut b = a.clone();
        b.deadline_ms = Some(100);
        b.idem = Some("k".into());
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.engine = "bdd".into();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn validate_catches_each_failure_class() {
        let mut spec = JobSpec::check("system s {");
        assert!(matches!(spec.validate(), Err(SpecError::Parse(_))));
        spec = JobSpec::check(COUNTER);
        assert!(spec.validate().is_ok());
        spec.engine = "nuxmv".into();
        assert!(matches!(spec.validate(), Err(SpecError::BadRequest(_))));
        spec.engine = "auto".into();
        spec.prop = Some("nope".into());
        assert!(matches!(spec.validate(), Err(SpecError::BadRequest(_))));
        let mut synth = JobSpec::synth(COUNTER, &["p"]);
        assert!(matches!(synth.validate(), Err(SpecError::BadRequest(_)))); // two properties
        synth.prop = Some("miss5".into());
        assert!(synth.validate().is_ok());
        synth.params = vec!["q".into()];
        assert!(matches!(synth.validate(), Err(SpecError::BadRequest(_))));
        synth.params = Vec::new();
        assert!(matches!(synth.validate(), Err(SpecError::BadRequest(_))));
    }

    #[test]
    fn from_cli_args_builds_the_spec() {
        let args: Vec<String> = [
            "--prop",
            "miss5",
            "--engine",
            "kind",
            "--depth",
            "12",
            "--deadline",
            "3",
            "--certify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let spec = JobSpec::from_cli_args(JobKind::Check, COUNTER, &args).unwrap();
        assert_eq!(spec.prop.as_deref(), Some("miss5"));
        assert_eq!(spec.engine, "kind");
        assert_eq!(spec.depth, Some(12));
        assert_eq!(spec.deadline_ms, Some(3000));
        assert!(spec.certify);
        let bad: Vec<String> = ["--engine", "nuxmv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(JobSpec::from_cli_args(JobKind::Check, COUNTER, &bad).is_err());
    }

    #[test]
    fn check_options_overlays_budgets() {
        let mut spec = JobSpec::check(COUNTER);
        spec.depth = Some(9);
        spec.deadline_ms = Some(1500);
        spec.certify = true;
        let opts = spec.check_options(CheckOptions::default());
        assert_eq!(opts.max_depth, 9);
        assert_eq!(opts.timeout, Some(Duration::from_millis(1500)));
        assert!(opts.certify);
    }

    #[test]
    fn execute_checks_and_synthesizes() {
        // p is frozen and unconstrained, so `miss5` is violated for p=1
        // (0,1,2,3,4,5) and `in_range` holds. Under `auto` the invariants
        // run on k-induction and the LTL property on bdd, and each row
        // names the engine that ran.
        let source = COUNTER.replace(
            "invariant miss5",
            "ltl climbs: F (n >= 3);\n        invariant miss5",
        );
        let (rows, stats) = execute(&JobSpec::check(&source), &ExecContext::default());
        assert_eq!(rows.len(), 3);
        assert!(stats.is_some());
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by_name("in_range").verdict, "safe");
        assert_eq!(by_name("miss5").verdict, "unsafe");
        assert_eq!(by_name("in_range").engine, "k-induction");
        assert_eq!(by_name("climbs").engine, "bdd");

        let mut synth = JobSpec::synth(COUNTER, &["p"]);
        synth.prop = Some("miss5".into());
        let (rows, _) = execute(&synth, &ExecContext::default());
        assert_eq!(rows.len(), 3, "{rows:?}");
        let unsafe_rows: Vec<_> = rows.iter().filter(|r| r.verdict == "unsafe").collect();
        assert_eq!(unsafe_rows.len(), 1);
        assert_eq!(unsafe_rows[0].name, "p=1");
        for row in &rows {
            assert_eq!(
                EngineKind::from_tag(&row.engine),
                Some(EngineKind::KInduction),
                "{row:?}"
            );
        }
    }

    #[test]
    fn options_from_args_validates() {
        let ok: Vec<String> = ["--depth", "32", "--jobs", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = options_from_args(&ok).unwrap();
        assert_eq!(opts.max_depth, 32);
        assert_eq!(opts.jobs, Some(2));
        let bad: Vec<String> = ["--depth", "many"].iter().map(|s| s.to_string()).collect();
        assert!(options_from_args(&bad).is_err());
    }
}
