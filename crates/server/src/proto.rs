//! Wire protocol and WAL record shapes.
//!
//! Everything on the socket and in the WAL is line-delimited JSON built
//! with the journal's in-tree parser — no external dependencies. One
//! request per line; most operations answer with exactly one line, and
//! `wait` streams `{"job":N,"event":…}` lines (PR-5 trace events,
//! verbatim) before its final document.

use std::collections::BTreeMap;

use verdict_journal::json::{parse, Json};

/// Builds a JSON object from ordered pairs.
pub(crate) fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// The job-spec types are the unified `verdict_mc::spec` ones — the
/// wire serializes exactly the type every local entry point builds, so
/// the local and remote paths cannot drift. Re-exported here so the
/// protocol module remains the one-stop import for wire shapes.
pub use verdict_mc::spec::{JobKind, JobSpec, VerdictRow};

/// A parsed client request (one JSONL line).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Admit a job.
    Submit(JobSpec),
    /// Snapshot one job's state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Stream a job's trace events, then its final state.
    Wait {
        /// Job id.
        job: u64,
    },
    /// Cancel a queued or running job (durably journaled).
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Server stats (schema-2 JSON, including the `server` and
    /// `supervision` groups).
    Stats,
    /// Lift a quarantine: re-admit the spec fingerprint (as printed in
    /// a `quarantined` rejection) before its TTL expires.
    Unquarantine {
        /// The spec fingerprint, as a 16-digit lowercase hex string.
        fp: String,
    },
    /// Begin graceful drain, as if SIGTERM arrived.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse(line).map_err(|e| e.to_string())?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request missing `op`")?;
        let job = || -> Result<u64, String> {
            v.get("job")
                .and_then(Json::as_int)
                .filter(|&j| j >= 0)
                .map(|j| j as u64)
                .ok_or_else(|| "request missing `job`".to_string())
        };
        match op {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let spec = v.get("spec").ok_or("submit missing `spec`")?;
                Ok(Request::Submit(JobSpec::from_json(spec)?))
            }
            "status" => Ok(Request::Status { job: job()? }),
            "wait" => Ok(Request::Wait { job: job()? }),
            "cancel" => Ok(Request::Cancel { job: job()? }),
            "stats" => Ok(Request::Stats),
            "unquarantine" => Ok(Request::Unquarantine {
                fp: v
                    .get("fp")
                    .and_then(Json::as_str)
                    .ok_or("unquarantine missing `fp`")?
                    .to_string(),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Serializes this request to its wire line (no newline).
    pub fn to_line(&self) -> String {
        match self {
            Request::Ping => obj(vec![("op", Json::Str("ping".into()))]),
            Request::Submit(spec) => obj(vec![
                ("op", Json::Str("submit".into())),
                ("spec", spec.to_json()),
            ]),
            Request::Status { job } => obj(vec![
                ("op", Json::Str("status".into())),
                ("job", Json::Int(*job as i64)),
            ]),
            Request::Wait { job } => obj(vec![
                ("op", Json::Str("wait".into())),
                ("job", Json::Int(*job as i64)),
            ]),
            Request::Cancel { job } => obj(vec![
                ("op", Json::Str("cancel".into())),
                ("job", Json::Int(*job as i64)),
            ]),
            Request::Stats => obj(vec![("op", Json::Str("stats".into()))]),
            Request::Unquarantine { fp } => obj(vec![
                ("op", Json::Str("unquarantine".into())),
                ("fp", Json::Str(fp.clone())),
            ]),
            Request::Shutdown => obj(vec![("op", Json::Str("shutdown".into()))]),
        }
        .to_string()
    }
}

/// A structured refusal. The daemon never blocks or queues unboundedly:
/// a submit either returns a job id or one of these, and a request about
/// a job it no longer holds gets one too.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// Machine-readable reason: `queue-full`, `draining`, `parse-error`,
    /// `bad-request`, `wal-error`, `quarantined`, or `evicted` (a
    /// `status` or `wait` of a finished job that has left the daemon's
    /// window of the last [`crate::RETAINED_JOBS`] finished jobs).
    pub reason: String,
    /// Human-readable detail, when there is more to say.
    pub detail: Option<String>,
    /// Jobs currently queued (present for `queue-full`).
    pub queued: Option<u64>,
    /// The admission queue's capacity (present for `queue-full`).
    pub capacity: Option<u64>,
    /// The spec fingerprint, hex (present for `quarantined`) — pass it
    /// to the `unquarantine` op to lift the circuit breaker early.
    pub fingerprint: Option<String>,
    /// Milliseconds until the quarantine TTL expires (present for
    /// `quarantined`).
    pub retry_after_ms: Option<u64>,
}

impl Rejection {
    /// A bare rejection with only a reason tag.
    pub fn new(reason: &str) -> Rejection {
        Rejection {
            reason: reason.to_string(),
            detail: None,
            queued: None,
            capacity: None,
            fingerprint: None,
            retry_after_ms: None,
        }
    }

    /// Adds human-readable detail.
    pub fn with_detail(mut self, detail: String) -> Rejection {
        self.detail = Some(detail);
        self
    }

    /// JSON form (merged into the `ok:false` response).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("ok", Json::Bool(false)),
            ("reason", Json::Str(self.reason.clone())),
        ];
        if let Some(d) = &self.detail {
            pairs.push(("detail", Json::Str(d.clone())));
        }
        if let Some(q) = self.queued {
            pairs.push(("queued", Json::Int(q as i64)));
        }
        if let Some(c) = self.capacity {
            pairs.push(("capacity", Json::Int(c as i64)));
        }
        if let Some(fp) = &self.fingerprint {
            pairs.push(("fingerprint", Json::Str(fp.clone())));
        }
        if let Some(ms) = self.retry_after_ms {
            pairs.push(("retry_after_ms", Json::Int(ms as i64)));
        }
        obj(pairs)
    }

    /// Parses the JSON form of an `ok:false` response.
    pub fn from_json(v: &Json) -> Result<Rejection, String> {
        if !matches!(v.get("ok"), Some(Json::Bool(false))) {
            return Err(format!("not a rejection: {v}"));
        }
        Ok(Rejection {
            reason: v
                .get("reason")
                .and_then(Json::as_str)
                .ok_or("rejection missing `reason`")?
                .to_string(),
            detail: v.get("detail").and_then(Json::as_str).map(str::to_string),
            queued: v.get("queued").and_then(Json::as_int).map(|q| q as u64),
            capacity: v.get("capacity").and_then(Json::as_int).map(|c| c as u64),
            fingerprint: v
                .get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string),
            retry_after_ms: v
                .get("retry_after_ms")
                .and_then(Json::as_int)
                .map(|m| m as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn request_round_trip() {
        for req in [
            Request::Ping,
            Request::Submit(JobSpec::check("x")),
            Request::Status { job: 3 },
            Request::Wait { job: 9 },
            Request::Cancel { job: 1 },
            Request::Stats,
            Request::Unquarantine {
                fp: "00ff00ff00ff00ff".into(),
            },
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.to_line()).unwrap(), req);
        }
        assert!(Request::parse("{\"op\":\"nope\"}").is_err());
        assert!(Request::parse("garbage").is_err());
        assert!(Request::parse("{\"op\":\"status\"}").is_err());
    }

    #[test]
    fn rejection_shape() {
        let r = Rejection {
            reason: "queue-full".into(),
            detail: None,
            queued: Some(8),
            capacity: Some(8),
            fingerprint: None,
            retry_after_ms: None,
        };
        let line = r.to_json().to_string();
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"reason\":\"queue-full\""));
        assert!(line.contains("\"queued\":8"));
        let mut q = Rejection::new("quarantined");
        q.fingerprint = Some("00ff00ff00ff00ff".into());
        q.retry_after_ms = Some(1234);
        let parsed = Rejection::from_json(&parse(&q.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, q);
    }
}
