//! Assertion tests over the `verdict` binary's exit-code contract:
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | every property holds or is unknown for an honest reason    |
//! | 2    | at least one property violated                             |
//! | 1    | usage/parse/engine error, or a property left unknown by an |
//! |      | infrastructure failure (engine-failure, resource-exhausted,|
//! |      | certificate-rejected)                                      |

use std::path::PathBuf;
use std::process::{Command, Output};

const SAFE_MODEL: &str = "
system safe {
    var n : 0..7;
    init n = 0;
    trans next(n) = if n < 7 then n + 1 else n;
    invariant bounded: n <= 7;
}
";

const UNSAFE_MODEL: &str = "
system unsafe {
    var n : 0..7;
    init n = 0;
    trans next(n) = if n < 7 then n + 1 else n;
    invariant low: n < 5;
}
";

const SWEEP_MODEL: &str = "
system sweep {
    var n : 0..10;
    param step : 1..3;
    init n = 0;
    trans next(n) = if n <= 7 then n + step else n;
    invariant miss5: n != 5;
}
";

/// Parameter `p` only changes the step size; `n` stays even either way.
/// k-induction at depth 1 cannot prove `even` (the unreachable state
/// n = 5 steps to 7), while the BDD engine's reachability proves it.
const TWOSTEP_MODEL: &str = "
system twostep {
    var n : 0..20;
    param p : 1..2;
    init n = 0;
    trans next(n) = if n < 10 then n + 2 * p else n;
    invariant even: n != 7;
}
";

/// A model file in the system temp directory, removed on drop so that a
/// failing assertion cleans up too.
struct Model(PathBuf);

impl Model {
    fn path(&self) -> &str {
        self.0.to_str().expect("UTF-8 temp path")
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_model(tag: &str, body: &str) -> Model {
    let path = std::env::temp_dir().join(format!("verdict-exit-{}-{tag}.vd", std::process::id()));
    std::fs::write(&path, body).expect("model written");
    Model(path)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verdict"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("not signal-killed")
}

#[test]
fn safe_model_exits_zero() {
    let m = write_model("safe", SAFE_MODEL);
    let out = run(&["check", m.path()]);
    assert_eq!(code(&out), 0, "{out:?}");
}

#[test]
fn violated_model_exits_two() {
    let m = write_model("unsafe", UNSAFE_MODEL);
    let out = run(&["check", m.path()]);
    assert_eq!(code(&out), 2, "{out:?}");
}

#[test]
fn honest_unknown_exits_zero() {
    // BMC cannot prove a holding invariant: depth-bound is an honest
    // Unknown, not an infrastructure failure.
    let m = write_model("honest", SAFE_MODEL);
    let out = run(&["check", m.path(), "--engine", "bmc", "--depth", "4"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNKNOWN"), "{text}");
}

#[test]
fn parse_error_exits_one() {
    let m = write_model("garbled", "system { nope");
    let out = run(&["check", m.path()]);
    assert_eq!(code(&out), 1, "{out:?}");
}

#[test]
fn infrastructure_unknown_exits_one() {
    // An injected resource-exhaustion fault leaves the property unknown
    // for an infrastructure reason → exit 1 under the contract.
    let m = write_model("infra", SAFE_MODEL);
    let out = run(&[
        "check",
        m.path(),
        "--engine",
        "kind",
        "--fault",
        "sat.solve:exhaust:1",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UNKNOWN"), "{text}");
}

#[test]
fn retries_recover_infrastructure_failures() {
    let m = write_model("retry", SAFE_MODEL);
    let out = run(&[
        "check",
        m.path(),
        "--engine",
        "kind",
        "--fault",
        "sat.solve:exhaust:1",
        "--retries",
        "2",
        "--retry-backoff-ms",
        "0",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HOLDS"), "{text}");
}

#[test]
fn contained_panic_exits_one_not_crash() {
    let m = write_model("panic", SAFE_MODEL);
    let out = run(&[
        "check",
        m.path(),
        "--engine",
        "kind",
        "--fault",
        "sat.solve:panic:1",
    ]);
    // Contained at the verifier boundary: a clean exit 1, not a signal
    // or a Rust panic abort (101).
    assert_eq!(code(&out), 1, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("engine failure"), "{text}");
}

#[test]
fn synth_json_reports_attempts_and_reasons() {
    let m = write_model("synthjson", SWEEP_MODEL);
    let out = run(&[
        "synth",
        m.path(),
        "--params",
        "step",
        "--fault",
        "mc.synth.worker:panic:1",
        "--retries",
        "2",
        "--retry-backoff-ms",
        "0",
        "--json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("\"attempts\":2"),
        "retried assignment: {text}"
    );
    assert!(
        text.contains("\"attempts\":1"),
        "untouched assignment: {text}"
    );
    assert!(text.contains("\"reason\":null"), "{text}");

    // Without retries the injected panic stays visible as a tagged
    // UnknownReason.
    let out = run(&[
        "synth",
        m.path(),
        "--params",
        "step",
        "--fault",
        "mc.synth.worker:panic:1",
        "--json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"reason\":\"engine-failure\""), "{text}");
}

#[test]
fn check_parses_the_engine_tags_it_prints() {
    let m = write_model("tags", SAFE_MODEL);
    let out = run(&["check", m.path(), "--engine", "k-induction", "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"engine\":\"k-induction\""), "{text}");
    for cmd in ["check", "synth"] {
        let out = run(&[cmd, m.path(), "--params", "n", "--engine", "nuxmv"]);
        assert_eq!(code(&out), 1, "{cmd}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown engine `nuxmv`"), "{cmd}: {err}");
    }
}

#[test]
fn synth_honours_the_engine_flag() {
    let m = write_model("twostep", TWOSTEP_MODEL);
    let out = run(&[
        "synth",
        m.path(),
        "--params",
        "p",
        "--engine",
        "bdd",
        "--depth",
        "1",
        "--json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        text.matches("\"verdict\":\"safe\"").count(),
        2,
        "both assignments proved by BDD reachability: {text}"
    );
}

/// A sample model shipped in `examples/models/`.
fn example(name: &str) -> String {
    format!(
        "{}/../../examples/models/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn unknown_flags_exit_one() {
    let step = example("step_counter.vd");
    for (args, flag) in [
        (["check", &step, "--timout", "5"].as_slice(), "--timout"),
        (
            ["check", &step, "--no-such-flag"].as_slice(),
            "--no-such-flag",
        ),
        (
            ["synth", &step, "--params", "step", "--bogus", "--json"].as_slice(),
            "--bogus",
        ),
    ] {
        let out = run(args);
        assert_eq!(code(&out), 1, "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn check_names_the_engine_that_ran() {
    // taint_loop's one property is LTL: `auto` and `kind` both hand it
    // to bdd, and the row and its stats must say so.
    let taint = example("taint_loop.vd");
    for engine in [[].as_slice(), ["--engine", "kind"].as_slice()] {
        let mut args = vec!["check", taint.as_str(), "--json", "--stats"];
        args.extend_from_slice(engine);
        let out = run(&args);
        assert_eq!(code(&out), 2, "{args:?}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains("\"engine\":\"bdd\",\"certificate\""),
            "row engine: {text}"
        );
        assert!(
            text.contains("\"stats\":{\"schema\":2,\"engine\":\"bdd\""),
            "stats engine: {text}"
        );
    }
}

#[test]
fn conflicting_flags_exit_one() {
    let m = write_model("flags", SAFE_MODEL);
    for args in [
        ["check", "--journal", "/tmp/a", "--resume", "/tmp/b"].as_slice(),
        ["check", "--fault", "sat.solve:panic", "--fault-seed", "1"].as_slice(),
    ] {
        let mut full = vec![args[0], m.path()];
        full.extend_from_slice(&args[1..]);
        let out = run(&full);
        assert_eq!(code(&out), 1, "{args:?}: {out:?}");
    }
}
