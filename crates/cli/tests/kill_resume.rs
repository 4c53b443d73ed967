//! Kill-and-resume over the real binary: a journaled sweep killed with
//! SIGKILL (no chance to clean up) or interrupted with SIGINT (graceful
//! drain) must resume to the same verdict map as an uninterrupted run,
//! without re-solving decided assignments.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// 64 assignments over a state space big enough that the sweep takes
/// long enough to kill mid-flight, but finishes in well under a minute.
const MODEL: &str = "
system killable {
    var n : 0..120;
    param a : 1..8;
    param b : 1..8;
    init n = 0;
    trans next(n) = if n <= 100 then n + a + b else n;
    invariant miss: n != 37;
}
";

fn temp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("verdict-kill-{}-{tag}", std::process::id()))
}

fn write_model(tag: &str) -> PathBuf {
    let path = temp(tag).with_extension("vd");
    std::fs::write(&path, MODEL).expect("model written");
    path
}

fn spawn_sweep(model: &Path, journal: &Path, resume: bool) -> Child {
    let flag = if resume { "--resume" } else { "--journal" };
    Command::new(env!("CARGO_BIN_EXE_verdict"))
        .args([
            "synth",
            model.to_str().unwrap(),
            "--params",
            "a,b",
            flag,
            journal.to_str().unwrap(),
            "--json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns")
}

/// Wait until the journal holds at least `n` verdict records (the victim
/// is mid-sweep) or the child exits on its own.
fn wait_for_verdicts(journal: &Path, n: usize, child: &mut Child) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        let verdicts = std::fs::read_to_string(journal)
            .map(|s| {
                s.lines()
                    .filter(|l| l.contains("\"type\":\"verdict\""))
                    .count()
            })
            .unwrap_or(0);
        if verdicts >= n {
            return true;
        }
        if child.try_wait().expect("try_wait").is_some() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("sweep never produced {n} verdicts");
}

/// The `"verdicts":[...]` array of a synth `--json` document — the
/// verdict map, with the timing field left out of the comparison.
fn verdict_map(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    let start = text.find("\"verdicts\":[").expect("json has verdicts");
    let end = text[start..].find("],").expect("array closes") + start;
    text[start..=end].to_string()
}

fn run_clean(model: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_verdict"))
        .args([
            "synth",
            model.to_str().unwrap(),
            "--params",
            "a,b",
            "--json",
        ])
        .output()
        .expect("clean run")
}

#[test]
fn sigkill_then_resume_matches_uninterrupted() {
    let model = write_model("sigkill");
    let journal = temp("sigkill").with_extension("jsonl");
    let _ = std::fs::remove_file(&journal);

    let mut child = spawn_sweep(&model, &journal, false);
    let killed_midway = wait_for_verdicts(&journal, 3, &mut child);
    child.kill().ok();
    child.wait().expect("reaped");

    let before = std::fs::read_to_string(&journal).expect("journal survives SIGKILL");
    let decided_before = before
        .lines()
        .filter(|l| l.contains("\"type\":\"verdict\""))
        .count();
    if killed_midway {
        assert!(decided_before >= 3, "fsync'd records survive the kill");
    }

    let resumed = spawn_sweep(&model, &journal, true)
        .wait_with_output()
        .expect("resumed run");
    assert!(resumed.status.success(), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    if killed_midway {
        assert!(
            stderr.contains("resumed") && stderr.contains("decided assignment"),
            "resume must skip decided work: {stderr}"
        );
    }
    assert_eq!(
        verdict_map(&resumed),
        verdict_map(&run_clean(&model)),
        "resumed verdict map differs from uninterrupted run"
    );

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn sigint_drains_then_resume_matches_uninterrupted() {
    let model = write_model("sigint");
    let journal = temp("sigint").with_extension("jsonl");
    let _ = std::fs::remove_file(&journal);

    let mut child = spawn_sweep(&model, &journal, false);
    let interrupted_midway = wait_for_verdicts(&journal, 3, &mut child);
    if interrupted_midway {
        let ok = Command::new("kill")
            .args(["-INT", &child.id().to_string()])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "SIGINT delivered");
    }
    let out = child.wait_with_output().expect("victim exits");
    if interrupted_midway {
        // Graceful drain: exit 130, not a signal death.
        assert_eq!(out.status.code(), Some(130), "{out:?}");
    }

    let resumed = spawn_sweep(&model, &journal, true)
        .wait_with_output()
        .expect("resumed run");
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        verdict_map(&resumed),
        verdict_map(&run_clean(&model)),
        "resumed verdict map differs from uninterrupted run"
    );

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&journal);
}

/// Resuming against a different model must be refused: the journal
/// header fingerprints the system, parameter space, property, and
/// engine.
#[test]
fn resume_refuses_mismatched_model() {
    let model = write_model("fpr");
    let journal = temp("fpr").with_extension("jsonl");
    let _ = std::fs::remove_file(&journal);
    let out = spawn_sweep(&model, &journal, false)
        .wait_with_output()
        .expect("journaled run");
    assert!(out.status.success(), "{out:?}");

    let other = temp("fpr-other").with_extension("vd");
    std::fs::write(&other, MODEL.replace("n != 37", "n != 38")).expect("model written");
    let mismatch = spawn_sweep(&other, &journal, true)
        .wait_with_output()
        .expect("mismatched resume");
    assert_eq!(mismatch.status.code(), Some(1), "{mismatch:?}");
    let stderr = String::from_utf8_lossy(&mismatch.stderr);
    assert!(
        stderr.contains("journal") || stderr.contains("mismatch"),
        "{stderr}"
    );

    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&other);
    let _ = std::fs::remove_file(&journal);
}

/// A `check` journal written before check rows named the engine that ran
/// holds the requested engine for an LTL verdict that BDD decided. The
/// resumed run must name the engine that ran, in text and in JSON.
#[test]
fn resumed_check_rows_name_the_engine_that_ran() {
    let model_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/models/taint_loop.vd");
    let model = verdict_dsl::parse(&std::fs::read_to_string(&model_path).expect("example model"))
        .expect("model compiles");
    let specs: Vec<(String, String)> = model
        .properties
        .iter()
        .map(|(name, p)| (name.clone(), format!("{p:?}")))
        .collect();
    let (name, property) = &model.properties[0];
    let report = verdict_mc::check(
        &model.system,
        property,
        verdict_mc::EngineKind::Auto,
        &verdict_mc::CheckOptions::default(),
    )
    .expect("check runs");
    assert!(report.result.violated(), "{}", report.result);
    let journal = temp("engine-label").with_extension("jsonl");
    let _ = std::fs::remove_file(&journal);
    {
        let (recorder, _) = verdict_mc::durable::start_check_journal(
            &journal,
            false,
            &model.system,
            &specs,
            "auto",
        )
        .expect("journal created");
        recorder.record_property(name, &report.result, "k-induction");
    }
    let resume = |json: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_verdict"));
        cmd.args([
            "check",
            model_path.to_str().unwrap(),
            "--resume",
            journal.to_str().unwrap(),
        ]);
        if json {
            cmd.arg("--json");
        }
        let out = cmd.output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = resume(false);
    assert!(
        text.contains(&format!(
            "property `{name}` (resumed from journal, engine bdd)"
        )),
        "{text}"
    );
    let json = resume(true);
    assert!(
        json.contains("\"engine\":\"bdd\"") && json.contains("\"resumed\":true"),
        "{json}"
    );
    let _ = std::fs::remove_file(&journal);
}
