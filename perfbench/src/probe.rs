//! Host-speed probe: the yardstick the batch workloads' timings are
//! scaled by.
//!
//! The shared host's speed drifts by about ±20% over minutes (see
//! `NOTES.md`), so two runs of the same code minutes apart read timings
//! that differ by more than a regression worth catching. Each batch run
//! therefore times a fixed slice of work — building and probing hash
//! maps of about 2 MB, which the program's encoders and solvers resemble
//! — between its passes, for about a tenth of its measured time, and
//! scales its timings to a host on which the median slice takes
//! [`REFERENCE_SLICE_MS`]. The slice's code is the benchmark's own and
//! never changes with the program under test, so a faster program still
//! reads faster, while a slower host no longer does.
//!
//! The slices run in a child process (this binary with `--probe`), which
//! shares neither memory nor allocator with the program under test and
//! leaves the measured process's peak resident set alone. It idles,
//! blocked on its input, while the program runs. Before each slice it
//! pins itself to the CPU the work just ran on: the host's two vCPUs
//! drift apart, and slices on the other one tracked the work no better
//! than no scaling at all.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use crate::report::median;

/// Median slice milliseconds of the reference host the timings are
/// scaled to: a shared 2-vCPU virtual machine at 2.1 GHz, where the
/// slice reads about 20–27 ms as the host drifts.
pub const REFERENCE_SLICE_MS: f64 = 23.0;

/// Probe seconds per second of measured work.
const SHARE: f64 = 0.1;

/// Fewest slices a run's median is taken over.
const MIN_SLICES: usize = 20;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

/// The CPU the calling thread runs on.
fn current_cpu() -> usize {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    usize::try_from(unsafe { sched_getcpu() }).unwrap_or(0)
}

/// Pins the calling thread to `cpu`; false if the kernel refuses.
fn pin(cpu: usize) -> bool {
    if cpu >= CPU_SET_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of `cpu_set_t`'s size.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One slice of fixed work: four rounds of 60,000 inserts into a fresh
/// hash map over 150,000 keys and 60,000 lookups. Returns its seconds.
fn slice() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..4 {
        let mut m: HashMap<u64, u64> = HashMap::new();
        for _ in 0..60_000 {
            *m.entry(xorshift(&mut x) % 150_000).or_insert(0) += 1;
        }
        for _ in 0..60_000 {
            acc += m.get(&(xorshift(&mut x) % 150_000)).copied().unwrap_or(0);
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The child's main loop, until its input closes: per input line, which
/// names a CPU, it pins itself there, runs a warm-up slice (which brings
/// the slice's code and data back into the caches the work used) and a
/// timed slice, and writes back the timed slice's milliseconds, both
/// slices' milliseconds, and whether the pin held.
pub fn child_main() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    for line in std::io::stdin().lock().lines() {
        let pinned = line?.trim().parse().is_ok_and(pin);
        let t0 = Instant::now();
        slice();
        let timed = slice();
        writeln!(
            out,
            "{} {} {}",
            timed * 1e3,
            t0.elapsed().as_secs_f64() * 1e3,
            u8::from(pinned)
        )?;
        out.flush()?;
    }
    Ok(())
}

/// What a run's probe read.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// What the run's times are multiplied by to read as on the
    /// reference host (a rate is divided by it).
    pub scale: f64,
    /// Median timed-slice milliseconds.
    pub median_ms: f64,
    /// Timed slices.
    pub slices: usize,
    /// Slices the child could not pin to the work's CPU.
    pub unpinned: usize,
}

impl Summary {
    /// The summary as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"scale\": {}, \"median_ms\": {}, \"slices\": {}, \"unpinned\": {}}}",
            self.scale, self.median_ms, self.slices, self.unpinned
        )
    }
}

/// The parent's handle on a running probe child. Dropping it closes the
/// child's input, then kills and waits for it.
pub struct Probe {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    slices_ms: Vec<f64>,
    unpinned: usize,
    /// Probe seconds owed to the measured work so far.
    owed_s: f64,
}

impl Probe {
    /// Starts the child and waits until it is ready.
    pub fn start() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("probe: cannot start: {e}"))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut p = Probe {
            child,
            to,
            from,
            slices_ms: Vec::new(),
            unpinned: 0,
            owed_s: 0.0,
        };
        match p.read_line()?.as_str() {
            "ready" => Ok(p),
            other => Err(format!("probe: unexpected `{other}`")),
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.from.read_line(&mut line) {
            Ok(0) => Err("probe: the child exited".into()),
            Ok(_) => Ok(line.trim().to_string()),
            Err(e) => Err(format!("probe: {e}")),
        }
    }

    /// Runs a warm-up and a timed slice in the child, on the CPU this
    /// thread is on; records the timed slice's milliseconds and returns
    /// both slices' milliseconds.
    fn slice(&mut self) -> Result<f64, String> {
        let to = self.to.as_mut().ok_or("probe: closed")?;
        writeln!(to, "{}", current_cpu())
            .and_then(|()| to.flush())
            .map_err(|e| format!("probe: {e}"))?;
        let line = self.read_line()?;
        let ms: Vec<f64> = line.split(' ').filter_map(|v| v.parse().ok()).collect();
        let [timed, total, pinned] = ms[..] else {
            return Err(format!("probe: bad reply `{line}`"));
        };
        self.slices_ms.push(timed);
        self.unpinned += usize::from(pinned == 0.0);
        Ok(total)
    }

    /// Follows `work_s` seconds of measured work with slices, so that
    /// probe time stays about [`SHARE`] of the work before it.
    pub fn follow(&mut self, work_s: f64) -> Result<(), String> {
        self.owed_s += SHARE * work_s;
        while self.owed_s > 0.0 {
            self.owed_s -= self.slice()? / 1e3;
        }
        Ok(())
    }

    /// Tops the run's slices up to [`MIN_SLICES`].
    pub fn finish(&mut self) -> Result<(), String> {
        while self.slices_ms.len() < MIN_SLICES {
            self.slice()?;
        }
        Ok(())
    }

    /// What the probe read over the run.
    pub fn summary(&self) -> Summary {
        let median_ms = median(&self.slices_ms);
        Summary {
            scale: REFERENCE_SLICE_MS / median_ms,
            median_ms,
            slices: self.slices_ms.len(),
            unpinned: self.unpinned,
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        drop(self.to.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
