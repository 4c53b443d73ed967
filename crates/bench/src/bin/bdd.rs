//! Measures the partitioned symbolic engine against the monolithic
//! baseline on the fat-tree sweep and writes `BENCH_bdd.json`.
//!
//! ```text
//! cargo run -p verdict-bench --release --bin bdd -- \
//!     [--max-arity K] [--timeout-secs N] [--out PATH]
//! ```
//!
//! For each topology (test, fattree4 … fattree`--max-arity`) the
//! availability invariant is verified at `p = 1, k = 1, m = 1` by the
//! BDD engine twice — once with the monolithic conjoined transition
//! relation, once partitioned with early quantification — and the JSON
//! records wall-clock, peak live nodes, nodes allocated and partition
//! count for both modes. The headline claims the sweep
//! backs: the partitioned image keeps peak live nodes several times
//! below the monolithic run at arity 4, and arities the monolithic
//! relation cannot finish within the timeout verify partitioned.
//!
//! Both modes must agree on every verdict that is not a timeout; the
//! binary asserts this before writing the file.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use verdict_bench::{flag_value, fmt_duration, host_provenance_json, sample_cores, timed};
use verdict_mc::prelude::*;
use verdict_mc::Stats;
use verdict_models::{RolloutModel, RolloutSpec, Topology};

struct Run {
    verdict: &'static str,
    wall: Duration,
    peak_live: u64,
    nodes_allocated: u64,
    partitions: u64,
}

fn verdict_str(r: &CheckResult) -> &'static str {
    match r {
        CheckResult::Holds => "holds",
        CheckResult::Violated(_) => "violated",
        CheckResult::Unknown(_) => "unknown",
    }
}

fn check(model: &RolloutModel, pins: (i64, i64, i64), partitioned: bool, timeout: Duration) -> Run {
    let sys = model.pinned(pins.0, pins.1, pins.2);
    let mut stats = Stats::default();
    let opts = CheckOptions::with_depth(64)
        .with_timeout(timeout)
        .with_bdd_partitioned(partitioned);
    let (res, wall) = timed(|| {
        engine(EngineKind::Bdd)
            .check_invariant(&sys, &model.property, &opts, &mut stats)
            .unwrap()
    });
    Run {
        verdict: verdict_str(&res),
        wall,
        peak_live: stats.bdd.peak_live_nodes,
        nodes_allocated: stats.bdd.nodes_allocated,
        partitions: stats.bdd.partitions,
    }
}

fn run_json(r: &Run) -> String {
    format!(
        "{{\"verdict\": \"{}\", \"wall_secs\": {:.6}, \"peak_live_nodes\": {}, \
         \"nodes_allocated\": {}, \"partitions\": {}}}",
        r.verdict,
        r.wall.as_secs_f64(),
        r.peak_live,
        r.nodes_allocated,
        r.partitions,
    )
}

fn main() {
    let max_arity: usize = flag_value("--max-arity")
        .and_then(|k| k.parse().ok())
        .unwrap_or(6);
    let timeout = Duration::from_secs(
        flag_value("--timeout-secs")
            .and_then(|t| t.parse().ok())
            .unwrap_or(120),
    );
    let out: PathBuf = flag_value("--out").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bdd.json")),
        PathBuf::from,
    );
    let pins = (
        flag_value("--p").and_then(|v| v.parse().ok()).unwrap_or(1),
        flag_value("--k").and_then(|v| v.parse().ok()).unwrap_or(1),
        flag_value("--m").and_then(|v| v.parse().ok()).unwrap_or(1),
    );
    let cores = sample_cores();

    println!(
        "partitioned vs monolithic symbolic engine (p = {}, k = {}, m = {}, timeout {}s, \
         {cores} core(s))\n",
        pins.0,
        pins.1,
        pins.2,
        timeout.as_secs()
    );
    println!(
        "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12} {:>6} | {:>10}",
        "topology",
        "nodes",
        "mono wall",
        "mono peak",
        "part wall",
        "part peak",
        "parts",
        "reduction"
    );

    let topos: Vec<Topology> = std::iter::once(Topology::test_topology())
        .chain((2..=max_arity / 2).map(|h| Topology::fat_tree(2 * h)))
        .collect();

    let mut rows = String::new();
    for (i, topo) in topos.into_iter().enumerate() {
        let name = topo.name.clone();
        let nodes = topo.num_nodes();
        let model = RolloutModel::build(&RolloutSpec::paper(topo)).expect("valid topology");

        let mono = check(&model, pins, false, timeout);
        let part = check(&model, pins, true, timeout);
        if mono.verdict != "unknown" && part.verdict != "unknown" {
            assert_eq!(
                mono.verdict, part.verdict,
                "monolithic and partitioned disagree on {name}"
            );
        }
        let reduction = mono.peak_live as f64 / part.peak_live.max(1) as f64;
        println!(
            "{name:<10} {nodes:>6} | {:>10} {:>12} | {:>10} {:>12} {:>6} | {reduction:>9.1}x",
            format!("{} {}", mono.verdict, fmt_duration(mono.wall)),
            mono.peak_live,
            format!("{} {}", part.verdict, fmt_duration(part.wall)),
            part.peak_live,
            part.partitions,
        );
        let _ = write!(
            rows,
            "{}    {{\"topology\": \"{name}\", \"nodes\": {nodes}, \
             \"monolithic\": {}, \"partitioned\": {}, \
             \"peak_live_reduction\": {reduction:.3}}}",
            if i == 0 { "" } else { ",\n" },
            run_json(&mono),
            run_json(&part),
        );
    }

    println!(
        "\nshape to compare with the paper: the partitioned image holds peak live \
         nodes several times below the monolithic conjunction, and keeps verifying \
         at arities where the monolithic relation exhausts the timeout."
    );

    // Re-sample after the measured runs: if the host lost cores mid-run
    // the degraded flag must reflect the worst budget observed.
    let host = host_provenance_json(cores.min(sample_cores()), 1, 1);
    let json = format!(
        "{{\n  \"host\": {host},\n  \"config\": {{\"p\": {}, \"k\": {}, \"m\": {}, \
         \"depth\": 64, \"timeout_secs\": {}}},\n  \"cases\": [\n{rows}\n  ]\n}}\n",
        pins.0,
        pins.1,
        pins.2,
        timeout.as_secs()
    );
    std::fs::write(&out, json).expect("write BENCH_bdd.json");
    println!("wrote {}", out.display());
}
