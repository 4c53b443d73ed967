//! Regenerates **Figure 6**: scalability of case study 1 over fat-tree
//! topologies.
//!
//! ```text
//! cargo run -p verdict-bench --release --bin fig6 -- \
//!     [--timeout-secs N] [--max-size K] [--depth D]
//! ```
//!
//! The paper's sweep: topologies `test, fattree4 … fattree12` with
//! `p = m = 1`; one *property-failure* run per topology (`k` = 2, 2, 3,
//! 4, 5, 6 — enough failures to disconnect the front-end), and
//! *verification* runs with `k = 0, 1, 2`. The paper used a 1000 s
//! timeout on a MacBook Air; the default here is 60 s so the sweep
//! finishes quickly — pass `--timeout-secs 1000` for the full-fidelity
//! run.
//!
//! Expected shape (the paper's headline): falsification takes seconds
//! even where verification is infeasible; verification cost grows
//! exponentially with topology size and with `k`; the largest instances
//! time out. The paper's footnote 6 also notes that for `test` and
//! `fattree4` the `k = 2` "verification" runs actually *fail* the
//! property — reproduced here.
//!
//! The binary exits 1 if a definite verdict contradicts that shape: a
//! falsification that holds, `test` or `fattree4` holding at `k = 2` or
//! failing at `k = 0, 1`, or a larger tree failing at any `k`. A timeout
//! is printed but contradicts nothing: `--engine bdd` times out on the
//! larger trees by design.

use std::time::Duration;

use verdict_bench::{flag_value, fmt_duration, timed};
use verdict_mc::prelude::*;
use verdict_mc::Stats;
use verdict_models::{RolloutModel, RolloutSpec, Topology};

fn outcome(result: &CheckResult) -> &'static str {
    match result {
        CheckResult::Holds => "holds",
        CheckResult::Violated(_) => "VIOLATED",
        CheckResult::Unknown(_) => "timeout",
    }
}

/// Whether a definite verdict contradicts the paper's outcome, where
/// `holds` is the paper's. A timeout contradicts nothing.
fn contradicts(result: &CheckResult, holds: bool) -> bool {
    match result {
        CheckResult::Holds => !holds,
        CheckResult::Violated(_) => holds,
        CheckResult::Unknown(_) => false,
    }
}

fn main() {
    let timeout = Duration::from_secs(
        flag_value("--timeout-secs")
            .and_then(|t| t.parse().ok())
            .unwrap_or(60),
    );
    let max_size: usize = flag_value("--max-size")
        .and_then(|t| t.parse().ok())
        .unwrap_or(12);
    let depth: usize = flag_value("--depth")
        .and_then(|t| t.parse().ok())
        .unwrap_or(8);
    // `kind` (default) proves by k-induction — far faster than the
    // paper's BDD engine. `bdd` exhausts the state space like NuXMV's
    // BDD backend and reproduces the paper's exponential verification
    // blowup directly.
    let use_bdd = flag_value("--engine").as_deref() == Some("bdd");

    println!(
        "Figure 6: case study 1 scalability (p = m = 1, timeout {}s, depth {depth}, \
         verification engine: {})\n",
        timeout.as_secs(),
        if use_bdd { "bdd" } else { "k-induction" }
    );
    println!(
        "{:<10} {:>6} {:>6} {:>8} | {:>18} | {:>14} {:>14} {:>14}",
        "topology",
        "nodes",
        "links",
        "service",
        "falsify (k_fail)",
        "verify k=0",
        "verify k=1",
        "verify k=2"
    );

    // (topology builder, k needed to disconnect the front-end)
    let cases: Vec<(Topology, i64)> = [
        (Topology::test_topology(), 2),
        (Topology::fat_tree(4), 2),
        (Topology::fat_tree(6), 3),
        (Topology::fat_tree(8), 4),
        (Topology::fat_tree(10), 5),
        (Topology::fat_tree(12), 6),
    ]
    .into_iter()
    .filter(|(t, _)| t.name == "test" || t.num_nodes() <= 5 * max_size * max_size)
    .collect();

    let mut contradictions = Vec::new();
    for (topo, k_fail) in cases {
        let arity_ok = match topo.name.strip_prefix("fattree") {
            Some(a) => a.parse::<usize>().unwrap_or(0) <= max_size,
            None => true,
        };
        if !arity_ok {
            continue;
        }
        let (nodes, links, service) =
            (topo.num_nodes(), topo.num_links(), topo.service_nodes.len());
        let name = topo.name.clone();
        // Footnote 6: two failures cut off the front end of the smallest trees.
        let fails_at_k2 = name == "test" || name == "fattree4";
        let model = RolloutModel::build(&RolloutSpec::paper(topo)).expect("valid topology");

        // Property-failure run (the paper's blue line): BMC with enough
        // failures allowed to cut off the front-end.
        let sys = model.pinned(1, k_fail, 1);
        let opts = CheckOptions::with_depth(depth).with_timeout(timeout);
        let (res, took) = timed(|| {
            engine(EngineKind::Bmc)
                .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
                .unwrap()
        });
        let falsify = format!("{} {} (k={k_fail})", outcome(&res), fmt_duration(took));
        if contradicts(&res, false) {
            contradictions.push(format!("{name}: falsification at k={k_fail} holds"));
        }

        // Verification runs for k = 0, 1, 2 (k-induction; complete for
        // these finite systems given enough depth/time).
        let mut verify = Vec::new();
        for k in 0..=2i64 {
            let sys = model.pinned(1, k, 1);
            let opts = CheckOptions::with_depth(64).with_timeout(timeout);
            let (res, took) = timed(|| {
                if use_bdd {
                    engine(EngineKind::Bdd)
                        .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
                        .unwrap()
                } else {
                    engine(EngineKind::KInduction)
                        .check_invariant(&sys, &model.property, &opts, &mut Stats::default())
                        .unwrap()
                }
            });
            verify.push(format!("{} {}", outcome(&res), fmt_duration(took)));
            let holds = !(fails_at_k2 && k == 2);
            if contradicts(&res, holds) {
                contradictions.push(format!(
                    "{name}: verification at k={k} is {}, the paper's {}",
                    outcome(&res),
                    if holds { "holds" } else { "VIOLATED" }
                ));
            }
        }

        println!(
            "{name:<10} {nodes:>6} {links:>6} {service:>8} | {falsify:>18} | {:>14} {:>14} {:>14}",
            verify[0], verify[1], verify[2]
        );
    }

    println!(
        "\nshape to compare with the paper: falsification is fast (seconds) while \
         verification grows exponentially with size and k; the largest instances \
         time out; `test`/`fattree4` genuinely fail at k = 2 (paper footnote 6)."
    );
    if !contradictions.is_empty() {
        eprintln!("fig6: verdicts contradict the paper's shape:");
        for c in &contradictions {
            eprintln!("  {c}");
        }
        std::process::exit(1);
    }
}
