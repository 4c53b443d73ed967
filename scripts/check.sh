#!/usr/bin/env bash
# Offline CI gate: build, test, lint — no network required.
#
#   scripts/check.sh            # the full gate
#   scripts/check.sh --quick    # skip clippy (fast inner loop)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Every temporary file and directory of this script lives under one
# directory, removed however the script exits, a failed check included.
trap 'rm -rf "${tmp_root:-}"' EXIT
tmp_root=$(mktemp -d)

cargo fmt --all --check
cargo build --workspace --release
# The suite must clean up after itself: run it with TMPDIR pointed at an
# empty directory and fail if anything is left there.
test_tmp="$tmp_root/cargo-test"
mkdir "$test_tmp"
TMPDIR="$test_tmp" cargo test --workspace -q
if [[ -n "$(ls -A "$test_tmp")" ]]; then
    echo "check.sh: cargo test left files behind in TMPDIR:" >&2
    ls -A "$test_tmp" >&2
    exit 1
fi

if [[ "${1:-}" != "--quick" ]]; then
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
    # Lock-free runtime stress lane: long-running SPSC/doorbell/published
    # interleaving tests, feature-gated out of the default suite.
    cargo test -p verdict-ring --features stress -q
    # Output-contract guard: `verdict schema` against the frozen schema-2
    # baseline — removing or retyping a documented field without bumping
    # STATS_SCHEMA_VERSION fails here.
    cargo test -p verdict-cli --test schema_compat -q
    # The benchmark (a package of its own) drives `Unroller` and the other
    # crates' public API directly: a break there fails here, not in a
    # benchmark run.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml -q
    # The DRUP checker against its reference scanner on a proof with
    # database-reduction deletions: too slow for the unoptimized suite.
    cargo test --release -p verdict-sat --lib -q proof::
fi

# Certified verdicts on the case-study examples: every counterexample must
# replay through the reference interpreter — any certificate rejection
# fails the gate. (Exit 2 = property violated, which the examples are;
# only exit 1 is an error.)
for model in examples/models/step_counter.vd examples/models/leaky_bucket.vd; do
    status=0
    out=$(./target/release/verdict check "$model" --certify --json) || status=$?
    if [[ $status != 0 && $status != 2 ]]; then
        echo "check.sh: verdict check failed on $model (exit $status)" >&2
        exit 1
    fi
    if grep -q '"certificate":"rejected"' <<<"$out"; then
        echo "check.sh: certificate REJECTED on $model" >&2
        echo "$out" >&2
        exit 1
    fi
done

# Certified proofs: a model whose invariant holds must come back safe with
# its proof re-checked, by k-induction (fresh solvers, DRUP proofs) and by
# BDD (reachable set re-checked as an inductive invariant).
holds_model="$tmp_root/capped.vd"
cat >"$holds_model" <<'VD'
system capped {
    var n : 0..10;
    init n = 0;
    trans next(n) = if n < 5 then n + 1 else n;
    invariant capped: n <= 5;
}
VD
for engine_cert in "kind:k-induction re-check" "bdd:inductive-invariant re-check"; do
    engine=${engine_cert%%:*}
    status=0
    out=$(./target/release/verdict check "$holds_model" --certify --json --engine "$engine") \
        || status=$?
    if [[ $status != 0 ]] || ! grep -q "\"certificate\":\"verified (${engine_cert#*:})\"" <<<"$out"; then
        echo "check.sh: certified holding model not verified by $engine (exit $status)" >&2
        echo "$out" >&2
        exit 1
    fi
done
# Running out of budget inside a certificate check is an honest Unknown,
# never a rejected certificate: exhaust each of the run's SAT solves in
# turn, the re-proof's included.
for hit in 1 2 3 4 5 6 7 8; do
    out=$(./target/release/verdict check "$holds_model" --certify --json --engine kind \
        --fault "sat.solve:exhaust:$hit" 2>&1) || true
    if ! grep -qE '"verdict":"(safe|unknown)"' <<<"$out" \
        || grep -qE 'certificate rejected|"certificate":"rejected"' <<<"$out"; then
        echo "check.sh: exhausted solve $hit reported as a rejected certificate" >&2
        echo "$out" >&2
        exit 1
    fi
done

# Observability smoke: --stats --json must emit the versioned schema-2
# document with nonzero counters and per-depth timings, and --trace must
# write parseable JSONL, on both case-study models.
for model in examples/models/step_counter.vd examples/models/leaky_bucket.vd; do
    trace_file="$tmp_root/$(basename "$model").trace.jsonl"
    status=0
    out=$(./target/release/verdict check "$model" --stats --json --trace "$trace_file") \
        || status=$?
    if [[ $status != 0 && $status != 2 ]]; then
        echo "check.sh: verdict check --stats failed on $model (exit $status)" >&2
        exit 1
    fi
    for field in '^{"schema":2,' '"stats":{"schema":2' '"depths":\[{"depth":' \
                 '"phases":{"encode_us":' '"contenders":\['; do
        if ! grep -qE "$field" <<<"$out"; then
            echo "check.sh: --stats --json on $model missing $field" >&2
            echo "$out" >&2
            exit 1
        fi
    done
    # At least one counter group reports work (the determinism tests pin
    # exact values; here we only require non-emptiness).
    if ! grep -qE '"(decisions|pivots|nodes_allocated|states_visited)":[1-9]' <<<"$out"; then
        echo "check.sh: --stats --json on $model has all-zero counters" >&2
        echo "$out" >&2
        exit 1
    fi
    if [[ ! -s "$trace_file" ]]; then
        echo "check.sh: --trace wrote nothing for $model" >&2
        exit 1
    fi
    if grep -vqE '^\{"ts_us":[0-9]+,"kind":"(span|depth|mark)",' "$trace_file"; then
        echo "check.sh: malformed trace line in $trace_file" >&2
        grep -vE '^\{"ts_us":[0-9]+,"kind":"(span|depth|mark)",' "$trace_file" | head >&2
        exit 1
    fi
done

# Incremental-synthesis smoke on the small test topology, at jobs 1 and
# jobs 2. The bench binary asserts the incremental sweep is
# verdict-for-verdict identical to the clone path before it reports any
# timing, so this also gates correctness, not just that the binary runs.
synth_out="$tmp_root/synth.json"
smoke_dir="$tmp_root/smoke"
mkdir "$smoke_dir"
./target/release/synth --topology test --jobs 2 --reps 2 --out "$synth_out" >/dev/null
# The ring-based runtime must not make jobs=2 slower than jobs=1: allow
# 15% plus a 50ms epsilon for thread spin-up and timer noise on starved
# (single-core CI) hosts. Each case line carries incremental_secs twice,
# jobs1 first, jobs2 second.
while read -r j1 j2; do
    awk -v j1="$j1" -v j2="$j2" 'BEGIN { exit !(j2 <= j1 * 1.15 + 0.05) }' || {
        echo "check.sh: jobs=2 incremental sweep regressed: ${j2}s vs ${j1}s at jobs=1" >&2
        cat "$synth_out" >&2
        exit 1
    }
done < <(grep -o '"incremental_secs": [0-9.]*' "$synth_out" | awk '{print $2}' | paste - -)

# Kill-and-resume smoke: SIGINT a journaled sweep mid-flight, resume it,
# and require the verdict map to match an uninterrupted run exactly
# (wall-clock stripped).
cat >"$smoke_dir/sweep.vd" <<'VD'
system smoke {
    var n : 0..120;
    param a : 1..8;
    param b : 1..8;
    init n = 0;
    trans next(n) = if n <= 100 then n + a + b else n;
    invariant miss: n != 37;
}
VD
clean=$(./target/release/verdict synth "$smoke_dir/sweep.vd" --params a,b --json \
    | sed 's/"wall_ms":[0-9]*//')
./target/release/verdict synth "$smoke_dir/sweep.vd" --params a,b \
    --journal "$smoke_dir/sweep.jsonl" --json >/dev/null &
victim=$!
for _ in $(seq 1 500); do
    if [[ $(grep -c '"type":"verdict"' "$smoke_dir/sweep.jsonl" 2>/dev/null || true) -ge 3 ]]; then
        break
    fi
    sleep 0.01
done
kill -INT "$victim" 2>/dev/null || true
wait "$victim" || true   # 130 when interrupted mid-run; 0 if it finished first
resumed=$(./target/release/verdict synth "$smoke_dir/sweep.vd" --params a,b \
    --resume "$smoke_dir/sweep.jsonl" --json 2>/dev/null \
    | sed 's/"wall_ms":[0-9]*//')
if [[ "$resumed" != "$clean" ]]; then
    echo "check.sh: resumed sweep differs from uninterrupted run" >&2
    diff <(echo "$clean") <(echo "$resumed") >&2 || true
    exit 1
fi

# Fault-injection smoke: an injected worker panic plus retries must land
# on the clean verdict map; without retries it must not crash.
faulted=$(./target/release/verdict synth "$smoke_dir/sweep.vd" --params a,b \
    --fault mc.synth.worker:panic:1 --retries 2 --retry-backoff-ms 0 --json 2>/dev/null \
    | sed 's/"wall_ms":[0-9]*//; s/"attempts":[0-9]*//g')
clean_noattempts=$(sed 's/"attempts":[0-9]*//g' <<<"$clean")
if [[ "$faulted" != "$clean_noattempts" ]]; then
    echo "check.sh: faulted+retried sweep differs from clean run" >&2
    exit 1
fi
./target/release/verdict synth "$smoke_dir/sweep.vd" --params a,b \
    --fault mc.synth.worker:panic:1 --json >/dev/null 2>&1 \
    || { echo "check.sh: fault injection crashed the sweep" >&2; exit 1; }

# Verdict-as-a-service lane: run the daemon, complete both case studies
# through it, leave a slow job mid-flight, SIGKILL the daemon, restart on
# the same WAL, and require (a) the recovery banner to account for every
# acknowledged job — decided ones trusted, the interrupted one requeued —
# and (b) a SIGTERM drain that exits 0.
srv_dir="$smoke_dir/server"
mkdir -p "$srv_dir"
cat >"$srv_dir/slow.vd" <<'VD'
system slow {
    var n : 0..20000;
    init n = 0;
    trans next(n) = if n < 20000 then n + 1 else n;
    invariant nonneg: n >= 0;
}
VD
./target/release/verdict serve --socket "$srv_dir/sock" --wal "$srv_dir/wal" \
    --workers 2 --grace 5 2>"$srv_dir/serve1.log" &
daemon=$!
for _ in $(seq 1 500); do [[ -S "$srv_dir/sock" ]] && break; sleep 0.01; done
for model in examples/models/step_counter.vd examples/models/leaky_bucket.vd; do
    status=0
    ./target/release/verdict submit "$model" --socket "$srv_dir/sock" --json \
        >>"$srv_dir/submits.json" || status=$?
    if [[ $status != 0 && $status != 2 ]]; then
        echo "check.sh: verdict submit failed on $model (exit $status)" >&2
        cat "$srv_dir/serve1.log" >&2
        exit 1
    fi
done
# A job the explicit engine grinds on (but abandons promptly when asked):
# acknowledged durably, still running when the daemon dies.
./target/release/verdict submit "$srv_dir/slow.vd" --socket "$srv_dir/sock" \
    --engine explicit --deadline 60 --no-wait >/dev/null
sleep 0.3
kill -9 "$daemon" 2>/dev/null || true
wait "$daemon" 2>/dev/null || true

./target/release/verdict serve --socket "$srv_dir/sock" --wal "$srv_dir/wal" \
    --workers 2 --grace 1 2>"$srv_dir/serve2.log" &
daemon=$!
# The socket binds inside Server::open but the recovery banner prints
# just after it returns — poll the log, not the socket.
for _ in $(seq 1 500); do
    grep -q "recovered" "$srv_dir/serve2.log" 2>/dev/null && break
    sleep 0.01
done
if ! grep -q "recovered 2 trusted, 1 requeued, 0 cancelled" "$srv_dir/serve2.log"; then
    echo "check.sh: daemon restart did not recover the WAL as expected" >&2
    cat "$srv_dir/serve2.log" >&2
    exit 1
fi
stats=$(./target/release/verdict server-stats --socket "$srv_dir/sock")
if ! grep -q '"jobs_recovered":3' <<<"$stats"; then
    echo "check.sh: server stats missing recovered jobs" >&2
    echo "$stats" >&2
    exit 1
fi
kill -TERM "$daemon" 2>/dev/null || true
drain_status=0
wait "$daemon" || drain_status=$?
if [[ $drain_status != 0 ]]; then
    echo "check.sh: SIGTERM drain exited $drain_status (want 0)" >&2
    cat "$srv_dir/serve2.log" >&2
    exit 1
fi
if ! grep -q "drained clean" "$srv_dir/serve2.log"; then
    echo "check.sh: drain summary missing from daemon log" >&2
    cat "$srv_dir/serve2.log" >&2
    exit 1
fi
# The daemon benchmark asserts that group commit amortizes fsyncs at 4
# submitters and that every job it waits on ends `done`; it fails (exit
# 101) otherwise.
./target/release/server --out "$tmp_root/bench_server.json" >/dev/null

# Self-healing chaos lane: a daemon with injected worker panics and a
# worker hang must (a) contain each panic into an honest engine-failure
# verdict, (b) quarantine the crash-looping spec and honor unquarantine,
# (c) abandon the hung worker via the watchdog and respawn the slot,
# (d) still serve the reference verdicts to concurrent submitters once
# the faults are exhausted, and (e) drain clean on SIGTERM.
chaos_dir="$smoke_dir/chaos"
mkdir -p "$chaos_dir"
cat >"$chaos_dir/sac.vd" <<'VD'
system sacrificial {
    var n : 0..7;
    init n = 0;
    trans next(n) = if n < 7 then n + 1 else n;
    invariant in_range: n <= 7;
}
VD
# The hang probe sits ahead of the panic probe and counts one arrival
# per execution, so the schedule is exact: executions 1 and 2 panic,
# executions 3 and 4 (the two concurrent slow jobs) hang — wedging the
# entire two-worker fleet at once.
./target/release/verdict serve --socket "$chaos_dir/sock" --wal "$chaos_dir/wal" \
    --workers 2 --grace 5 --watchdog-grace-ms 250 --quarantine-after 2 --no-hedge \
    --fault 'server.worker.panic:panic:1,server.worker.panic:panic:2,server.worker.hang:panic:3,server.worker.hang:panic:4' \
    2>"$chaos_dir/serve.log" &
daemon=$!
for _ in $(seq 1 500); do [[ -S "$chaos_dir/sock" ]] && break; sleep 0.01; done
# Two injected panics on the same spec: both contained, second one arms
# the circuit breaker.
for i in 1 2; do
    status=0
    out=$(./target/release/verdict submit "$chaos_dir/sac.vd" \
        --socket "$chaos_dir/sock" --json) || status=$?
    if [[ $status != 1 ]] || ! grep -q '"reason":"engine-failure"' <<<"$out"; then
        echo "check.sh: chaos panic $i not contained (exit $status)" >&2
        echo "$out" >&2
        cat "$chaos_dir/serve.log" >&2
        exit 1
    fi
done
status=0
out=$(./target/release/verdict submit "$chaos_dir/sac.vd" \
    --socket "$chaos_dir/sock" --json) || status=$?
if [[ $status != 1 ]] || ! grep -q '"reason":"quarantined"' <<<"$out"; then
    echo "check.sh: crash-looping spec was not quarantined (exit $status)" >&2
    echo "$out" >&2
    exit 1
fi
fp=$(grep -o '"fingerprint":"[0-9a-f]*"' <<<"$out" | cut -d'"' -f4)
# Wedge BOTH workers at once: two concurrent jobs hang past their
# deadline, the watchdog escalates each, abandons both threads,
# respawns both slots, and each job returns an honest unknown.
hang_pids=()
for i in 1 2; do
    ./target/release/verdict submit "$srv_dir/slow.vd" --socket "$chaos_dir/sock" \
        --engine explicit --deadline 1 --json >"$chaos_dir/hang.$i.json" &
    hang_pids+=($!)
done
for i in 1 2; do
    status=0
    wait "${hang_pids[$((i - 1))]}" || status=$?
    if [[ $status != 1 ]] || ! grep -q '"reason":"hung-worker"' "$chaos_dir/hang.$i.json"; then
        echo "check.sh: wedged worker $i did not yield unknown/hung-worker (exit $status)" >&2
        cat "$chaos_dir/hang.$i.json" "$chaos_dir/serve.log" >&2
        exit 1
    fi
done
# Lift the quarantine; the spec (faults exhausted) now runs clean on a
# respawned slot.
./target/release/verdict unquarantine --socket "$chaos_dir/sock" "$fp" >/dev/null
status=0
./target/release/verdict submit "$chaos_dir/sac.vd" --socket "$chaos_dir/sock" \
    >/dev/null || status=$?
if [[ $status != 0 ]]; then
    echo "check.sh: unquarantined spec failed to run clean (exit $status)" >&2
    cat "$chaos_dir/serve.log" >&2
    exit 1
fi
# Four concurrent submitters of the reference case studies: every
# verdict must match the local reference run, despite the earlier chaos.
ref_verdicts=$(for model in examples/models/step_counter.vd examples/models/leaky_bucket.vd; do
    ./target/release/verdict check "$model" --json || true
done | grep -o '"verdict":"[a-z]*"' | sort)
pids=()
for i in 1 2; do
    for model in examples/models/step_counter.vd examples/models/leaky_bucket.vd; do
        ./target/release/verdict submit "$model" --socket "$chaos_dir/sock" --json \
            >"$chaos_dir/sub.$i.$(basename "$model").json" &
        pids+=($!)
    done
done
for pid in "${pids[@]}"; do
    status=0
    wait "$pid" || status=$?
    if [[ $status != 0 && $status != 2 ]]; then
        echo "check.sh: concurrent chaos submit failed (exit $status)" >&2
        cat "$chaos_dir"/sub.*.json >&2
        exit 1
    fi
done
got_verdicts=$(cat "$chaos_dir"/sub.*.json | grep -o '"verdict":"[a-z]*"' | sort)
if [[ "$got_verdicts" != "$(printf '%s\n%s\n' "$ref_verdicts" "$ref_verdicts" | sort)" ]]; then
    echo "check.sh: chaos-lane verdicts diverge from the reference run" >&2
    diff <(echo "$ref_verdicts") <(echo "$got_verdicts") >&2 || true
    exit 1
fi
# The supervision counters must have seen the whole story.
stats=$(./target/release/verdict server-stats --socket "$chaos_dir/sock")
for probe in '"escalations":[1-9]' '"hung_workers":[1-9]' \
             '"workers_respawned":[1-9]' '"quarantine_hits":[1-9]' \
             '"quarantined":[1-9]'; do
    if ! grep -qE "$probe" <<<"$stats"; then
        echo "check.sh: chaos-lane stats missing $probe" >&2
        echo "$stats" >&2
        exit 1
    fi
done
kill -TERM "$daemon" 2>/dev/null || true
drain_status=0
wait "$daemon" || drain_status=$?
if [[ $drain_status != 0 ]] || ! grep -q "drained clean" "$chaos_dir/serve.log"; then
    echo "check.sh: chaos-lane SIGTERM drain exited $drain_status (want 0, clean)" >&2
    cat "$chaos_dir/serve.log" >&2
    exit 1
fi

# Hedged re-execution smoke: a job the explicit engine grinds on must be
# rescued by a speculative portfolio run — same verdict an unhedged run
# would reach, delivered promptly, with the certificate checked.
hedge_dir="$smoke_dir/hedge"
mkdir -p "$hedge_dir"
./target/release/verdict serve --socket "$hedge_dir/sock" --wal "$hedge_dir/wal" \
    --workers 2 --grace 5 --hedge-after-ms 100 2>"$hedge_dir/serve.log" &
daemon=$!
for _ in $(seq 1 500); do [[ -S "$hedge_dir/sock" ]] && break; sleep 0.01; done
status=0
out=$(timeout 60 ./target/release/verdict submit "$srv_dir/slow.vd" \
    --socket "$hedge_dir/sock" --engine explicit --deadline 120 --certify --json) \
    || status=$?
if [[ $status != 0 ]] || ! grep -q '"verdict":"safe"' <<<"$out"; then
    echo "check.sh: hedge did not rescue the slow primary (exit $status)" >&2
    echo "$out" >&2
    cat "$hedge_dir/serve.log" >&2
    exit 1
fi
stats=$(./target/release/verdict server-stats --socket "$hedge_dir/sock")
if ! grep -qE '"hedges_won":[1-9]' <<<"$stats"; then
    echo "check.sh: hedge smoke ran but hedges_won is zero" >&2
    echo "$stats" >&2
    exit 1
fi
kill -TERM "$daemon" 2>/dev/null || true
wait "$daemon" || { echo "check.sh: hedge-lane drain failed" >&2; exit 1; }

# Partitioned symbolic engine lane.
# (a) The partitioned relation is a pure optimization: partitioned and
# monolithic BDD runs must produce identical verdicts (and traces) on
# the finite case studies. (Exit 2 = violated is expected; wall times
# stripped before comparing.)
for model in examples/models/step_counter.vd examples/models/taint_loop.vd; do
    part_status=0 mono_status=0
    part=$(./target/release/verdict check "$model" --engine bdd --json \
        | sed 's/"wall_ms":[0-9]*//') || part_status=$?
    mono=$(./target/release/verdict check "$model" --engine bdd --bdd-monolithic --json \
        | sed 's/"wall_ms":[0-9]*//') || mono_status=$?
    for s in "$part_status" "$mono_status"; do
        if [[ $s != 0 && $s != 2 ]]; then
            echo "check.sh: BDD check failed on $model (exit $s)" >&2
            exit 1
        fi
    done
    if [[ "$part" != "$mono" || "$part_status" != "$mono_status" ]]; then
        echo "check.sh: partitioned and monolithic BDD disagree on $model" >&2
        diff <(echo "$part") <(echo "$mono") >&2 || true
        exit 1
    fi
done
# (b) Memory-safety regression: a tiny node ceiling must degrade to a
# prompt, explicit resource-exhausted Unknown (exit 1), never a crash,
# wrong verdict, or timeout-length thrash.
ceiling_status=0
ceiling=$(timeout 30 ./target/release/verdict check examples/models/step_counter.vd \
    --engine bdd --max-bdd-nodes 40 --json) || ceiling_status=$?
if [[ $ceiling_status != 1 ]] || ! grep -q 'resource budget exhausted' <<<"$ceiling"; then
    echo "check.sh: tiny --max-bdd-nodes did not fail promptly (exit $ceiling_status)" >&2
    echo "$ceiling" >&2
    exit 1
fi
# (c) The fat-tree sweep the partitioning exists for: k up to 6 must
# verify under the partitioned relation within 60 s per run (partitioned
# fattree6 has taken 15-30 s; monolithic fattree6 never finishes and is
# cut off at the same 60 s). The
# bench binary itself asserts mono/part verdict agreement wherever both
# are definitive before writing a line of JSON.
bdd_bench="$smoke_dir/bench_bdd.json"
timeout 600 ./target/release/bdd --max-arity 6 --timeout-secs 60 --out "$bdd_bench" \
    >/dev/null \
    || { echo "check.sh: BDD bench sweep failed" >&2; exit 1; }
if ! grep '"topology": "fattree6"' "$bdd_bench" \
    | grep -q '"partitioned": {"verdict": "holds"'; then
    echo "check.sh: fattree6 did not verify under the partitioned relation" >&2
    cat "$bdd_bench" >&2
    exit 1
fi

# Fig. 6 lane: the paper's falsify-vs-verify sweep to fattree8. The bin
# exits 1 when a definite verdict contradicts the paper's shape; with
# k-induction every row here decides within its 60 s budget (the lane
# takes about 5 s), so a timeout fails the lane too.
fig6_out=$(timeout 600 ./target/release/fig6 --max-size 8 --timeout-secs 60) \
    || { echo "check.sh: fig6 sweep contradicts the paper (or failed)" >&2; echo "$fig6_out" >&2; exit 1; }
if grep -E '^(test|fattree[0-9]+) ' <<<"$fig6_out" | grep -q timeout; then
    echo "check.sh: a fig6 row timed out" >&2
    echo "$fig6_out" >&2
    exit 1
fi

# Scenario-factory lane: enumerate the incident-driven matrix, sweep it
# locally under --certify, and push one pattern through a daemon.
# Required: (a) the enumeration floor — at least 40 instances spanning
# all five interference patterns, each mapped to at least one Table 1
# incident; (b) every engine verdict matches its ground-truth
# expectation (exit 0; the deliberately-unsafe grid points certify
# their counterexamples); (c) the through-server report is identical to
# the local one modulo the "mode" tag; (d) the exit-code contract
# rejects a bogus pattern with a usage error.
scen_dir="$smoke_dir/scenarios"
mkdir -p "$scen_dir"
listing=$(./target/release/verdict scenarios --list --json)
n_instances=$(grep -o '"id":' <<<"$listing" | wc -l)
if [[ $n_instances -lt 40 ]]; then
    echo "check.sh: scenario matrix floor: $n_instances < 40 instances" >&2
    exit 1
fi
for p in rollout-lb autoscaler-descheduler cascading-failover config-canary split-brain; do
    if ! grep -q "\"pattern\":\"$p\"" <<<"$listing"; then
        echo "check.sh: scenario matrix missing pattern $p" >&2
        exit 1
    fi
done
status=0
scen_local=$(./target/release/verdict scenarios --certify --json) || status=$?
if [[ $status != 0 ]]; then
    echo "check.sh: certified scenario sweep exited $status (want 0: all matched)" >&2
    echo "$scen_local" >&2
    exit 1
fi
if grep -qE '"(mismatched|infra)":[1-9]' <<<"$scen_local"; then
    echo "check.sh: scenario sweep rollup reports mismatches/infra failures" >&2
    echo "$scen_local" >&2
    exit 1
fi
if grep -q '"incidents":\[\]' <<<"$scen_local"; then
    echo "check.sh: a scenario pattern maps to no Table 1 incident" >&2
    exit 1
fi
./target/release/verdict serve --socket "$scen_dir/sock" --wal "$scen_dir/wal" \
    --workers 2 --grace 5 2>"$scen_dir/serve.log" &
daemon=$!
for _ in $(seq 1 500); do [[ -S "$scen_dir/sock" ]] && break; sleep 0.01; done
status=0
scen_srv=$(./target/release/verdict scenarios --pattern config-canary \
    --socket "$scen_dir/sock" --json) || status=$?
if [[ $status != 0 ]]; then
    echo "check.sh: through-server scenario sweep exited $status" >&2
    cat "$scen_dir/serve.log" >&2
    exit 1
fi
scen_ref=$(./target/release/verdict scenarios --pattern config-canary --json) \
    || { echo "check.sh: local config-canary sweep failed" >&2; exit 1; }
if [[ "$(sed 's/"mode":"server"/"mode":"-"/' <<<"$scen_srv")" \
   != "$(sed 's/"mode":"local"/"mode":"-"/' <<<"$scen_ref")" ]]; then
    echo "check.sh: local and through-server scenario reports diverge" >&2
    diff <(echo "$scen_ref") <(echo "$scen_srv") >&2 || true
    exit 1
fi
kill -TERM "$daemon" 2>/dev/null || true
wait "$daemon" || { echo "check.sh: scenario-lane drain failed" >&2; exit 1; }
if ./target/release/verdict scenarios --pattern bogus >/dev/null 2>&1; then
    echo "check.sh: bogus pattern did not fail with a usage error" >&2
    exit 1
fi

echo "check.sh: all green"
