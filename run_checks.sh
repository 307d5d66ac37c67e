#!/bin/bash
# Full verification pipeline, run as-is by CI: formatting, clippy at
# -D warnings (which also enforces the pipeline crates' source rules, see
# clippy.toml), warning-free API docs, the whole test suite, the runtime
# invariant auditor build, the release build, the figure smokes and the
# benchmark smokes. Exits non-zero on the first failing stage, and on the
# first stage that changes the working tree.
set -eu
cd "$(dirname "$0")"

# One line per changed or untracked path: its status and content hash.
tree_state() {
    git status --porcelain --untracked-files=all | while IFS= read -r entry; do
        echo "$entry $(git hash-object -- "${entry:3}" 2>/dev/null || echo -)"
    done
}
# Every step must leave the tree as it found it (committed results
# included). Outside a git work tree, e.g. a `git archive` copy, there is
# nothing to compare against, so the check is skipped.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    TREE_AT_START=$(tree_state)
    CHECK_TREE=1
else
    CHECK_TREE=0
fi

step() {
    local name=$1
    echo
    echo "=== $name ==="
    shift
    "$@"
    if [ "$CHECK_TREE" = 1 ]; then
        local now
        now=$(tree_state)
        if [ "$now" != "$TREE_AT_START" ]; then
            echo "step \"$name\" changed the working tree:" >&2
            diff <(echo "$TREE_AT_START") <(echo "$now") | sed -n 's/^[<>] /    /p' >&2
            exit 1
        fi
    fi
}

step "cargo fmt --check" cargo fmt --all -- --check
step "cargo clippy (-D warnings)" \
    cargo clippy --workspace --all-targets --offline -- -D warnings
# clippy never compiles `#[cfg(feature = "debug-invariants")]` code in the
# default build: lint the audit hooks with the feature on in every crate
# that has it.
step "cargo clippy (debug-invariants, -D warnings)" \
    cargo clippy --workspace --all-targets --offline \
    --features mempod-dram/debug-invariants,mempod-core/debug-invariants,mempod-sim/debug-invariants \
    -- -D warnings
# A deletion that leaves a dangling intra-doc link fails here.
step "cargo doc (-D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
step "cargo test (workspace)" cargo test -q --workspace --offline
# The slow suites CI also runs: among them tests/sharding.rs's 4 managers
# x 4 shard counts, clean and faulted, the main shard-count-invariance
# check of the one event loop.
step "cargo test (slow-tests)" cargo test -q --features slow-tests --offline
step "cargo test (debug-invariants)" \
    cargo test -q --features debug-invariants --offline
# The root package's feature forwards to its dependencies' library code
# only; the crates' own unit tests (the channel time and next-decision
# audits among them) need the feature turned on per crate.
step "cargo test (debug-invariants, crate unit tests)" \
    cargo test -q --offline -p mempod-dram -p mempod-core -p mempod-sim \
    --features mempod-dram/debug-invariants,mempod-core/debug-invariants,mempod-sim/debug-invariants
# The benchmark crate is its own workspace, so the workspace build and
# clippy never see it: build it and run its unit tests and --smoke
# self-test here, so an API change it depends on cannot break it unnoticed.
# --locked fails the step if a library dependency change would rewrite
# benchmark/Cargo.lock instead of rewriting it silently.
step "cargo test (benchmark crate)" \
    cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
step "cargo build --release" cargo build --release --offline

# Figure smokes: every binary run_experiments.sh runs must complete at CI
# scale. `--smoke` writes results/<name>.smoke.json (gitignored), so the
# committed full-scale results stay untouched.
figure_smokes() {
    cargo build -q --release --offline -p mempod-bench --bins
    for bin in $(awk '$1 == "run" { print $2 }' run_experiments.sh); do
        echo "$bin --smoke"
        "./target/release/$bin" --smoke > /dev/null
    done
}
step "figure binaries --smoke" figure_smokes

# Telemetry-overhead smoke: the gate must pass — null-sink end-to-end
# overhead < 2% at full scale, with noise headroom (< 5%) at the ~0.2s
# smoke scale where shared-box timer jitter alone spans a few percent
# (full-scale numbers live in BENCH_telemetry.json; refresh with `cargo
# run --release -p mempod-bench --bin bench_sched`).
bench_smoke() {
    cargo run -q --release -p mempod-bench --bin bench_sched --offline -- \
        --smoke --telemetry-out BENCH_telemetry.smoke.json
    python3 -c "
import json
t = json.load(open('BENCH_telemetry.smoke.json'))
assert t['bench'] == 'telemetry_overhead', 'malformed telemetry JSON'
assert 'span_overhead_pct' in t, 'missing span overhead field'
assert t['pass'], (f\"overhead gate failed: null {t['overhead_pct']:.2f}%, \"
                  f\"spans {t['span_overhead_pct']:.2f}%\")
print(f\"BENCH_telemetry.smoke.json OK: {t['overhead_pct']:+.2f}% null-sink, \"
      f\"{t['span_overhead_pct']:+.2f}% sampled-span overhead\")
"
}
step "bench_sched --smoke" bench_smoke

# Timeline smoke: simrun must stream a per-epoch JSONL timeline on a
# Table 3 mix with the fields the report tooling consumes — strictly
# increasing epochs, per-pod migration deltas, manager (MEA) counters,
# queue-depth percentiles, and the tier service split.
timeline_smoke() {
    cargo run -q --release -p mempod-bench --bin simrun --offline -- \
        --workload mix1 --manager mempod --requests 120000 --smoke \
        --timeline timeline.smoke.jsonl
    python3 -c "
import json
epochs = []
with open('timeline.smoke.jsonl') as f:
    for line in f:
        event = json.loads(line)
        assert 't_ps' in event and 'kind' in event, 'malformed event line'
        if isinstance(event['kind'], dict) and 'Epoch' in event['kind']:
            epochs.append(event['kind']['Epoch'])
assert epochs, 'timeline produced no epoch snapshots'
assert all(a['epoch'] < b['epoch'] for a, b in zip(epochs, epochs[1:])), \
    'epoch numbers must be strictly increasing'
for s in epochs:
    for field in ('requests_delta', 'migrations_delta', 'per_pod_bytes_delta',
                  'fast_service_fraction', 'manager'):
        assert field in s, f'epoch snapshot missing {field}'
assert any('mea.evictions' in s['manager'] for s in epochs), 'no MEA counters'
assert any(s.get('queue_depth_p50') is not None for s in epochs), 'no depth p50'
assert any(s.get('queue_depth_p99') is not None for s in epochs), 'no depth p99'
assert any(s['migrations_delta'] > 0 for s in epochs), 'no migrations observed'
print('timeline.smoke.jsonl OK:', len(epochs), 'epoch snapshots')
"
    rm -f timeline.smoke.jsonl
}
step "simrun --timeline smoke" timeline_smoke

# Trace smoke: a sharded, span-traced run must export a Perfetto-loadable
# Chrome trace that survives tracelens's structural self-check (balanced
# begin/end pairs, no inverted spans, no parse problems), and the JSONL
# timeline of the same run must pass the same gate, and the default
# summary must render. CI uploads the Chrome trace as an artifact.
trace_smoke() {
    cargo run -q --release -p mempod-bench --bin simrun --offline -- \
        --workload mix1 --manager mempod --requests 150000 --smoke \
        --shards 4 --spans --exec-spans \
        --trace-out trace.smoke.json --timeline trace.smoke.jsonl
    cargo run -q --release -p mempod-bench --bin tracelens --offline -- \
        trace.smoke.json --self-check
    cargo run -q --release -p mempod-bench --bin tracelens --offline -- \
        trace.smoke.jsonl --self-check
    cargo run -q --release -p mempod-bench --bin tracelens --offline -- \
        trace.smoke.json
    rm -f trace.smoke.jsonl
}
step "simrun --trace-out smoke (tracelens --self-check)" trace_smoke

# Fault-injection smoke: the degradation study must run the abort/channel
# fault sweep over every manager, actually fire faults at the non-zero
# rates, and emit valid JSON with per-cell AMMAT-vs-clean and worst
# queue-depth p99 (full-scale numbers live in results/bench_faults.json;
# refresh with `cargo run --release -p mempod-bench --bin bench_faults`).
faults_smoke() {
    cargo run -q --release -p mempod-bench --bin bench_faults --offline -- \
        --smoke
    python3 -c "
import json
d = json.load(open('results/bench_faults.smoke.json'))
assert d['bench'] == 'faults' and d['results'], 'malformed benchmark JSON'
for r in d['results']:
    for field in ('manager', 'abort_ppm', 'ammat_ns', 'ammat_vs_clean',
                  'queue_depth_p99_worst', 'migration_faults',
                  'migration_aborts', 'migrations_rolled_back',
                  'channel_faults'):
        assert field in r, f'result missing {field}'
assert len({r['manager'] for r in d['results']}) == 4, 'expected 4 managers'
hot = [r for r in d['results'] if r['abort_ppm'] >= 100_000]
assert hot and all(r['migration_faults'] > 0 for r in hot), \
    'no migration faults fired at the top abort rate'
assert any(r['channel_faults'] > 0 for r in hot), 'no channel faults fired'
worst = max(hot, key=lambda r: r['ammat_vs_clean'])
print(f\"bench_faults.smoke.json OK: {len(d['results'])} cells, \"
      f\"worst degradation {worst['ammat_vs_clean']:.2f}x ({worst['manager']})\")
"
}
step "bench_faults --smoke" faults_smoke

echo
echo "All checks passed."
