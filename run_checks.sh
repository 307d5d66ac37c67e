#!/bin/bash
# Full verification pipeline: formatting, clippy at -D warnings, the
# mempod-audit lint engine, the whole test suite, and the runtime
# invariant auditor build. Exits non-zero on the first failing stage.
set -eu
cd "$(dirname "$0")"

step() {
    echo
    echo "=== $1 ==="
    shift
    "$@"
}

step "cargo fmt --check" cargo fmt --all -- --check
step "cargo clippy (-D warnings)" \
    cargo clippy --workspace --all-targets --offline -- -D warnings
step "mempod-audit lint (--deny-new)" \
    cargo run -q -p mempod-audit --offline -- lint --deny-new \
    --report audit.report.json
# Rewrites shard_safety.json in place and fails if any field regressed
# towards cross-shard relative to the committed snapshot.
step "mempod-audit effects (--check)" \
    cargo run -q -p mempod-audit --offline -- effects \
    --check shard_safety.json
# Rewrites lock_order.json in place and fails on any lock-acquisition
# cycle or acquire/release atomic-ordering mismatch in the pipeline and
# telemetry crates.
step "mempod-audit sync" \
    cargo run -q -p mempod-audit --offline -- sync --out lock_order.json
step "cargo test (workspace)" cargo test -q --workspace --offline
step "cargo test (debug-invariants)" \
    cargo test -q --features debug-invariants --offline
# The benchmark crate is its own workspace, so the workspace build and
# clippy never see it: build it and run its unit tests and --smoke
# self-test here, so an API change it depends on cannot break it unnoticed.
step "cargo test (benchmark crate)" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Bounded interleaving model checking: re-explores the four concurrency
# models (barrier generations, watchdog cancel, shard-panic degradation,
# poison recovery) under the instrumented facade, refreshes
# model_check.report.json, and requires >= 1,000 distinct schedules with
# zero violations.
model_check() {
    cargo test -q -p mempod-sync --features model-check --offline
    python3 -c "
import json
d = json.load(open('model_check.report.json'))
assert d['total_schedules'] >= 1000, f\"only {d['total_schedules']} schedules\"
assert all(m['violations'] == 0 for m in d['models']), 'model violations'
print(f\"model_check.report.json OK: {d['total_schedules']} schedules across \"
      f\"{len(d['models'])} models, 0 violations\")
"
}
step "mempod-sync model check" model_check

# Scheduler benchmark smoke: must run and emit valid JSON with the
# indexed-vs-reference speedup field, and the telemetry-overhead gate
# must pass — null-sink end-to-end overhead < 2% at full scale, with
# noise headroom (< 5%) at the ~0.2s smoke scale where shared-box timer
# jitter alone spans a few percent (full-scale numbers live in
# BENCH_sched.json and BENCH_telemetry.json; refresh with `cargo run
# --release -p mempod-bench --bin bench_sched`).
bench_smoke() {
    cargo run -q --release -p mempod-bench --bin bench_sched --offline -- \
        --smoke --out BENCH_sched.smoke.json \
        --telemetry-out BENCH_telemetry.smoke.json
    python3 -c "
import json
d = json.load(open('BENCH_sched.smoke.json'))
assert d['bench'] == 'sched_drain' and d['results'], 'malformed benchmark JSON'
assert all('speedup' in r for r in d['results'])
print('BENCH_sched.smoke.json OK:', len(d['results']), 'depths')
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

# Sharded-simulator smoke: the scaling benchmark must run (asserting
# every sharded run bit-identical to the sequential reference before
# timing), and emit valid JSON with per-shard-count critical-path and
# wall speedups (full-scale numbers live in BENCH_parallel.json;
# refresh with `cargo run --release -p mempod-bench --bin
# bench_parallel`).
parallel_smoke() {
    cargo run -q --release -p mempod-bench --bin bench_parallel --offline -- \
        --smoke --out BENCH_parallel.smoke.json
    python3 -c "
import json
d = json.load(open('BENCH_parallel.smoke.json'))
assert d['bench'] == 'parallel_shards' and d['results'], 'malformed benchmark JSON'
for r in d['results']:
    for field in ('shards', 'wall_ns', 'critical_path_ns',
                  'speedup_critical', 'speedup_wall'):
        assert field in r, f'result missing {field}'
assert d['speedup_at_4'] is not None, 'no 4-shard sample'
print(f\"BENCH_parallel.smoke.json OK: {d['speedup_at_4']:.2f}x critical-path at 4 shards\")
"
}
step "bench_parallel --smoke" parallel_smoke

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
# timeline of the same run must pass the same gate. CI uploads the Chrome
# trace as an artifact.
trace_smoke() {
    cargo run -q --release -p mempod-bench --bin simrun --offline -- \
        --workload mix1 --manager mempod --requests 150000 --smoke \
        --shards 4 --spans --exec-spans \
        --trace-out trace.smoke.json --timeline trace.smoke.jsonl
    cargo run -q --release -p mempod-bench --bin tracelens --offline -- \
        trace.smoke.json --self-check
    cargo run -q --release -p mempod-bench --bin tracelens --offline -- \
        trace.smoke.jsonl --self-check
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
