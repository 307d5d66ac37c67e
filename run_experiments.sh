#!/bin/bash
# Regenerates every table and figure into results/<bin>.txt, .err and .json.
# Builds the experiment binaries first and stops at the first binary that
# fails. Each binary's output goes to temporary files that replace the
# committed results/<bin>.txt and .err only when it exits 0.
set -euo pipefail
cd "$(dirname "$0")"
cargo build -q --release --offline -p mempod-bench --bins
BIN=./target/release
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
run() {
    echo "=== $1 ($(date +%H:%M:%S)) ==="
    "$BIN/$1" "${@:2}" > "$TMP/$1.txt" 2> "$TMP/$1.err" || {
        status=$?
        echo "$1 failed (exit $status); results/$1.* left as they were:" >&2
        cat "$TMP/$1.err" >&2
        exit "$status"
    }
    mv "$TMP/$1.txt" "$TMP/$1.err" results/
    echo "    done ($(date +%H:%M:%S))"
}
run table1_costs
run table2_config
run table3_mixes
run fig1_mea_counting
run fig2_mea_prediction
run fig3_prediction_detail
run fig8_performance
run fig6_epoch_counter_sweep
run fig7_counter_width
run fig9_cache_sensitivity
run fig10_scalability
run workload_atlas
run ablation_pods
run ablation_tracker
run scaling_costs
run ablation_interleave
echo "ALL EXPERIMENTS COMPLETE"
