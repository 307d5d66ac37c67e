//! Property tests for the telemetry primitives: histogram percentile
//! bounds under arbitrary samples, snapshot-ring wraparound, and JSONL
//! lines checked field by field after parsing them back as `Value`s.
//!
//! The vendored proptest shim supports range strategies only, so
//! collection-shaped inputs are derived from a sampled seed with a
//! splitmix-style generator (the same idiom as `remap_props.rs` in
//! `mempod-core`).

use std::collections::HashMap;

use mempod_telemetry::{
    EpochSnapshot, Event, EventKind, Log2Histogram, MemorySink, SnapshotRing, Telemetry,
    DEFAULT_RING_CAPACITY,
};
use proptest::prelude::*;
use serde_json::Value;

/// Xorshift step for deriving an unbounded value stream from one seed.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `n` samples spanning the full u64 range (xorshift output is uniform
/// over non-zero u64), derived from `seed`.
fn samples_from(seed: u64, n: usize) -> Vec<u64> {
    let mut x = seed;
    (0..n).map(|_| next(&mut x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any non-empty sample set, percentiles are ordered and bounded:
    /// min <= p50 <= p99 <= max, and every quantile answer is clamped into
    /// the observed [min, max] range.
    #[test]
    fn histogram_percentiles_are_ordered_and_bounded(
        seed in 1u64..u64::MAX,
        n in 1usize..2000,
        shift in 0u32..40,
    ) {
        // Shifting narrows the dynamic range so small-spread and
        // wide-spread sample sets are both exercised.
        let samples: Vec<u64> =
            samples_from(seed, n).into_iter().map(|v| v >> shift).collect();
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = *samples.iter().min().expect("non-empty");
        let hi = *samples.iter().max().expect("non-empty");
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), Some(lo));
        prop_assert_eq!(h.max(), Some(hi));
        let p50 = h.value_at_quantile(0.50).expect("non-empty");
        let p99 = h.value_at_quantile(0.99).expect("non-empty");
        prop_assert!(lo <= p50, "min {} > p50 {}", lo, p50);
        prop_assert!(p50 <= p99, "p50 {} > p99 {}", p50, p99);
        prop_assert!(p99 <= hi, "p99 {} > max {}", p99, hi);
        // Quantiles are monotone in q.
        let mut prev = h.value_at_quantile(0.0).expect("non-empty");
        for q in [0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.value_at_quantile(q).expect("non-empty");
            prop_assert!(v >= prev, "quantile {} went backwards", q);
            prev = v;
        }
    }

    /// Merging two histograms adds counts, sums, and widens min/max;
    /// `diff` then recovers the merged-in window at the bucket level.
    #[test]
    fn histogram_merge_is_additive_and_diff_undoes_it(
        seed_a in 1u64..u64::MAX,
        seed_b in 1u64..u64::MAX,
        na in 1usize..300,
        nb in 1usize..300,
    ) {
        let mut ha = Log2Histogram::new();
        let mut hb = Log2Histogram::new();
        for s in samples_from(seed_a, na) { ha.record(s >> 16); }
        for s in samples_from(seed_b, nb) { hb.record(s >> 16); }
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.sum(), ha.sum() + hb.sum());
        prop_assert_eq!(merged.min(), ha.min().min(hb.min()));
        prop_assert_eq!(merged.max(), ha.max().max(hb.max()));
        let window = merged.diff(&ha);
        prop_assert_eq!(window.count(), hb.count());
        prop_assert_eq!(window.sum(), hb.sum());
    }

    /// Pushing more snapshots than the ring holds keeps exactly the last
    /// `cap` of them, in order, while `total_pushed` counts everything.
    #[test]
    fn ring_wraparound_keeps_the_newest(
        cap in 1usize..64,
        pushes in 0usize..300,
    ) {
        let mut ring = SnapshotRing::new(cap);
        for i in 0..pushes {
            ring.push(EpochSnapshot::empty(i as u64, i as u64 * 50));
        }
        prop_assert_eq!(ring.total_pushed(), pushes as u64);
        prop_assert_eq!(ring.len(), pushes.min(cap));
        let kept: Vec<u64> = ring.iter().map(|s| s.epoch).collect();
        let expect: Vec<u64> =
            (pushes.saturating_sub(cap)..pushes).map(|i| i as u64).collect();
        prop_assert_eq!(kept, expect);
        if pushes > 0 {
            prop_assert_eq!(
                ring.latest().map(|s| s.epoch),
                Some(pushes as u64 - 1)
            );
        }
    }

    /// An arbitrary epoch snapshot's JSONL line parses back to every field
    /// of the snapshot bit-for-bit: exact `f64`s, `None` as `null`, and the
    /// manager counters as an object.
    #[test]
    fn epoch_snapshot_jsonl_round_trips(
        seed in 1u64..u64::MAX,
        epoch in 0u64..1 << 32,
        requests in 0u64..1 << 40,
        migs in 0u64..1 << 20,
        pods in 0usize..16,
        with_p50 in 0u8..2,
        frac_millis in 0u32..=1000,
        counters in 0usize..8,
    ) {
        let mut x = seed;
        let mut snap = EpochSnapshot::empty(epoch, epoch * 50_000_000);
        snap.requests = requests;
        snap.requests_delta = requests.min(977);
        snap.migrations = migs;
        snap.migrations_delta = migs.min(7);
        snap.per_pod_bytes_delta = (0..pods).map(|_| next(&mut x) >> 34).collect();
        if with_p50 == 1 {
            let p50 = next(&mut x) >> 44;
            snap.queue_depth_p50 = Some(p50);
            snap.queue_depth_p99 = Some(p50 * 2);
            snap.queue_depth_max = Some(p50 * 3);
        }
        snap.fast_service_fraction = Some(f64::from(frac_millis) / 1000.0);
        snap.ammat_ps_so_far = (requests > 0).then_some(123.5);
        let names = ["mea.evictions", "mea.insertions", "mempod.epochs",
                     "hma.intervals", "thm.counter_groups",
                     "cameo.wasted_migrations", "a.b", "c.d"];
        snap.manager = (0..counters)
            .map(|i| (names[i].to_string(), next(&mut x) >> 20))
            .collect::<HashMap<String, u64>>();

        let line = Event::new(snap.t_ps, EventKind::Epoch(snap.clone())).to_jsonl();
        prop_assert!(!line.is_empty());
        prop_assert!(!line.contains('\n'));
        let value: Value = serde_json::from_str(&line).expect("valid JSON line");
        prop_assert_eq!(value["t_ps"].as_u64(), Some(snap.t_ps));
        let v = &value["kind"]["Epoch"];
        let keys: Vec<&str> = v.as_object().expect("Epoch payload").keys().map(String::as_str).collect();
        prop_assert_eq!(keys, [
            "epoch", "t_ps", "epochs_elapsed", "requests", "requests_delta",
            "ammat_ps_so_far", "migrations", "migrations_delta", "bytes_moved_delta",
            "per_pod_bytes_delta", "fast_requests_delta", "slow_requests_delta",
            "fast_service_fraction", "row_hit_rate", "queue_depth_p50", "queue_depth_p99",
            "queue_depth_max", "refreshes_delta", "meta_miss_delta", "manager",
        ]);
        let int = |k: &str| v[k].as_u64().expect("integer field");
        // `null` reads back as `None`; anything else must be a number.
        let opt_int = |k: &str| (v[k] != Value::Null).then(|| int(k));
        let opt_bits = |k: &str| {
            (v[k] != Value::Null).then(|| v[k].as_f64().expect("number field").to_bits())
        };
        prop_assert_eq!(int("epoch"), snap.epoch);
        prop_assert_eq!(int("t_ps"), snap.t_ps);
        prop_assert_eq!(int("epochs_elapsed"), snap.epochs_elapsed);
        prop_assert_eq!(int("requests"), snap.requests);
        prop_assert_eq!(int("requests_delta"), snap.requests_delta);
        prop_assert_eq!(opt_bits("ammat_ps_so_far"), snap.ammat_ps_so_far.map(f64::to_bits));
        prop_assert_eq!(int("migrations"), snap.migrations);
        prop_assert_eq!(int("migrations_delta"), snap.migrations_delta);
        prop_assert_eq!(int("bytes_moved_delta"), snap.bytes_moved_delta);
        let per_pod: Vec<u64> = v["per_pod_bytes_delta"]
            .as_array()
            .expect("per-pod array")
            .iter()
            .map(|b| b.as_u64().expect("integer bytes"))
            .collect();
        prop_assert_eq!(per_pod, snap.per_pod_bytes_delta);
        prop_assert_eq!(int("fast_requests_delta"), snap.fast_requests_delta);
        prop_assert_eq!(int("slow_requests_delta"), snap.slow_requests_delta);
        prop_assert_eq!(
            opt_bits("fast_service_fraction"),
            snap.fast_service_fraction.map(f64::to_bits)
        );
        prop_assert_eq!(opt_bits("row_hit_rate"), snap.row_hit_rate.map(f64::to_bits));
        prop_assert_eq!(opt_int("queue_depth_p50"), snap.queue_depth_p50);
        prop_assert_eq!(opt_int("queue_depth_p99"), snap.queue_depth_p99);
        prop_assert_eq!(opt_int("queue_depth_max"), snap.queue_depth_max);
        prop_assert_eq!(int("refreshes_delta"), snap.refreshes_delta);
        prop_assert_eq!(int("meta_miss_delta"), snap.meta_miss_delta);
        let manager: HashMap<String, u64> = v["manager"]
            .as_object()
            .expect("manager object")
            .iter()
            .map(|(k, n)| (k.clone(), n.as_u64().expect("integer counter")))
            .collect();
        prop_assert_eq!(manager, snap.manager);
    }
}

proptest! {
    // Each case wraps the snapshot ring (1024+ pushes) four times over,
    // so run fewer cases than the cheap histogram properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The barrier-time merge contract, end to end: one deterministic
    /// global event stream, partitioned round-robin over 1/2/4/8 shard
    /// buffers and drained through `emit_merged` in batches — with enough
    /// snapshots interleaved between batches to wrap the ring mid-stream —
    /// always (i) drains every buffer, (ii) emits each batch sorted by
    /// `(t_ps, shard)` with per-shard emission order preserved on ties,
    /// and (iii) emits the same event multiset whatever the shard count.
    #[test]
    fn merged_emission_orders_by_time_then_shard_across_ring_wrap(
        seed in 1u64..u64::MAX,
        n in 1usize..300,
        batches in 1usize..6,
        tie_shift in 50u32..62,
    ) {
        let mut per_shard_count: Vec<Vec<(u64, u64)>> = Vec::new();
        for shards in [1usize, 2, 4, 8] {
            let sink = MemorySink::new();
            let lines = sink.handle();
            let mut tel = Telemetry::with_sink(Box::new(sink));
            // `tie_shift` collapses timestamps into a small range, so
            // equal-time events across different shards are common and the
            // shard-id tie-break is exercised rather than dodged.
            let mut x = seed;
            let mut bufs: Vec<Vec<(u64, EventKind)>> = vec![Vec::new(); shards];
            let snaps_per_batch = DEFAULT_RING_CAPACITY / batches + 1;
            let mut epoch = 0u64;
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for batch in 0..batches {
                for i in 0..n {
                    let g = (batch * n + i) as u64;
                    let t = next(&mut x) >> tie_shift;
                    bufs[g as usize % shards]
                        .push((t, EventKind::MetaMissBurst { len: g }));
                }
                let before = lines.lock().expect("sink lock").len();
                tel.emit_merged(&mut bufs);
                prop_assert!(
                    bufs.iter().all(Vec::is_empty),
                    "emit_merged left events buffered"
                );
                let seg: Vec<(u64, u64)> = lines.lock().expect("sink lock")
                    [before..]
                    .iter()
                    .map(|l| {
                        let v: Value = serde_json::from_str(l).expect("valid line");
                        let len = v["kind"]["MetaMissBurst"]["len"].as_u64();
                        match (v["t_ps"].as_u64(), len) {
                            (Some(t), Some(len)) => (t, len),
                            _ => panic!("unexpected line {l}"),
                        }
                    })
                    .collect();
                prop_assert_eq!(seg.len(), n);
                // Sorted by (t, shard); within one (t, shard) the global
                // index rises — the stable sort keeps emission order.
                for w in seg.windows(2) {
                    let (ta, ga) = w[0];
                    let (tb, gb) = w[1];
                    let (sa, sb) = (ga as usize % shards, gb as usize % shards);
                    prop_assert!(ta <= tb, "time went backwards: {} > {}", ta, tb);
                    if ta == tb {
                        prop_assert!(
                            sa <= sb,
                            "shard tie-break violated at t={}: {} > {}", ta, sa, sb
                        );
                        if sa == sb {
                            prop_assert!(
                                ga < gb,
                                "per-shard emission order lost at t={}", ta
                            );
                        }
                    }
                }
                merged.extend(seg);
                // Wrap the ring while the event stream is mid-flight.
                for _ in 0..snaps_per_batch {
                    tel.snapshot(EpochSnapshot::empty(epoch, epoch * 50));
                    epoch += 1;
                }
            }
            prop_assert!(tel.ring.total_pushed() > DEFAULT_RING_CAPACITY as u64);
            prop_assert_eq!(tel.ring.len(), DEFAULT_RING_CAPACITY);
            prop_assert_eq!(tel.ring.latest().map(|s| s.epoch), Some(epoch - 1));
            merged.sort_unstable();
            per_shard_count.push(merged);
        }
        // The same global stream partitioned differently emits the same
        // event multiset, whatever the shard count.
        for m in &per_shard_count[1..] {
            prop_assert_eq!(m, &per_shard_count[0]);
        }
    }
}

#[test]
fn ring_drain_empties_but_remembers_total() {
    let mut ring = SnapshotRing::new(4);
    for i in 0..9 {
        ring.push(EpochSnapshot::empty(i, i * 50));
    }
    let drained = ring.drain();
    assert_eq!(drained.len(), 4);
    assert_eq!(drained[0].epoch, 5);
    assert!(ring.is_empty());
    assert_eq!(ring.total_pushed(), 9);
}
