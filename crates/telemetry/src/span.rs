//! Causal spans: deterministic, allocation-light trace intervals.
//!
//! A span is a `[start_ps, end_ps]` window of *simulated* time with a
//! stable 64-bit identity. Identities are derived by mixing the event's
//! own coordinates (page, line, arrival time, shard, batch index) —
//! never a wall clock, never an allocation-order counter — so a traced run
//! emits the exact same span stream across 1/2/4/8 shards and replays.
//! The same derivation doubles as the sampling hash: whether a request is
//! traced is a pure function of its span id, decided once at admission.
//!
//! Two span domains share [`SpanRecord`]:
//!
//! * **Causal** spans (request service) describe the simulated machine.
//!   They always carry `shard == 0` so the stream is independent of how
//!   the simulation happens to be partitioned — the differential
//!   determinism tests compare these byte-for-byte.
//! * **Execution** spans ([`SpanName::ShardBatch`], [`SpanName::Barrier`])
//!   describe the harness itself: which shard ran which batch window.
//!   They are inherently per-shard-count and are only emitted when
//!   [`SpanConfig::exec_spans`] is set; differential tests exclude them.
//!
//! Migrations have no spans: their lifecycle events (`RemapSwap`,
//! `MigrationStart`, `MigrationAbort`/`MigrationRetry`,
//! `MigrationComplete`/`MigrationRollback`) already record every step
//! once, with the pages, hotness and abort cause a span would lack.

use serde::Serialize;

/// Sampling denominator: parts-per-million.
pub const PPM_SCALE: u32 = 1_000_000;

/// Reserved span id meaning "not sampled / no parent". Emitters drop
/// records whose id is 0, so the unsampled marker can flow through the
/// same `u64` fields the sampled path uses.
pub const SPAN_NONE: u64 = 0;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Identical to
/// the one `mempod-faults` uses for fault decisions (duplicated here so
/// telemetry keeps its zero-dependency footprint).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain tags keep the id spaces of unrelated span kinds disjoint even
/// when their coordinates collide (a request at t and a batch index with
/// the same bits must not alias).
const TAG_REQUEST: u64 = 0x52_45_51; // "REQ"
const TAG_EXEC: u64 = 0x45_58_45; // "EXE"

/// Folds a zero id onto a fixed non-zero constant so every derivation is
/// guaranteed to produce a valid (non-[`SPAN_NONE`]) identity.
#[inline]
fn nonzero(id: u64) -> u64 {
    if id == SPAN_NONE {
        0x6d65_6d70_6f64_5350 // "mempodSP"
    } else {
        id
    }
}

/// Identity of a request-service span: the request's page, line offset and
/// arrival time name it uniquely within a run.
#[inline]
pub fn request_span_id(page: u64, line: u64, arrival_ps: u64) -> u64 {
    nonzero(mix64(
        mix64(TAG_REQUEST ^ mix64(page)) ^ mix64(line).rotate_left(17) ^ arrival_ps,
    ))
}

/// Identity of the `seq`-th child of `parent` (the gate, service and
/// metadata-fetch phases under a request).
#[inline]
pub fn child_span_id(parent: u64, seq: u64) -> u64 {
    nonzero(mix64(parent ^ mix64(seq).rotate_left(11)))
}

/// Identity of an execution span: shard id and batch ordinal.
#[inline]
pub fn exec_span_id(shard: u64, batch: u64) -> u64 {
    nonzero(mix64(mix64(TAG_EXEC ^ shard) ^ mix64(batch).rotate_left(7)))
}

/// What interval a span describes. Unit variants serialize as bare JSON
/// strings, keeping span lines compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SpanName {
    /// Whole request service: admission to completion (root).
    Request,
    /// Admission gating: arrival to issue into the channel queues (child
    /// of [`SpanName::Request`]; only emitted when the gate delayed the
    /// request, i.e. issue > arrival).
    Gate,
    /// Channel queue + DRAM service: issue to completion (child of
    /// [`SpanName::Request`]).
    Service,
    /// Metadata (remap-table) fetch the request waited on before issuing
    /// (child of [`SpanName::Request`]).
    MetaFetch,
    /// One shard worker's batch window in simulated time (`aux` holds the
    /// work items pumped). Execution domain.
    ShardBatch,
    /// An epoch barrier crossing observed by the merge step (`aux` holds
    /// the batch ordinal). Execution domain.
    Barrier,
}

impl SpanName {
    /// The name's serialized form — identical to its serde string, used by
    /// the Chrome exporter so trace records never pay the `Debug`-format
    /// allocation.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Request => "Request",
            SpanName::Gate => "Gate",
            SpanName::Service => "Service",
            SpanName::MetaFetch => "MetaFetch",
            SpanName::ShardBatch => "ShardBatch",
            SpanName::Barrier => "Barrier",
        }
    }
}

/// One completed span. `Copy` and fixed-size on purpose: spans ride the
/// same per-shard `(t, EventKind)` buffers ordinary events use, so they
/// must stay cheap to move and free of allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanRecord {
    /// Deterministic span identity ([`request_span_id`] and friends);
    /// never [`SPAN_NONE`] in an emitted record.
    pub id: u64,
    /// Parent span id, or [`SPAN_NONE`] for roots.
    pub parent: u64,
    /// What the interval describes.
    pub name: SpanName,
    /// Interval start, simulated picoseconds.
    pub start_ps: u64,
    /// Interval end, simulated picoseconds (`>= start_ps`).
    pub end_ps: u64,
    /// Anchor frame coordinate: the request's frame for request spans, 0
    /// for execution spans.
    pub frame: u64,
    /// Shard that emitted the span. Always 0 for causal spans (the stream
    /// must not depend on the shard count); the real worker index for
    /// execution spans.
    pub shard: u32,
    /// Name-specific payload: global channel, work-item count, … (see
    /// [`SpanName`]).
    pub aux: u64,
}

impl SpanRecord {
    /// Interval length in picoseconds (saturating, so a malformed record
    /// reads as zero rather than wrapping).
    pub fn dur_ps(&self) -> u64 {
        self.end_ps.saturating_sub(self.start_ps)
    }
}

/// Span-tracing configuration: what gets sampled and which domains emit.
///
/// The zero value ([`SpanConfig::default`]) samples 1 % of requests and
/// keeps execution spans off — the always-safe setting the overhead gate
/// measures. Migrations are not spans: their lifecycle events are always
/// emitted, spans or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpanConfig {
    /// Requests sampled per million (0 disables request spans entirely;
    /// [`PPM_SCALE`] traces every request).
    pub request_sample_ppm: u32,
    /// Emit execution-domain spans (per-shard batch windows and barrier
    /// crossings). Off by default: they are shard-count-dependent.
    pub exec_spans: bool,
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig {
            request_sample_ppm: 10_000, // 1 %
            exec_spans: false,
        }
    }
}

impl SpanConfig {
    /// Traces every request (differential tests; small runs).
    pub fn full() -> Self {
        SpanConfig {
            request_sample_ppm: PPM_SCALE,
            exec_spans: false,
        }
    }

    /// Whether the request owning `span_id` is sampled. Pure function of
    /// the id, so every shard at every shard count agrees without
    /// coordination.
    #[inline]
    pub fn sample_request(&self, span_id: u64) -> bool {
        match self.request_sample_ppm {
            0 => false,
            p if p >= PPM_SCALE => true,
            p => mix64(span_id) % u64::from(PPM_SCALE) < u64::from(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ids_are_stable_and_nonzero() {
        let a = request_span_id(7, 3, 1_000);
        assert_eq!(a, request_span_id(7, 3, 1_000));
        assert_ne!(a, SPAN_NONE);
        assert_ne!(a, request_span_id(7, 3, 1_001));
        assert_ne!(exec_span_id(0, 0), SPAN_NONE);
        assert_ne!(child_span_id(a, 0), child_span_id(a, 1));
    }

    #[test]
    fn id_domains_do_not_alias_on_equal_coordinates() {
        for t in [0u64, 1, 4096, u64::MAX / 2] {
            assert_ne!(request_span_id(5, 0, t), exec_span_id(5, t));
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_id() {
        let cfg = SpanConfig {
            request_sample_ppm: 250_000,
            exec_spans: false,
        };
        let ids: Vec<u64> = (0..10_000u64)
            .map(|i| request_span_id(i, i % 32, i * 17))
            .collect();
        let first: Vec<bool> = ids.iter().map(|&id| cfg.sample_request(id)).collect();
        let second: Vec<bool> = ids.iter().map(|&id| cfg.sample_request(id)).collect();
        assert_eq!(first, second);
        let hits = first.iter().filter(|&&s| s).count();
        // 25 % nominal; allow generous slack for the 10k sample.
        assert!((1_500..=3_500).contains(&hits), "{hits}");
    }

    #[test]
    fn sampling_extremes_are_exact() {
        let all = SpanConfig::full();
        let none = SpanConfig {
            request_sample_ppm: 0,
            exec_spans: false,
        };
        for i in 0..100u64 {
            let id = request_span_id(i, 0, i);
            assert!(all.sample_request(id));
            assert!(!none.sample_request(id));
        }
    }

    #[test]
    fn span_records_round_trip_through_the_value_model() {
        let rec = SpanRecord {
            id: request_span_id(1, 2, 3),
            parent: SPAN_NONE,
            name: SpanName::Request,
            start_ps: 100,
            end_ps: 250,
            frame: 99,
            shard: 0,
            aux: 0,
        };
        let v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(rec).expect("serialize"))
                .expect("valid JSON");
        assert_eq!(v, rec.to_value());
        assert_eq!(v["id"].as_u64(), Some(rec.id));
        assert_eq!(v["name"].as_str(), Some("Request"));
        assert!(v.get("pod").is_none());
        assert_eq!(v["end_ps"].as_u64(), Some(250));
        assert_eq!(rec.dur_ps(), 150);
    }
}
