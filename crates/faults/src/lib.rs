//! Deterministic, seed-driven fault-injection plans.
//!
//! Every fault decision here is a pure function of the plan seed and the
//! simulated coordinates of the event being perturbed — frames and
//! admission time for migrations, channel index and time window for DRAM
//! faults. Nothing reads wall clock or mutable state, so a plan produces
//! identical faults on every replay and at every shard count: the sharded
//! event loop asks the same questions at the same simulated points
//! regardless of how the work is partitioned.
//!
//! The split of responsibilities with the engine is deliberate: **the plan
//! decides outcomes, the engine discovers causes and timing.** A
//! [`MigrationFaultSpec`] says how many attempts fail and whether the
//! migration dies permanently; the engine works out *when* each abort lands
//! and *why* (a conflicting write parked on the migrating page, or a
//! transient datapath failure), both of which are shard-count-invariant.

// Pipeline rules (DESIGN.md §8): no panics, prints, lossy casts,
// wall-clock reads, hash-order iteration or interior mutability outside
// tests. The `disallowed_*` lists live in the root clippy.toml.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unimplemented,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::disallowed_macros,
        clippy::iter_over_hash_type
    )
)]

use mempod_types::fault::PPM;
use mempod_types::{ChannelFaultKind, FaultConfig, FrameId, MigrationFaultSpec, Picos};

/// Base retry backoff in simulated time: retry attempt `k` waits
/// `MIGRATION_BACKOFF * 2^(k-1)`, capped at [`MIGRATION_BACKOFF_CAP`].
pub const MIGRATION_BACKOFF: Picos = Picos::from_ns(500);
/// Cap on the exponential retry backoff.
pub const MIGRATION_BACKOFF_CAP: Picos = Picos::from_us(8);
/// Width of the channel-fault decision window: each channel draws at
/// most one fault per window.
pub const CHANNEL_WINDOW: Picos = Picos::from_us(1);

/// Domain-separation salt for migration fault draws.
const MIG_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain-separation salt for channel fault draws.
const CHAN_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash. Chaining it
/// over the coordinates of an event gives every decision an independent,
/// reproducible draw.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A fault plan derived from a [`FaultConfig`]; cheap to copy and query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Wraps a configuration into a queryable plan.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decides, at admission, whether the migration `frame_a <-> frame_b`
    /// enqueued at `at` is faulted — and if so, how many attempts abort and
    /// whether it dies permanently. Pure in `(seed, frame_a, frame_b, at)`.
    pub fn migration_spec(
        &self,
        frame_a: FrameId,
        frame_b: FrameId,
        at: Picos,
    ) -> Option<MigrationFaultSpec> {
        if self.cfg.migration_abort_ppm == 0 {
            return None;
        }
        let h = mix64(mix64(mix64(self.cfg.seed ^ MIG_SALT ^ frame_a.0) ^ frame_b.0) ^ at.as_ps());
        if h % PPM >= u64::from(self.cfg.migration_abort_ppm) {
            return None;
        }
        // Geometric draw from the high bits (independent of the fire
        // decision, which consumed the low bits): each extra failed attempt
        // needs another set bit, so retries usually succeed quickly.
        let max_retries = self.cfg.migration_max_retries;
        let mut failed = 1u32;
        let mut bits = h >> 32;
        while failed <= max_retries && bits & 1 == 1 {
            failed += 1;
            bits >>= 1;
        }
        Some(MigrationFaultSpec {
            failed_attempts: failed,
            permanent: failed > max_retries,
        })
    }

    /// The channel-fault stream for one global channel index.
    pub fn channel_stream(&self, channel: u32) -> ChannelFaultStream {
        ChannelFaultStream {
            seed: self.cfg.seed,
            channel,
            ppm: self.cfg.channel_fault_ppm,
            window_ps: CHANNEL_WINDOW.as_ps(),
        }
    }
}

/// Simulated-time backoff before retry attempt `attempt` (1-based count
/// of failures so far): [`MIGRATION_BACKOFF`]` * 2^(attempt-1)`,
/// saturating, capped at [`MIGRATION_BACKOFF_CAP`].
#[must_use]
pub fn backoff_after(attempt: u32) -> Picos {
    let exp = attempt.saturating_sub(1).min(20);
    Picos(
        MIGRATION_BACKOFF
            .as_ps()
            .saturating_mul(1u64 << exp)
            .min(MIGRATION_BACKOFF_CAP.as_ps()),
    )
}

/// One fired channel fault: which decision window it belongs to and what
/// perturbation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFault {
    /// Decision-window index (`t / window`).
    pub slot: u64,
    /// End of the window, when window-scoped perturbations (stuck banks)
    /// release.
    pub slot_end: Picos,
    /// The perturbation.
    pub kind: ChannelFaultKind,
}

/// A per-channel fault stream: divides simulated time into fixed windows
/// and draws at most one fault per window, purely from
/// `(seed, channel, window index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFaultStream {
    seed: u64,
    channel: u32,
    ppm: u32,
    window_ps: u64,
}

impl ChannelFaultStream {
    /// The fault (if any) active in the window containing simulated time
    /// `t`. Pure: every query for the same window returns the same answer.
    pub fn window_at(&self, t: Picos) -> Option<ChannelFault> {
        if self.ppm == 0 {
            return None;
        }
        let slot = t.as_ps() / self.window_ps;
        let h = mix64(mix64(mix64(self.seed ^ CHAN_SALT) ^ u64::from(self.channel)) ^ slot);
        if h % PPM >= u64::from(self.ppm) {
            return None;
        }
        let kind = match (h >> 32) % 3 {
            0 => {
                // 50 ns .. 1.6 µs blackout in 50 ns steps.
                let steps = (h >> 34) % 32;
                ChannelFaultKind::LatencySpike(Picos(50_000 * (1 + steps)))
            }
            1 => {
                // Raw bank index; the channel interprets it mod its banks.
                let bank = (h >> 40) & 0xFFFF;
                ChannelFaultKind::StuckBank(u32::try_from(bank).unwrap_or(0))
            }
            _ => {
                let k = 1 + ((h >> 40) % 4);
                ChannelFaultKind::RefreshStorm(u32::try_from(k).unwrap_or(1))
            }
        };
        Some(ChannelFault {
            slot,
            slot_end: Picos(slot.saturating_add(1).saturating_mul(self.window_ps)),
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(abort_ppm: u32, retries: u32) -> FaultPlan {
        let mut cfg = FaultConfig::quiet(0xFEED_F00D);
        cfg.migration_abort_ppm = abort_ppm;
        cfg.migration_max_retries = retries;
        cfg.channel_fault_ppm = 50_000;
        FaultPlan::new(cfg)
    }

    #[test]
    fn migration_draws_are_deterministic() {
        let p = plan(100_000, 2);
        for i in 0..200u64 {
            let a = FrameId(i * 3);
            let b = FrameId(i * 7 + 1);
            let at = Picos::from_ns(i * 11);
            assert_eq!(p.migration_spec(a, b, at), p.migration_spec(a, b, at));
        }
    }

    #[test]
    fn migration_rate_is_calibrated() {
        // 10% nominal rate over 20k independent draws: expect ~2000 fires,
        // allow a generous +-25% band (binomial sigma is ~42).
        let p = plan(100_000, 2);
        let fired = (0..20_000u64)
            .filter(|&i| {
                p.migration_spec(FrameId(i), FrameId(i + 1_000_000), Picos::from_ns(i * 13))
                    .is_some()
            })
            .count();
        assert!((1_500..=2_500).contains(&fired), "fired {fired}/20000");
    }

    #[test]
    fn zero_rate_never_fires() {
        let p = plan(0, 2);
        assert!(p
            .migration_spec(FrameId(1), FrameId(2), Picos::from_ns(3))
            .is_none());
        let quiet = FaultPlan::new(FaultConfig::quiet(9));
        assert!(quiet
            .channel_stream(0)
            .window_at(Picos::from_us(5))
            .is_none());
    }

    #[test]
    fn zero_retries_makes_every_fault_permanent() {
        let p = plan(1_000_000, 0); // fires on every migration
        for i in 0..100u64 {
            let spec = p
                .migration_spec(FrameId(i), FrameId(i + 50), Picos::from_ns(i))
                .expect("ppm=1e6 always fires");
            assert_eq!(spec.failed_attempts, 1);
            assert!(spec.permanent);
        }
    }

    #[test]
    fn failed_attempts_respect_the_retry_budget() {
        let p = plan(1_000_000, 3);
        let mut saw_transient = false;
        let mut saw_permanent = false;
        for i in 0..2_000u64 {
            let spec = p
                .migration_spec(FrameId(i), FrameId(i + 9), Picos::from_ns(i * 7))
                .expect("always fires");
            assert!(
                (1..=4).contains(&spec.failed_attempts),
                "{spec:?} out of range"
            );
            assert_eq!(spec.permanent, spec.failed_attempts > 3);
            saw_transient |= !spec.permanent;
            saw_permanent |= spec.permanent;
        }
        assert!(saw_transient, "geometric draw should mostly recover");
        assert!(saw_permanent, "some draws should exhaust 3 retries");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_after(1), Picos::from_ns(500));
        assert_eq!(backoff_after(2), Picos::from_ns(1000));
        assert_eq!(backoff_after(3), Picos::from_ns(2000));
        assert_eq!(backoff_after(4), Picos::from_ns(4000));
        assert_eq!(backoff_after(5), MIGRATION_BACKOFF_CAP);
        assert_eq!(
            backoff_after(40),
            MIGRATION_BACKOFF_CAP,
            "exponent saturates"
        );
    }

    #[test]
    fn channel_windows_are_stable_within_and_differ_across() {
        let p = plan(0, 0);
        let s = p.channel_stream(3);
        // Every query inside one window agrees.
        let w0 = s.window_at(Picos::from_ns(10));
        for off in [0u64, 100, 999_999] {
            assert_eq!(s.window_at(Picos(off)), w0);
        }
        // Over many windows the 5% rate fires sometimes, not always.
        let fired = (0..4_000u64)
            .filter(|&w| s.window_at(Picos(w * 1_000_000)).is_some())
            .count();
        assert!((100..=400).contains(&fired), "fired {fired}/4000");
        // All three kinds appear over enough windows.
        let mut spikes = 0;
        let mut stuck = 0;
        let mut storms = 0;
        for w in 0..40_000u64 {
            match s.window_at(Picos(w * 1_000_000)).map(|f| f.kind) {
                Some(ChannelFaultKind::LatencySpike(extra)) => {
                    assert!(extra >= Picos::from_ns(50) && extra <= Picos::from_ns(1600));
                    spikes += 1;
                }
                Some(ChannelFaultKind::StuckBank(_)) => stuck += 1,
                Some(ChannelFaultKind::RefreshStorm(k)) => {
                    assert!((1..=4).contains(&k));
                    storms += 1;
                }
                None => {}
            }
        }
        assert!(spikes > 0 && stuck > 0 && storms > 0);
    }

    #[test]
    fn channel_streams_are_channel_separated() {
        let p = plan(0, 0);
        let a = p.channel_stream(0);
        let b = p.channel_stream(1);
        let differs = (0..2_000u64)
            .any(|w| a.window_at(Picos(w * 1_000_000)) != b.window_at(Picos(w * 1_000_000)));
        assert!(differs, "channels must draw independent fault streams");
    }

    #[test]
    fn slot_end_bounds_the_window() {
        let p = plan(0, 0);
        let s = p.channel_stream(2);
        for w in 0..4_000u64 {
            if let Some(f) = s.window_at(Picos(w * 1_000_000 + 17)) {
                assert_eq!(f.slot, w);
                assert_eq!(f.slot_end, Picos((w + 1) * 1_000_000));
            }
        }
    }
}
