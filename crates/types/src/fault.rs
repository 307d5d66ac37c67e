//! Fault-injection configuration and taxonomy.
//!
//! Faults are *planned*, not random: every injected fault is a pure
//! function of the configured seed and the simulated coordinates of the
//! event it perturbs (frames for migrations, channel index and time window
//! for DRAM faults). Wall-clock time never enters the derivation, so a run
//! with a given `FaultConfig` is bit-identical across replays and across
//! shard counts — the property the differential tests in `tests/sharding.rs`
//! pin down.
//!
//! The taxonomy has two classes:
//!
//! * **migration faults** — a swap aborts mid-flight (transiently, retried
//!   with exponential backoff in simulated time, or permanently, rolled
//!   back so the address map is exactly as before);
//! * **channel faults** — timing perturbations inside a DRAM channel
//!   ([`ChannelFaultKind`]): latency spikes, stuck banks, refresh storms.
//!
//! A shard worker panic is not in the taxonomy: shards are deterministic,
//! so a panic is a bug, and it propagates out of the run.

use serde::Serialize;

use crate::time::Picos;

/// One part per million: rates are integer ppm so fault decisions never
/// involve floating point (floats would jeopardize bit-identical replay).
pub const PPM: u64 = 1_000_000;

/// Deterministic fault-injection plan parameters.
///
/// All rates are expressed in parts per million ([`PPM`]); a rate of 0
/// disables that fault class. The default config injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultConfig {
    /// Seed every fault decision is derived from.
    pub seed: u64,
    /// Probability (ppm) that a migration suffers at least one mid-swap
    /// abort.
    pub migration_abort_ppm: u32,
    /// Retries granted to an aborted migration before it is rolled back
    /// permanently (0 = every fault is permanent).
    pub migration_max_retries: u32,
    /// Base retry backoff in simulated time; attempt `k` waits
    /// `backoff * 2^(k-1)`.
    pub migration_backoff: Picos,
    /// Cap on the exponential backoff.
    pub migration_backoff_cap: Picos,
    /// Probability (ppm) that a channel fault fires in any one
    /// `channel_window` of simulated time on any one channel.
    pub channel_fault_ppm: u32,
    /// Width of the channel-fault decision window.
    pub channel_window: Picos,
}

impl FaultConfig {
    /// A plan that injects nothing (but still threads the seed through).
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            migration_abort_ppm: 0,
            migration_max_retries: 0,
            migration_backoff: Picos::from_ns(500),
            migration_backoff_cap: Picos::from_us(8),
            channel_fault_ppm: 0,
            channel_window: Picos::from_us(1),
        }
    }

    /// Whether any fault class can actually fire.
    pub fn is_active(&self) -> bool {
        self.migration_abort_ppm > 0 || self.channel_fault_ppm > 0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::quiet(0)
    }
}

/// The planned outcome for one faulted migration, decided at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MigrationFaultSpec {
    /// Number of attempts that abort mid-swap (at least 1).
    pub failed_attempts: u32,
    /// Whether the migration exhausts its retries and is rolled back.
    pub permanent: bool,
}

/// Why a migration attempt aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FaultCause {
    /// A transient failure of the migration datapath.
    Transient,
    /// A conflicting write arrived for a page mid-swap and invalidated the
    /// copied data.
    ConflictingWrite,
}

/// A timing perturbation injected into one DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ChannelFaultKind {
    /// The data bus blacks out for the given extra duration.
    LatencySpike(Picos),
    /// One bank (raw index, interpreted modulo the channel's bank count)
    /// loses its open row and stays busy until the window ends.
    StuckBank(u32),
    /// The channel performs `k` back-to-back extra refreshes.
    RefreshStorm(u32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

    #[test]
    fn quiet_config_is_inactive() {
        let cfg = FaultConfig::quiet(7);
        assert!(!cfg.is_active());
        assert_eq!(cfg.seed, 7);
        assert_eq!(FaultConfig::default(), FaultConfig::quiet(0));
    }

    #[test]
    fn any_nonzero_rate_activates() {
        let mut cfg = FaultConfig::quiet(1);
        cfg.migration_abort_ppm = 1;
        assert!(cfg.is_active());
        let mut cfg = FaultConfig::quiet(1);
        cfg.channel_fault_ppm = 1;
        assert!(cfg.is_active());
    }

    #[test]
    fn fault_types_round_trip_through_serde() {
        let cfg = FaultConfig {
            seed: 42,
            migration_abort_ppm: 5_000,
            migration_max_retries: 3,
            migration_backoff: Picos::from_ns(200),
            migration_backoff_cap: Picos::from_us(4),
            channel_fault_ppm: 100,
            channel_window: Picos::from_us(2),
        };
        // Written JSON is only ever read back untyped: pin the parsed
        // shape, field order included.
        let parsed = |text: String| -> Value { serde_json::from_str(&text).expect("valid JSON") };
        assert_eq!(
            parsed(serde_json::to_string(cfg).expect("serialize")),
            json!({
                "seed": 42,
                "migration_abort_ppm": 5_000,
                "migration_max_retries": 3,
                "migration_backoff": 200_000,
                "migration_backoff_cap": 4_000_000,
                "channel_fault_ppm": 100,
                "channel_window": 2_000_000,
            })
        );
        let spec = MigrationFaultSpec {
            failed_attempts: 2,
            permanent: false,
        };
        assert_eq!(
            parsed(serde_json::to_string(spec).expect("serialize")),
            json!({ "failed_attempts": 2, "permanent": false })
        );
        for (kind, expected) in [
            (
                ChannelFaultKind::LatencySpike(Picos::from_ns(800)),
                json!({ "LatencySpike": 800_000 }),
            ),
            (ChannelFaultKind::StuckBank(5), json!({ "StuckBank": 5 })),
            (
                ChannelFaultKind::RefreshStorm(3),
                json!({ "RefreshStorm": 3 }),
            ),
        ] {
            assert_eq!(
                parsed(serde_json::to_string(kind).expect("serialize")),
                expected
            );
        }
        assert_eq!(
            serde_json::to_string(FaultCause::ConflictingWrite).expect("serialize"),
            "\"ConflictingWrite\""
        );
    }
}
