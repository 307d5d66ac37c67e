//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; the smoke test checks that
//! every metric it names is printed.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// An end-to-end metric, reported per workload.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// `host` (wall clock or memory of this machine) or `simulated`.
    pub kind: &'static str,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "sim_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.24,
        kind: "host",
    },
    EndToEnd {
        name: "sim_rps_2sh",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.24,
        kind: "host",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: "host",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        kind: "host",
    },
    EndToEnd {
        name: "ammat_ns",
        unit: "ns",
        better: Better::Lower,
        bound: 0.05,
        kind: "simulated",
    },
];

/// A metric of one layer, measured by the traced pass.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this one should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 26] = [
    layer(
        "trace.gen_ns_per_req",
        "ns/req",
        Lower,
        "setup_s on bwaves_tlm",
    ),
    layer("trace.mb", "MB", Lower, "peak_rss_mb on bwaves_tlm"),
    layer("sim.new_ms", "ms", Lower, "setup_s on mix1_mempod"),
    layer(
        "core.on_access_ns",
        "ns",
        Lower,
        "sim_rps on mcf_cameo > mix1_mempod > bwaves_tlm",
    ),
    layer(
        "core.migrating_call_us",
        "us",
        Lower,
        "sim_rps on mix1_mempod",
    ),
    layer("core.migrations", "count", Lower, "ammat_ns"),
    layer(
        "core.share",
        "ratio",
        Lower,
        "sim_rps (core's share of 1-shard wall time)",
    ),
    layer(
        "dram.submit_ns",
        "ns",
        Lower,
        "sim_rps on bwaves_tlm, mix1_mempod",
    ),
    layer(
        "dram.drain_ns_per_req",
        "ns/req",
        Lower,
        "sim_rps on bwaves_tlm",
    ),
    layer(
        "dram.scans_per_decision",
        "scans/decision",
        Lower,
        "explains dram.drain_ns_per_req",
    ),
    layer(
        "dram.max_queue_depth",
        "count",
        Lower,
        "explains dram.drain_ns_per_req",
    ),
    layer("dram.row_hit_rate", "ratio", Higher, "ammat_ns"),
    layer(
        "dram.share",
        "ratio",
        Lower,
        "sim_rps (dram's share of 1-shard wall time)",
    ),
    layer(
        "sim.host_ns_per_event",
        "ns/event",
        Lower,
        "sim_rps on all workloads",
    ),
    layer("sim.injected_per_req", "ratio", Lower, "sim_rps, ammat_ns"),
    layer("sim.unattributed_ms", "ms", Lower, "sim_rps on mcf_cameo"),
    layer("shard.effective", "count", Higher, "sim_rps_2sh"),
    layer(
        "shard.admission_ms",
        "ms",
        Lower,
        "sim_rps_2sh on mix1_mempod, bwaves_tlm",
    ),
    layer("shard.critical_path_ms", "ms", Lower, "sim_rps_2sh"),
    layer(
        "shard.imbalance",
        "ratio",
        Lower,
        "sim_rps_2sh on mix1_mempod",
    ),
    layer("shard.barriers", "count", Lower, "sim_rps_2sh"),
    layer(
        "shard.wall_speedup",
        "ratio",
        Higher,
        "sim_rps_2sh / sim_rps",
    ),
    layer(
        "telemetry.lines",
        "count",
        Lower,
        "sim_rps on mix1_mempod_observed",
    ),
    layer(
        "telemetry.bytes_per_line",
        "B/line",
        Lower,
        "sim_rps on mix1_mempod_observed",
    ),
    layer(
        "telemetry.ns_per_line",
        "ns/line",
        Lower,
        "sim_rps on mix1_mempod_observed",
    ),
    layer(
        "bench.timer_overhead_pct",
        "%",
        Lower,
        "none: the tracing overhead of per-call timing",
    ),
];

/// The unit of per-layer metric `name`.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.bound <= 0.25);
        assert!(END_TO_END
            .iter()
            .all(|m| m.name == "setup_s" || m.bound < setup.bound));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |k: &str| spec[k].as_array().expect("a list").clone();
        let field = |v: &serde_json::Value, k: &str| v[k].as_str().expect("a string").to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
            assert_eq!(j["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.as_str(), "{}", m.name);
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why, "{}", w.name);
        }
        let seconds = spec["run_seconds"].as_f64().expect("run_seconds");
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.1).abs() < 1e-12);
    }
}
