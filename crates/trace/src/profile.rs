//! Per-benchmark workload models.
//!
//! Each SPEC CPU2006 benchmark the paper uses (Table 3) gets a
//! [`BenchProfile`] encoding its first-order memory behaviour. The
//! parameters are *relative to the machine* (footprints are fractions of a
//! core's share of total memory) so the same profile works at paper scale
//! (9 GB) and at test scale (36 MB).
//!
//! The profiles are calibrated to reproduce the paper's qualitative
//! per-workload findings (§3, §6.3.2):
//!
//! * `libquantum` — small looping footprint that *fits in HBM* (8 cores
//!   together stay under the fast tier), so migration eventually moves the
//!   whole working set up and co-locates hot pages in rows.
//! * `bwaves` — streams through structures far larger than an interval:
//!   the past interval barely overlaps the next, migration is wasted.
//! * `lbm` — huge working set, constant work per page: a sliding window.
//!   Full counters rank finished pages; recency (MEA) wins.
//! * `cactus` — stable, strongly skewed hot set: the one workload where
//!   exact counting (FC) beats MEA's recency bias.
//! * `xalanc` — skewed with *fast* phase rotation: adaptivity pays.
//! * `mcf` — enormous pointer-chasing footprint, flat-ish skew.

use serde::Serialize;

/// How a benchmark walks its footprint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AccessStyle {
    /// Sequential cursor over the whole footprint, wrapping around. Small
    /// footprints therefore *loop* (libquantum); large ones *stream*
    /// (bwaves).
    Stream,
    /// Uniform accesses inside a window of `window_frac` of the footprint
    /// that slides forward continuously (lbm's constant work per page).
    Window {
        /// Window width as a fraction of the footprint.
        window_frac: f64,
    },
    /// Skewed random: super-hot set, warm set, cold tail.
    Random,
    /// Like [`AccessStyle::Random`] but with single-line visits (no spatial
    /// locality): linked-list traversal (mcf, omnetpp, astar).
    PointerChase,
}

/// A parameterized synthetic benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BenchProfile {
    /// Benchmark name (matches the paper's Table 3 rows).
    pub name: &'static str,
    /// Footprint as a fraction of one core's share of total memory.
    pub footprint_frac: f64,
    /// Pages in the super-hot set (absolute; rotates with phases).
    pub superhot_pages: u64,
    /// Probability an access targets the super-hot set.
    pub superhot_prob: f64,
    /// Warm set size as a fraction of the footprint.
    pub warm_frac: f64,
    /// Probability an access targets the warm set.
    pub warm_prob: f64,
    /// Access style.
    pub style: AccessStyle,
    /// Accesses (per core) between hot-set rotations; `None` = no phases.
    pub phase_period: Option<u64>,
    /// Mean length (in super-hot accesses) of a hot-page *burst*. Zero means
    /// the super-hot set is accessed uniformly (stationary — Full Counters'
    /// best case, e.g. cactus). Nonzero models SPEC's sub-interval temporal
    /// locality: at any moment one set member is "bursting", with a short
    /// ramp-up preview of the next burster — the behaviour that makes
    /// recency (MEA) predict the future better than exact counts (paper §3).
    pub superhot_burst: u64,
    /// Fraction of accesses that are writes.
    pub write_ratio: f64,
    /// Mean consecutive accesses to the same page (spatial locality; >= 1).
    pub lines_per_visit: f64,
    /// Memory request intensity, requests per microsecond per core.
    pub reqs_per_us: f64,
}

impl BenchProfile {
    /// Looks a profile up by name.
    pub fn by_name(name: &str) -> Option<&'static BenchProfile> {
        BENCHMARKS.iter().find(|p| p.name == name)
    }

    /// A demo profile with a blatant hot/cold split, used in examples and
    /// quick tests (not part of the paper's suite).
    pub fn hotcold_demo() -> BenchProfile {
        BenchProfile {
            name: "hotcold-demo",
            footprint_frac: 0.5,
            superhot_pages: 32,
            superhot_prob: 0.6,
            warm_frac: 0.05,
            warm_prob: 0.25,
            style: AccessStyle::Random,
            superhot_burst: 0,
            phase_period: Some(150_000),
            write_ratio: 0.3,
            lines_per_visit: 4.0,
            reqs_per_us: 14.0,
        }
    }
}

/// All benchmark profiles, in the paper's Table 3 row order.
pub static BENCHMARKS: &[BenchProfile] = &[
    BenchProfile {
        name: "astar",
        footprint_frac: 0.30,
        superhot_pages: 48,
        superhot_prob: 0.45,
        warm_frac: 0.06,
        warm_prob: 0.30,
        style: AccessStyle::PointerChase,
        superhot_burst: 800,
        phase_period: Some(120_000),
        write_ratio: 0.20,
        lines_per_visit: 1.5,
        reqs_per_us: 9.0,
    },
    BenchProfile {
        name: "bwaves",
        footprint_frac: 0.85,
        superhot_pages: 0,
        superhot_prob: 0.0,
        warm_frac: 0.0,
        warm_prob: 0.0,
        style: AccessStyle::Stream,
        superhot_burst: 0,
        phase_period: None,
        write_ratio: 0.15,
        lines_per_visit: 16.0,
        reqs_per_us: 16.0,
    },
    BenchProfile {
        name: "bzip",
        footprint_frac: 0.25,
        superhot_pages: 32,
        superhot_prob: 0.50,
        warm_frac: 0.08,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 0,
        phase_period: Some(105_000),
        write_ratio: 0.30,
        lines_per_visit: 6.0,
        reqs_per_us: 10.0,
    },
    BenchProfile {
        name: "cactus",
        footprint_frac: 0.40,
        superhot_pages: 24,
        superhot_prob: 0.60,
        warm_frac: 0.04,
        warm_prob: 0.25,
        style: AccessStyle::Random,
        superhot_burst: 0,
        phase_period: None, // stable hot set: the FC-friendly workload
        write_ratio: 0.25,
        lines_per_visit: 8.0,
        reqs_per_us: 9.0,
    },
    BenchProfile {
        name: "dealii",
        footprint_frac: 0.30,
        superhot_pages: 32,
        superhot_prob: 0.50,
        warm_frac: 0.06,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 0,
        phase_period: Some(180_000),
        write_ratio: 0.25,
        lines_per_visit: 5.0,
        reqs_per_us: 9.0,
    },
    BenchProfile {
        name: "gcc",
        footprint_frac: 0.20,
        superhot_pages: 24,
        superhot_prob: 0.55,
        warm_frac: 0.05,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 0,
        phase_period: Some(90_000),
        write_ratio: 0.30,
        lines_per_visit: 4.0,
        reqs_per_us: 11.0,
    },
    BenchProfile {
        name: "gems",
        footprint_frac: 0.70,
        superhot_pages: 64,
        superhot_prob: 0.40,
        warm_frac: 0.10,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 1000,
        phase_period: Some(150_000),
        write_ratio: 0.30,
        lines_per_visit: 5.0,
        reqs_per_us: 14.0,
    },
    BenchProfile {
        name: "lbm",
        footprint_frac: 0.80,
        superhot_pages: 0,
        superhot_prob: 0.0,
        warm_frac: 0.0,
        warm_prob: 0.0,
        style: AccessStyle::Window { window_frac: 0.02 },
        superhot_burst: 0,
        phase_period: None,
        write_ratio: 0.40,
        lines_per_visit: 8.0,
        reqs_per_us: 18.0,
    },
    BenchProfile {
        name: "leslie",
        footprint_frac: 0.50,
        superhot_pages: 48,
        superhot_prob: 0.45,
        warm_frac: 0.08,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 800,
        phase_period: Some(135_000),
        write_ratio: 0.30,
        lines_per_visit: 6.0,
        reqs_per_us: 12.0,
    },
    BenchProfile {
        name: "libquantum",
        footprint_frac: 0.08, // 8 cores x 0.08 x (1/8 of 9GB) < 1GB HBM
        superhot_pages: 0,
        superhot_prob: 0.0,
        warm_frac: 0.0,
        warm_prob: 0.0,
        style: AccessStyle::Stream, // small footprint => loops repeatedly
        superhot_burst: 0,
        phase_period: None,
        write_ratio: 0.05,
        lines_per_visit: 24.0,
        reqs_per_us: 15.0,
    },
    BenchProfile {
        name: "mcf",
        footprint_frac: 0.90,
        superhot_pages: 64,
        superhot_prob: 0.30,
        warm_frac: 0.10,
        warm_prob: 0.25,
        style: AccessStyle::PointerChase,
        superhot_burst: 1200,
        phase_period: Some(240_000),
        write_ratio: 0.25,
        lines_per_visit: 1.2,
        reqs_per_us: 16.0,
    },
    BenchProfile {
        name: "milc",
        footprint_frac: 0.60,
        superhot_pages: 48,
        superhot_prob: 0.35,
        warm_frac: 0.08,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 1000,
        phase_period: Some(210_000),
        write_ratio: 0.30,
        lines_per_visit: 4.0,
        reqs_per_us: 12.0,
    },
    BenchProfile {
        name: "omnetpp",
        footprint_frac: 0.35,
        superhot_pages: 40,
        superhot_prob: 0.45,
        warm_frac: 0.06,
        warm_prob: 0.30,
        style: AccessStyle::PointerChase,
        superhot_burst: 800,
        phase_period: Some(150_000),
        write_ratio: 0.30,
        lines_per_visit: 1.5,
        reqs_per_us: 10.0,
    },
    BenchProfile {
        name: "soplex",
        footprint_frac: 0.45,
        superhot_pages: 40,
        superhot_prob: 0.50,
        warm_frac: 0.07,
        warm_prob: 0.28,
        style: AccessStyle::Random,
        superhot_burst: 0,
        phase_period: Some(120_000),
        write_ratio: 0.30,
        lines_per_visit: 5.0,
        reqs_per_us: 11.0,
    },
    BenchProfile {
        name: "sphinx",
        footprint_frac: 0.30,
        superhot_pages: 32,
        superhot_prob: 0.50,
        warm_frac: 0.05,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 600,
        phase_period: Some(90_000),
        write_ratio: 0.20,
        lines_per_visit: 5.0,
        reqs_per_us: 10.0,
    },
    BenchProfile {
        name: "xalanc",
        footprint_frac: 0.25,
        superhot_pages: 24,
        superhot_prob: 0.60,
        warm_frac: 0.05,
        warm_prob: 0.25,
        style: AccessStyle::Random,
        superhot_burst: 600,
        phase_period: Some(45_000), // fast phases: adaptivity pays
        write_ratio: 0.25,
        lines_per_visit: 4.0,
        reqs_per_us: 12.0,
    },
    BenchProfile {
        name: "zeusmp",
        footprint_frac: 0.55,
        superhot_pages: 48,
        superhot_prob: 0.45,
        warm_frac: 0.10,
        warm_prob: 0.30,
        style: AccessStyle::Random,
        superhot_burst: 800,
        phase_period: Some(165_000),
        write_ratio: 0.35,
        lines_per_visit: 6.0,
        reqs_per_us: 11.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seventeen_table3_benchmarks_present() {
        assert_eq!(BENCHMARKS.len(), 17);
        for name in [
            "astar",
            "bwaves",
            "bzip",
            "cactus",
            "dealii",
            "gcc",
            "gems",
            "lbm",
            "leslie",
            "libquantum",
            "mcf",
            "milc",
            "omnetpp",
            "soplex",
            "sphinx",
            "xalanc",
            "zeusmp",
        ] {
            assert!(BenchProfile::by_name(name).is_some(), "{name} missing");
        }
        assert!(BenchProfile::by_name("nonexistent").is_none());
    }

    #[test]
    fn probabilities_are_sane() {
        for p in BENCHMARKS {
            assert!(p.superhot_prob >= 0.0 && p.warm_prob >= 0.0, "{}", p.name);
            assert!(
                p.superhot_prob + p.warm_prob <= 1.0,
                "{}: probs exceed 1",
                p.name
            );
            assert!(
                p.footprint_frac > 0.0 && p.footprint_frac <= 1.0,
                "{}",
                p.name
            );
            assert!((0.0..=1.0).contains(&p.write_ratio), "{}", p.name);
            assert!(p.lines_per_visit >= 1.0, "{}", p.name);
            assert!(p.reqs_per_us > 0.0, "{}", p.name);
            if let AccessStyle::Window { window_frac } = p.style {
                assert!(window_frac > 0.0 && window_frac < 1.0, "{}", p.name);
            }
        }
    }

    #[test]
    fn libquantum_fits_in_fast_memory() {
        // 8 cores x footprint_frac x (total/8) must stay below the fast
        // tier: footprint_frac < fast/total = 1/9.
        let lq = BenchProfile::by_name("libquantum").unwrap();
        assert!(lq.footprint_frac < 1.0 / 9.0);
    }

    #[test]
    fn streaming_benchmarks_exceed_fast_memory() {
        for name in ["bwaves", "lbm", "mcf"] {
            let p = BenchProfile::by_name(name).unwrap();
            assert!(p.footprint_frac > 1.0 / 9.0, "{name} should not fit in HBM");
        }
    }

    #[test]
    fn cactus_is_stable_and_xalanc_is_phasey() {
        assert!(BenchProfile::by_name("cactus")
            .unwrap()
            .phase_period
            .is_none());
        let x = BenchProfile::by_name("xalanc")
            .unwrap()
            .phase_period
            .unwrap();
        for p in BENCHMARKS {
            if let Some(period) = p.phase_period {
                assert!(x <= period, "xalanc must rotate fastest");
            }
        }
    }
}
