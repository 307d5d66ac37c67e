//! Turning [`WorkloadSpec`]s into deterministic, time-ordered traces.
//!
//! Each of the 8 cores runs one [`BenchProfile`] as an independent request
//! stream (own RNG substream, own address-space partition); the generator
//! merges the streams by arrival time, mirroring how the paper records
//! multi-programmed traces with Sniper ("memory pages are not shared").
//!
//! **Address-space partitioning.** Core *c*'s local page *l* maps to global
//! page `l * cores + (c + l) % cores`. This is a bijection (no sharing),
//! spreads every core's pages across channels *and* pods, and gives each
//! core a proportional slice of the statically-fast region — while keeping
//! consecutive local pages non-adjacent physically, which reproduces the low
//! row-buffer hit rates the paper reports for unmanaged placements (the
//! libquantum 7 % baseline).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mempod_types::{AccessKind, Addr, CoreId, Geometry, MemRequest, Picos, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mixes::mix_composition;
use crate::profile::{AccessStyle, BenchProfile, BENCHMARKS};
use crate::trace::Trace;

const LINES_PER_PAGE: u32 = 32;

/// A named 8-core workload: one benchmark profile per core.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    name: String,
    profiles: Vec<BenchProfile>,
}

impl WorkloadSpec {
    /// A homogeneous workload: 8 copies of the named benchmark (the paper's
    /// "we use a single benchmark's name as shorthand" convention).
    pub fn homogeneous(benchmark: &str) -> Option<Self> {
        let p = *BenchProfile::by_name(benchmark)?;
        Some(WorkloadSpec {
            name: benchmark.to_string(),
            profiles: vec![p; 8],
        })
    }

    /// A mixed workload from explicit profiles.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn mixed(name: impl Into<String>, profiles: Vec<BenchProfile>) -> Self {
        assert!(!profiles.is_empty(), "a workload needs at least one core");
        WorkloadSpec {
            name: name.into(),
            profiles,
        }
    }

    /// One of the paper's Table 3 mixes ("mix1".."mix12").
    pub fn mix(name: &str) -> Option<Self> {
        let profiles = mix_composition(name)?;
        Some(WorkloadSpec {
            name: name.to_string(),
            profiles: profiles.into_iter().copied().collect(),
        })
    }

    /// The demo workload used in examples: 8 cores of a blatant hot/cold
    /// pattern.
    pub fn hotcold_demo() -> Self {
        WorkloadSpec {
            name: "hotcold-demo".to_string(),
            profiles: vec![BenchProfile::hotcold_demo(); 8],
        }
    }

    /// All 17 homogeneous workloads, in Table 3 row order.
    pub fn all_homogeneous() -> Vec<Self> {
        BENCHMARKS
            .iter()
            .map(|p| Self::homogeneous(p.name).expect("benchmark exists"))
            .collect()
    }

    /// All 12 mixed workloads from Table 3.
    pub fn all_mixes() -> Vec<Self> {
        (1..=12)
            .map(|i| Self::mix(&format!("mix{i}")).expect("mix exists"))
            .collect()
    }

    /// The complete evaluation suite: homogeneous then mixes.
    pub fn all_workloads() -> Vec<Self> {
        let mut v = Self::all_homogeneous();
        v.extend(Self::all_mixes());
        v
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-core profiles.
    pub fn profiles(&self) -> &[BenchProfile] {
        &self.profiles
    }
}

/// Greatest common divisor (for choosing a coprime scatter stride).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// An odd multiplier coprime to `n`, near the golden-ratio point, used to
/// scatter a core's local pages across its whole partition (real OS
/// first-touch placement does not allocate a footprint at the bottom of
/// physical memory, where the statically-fast tier lives).
fn coprime_stride(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    let mut s = ((n as f64 * 0.618_033_988_75) as u64) | 1;
    while gcd(s, n) != 1 {
        s += 2;
    }
    s % n
}

/// Per-core request stream state.
#[derive(Debug, Clone)]
struct CoreStream {
    core: CoreId,
    profile: BenchProfile,
    rng: StdRng,
    cores: u64,
    per_core_pages: u64,
    scatter_stride: u64,
    footprint_pages: u64,
    superhot_n: u64,
    warm_n: u64,
    phase_offset: u64,
    accesses: u64,
    burst_active: u64,
    burst_next: u64,
    burst_left: u64,
    next_arrival: Picos,
    current_page: u64,
    line_cursor: u32,
    visits_left: u64,
    stream_cursor: u64,
}

impl CoreStream {
    fn new(core: u8, profile: BenchProfile, geo: &Geometry, cores: u64, seed: u64) -> Self {
        let per_core_pages = geo.total_pages() / cores;
        let footprint_pages = ((per_core_pages as f64 * profile.footprint_frac) as u64).max(4);
        let superhot_n = profile.superhot_pages.min(footprint_pages / 2);
        let warm_n = if profile.warm_prob > 0.0 {
            ((footprint_pages as f64 * profile.warm_frac) as u64).max(1)
        } else {
            0
        };
        // Derive a well-mixed per-core seed (SplitMix64 step).
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15u64.wrapping_mul(core as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        let mut rng = StdRng::seed_from_u64(z);
        // Hot regions start at a random place in the footprint: real hot
        // pages are scattered through the address space, not parked at the
        // low addresses that the static mapping puts in fast memory.
        let phase_offset = rng.gen_range(0..footprint_pages);
        CoreStream {
            core: CoreId(core),
            profile,
            rng,
            cores,
            per_core_pages,
            scatter_stride: coprime_stride(per_core_pages),
            footprint_pages,
            superhot_n,
            warm_n,
            phase_offset,
            accesses: 0,
            burst_active: 0,
            burst_next: 0,
            burst_left: 0,
            next_arrival: Picos::ZERO,
            current_page: 0,
            line_cursor: 0,
            visits_left: 0,
            stream_cursor: 0,
        }
    }

    /// Global page for a local page index: scatter within the partition
    /// (coprime-stride permutation), then interleave partitions across the
    /// global space. Both steps are bijections, so pages are never shared.
    fn global_page(&self, local: u64) -> u64 {
        let slot = (local * self.scatter_stride) % self.per_core_pages;
        debug_assert!(slot < u64::MAX / self.cores);
        slot * self.cores + (self.core.0 as u64 + slot) % self.cores
    }

    fn pick_page(&mut self) -> u64 {
        let fp = self.footprint_pages;
        match self.profile.style {
            AccessStyle::Stream => {
                self.stream_cursor = (self.stream_cursor + 1) % fp;
                self.stream_cursor
            }
            AccessStyle::Window { window_frac } => {
                let w = ((fp as f64 * window_frac) as u64).max(1);
                // Constant work per page: the window slides one page every
                // `step` accesses, so each page receives ~`step` accesses
                // while inside the window.
                let step = (self.profile.lines_per_visit * 8.0).max(1.0) as u64;
                let start = (self.accesses / step) % fp;
                (start + self.rng.gen_range(0..w)) % fp
            }
            AccessStyle::Random | AccessStyle::PointerChase => {
                let r: f64 = self.rng.gen();
                let p = &self.profile;
                if r < p.superhot_prob && self.superhot_n > 0 {
                    let idx = self.pick_superhot_member();
                    (self.phase_offset + idx) % fp
                } else if r < p.superhot_prob + p.warm_prob && self.warm_n > 0 {
                    (self.phase_offset + self.superhot_n + self.rng.gen_range(0..self.warm_n)) % fp
                } else {
                    self.rng.gen_range(0..fp)
                }
            }
        }
    }

    /// Which member of the super-hot set to access. With `superhot_burst`
    /// disabled, uniform; otherwise one member "bursts" at a time, and near
    /// the end of a burst the next burster gets occasional ramp-up accesses
    /// (the temporal-locality signature MEA exploits, see the profile docs).
    fn pick_superhot_member(&mut self) -> u64 {
        let mean = self.profile.superhot_burst;
        if mean == 0 || self.superhot_n < 2 {
            return self.rng.gen_range(0..self.superhot_n);
        }
        if self.burst_left == 0 {
            self.burst_active = self.burst_next;
            self.burst_next = self.rng.gen_range(0..self.superhot_n);
            self.burst_left = self.rng.gen_range(mean / 2..=mean * 3 / 2).max(1);
        }
        self.burst_left -= 1;
        if self.burst_left < mean / 4 && self.rng.gen::<f64>() < 0.1 {
            self.burst_next
        } else {
            self.burst_active
        }
    }

    fn next_request(&mut self, geo: &Geometry) -> MemRequest {
        if self.visits_left == 0 {
            self.current_page = self.pick_page();
            let mean = self.profile.lines_per_visit;
            // Uniform around the mean, at least one access per visit.
            let hi = (2.0 * mean - 1.0).max(1.0) as u64;
            self.visits_left = self.rng.gen_range(1..=hi.max(1));
            self.line_cursor = self.rng.gen_range(0..LINES_PER_PAGE);
        }
        let global = self.global_page(self.current_page);
        debug_assert!(global < geo.total_pages());
        let addr = Addr(global * PAGE_SIZE as u64 + self.line_cursor as u64 * 64);
        self.line_cursor = (self.line_cursor + 1) % LINES_PER_PAGE;
        self.visits_left -= 1;

        let kind = if self.rng.gen::<f64>() < self.profile.write_ratio {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let req = MemRequest::new(addr, kind, self.next_arrival, self.core);

        // Advance time: jittered inter-arrival around the mean rate.
        let mean_gap_ps = 1.0e6 / self.profile.reqs_per_us;
        let jitter: f64 = self.rng.gen_range(0.5..1.5);
        self.next_arrival += Picos((mean_gap_ps * jitter) as u64);

        // Phase rotation.
        self.accesses += 1;
        if let Some(period) = self.profile.phase_period {
            if self.accesses.is_multiple_of(period) {
                self.phase_offset =
                    (self.phase_offset + self.superhot_n + self.warm_n) % self.footprint_pages;
            }
        }
        req
    }
}

/// Deterministic trace generator for a [`WorkloadSpec`].
///
/// # Examples
///
/// ```
/// use mempod_trace::{TraceGenerator, WorkloadSpec};
/// use mempod_types::Geometry;
///
/// let spec = WorkloadSpec::hotcold_demo();
/// let a = TraceGenerator::new(spec.clone(), 1).take_requests(1000, &Geometry::tiny());
/// let b = TraceGenerator::new(spec, 1).take_requests(1000, &Geometry::tiny());
/// assert_eq!(a.requests(), b.requests()); // same seed, same trace
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for `spec` with a reproducibility `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        TraceGenerator { spec, seed }
    }

    /// The spec this generator runs.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generates the first `n` requests (across all cores, merged by
    /// arrival time) of the workload on a machine of the given geometry.
    pub fn take_requests(&self, n: usize, geo: &Geometry) -> Trace {
        let cores = self.spec.profiles.len() as u64;
        let mut streams: Vec<CoreStream> = self
            .spec
            .profiles
            .iter()
            .enumerate()
            .map(|(c, p)| CoreStream::new(c as u8, *p, geo, cores, self.seed))
            .collect();

        // Merge per-core streams by next arrival time.
        let mut heap: BinaryHeap<Reverse<(Picos, usize)>> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| Reverse((s.next_arrival, i)))
            .collect();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Reverse((_, i)) = heap.pop().expect("streams are endless");
            let req = streams[i].next_request(geo);
            out.push(req);
            heap.push(Reverse((streams[i].next_arrival, i)));
        }
        Trace::new(self.spec.name.clone(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn partition_bijection_no_page_sharing() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("gcc").unwrap();
        let trace = TraceGenerator::new(spec, 3).take_requests(20_000, &geo);
        // No page may be touched by two different cores.
        let mut owner: std::collections::HashMap<u64, u8> = Default::default();
        for r in trace.requests() {
            let prev = owner.insert(r.addr.page().0, r.core.0);
            if let Some(p) = prev {
                assert_eq!(p, r.core.0, "page {} shared", r.addr.page());
            }
        }
    }

    #[test]
    fn addresses_stay_in_bounds() {
        let geo = Geometry::tiny();
        for spec in [
            WorkloadSpec::homogeneous("mcf").unwrap(),
            WorkloadSpec::homogeneous("bwaves").unwrap(),
            WorkloadSpec::mix("mix5").unwrap(),
        ] {
            let trace = TraceGenerator::new(spec, 9).take_requests(30_000, &geo);
            for r in trace.requests() {
                assert!(r.addr.page().0 < geo.total_pages());
            }
        }
    }

    #[test]
    fn deterministic_per_seed_distinct_across_seeds() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("xalanc").unwrap();
        let a = TraceGenerator::new(spec.clone(), 1).take_requests(5000, &geo);
        let b = TraceGenerator::new(spec.clone(), 1).take_requests(5000, &geo);
        let c = TraceGenerator::new(spec, 2).take_requests(5000, &geo);
        assert_eq!(a.requests(), b.requests());
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn arrivals_are_merged_in_order() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::mix("mix1").unwrap();
        let t = TraceGenerator::new(spec, 5).take_requests(10_000, &geo);
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].arrival <= w[1].arrival));
        // All 8 cores contribute.
        let cores: HashSet<u8> = t.requests().iter().map(|r| r.core.0).collect();
        assert_eq!(cores.len(), 8);
    }

    #[test]
    fn skewed_profile_produces_hot_pages() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("cactus").unwrap();
        let t = TraceGenerator::new(spec, 11).take_requests(50_000, &geo);
        // The top-192 pages (24 superhot x 8 cores) should absorb roughly
        // superhot_prob of the traffic.
        let mut counts: std::collections::HashMap<u64, u64> = Default::default();
        for r in t.requests() {
            *counts.entry(r.addr.page().0).or_insert(0) += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = v.iter().take(192).sum();
        let frac = top as f64 / t.len() as f64;
        assert!(frac > 0.45, "hot fraction too low: {frac}");
    }

    #[test]
    fn streaming_profile_touches_many_pages() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("bwaves").unwrap();
        let t = TraceGenerator::new(spec, 11).take_requests(50_000, &geo);
        // ~16 lines/visit => ~3k distinct pages in 50k requests.
        assert!(t.distinct_pages() > 1000, "{}", t.distinct_pages());
    }

    #[test]
    fn request_rate_matches_profile() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("gcc").unwrap(); // 11 req/us/core
        let t = TraceGenerator::new(spec, 4).take_requests(50_000, &geo);
        let rate = t.mean_rate_per_us();
        assert!(
            (rate - 88.0).abs() < 10.0,
            "aggregate rate {rate} far from 8 x 11"
        );
    }

    #[test]
    fn write_ratio_is_respected() {
        let geo = Geometry::tiny();
        let spec = WorkloadSpec::homogeneous("lbm").unwrap(); // 40% writes
        let t = TraceGenerator::new(spec, 4).take_requests(20_000, &geo);
        let writes = t.requests().iter().filter(|r| r.kind.is_write()).count();
        let ratio = writes as f64 / t.len() as f64;
        assert!((ratio - 0.4).abs() < 0.05, "write ratio {ratio}");
    }

    #[test]
    fn all_workloads_enumerates_29() {
        let all = WorkloadSpec::all_workloads();
        assert_eq!(all.len(), 17 + 12);
    }

    #[test]
    fn unknown_names_return_none() {
        assert!(WorkloadSpec::homogeneous("fortnite").is_none());
        assert!(WorkloadSpec::mix("mix99").is_none());
    }
}
