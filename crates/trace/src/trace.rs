//! The [`Trace`] container: a named, time-ordered request sequence.

use mempod_types::{MemRequest, PageId, Picos};

/// A multi-programmed memory trace: requests sorted by arrival time.
///
/// # Examples
///
/// ```
/// use mempod_trace::Trace;
/// use mempod_types::{AccessKind, Addr, CoreId, MemRequest, Picos};
///
/// let reqs = vec![MemRequest::new(Addr(0), AccessKind::Read, Picos(5), CoreId(0))];
/// let t = Trace::new("demo", reqs);
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.page_stream()[0].0, 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    name: String,
    requests: Vec<MemRequest>,
}

impl Trace {
    /// Wraps a request vector, sorting it by arrival time if needed.
    pub fn new(name: impl Into<String>, mut requests: Vec<MemRequest>) -> Self {
        if !requests.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            requests.sort_by_key(|r| r.arrival);
        }
        Trace {
            name: name.into(),
            requests,
        }
    }

    /// The workload name ("gcc", "mix9", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[MemRequest] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Arrival time of the last request (trace duration).
    pub fn duration(&self) -> Picos {
        self.requests.last().map_or(Picos::ZERO, |r| r.arrival)
    }

    /// The page-id sequence, for the offline tracker studies (§3).
    pub fn page_stream(&self) -> Vec<PageId> {
        self.requests.iter().map(|r| r.addr.page()).collect()
    }

    /// Mean aggregate request rate in requests per microsecond.
    pub fn mean_rate_per_us(&self) -> f64 {
        let d = self.duration().as_us_f64();
        if d == 0.0 {
            0.0
        } else {
            self.len() as f64 / d
        }
    }

    /// Number of distinct pages touched.
    pub fn distinct_pages(&self) -> usize {
        let mut pages: Vec<u64> = self.requests.iter().map(|r| r.addr.page().0).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }
}

impl Extend<MemRequest> for Trace {
    fn extend<T: IntoIterator<Item = MemRequest>>(&mut self, iter: T) {
        self.requests.extend(iter);
        self.requests.sort_by_key(|r| r.arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempod_types::{AccessKind, Addr, CoreId};

    fn req(t: u64, addr: u64) -> MemRequest {
        MemRequest::new(Addr(addr), AccessKind::Read, Picos(t), CoreId(0))
    }

    #[test]
    fn new_sorts_when_needed() {
        let t = Trace::new("x", vec![req(5, 0), req(1, 64), req(3, 128)]);
        let times: Vec<u64> = t.requests().iter().map(|r| r.arrival.0).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn stats_helpers() {
        let t = Trace::new(
            "x",
            vec![req(0, 0), req(1_000_000, 2048), req(2_000_000, 2048)],
        );
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.duration(), Picos::from_us(2));
        assert_eq!(t.distinct_pages(), 2);
        assert!((t.mean_rate_per_us() - 1.5).abs() < 1e-9);
        assert_eq!(t.page_stream(), vec![PageId(0), PageId(1), PageId(1)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.duration(), Picos::ZERO);
        assert_eq!(t.mean_rate_per_us(), 0.0);
    }

    #[test]
    fn extend_resorts() {
        let mut t = Trace::new("x", vec![req(10, 0)]);
        t.extend(vec![req(5, 64)]);
        assert_eq!(t.requests()[0].arrival, Picos(5));
    }
}
