//! Runtime invariant auditing for the migration pipeline.
//!
//! An [`InvariantAuditor`] is handed to subsystems at epoch boundaries
//! (sampled, so auditing stays affordable even on multi-million-request
//! runs). Subsystems state invariants through the [`audit!`](crate::audit)
//! and [`audit_invariant!`](crate::audit_invariant) macros; violations are
//! collected — not panicked on — so a single check pass can report every
//! broken invariant at once, and tests end with
//! [`InvariantAuditor::assert_clean`].
//!
//! The macros compile to nothing in crates built without their
//! `debug-invariants` cargo feature: the condition expression is not even
//! evaluated, so O(n) checks such as remap-bijection scans cost nothing in
//! release builds.

/// Collects invariant-check outcomes across one simulation run.
///
/// # Examples
///
/// ```
/// use mempod_audit::InvariantAuditor;
///
/// let mut auditor = InvariantAuditor::new("demo", 1);
/// if auditor.should_sample() {
///     auditor.observe(1 + 1 == 2, || "arithmetic broke".to_string());
/// }
/// assert!(auditor.is_clean());
/// auditor.assert_clean();
/// ```
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    label: String,
    sample_every: u64,
    epochs_seen: u64,
    checks_run: u64,
    violations: Vec<String>,
}

impl InvariantAuditor {
    /// Creates an auditor labelled `label` that samples one epoch boundary
    /// out of every `sample_every` (clamped to at least 1).
    pub fn new(label: impl Into<String>, sample_every: u64) -> Self {
        InvariantAuditor {
            label: label.into(),
            sample_every: sample_every.max(1),
            epochs_seen: 0,
            checks_run: 0,
            violations: Vec::new(),
        }
    }

    /// An auditor that checks every epoch boundary (no sampling).
    pub fn every_epoch(label: impl Into<String>) -> Self {
        Self::new(label, 1)
    }

    /// Advances the epoch counter and reports whether this boundary is one
    /// of the sampled ones. The first boundary is always sampled, so even
    /// short runs exercise every invariant at least once.
    pub fn should_sample(&mut self) -> bool {
        let sampled = self.epochs_seen.is_multiple_of(self.sample_every);
        self.epochs_seen += 1;
        sampled
    }

    /// Records the outcome of one invariant check. The message closure is
    /// only invoked on violation.
    pub fn observe<F: FnOnce() -> String>(&mut self, ok: bool, msg: F) {
        self.checks_run += 1;
        if !ok {
            self.violations.push(msg());
        }
    }

    /// Records a violation directly.
    pub fn record(&mut self, msg: impl Into<String>) {
        self.checks_run += 1;
        self.violations.push(msg.into());
    }

    /// Checks that `values` is a bijection onto `0..n`: every value in
    /// range and none repeated. This is the remap-table invariant — each
    /// pod's page→frame mapping must stay a permutation across swaps.
    pub fn check_bijection<I>(&mut self, what: &str, values: I, n: usize)
    where
        I: IntoIterator<Item = u64>,
    {
        let mut seen = vec![false; n];
        let mut count = 0usize;
        let mut ok = true;
        let mut detail = String::new();
        for v in values {
            count += 1;
            match seen.get_mut(usize::try_from(v).unwrap_or(usize::MAX)) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    ok = false;
                    detail = format!("value {v} appears twice");
                    break;
                }
                None => {
                    ok = false;
                    detail = format!("value {v} out of range 0..{n}");
                    break;
                }
            }
        }
        if ok && count != n {
            ok = false;
            detail = format!("{count} values for domain of {n}");
        }
        self.observe(ok, || format!("{what}: not a bijection ({detail})"));
    }

    /// Checks that two independently maintained counts agree — e.g. the
    /// migration count seen by the activity tracker's epoch logic versus
    /// the migration engine's executed total.
    pub fn check_conserved(&mut self, what: &str, expected: u64, actual: u64) {
        self.observe(expected == actual, || {
            format!("{what}: expected {expected}, found {actual}")
        });
    }

    /// Number of individual invariant checks executed.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }

    /// The collected violation messages.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Whether no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another auditor's counters and violations into this one
    /// (used to aggregate per-subsystem auditors into a run-level report).
    pub fn absorb(&mut self, other: &InvariantAuditor) {
        self.checks_run += other.checks_run;
        self.violations.extend(other.violations.iter().cloned());
    }

    /// Panics with every violation if any were recorded.
    ///
    /// # Panics
    ///
    /// Panics when at least one invariant violation was recorded.
    pub fn assert_clean(&self) {
        assert!(
            self.is_clean(),
            "invariant auditor `{}` recorded {} violation(s) over {} checks:\n  {}",
            self.label,
            self.violations.len(),
            self.checks_run,
            self.violations.join("\n  ")
        );
    }
}

/// Checks a condition against the auditor, recording a violation with the
/// formatted message (or the stringified condition) when it fails.
///
/// Compiles to nothing — the condition is not evaluated — unless the
/// *expanding* crate is built with its `debug-invariants` feature.
#[macro_export]
macro_rules! audit {
    ($auditor:expr, $cond:expr $(,)?) => {
        $crate::audit!($auditor, $cond, "{}", stringify!($cond))
    };
    ($auditor:expr, $cond:expr, $($fmt:tt)+) => {
        #[cfg(feature = "debug-invariants")]
        {
            let __auditor: &mut $crate::InvariantAuditor = $auditor;
            let __ok: bool = $cond;
            __auditor.observe(__ok, || format!($($fmt)+));
        }
    };
}

/// Like [`audit!`] but names the invariant, so reports group by invariant
/// rather than by call site.
#[macro_export]
macro_rules! audit_invariant {
    ($auditor:expr, $name:expr, $cond:expr $(,)?) => {
        $crate::audit_invariant!($auditor, $name, $cond, "{}", stringify!($cond))
    };
    ($auditor:expr, $name:expr, $cond:expr, $($fmt:tt)+) => {
        #[cfg(feature = "debug-invariants")]
        {
            let __auditor: &mut $crate::InvariantAuditor = $auditor;
            let __ok: bool = $cond;
            __auditor.observe(__ok, || {
                format!("[{}] {}", $name, format!($($fmt)+))
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_includes_first_epoch() {
        let mut a = InvariantAuditor::new("s", 4);
        let sampled: Vec<bool> = (0..8).map(|_| a.should_sample()).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn bijection_detects_duplicates_and_range() {
        let mut a = InvariantAuditor::every_epoch("b");
        a.check_bijection("ok", [2u64, 0, 1], 3);
        assert!(a.is_clean());
        a.check_bijection("dup", [0u64, 0, 1], 3);
        a.check_bijection("range", [0u64, 1, 5], 3);
        a.check_bijection("short", [0u64, 1], 3);
        assert_eq!(a.violations().len(), 3);
        assert_eq!(a.checks_run(), 4);
    }

    #[test]
    fn conservation_and_absorb() {
        let mut a = InvariantAuditor::every_epoch("c");
        a.check_conserved("counts", 5, 5);
        let mut b = InvariantAuditor::every_epoch("d");
        b.check_conserved("counts", 5, 6);
        a.absorb(&b);
        assert_eq!(a.checks_run(), 2);
        assert_eq!(a.violations().len(), 1);
        assert!(a.violations()[0].contains("expected 5, found 6"));
    }

    #[test]
    #[should_panic(expected = "recorded 1 violation")]
    fn assert_clean_panics_on_violation() {
        let mut a = InvariantAuditor::every_epoch("p");
        a.record("broken");
        a.assert_clean();
    }
}
