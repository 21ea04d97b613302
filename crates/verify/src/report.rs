//! Verification reports and counterexamples.

use ftbfs_graph::{FaultSpec, VertexId};
use std::fmt;

/// A single violation of the FT-MBFS property: a (source, vertex, fault set)
/// triple for which the structure's surviving distance differs from the
/// graph's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The source the distance is measured from.
    pub source: VertexId,
    /// The target vertex whose distance is wrong.
    pub vertex: VertexId,
    /// The fault set under which the mismatch occurs.
    pub faults: FaultSpec,
    /// `dist(source, vertex, G ∖ F)` (`None` = unreachable).
    pub expected: Option<u32>,
    /// `dist(source, vertex, H ∖ F)` (`None` = unreachable).
    pub actual: Option<u32>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dist({}, {}) under {:?}: expected {:?}, structure gives {:?}",
            self.source, self.vertex, self.faults, self.expected, self.actual
        )
    }
}

/// The outcome of a verification run.
#[derive(Clone, Debug, Default)]
pub struct VerificationReport {
    /// Number of fault sets examined.
    pub checked_fault_sets: usize,
    /// Number of (source, fault set) BFS comparisons performed.
    pub checked_comparisons: usize,
    /// All violations found (empty for a valid structure).
    pub violations: Vec<Violation>,
}

impl VerificationReport {
    /// Returns `true` if no violation was found.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }

    /// The first violation, if any — convenient for assertion messages.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: VerificationReport) {
        self.checked_fault_sets += other.checked_fault_sets;
        self.checked_comparisons += other.checked_comparisons;
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(
                f,
                "valid ({} fault sets, {} comparisons)",
                self.checked_fault_sets, self.checked_comparisons
            )
        } else {
            write!(
                f,
                "INVALID: {} violations out of {} fault sets; first: {}",
                self.violations.len(),
                self.checked_fault_sets,
                self.violations[0]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_validity_and_display() {
        let mut r = VerificationReport::default();
        assert!(r.is_valid());
        assert!(r.first_violation().is_none());
        r.checked_fault_sets = 10;
        r.checked_comparisons = 20;
        assert!(format!("{r}").contains("valid"));
        r.violations.push(Violation {
            source: VertexId(0),
            vertex: VertexId(3),
            faults: FaultSpec::None,
            expected: Some(2),
            actual: Some(4),
        });
        assert!(!r.is_valid());
        assert!(format!("{r}").contains("INVALID"));
        assert!(format!("{}", r.violations[0]).contains("expected"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = VerificationReport {
            checked_fault_sets: 2,
            checked_comparisons: 4,
            violations: vec![],
        };
        let b = VerificationReport {
            checked_fault_sets: 3,
            checked_comparisons: 6,
            violations: vec![Violation {
                source: VertexId(0),
                vertex: VertexId(1),
                faults: FaultSpec::None,
                expected: None,
                actual: Some(1),
            }],
        };
        a.merge(b);
        assert_eq!(a.checked_fault_sets, 5);
        assert_eq!(a.checked_comparisons, 10);
        assert_eq!(a.violations.len(), 1);
        assert!(!a.is_valid());
    }
}
