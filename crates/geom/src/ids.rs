//! Typed identifiers for moving objects and installed queries.

use std::fmt;

/// Identifier of a moving data object (`p.id` in the paper's update tuples
/// `<p.id, x_old, y_old, x_new, y_new>`).
///
/// Stored as a `u32`: the paper's largest experiment uses 200K objects, and a
/// 4-byte id keeps cell object lists and `best_NN` entries compact (the
/// space analysis of Section 4.1 charges one memory unit per id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u32);

/// Identifier of an installed continuous query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl ObjectId {
    /// One past the largest object id the system accepts: 2²⁴ ≈ 16.8M.
    ///
    /// Object tables are dense — the grid's position columns, the
    /// server's duplicate check and the cluster router's position table
    /// each keep one slot per id up to the largest id seen, ~20 bytes
    /// per slot in one server — so an id is an amount of memory.
    /// Table 6.1's largest population is N = 200K; 2²⁴ is ~80× that,
    /// room for dense ids at any population the paper's experiments
    /// scale to, while the most a caller can make the tables grow to
    /// stays at ~0.3 GiB instead of ~80 GiB at `u32::MAX`. The validating
    /// surfaces (`CpmServer`, `ClusterCoordinator`, snapshot decode)
    /// refuse larger ids with a typed error before any state changes.
    pub const LIMIT: u32 = 1 << 24;

    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl QueryId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for ObjectId {
    #[inline]
    fn from(v: u32) -> Self {
        ObjectId(v)
    }
}

impl From<u32> for QueryId {
    #[inline]
    fn from(v: u32) -> Self {
        QueryId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(7).to_string(), "p7");
        assert_eq!(QueryId(3).to_string(), "q3");
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(ObjectId(1) < ObjectId(2));
        assert_eq!(ObjectId(5).index(), 5);
        assert_eq!(QueryId::from(9u32), QueryId(9));
    }
}
