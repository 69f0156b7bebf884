//! Hardware-independent work counters shared by all monitoring algorithms.
//!
//! The paper evaluates algorithms by CPU time and by *cell accesses* ("a
//! cell visit corresponds to a complete scan over the object list in the
//! cell", Section 6 / Figure 6.3b). Counters here are incremented by the
//! algorithms themselves; the simulation driver snapshots them per cycle.
//!
//! # Ownership under sharing
//!
//! Each counter must have exactly one owner. Per-query work (cell
//! accesses, heap operations, (re)computations, merges) is counted by the
//! monitor — or, in the threaded engine, by the *worker* — that did it;
//! index work (`updates_applied`) is counted by whoever mutates the grid,
//! exactly once per event, no matter how many monitors or workers consume
//! the batch. Aggregated views are built with [`Metrics::merge`] (plain
//! u64 addition — associative and commutative, so merged totals are
//! deterministic regardless of thread scheduling), and resets must reach
//! every owner: a `take_metrics` that drains only an aggregator while the
//! per-worker owners keep counting would silently double-report on the next
//! snapshot.

/// The continuous-query classes the suite monitors, used to attribute
/// work counters per class in mixed workloads ([`Metrics::by_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum QueryKind {
    /// Plain point k-NN (Section 3).
    Knn = 0,
    /// Range membership (rectangle/circle).
    Range = 1,
    /// Aggregate NN over a point set (Section 5).
    Ann = 2,
    /// Constrained NN inside a region (Section 5).
    Constrained = 3,
    /// Reverse NN (six-region candidates + verification).
    Rnn = 4,
}

impl QueryKind {
    /// Number of query kinds (the length of [`Metrics::by_kind`]).
    pub const COUNT: usize = 5;

    /// All kinds, in `by_kind` index order.
    pub const ALL: [QueryKind; QueryKind::COUNT] = [
        QueryKind::Knn,
        QueryKind::Range,
        QueryKind::Ann,
        QueryKind::Constrained,
        QueryKind::Rnn,
    ];

    /// Short lowercase label (table headers, error messages).
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Knn => "knn",
            QueryKind::Range => "range",
            QueryKind::Ann => "ann",
            QueryKind::Constrained => "constrained",
            QueryKind::Rnn => "rnn",
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so width/alignment flags work in
        // table-formatting call sites.
        f.pad(self.label())
    }
}

/// The query-side work counters attributable to a single query class
/// (everything in [`Metrics`] except the index-owned `updates_applied`,
/// which is paid once per event regardless of who consumes the batch).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KindMetrics {
    /// Complete scans of a cell's object list.
    pub cell_accesses: u64,
    /// Objects whose distance to some query was evaluated.
    pub objects_processed: u64,
    /// Search-heap insertions.
    pub heap_pushes: u64,
    /// Search-heap removals.
    pub heap_pops: u64,
    /// NN computations from scratch.
    pub computations: u64,
    /// NN re-computations.
    pub recomputations: u64,
    /// Results maintained purely from the update batch.
    pub merge_resolutions: u64,
}

impl KindMetrics {
    fn merge(&mut self, other: &KindMetrics) {
        self.cell_accesses += other.cell_accesses;
        self.objects_processed += other.objects_processed;
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.computations += other.computations;
        self.recomputations += other.recomputations;
        self.merge_resolutions += other.merge_resolutions;
    }
}

/// Work counters for one monitoring algorithm instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Complete scans of a cell's object list (a cell may be counted many
    /// times per cycle if several queries process it).
    pub cell_accesses: u64,
    /// Objects whose distance to some query was evaluated.
    pub objects_processed: u64,
    /// Search-heap insertions.
    pub heap_pushes: u64,
    /// Search-heap removals.
    pub heap_pops: u64,
    /// NN computations from scratch (new or moving queries).
    pub computations: u64,
    /// NN re-computations (affected queries resuming book-kept state).
    pub recomputations: u64,
    /// Results maintained purely from the update batch (no grid search).
    pub merge_resolutions: u64,
    /// Object location updates applied to the index.
    pub updates_applied: u64,
    /// Online re-grids applied (cell-index rebuilds at a new δ). Owned by
    /// whoever owns the grid, like `updates_applied`: counted once per
    /// re-grid no matter how many workers re-register its queries.
    pub regrids: u64,
    /// Objects re-sorted into the new cells across all re-grids (the
    /// migration volume a re-grid pays on the index side).
    pub regrid_objects_migrated: u64,
    /// Queries recomputed from scratch because of a re-grid (each also
    /// counts in `computations`; this counter isolates the re-grid share).
    pub regrid_queries_recomputed: u64,
    /// Query-side counters broken down by query class, indexed by
    /// `QueryKind as usize`. Filled by engines serving [`QueryKind`]-aware
    /// query specs; each `by_kind` counter is a partition of the flat
    /// counter of the same name (never double-counted on merge).
    pub by_kind: [KindMetrics; QueryKind::COUNT],
}

impl Metrics {
    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// Take the current values, leaving zeros behind.
    pub fn take(&mut self) -> Metrics {
        std::mem::take(self)
    }

    /// Accumulate another snapshot into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.cell_accesses += other.cell_accesses;
        self.objects_processed += other.objects_processed;
        self.heap_pushes += other.heap_pushes;
        self.heap_pops += other.heap_pops;
        self.computations += other.computations;
        self.recomputations += other.recomputations;
        self.merge_resolutions += other.merge_resolutions;
        self.updates_applied += other.updates_applied;
        self.regrids += other.regrids;
        self.regrid_objects_migrated += other.regrid_objects_migrated;
        self.regrid_queries_recomputed += other.regrid_queries_recomputed;
        for (mine, theirs) in self.by_kind.iter_mut().zip(&other.by_kind) {
            mine.merge(theirs);
        }
    }

    /// The per-class breakdown for one query kind.
    pub fn for_kind(&self, kind: QueryKind) -> &KindMetrics {
        &self.by_kind[kind as usize]
    }

    /// Snapshot of the query-side counters (the [`KindMetrics`] subset),
    /// used with [`Metrics::attribute_since`] to attribute a span of work
    /// to one query class.
    pub fn query_counters(&self) -> KindMetrics {
        KindMetrics {
            cell_accesses: self.cell_accesses,
            objects_processed: self.objects_processed,
            heap_pushes: self.heap_pushes,
            heap_pops: self.heap_pops,
            computations: self.computations,
            recomputations: self.recomputations,
            merge_resolutions: self.merge_resolutions,
        }
    }

    /// Attribute everything the query-side counters grew since `before`
    /// (a [`Metrics::query_counters`] snapshot) to `kind`.
    pub fn attribute_since(&mut self, kind: QueryKind, before: KindMetrics) {
        let now = self.query_counters();
        let slot = &mut self.by_kind[kind as usize];
        slot.cell_accesses += now.cell_accesses - before.cell_accesses;
        slot.objects_processed += now.objects_processed - before.objects_processed;
        slot.heap_pushes += now.heap_pushes - before.heap_pushes;
        slot.heap_pops += now.heap_pops - before.heap_pops;
        slot.computations += now.computations - before.computations;
        slot.recomputations += now.recomputations - before.recomputations;
        slot.merge_resolutions += now.merge_resolutions - before.merge_resolutions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_resets() {
        let mut m = Metrics {
            cell_accesses: 5,
            ..Default::default()
        };
        let snap = m.take();
        assert_eq!(snap.cell_accesses, 5);
        assert_eq!(m.cell_accesses, 0);
    }

    #[test]
    fn attribution_partitions_the_flat_counters() {
        let mut m = Metrics::default();
        let before = m.query_counters();
        m.cell_accesses += 3;
        m.computations += 1;
        m.attribute_since(QueryKind::Range, before);
        let before = m.query_counters();
        m.cell_accesses += 2;
        m.attribute_since(QueryKind::Ann, before);
        assert_eq!(m.for_kind(QueryKind::Range).cell_accesses, 3);
        assert_eq!(m.for_kind(QueryKind::Range).computations, 1);
        assert_eq!(m.for_kind(QueryKind::Ann).cell_accesses, 2);
        // The breakdown partitions the flat counter.
        let total: u64 = QueryKind::ALL
            .iter()
            .map(|&k| m.for_kind(k).cell_accesses)
            .sum();
        assert_eq!(total, m.cell_accesses);
        // And merging merges the breakdown too.
        let mut other = Metrics::default();
        other.merge(&m);
        assert_eq!(other.for_kind(QueryKind::Range).cell_accesses, 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics {
            cell_accesses: 1,
            heap_pushes: 2,
            ..Default::default()
        };
        let b = Metrics {
            cell_accesses: 3,
            merge_resolutions: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cell_accesses, 4);
        assert_eq!(a.heap_pushes, 2);
        assert_eq!(a.merge_resolutions, 4);
    }
}
