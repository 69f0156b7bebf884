//! The twin lanes of the traced pass: layers measured from outside by
//! feeding each cycle's batch to stand-alone copies, *after* the cycle's
//! end-to-end span has closed, so the measured unit stays comparable with
//! the untraced pass.
//!
//! * a shadow grid (`grid.ingest`, `grid.kernel`, bucket statistics),
//! * a `.deltas(false)` twin server (`core.twin_cycle`; delta capture is
//!   the difference to the capturing server's cycle),
//! * behind a cluster, a capturing single-node twin (`core.cycle`, the
//!   base of `cluster.over_single` and the source of the engine counters),
//! * stand-alone encode / decode / frame of the cycle's `CycleDeltas`.

use std::hint::black_box;

use cpm_suite::core::{AnyQuerySpec, CpmServer, CycleDeltas, SpecEvent};
use cpm_suite::geom::Point;
use cpm_suite::grid::{
    apply_events, kernels, CellCoord, CellIndex, Grid, GridBuilder, Metrics, ObjectEvent,
    UpdateRecord,
};
use cpm_suite::wire::{decode_framed, encode_framed_into, Decode, Encode, FRAME_CLUSTER};

use crate::spec::Workload;
use crate::system::{build_server, delta_entries, Bootstrap, Ledger};
use crate::trace::Tracer;

/// Sums the twin lanes keep over the counted cycles.
#[derive(Debug, Default, Clone, Copy)]
pub struct TwinCounts {
    pub cycles: u64,
    pub ingest_ns: u64,
    pub updates: u64,
    pub kernel_ns: u64,
    pub kernel_objects: u64,
    pub mean_bucket_sum: f64,
    pub max_bucket: usize,
    pub wire_bytes: u64,
    pub wire_entries: u64,
}

pub struct Twins {
    shadow: Grid<CellIndex>,
    records: Vec<UpdateRecord>,
    cells: Vec<CellCoord>,
    dists: Vec<f64>,
    /// Same configuration as the system's server, delta capture off.
    off: CpmServer,
    /// Capturing single-node twin; only behind a cluster (a single-node
    /// system is its own).
    on: Option<(CpmServer, CycleDeltas)>,
    encoded: Vec<u8>,
    framed: Vec<u8>,
    pub counts: TwinCounts,
}

/// A twin server that has run the two bootstrap cycles.
fn boot_server(
    w: &Workload,
    deltas: bool,
    boot: &Bootstrap,
    ledger: &mut Ledger,
) -> Option<CpmServer> {
    let mut server = match build_server(w, deltas) {
        Ok(s) => s,
        Err(e) => {
            ledger.check(false, || format!("twin build: {e}"));
            return None;
        }
    };
    let mut out = CycleDeltas::default();
    for (objects, queries) in [(&boot.appears[..], &[][..]), (&[][..], &boot.installs[..])] {
        let r = if deltas {
            server.process_cycle_with_deltas_into(objects, queries, &mut out)
        } else {
            server.process_cycle(objects, queries).map(|_| ())
        };
        ledger.check(r.is_ok(), || format!("twin bootstrap: {r:?}"));
    }
    Some(server)
}

impl Twins {
    pub fn build(w: &Workload, boot: &Bootstrap, ledger: &mut Ledger) -> Option<Twins> {
        let mut shadow = GridBuilder::new(w.dim).build_uniform();
        let mut records = Vec::new();
        apply_events(&mut shadow, &boot.appears, &mut records);

        let off = boot_server(w, false, boot, ledger)?;
        let on = if w.workers > 0 {
            Some((boot_server(w, true, boot, ledger)?, CycleDeltas::default()))
        } else {
            None
        };
        Some(Twins {
            shadow,
            records,
            cells: Vec::new(),
            dists: Vec::new(),
            off,
            on,
            encoded: Vec::new(),
            framed: Vec::new(),
            counts: TwinCounts::default(),
        })
    }

    /// The capturing single-node twin behind a cluster.
    pub fn on(&self) -> Option<&CpmServer> {
        self.on.as_ref().map(|(s, _)| s)
    }

    /// Take and reset the engine counters of the capturing twin.
    pub fn take_on_metrics(&mut self) -> Option<Metrics> {
        self.on.as_mut().map(|(s, _)| s.take_metrics())
    }

    /// Run every lane on cycle `id`'s batches. `system_dim` is the grid
    /// resolution the system's server ended the cycle with (it re-grids
    /// before ingesting, so the shadow follows before its own ingest;
    /// `None` behind a cluster, whose tiles never re-grid);
    /// `batch` is what the system shipped. `count` says whether the cycle
    /// is inside the counted window.
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        id: u64,
        objects: &[ObjectEvent],
        queries: &[SpecEvent<AnyQuerySpec>],
        system_dim: Option<u32>,
        batch: &CycleDeltas,
        count: bool,
        tracer: &mut Tracer,
        ledger: &mut Ledger,
    ) {
        // -- the deltas-off twin (and the capturing one behind a cluster) --
        let t0 = tracer.now();
        let r = self.off.process_cycle(objects, queries);
        let t1 = tracer.now();
        tracer.record("core.twin_cycle", id, None, t0, t1);
        let same_changed = r.as_ref().is_ok_and(|changed| *changed == batch.changed);
        ledger.check(same_changed, || {
            format!("cycle {id}: deltas-off twin disagrees on the changed list")
        });
        if let Some((server, out)) = &mut self.on {
            let t0 = tracer.now();
            let r = server.process_cycle_with_deltas_into(objects, queries, out);
            let t1 = tracer.now();
            tracer.record("core.cycle", id, None, t0, t1);
            let identical = r.is_ok() && out == batch;
            ledger.check(identical, || {
                format!("cycle {id}: merged cluster batch differs from the single-node twin's")
            });
        }

        // -- shadow grid: ingest, then a kernel pass over every bucket --
        self.shadow.regrid(system_dim.unwrap_or(self.shadow.dim()));
        self.records.clear();
        let t0 = tracer.now();
        let updates = apply_events(&mut self.shadow, objects, &mut self.records);
        let t1 = tracer.now();
        tracer.record("grid.ingest", id, None, t0, t1);

        self.cells.clear();
        self.cells.extend(self.shadow.occupied_cells());
        let q = Point::new(0.5, 0.5);
        let t2 = tracer.now();
        for &c in &self.cells {
            let oids = self.shadow.objects_in(c);
            kernels::dist_into(self.shadow.coords(), q, oids, &mut self.dists);
            black_box(&self.dists);
        }
        let t3 = tracer.now();
        tracer.record("grid.kernel", id, None, t2, t3);

        // -- wire: the batch the subscribers were shipped --
        let t4 = tracer.now();
        batch.encode_into(&mut self.encoded);
        let t5 = tracer.now();
        let decoded = CycleDeltas::decode_all(&self.encoded);
        let t6 = tracer.now();
        encode_framed_into(FRAME_CLUSTER, batch, &mut self.framed);
        let unframed = decode_framed::<CycleDeltas>(FRAME_CLUSTER, &self.framed);
        let t7 = tracer.now();
        tracer.record("wire.encode", id, None, t4, t5);
        tracer.record("wire.decode", id, None, t5, t6);
        tracer.record("wire.frame", id, None, t6, t7);
        let round_trip = decoded.as_ref().is_ok_and(|d| d == batch)
            && unframed.as_ref().is_ok_and(|d| d == batch);
        ledger.check(round_trip, || {
            format!("cycle {id}: wire round trip changed the batch")
        });

        if count {
            let stats = self.shadow.stats();
            let c = &mut self.counts;
            c.cycles += 1;
            c.ingest_ns += t1 - t0;
            c.updates += updates;
            c.kernel_ns += t3 - t2;
            c.kernel_objects += stats.live_objects as u64;
            c.mean_bucket_sum += stats.live_objects as f64 / stats.occupied_cells.max(1) as f64;
            c.max_bucket = c.max_bucket.max(stats.hot_cell_max);
            c.wire_bytes += self.encoded.len() as u64;
            c.wire_entries += delta_entries(batch);
        }
    }
}
