//! # cpm-sub — delta-streaming subscriptions over the CPM engine
//!
//! CPM's processing cycle produces *incremental* result changes, yet a
//! monitor's read surface hands callers full result lists. This crate is
//! the subscription front end a "millions of users" deployment needs:
//! the producer — a [`cpm_core::CpmServer`] built with
//! `.deltas(true)`, a `DurableCpmServer`, or a `cpm-cluster` coordinator —
//! emits one [`cpm_core::CycleDeltas`] batch per cycle (computed inside
//! the engine's maintenance phase and merged deterministically in
//! canonical query-id order), and clients receive per-cycle **result
//! deltas** ([`cpm_core::NeighborDelta`]) instead of full lists.
//!
//! * [`fanout`] — the server side: [`DeltaFanout`] owns one bounded
//!   mailbox per subscription; `publish` encodes each batch once,
//!   however many subscribers it has, and enqueues it. The fold of the
//!   authoritative replicas that `resync` hands out runs beside the
//!   caller until the next call that reads them.
//! * [`replica`] — the client side: [`Replica`] folds a delta stream onto
//!   a snapshot, reconstructing every per-epoch result bit-identically
//!   (the property `cpm_sim::verify` asserts for every lane, against the
//!   brute-force oracle).
//!
//! Subscription changes are ordinary query events
//! ([`cpm_core::SpecEvent`]) in the producer's cycle batch, so every
//! query kind rides the same pipeline and misuse is a typed
//! [`cpm_core::CpmError`].
//!
//! ## Example
//!
//! ```
//! use cpm_core::{AnyQuerySpec, CpmServerBuilder, CycleDeltas, PointQuery, SpecEvent};
//! use cpm_geom::{ObjectId, Point, QueryId};
//! use cpm_grid::ObjectEvent;
//! use cpm_sub::{DeltaFanout, Replica};
//!
//! let two = std::num::NonZeroUsize::new(2).unwrap();
//! let mut server = CpmServerBuilder::new(64).threads(two).deltas(true).build();
//! server.populate((0..10).map(|i| {
//!     (ObjectId(i), Point::new((i as f64 + 0.5) / 10.0, 0.5))
//! }))?;
//! let mut fanout = DeltaFanout::new();
//! let mut batch = CycleDeltas::default();
//!
//! // A client subscribes to the 2 nearest objects. Subscribe *before*
//! // the cycle that installs the query: the initial result then arrives
//! // as the first delta (all additions).
//! fanout.subscribe(QueryId(0));
//! let install = SpecEvent::Install {
//!     id: QueryId(0),
//!     spec: AnyQuerySpec::Knn(PointQuery(Point::new(0.30, 0.5))),
//!     k: 2,
//! };
//! server.process_cycle_with_deltas_into(&[], &[install], &mut batch)?;
//! fanout.publish(&batch);
//! let mut replica = Replica::new();
//! for delta in fanout.drain(QueryId(0)) {
//!     replica.apply(&delta);
//! }
//! assert_eq!(replica.result().len(), 2);
//!
//! // An object drives next to the query; only the change is shipped.
//! let moved = ObjectEvent::Move { id: ObjectId(9), to: Point::new(0.31, 0.5) };
//! server.process_cycle_with_deltas_into(&[moved], &[], &mut batch)?;
//! assert_eq!(fanout.publish(&batch).epoch, 2);
//! for delta in fanout.drain(QueryId(0)) {
//!     replica.apply(&delta);
//! }
//! assert_eq!(replica.result()[0].id, ObjectId(9));
//! assert_eq!(replica.result(), server.result(QueryId(0)).unwrap());
//!
//! // A query that already has a result (installed outside a cycle, or
//! // live on a recovered server) is seeded from it instead.
//! let current = server.install_spec(QueryId(1), PointQuery(Point::new(0.9, 0.5)), 1)?;
//! fanout.subscribe_from(QueryId(1), current);
//! let late = Replica::from_snapshot(fanout.epoch(), current.to_vec());
//! assert_eq!(late.result()[0].id, ObjectId(8));
//! # Ok::<(), cpm_core::CpmError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fanout;
pub mod replica;

pub use fanout::{CycleReceipt, DeltaFanout};
pub use replica::Replica;
