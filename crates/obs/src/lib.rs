//! Unified observability for the Squirrel reproduction.
//!
//! Every paper figure is a *measurement* — wire bytes per registration,
//! ccVolume hit/miss traffic, DDT growth, copies a storm avoided — so the
//! runtime crates meter themselves through this crate instead of ad-hoc
//! getters.
//! The design constraints, in order:
//!
//! 1. **Deterministic.** A [`MetricsRegistry::snapshot`] taken after a
//!    workflow is bit-identical at any worker-thread count. Counters and
//!    histograms only ever *add* (commutative, so parallel increments from
//!    the ingestion pipeline or the multicast fan-out sum identically);
//!    gauges and journal events are written exclusively from serial
//!    orchestration code; wall-clock timings are quarantined in
//!    [`MetricsRegistry::wall_times`], *outside* the canonical snapshot.
//! 2. **Near-zero cost when disabled.** A disabled [`Metrics`] handle holds
//!    no registry reference: every operation is a `None` check, and interned
//!    [`Counter`]/[`Histogram`] handles are no-ops.
//! 3. **Std-only.** No dependencies; export is a hand-rolled JSON subset
//!    ([`MetricsSnapshot::to_json`]), read back by [`json::Json::parse`].
//!
//! Metric identity is `name{label="value",...}`; handles carry base labels
//! (e.g. `pool="scvol"`) applied to every metric they intern.

mod histogram;
mod journal;
pub mod json;
mod registry;
mod snapshot;

pub use histogram::HistogramSnapshot;
pub use journal::{Event, FieldValue};
pub use json::ParseError;
pub use registry::{Counter, Histogram, Metrics, MetricsRegistry, Span, WallStats};
pub use snapshot::MetricsSnapshot;
