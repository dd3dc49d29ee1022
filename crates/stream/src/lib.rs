//! # sss-stream — streaming pipelines around the combined estimators
//!
//! The operational layer of the reproduction: where `sss-core` owns the
//! estimator mathematics, this crate owns *running streams through them*
//! and measuring what the paper's Sections VI–VII measure:
//!
//! * [`runtime`] — the persistent sharded runtime: a pool of shard
//!   workers behind bounded queues, merging to the sequential sketch bit
//!   for bit (the paper's §VI-C multi-core observation, made long-lived);
//! * [`ring`] — the lock-free SPSC ring buffers and the out-of-band
//!   control queue the runtime's ingest lanes are built from;
//! * [`snapshot`] — the versioned snapshot cache behind
//!   `merged()`: repeated at-all-times queries re-clone only shards
//!   dirtied since the previous query;
//! * [`engine`] — the DSMS engine over that runtime: transform chain,
//!   backpressure, and an adaptive overflow shedder, built by
//!   [`EngineBuilder`]; its join queries answer with an
//!   [`Estimate`](sss_core::Estimate): the value plus error bars;
//! * [`shedder`] — a load-shedding pipeline pairing a full-stream sketch
//!   with a Bernoulli-shedded sketch and reporting the update-throughput
//!   **speed-up** (the paper's headline "factor of at least 10");
//! * [`online`] — an online-aggregation run that scans a relation in
//!   random order and records an estimate **trajectory** at configurable
//!   checkpoints (Figures 7–8 are trajectories of this kind);
//! * [`throughput`] — wall-clock instrumentation shared by the pipelines
//!   and the Criterion benches;
//! * [`ops`] — small composable stream operators (tagging, key
//!   extraction, multiplexing a stream into several consumers).

// `deny` rather than `forbid`: the SPSC ring transport ([`ring`]) is the
// one audited module allowed to use `unsafe`, mirroring the SIMD kernel
// policy of `sss-xi`. Everything else in the crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod engine;
pub mod error;
pub mod online;
pub mod ops;
pub mod parallel;
pub mod ring;
pub mod runtime;
pub mod shedder;
pub mod snapshot;
pub mod throughput;
pub mod window;

pub use adaptive::{ControllerConfig, RateController};
pub use engine::{EngineBuilder, StageStats, StreamEngine, Transform};
pub use error::{Result, StreamError};
pub use online::{OnlineAggregation, OnlineJoinAggregation, Snapshot};
pub use parallel::{parallel_shed, parallel_sketch, parallel_sketch_with};
pub use runtime::{Partition, PoolStats, QueryHandle, ReadReplica, RuntimeConfig, ShardedRuntime};
pub use shedder::{ShedderComparison, ShedderReport};
pub use snapshot::CacheStats;
pub use throughput::Throughput;
pub use window::PanedWindowSketch;
