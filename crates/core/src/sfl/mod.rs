//! Split-federated-learning training engine.
//!
//! [`merge`] implements feature merging and gradient dispatching, [`worker`] the worker-side
//! bottom-model training, [`server`] the sharded parameter-server subsystem (top-model
//! replicas, merged and sequential top-model updates, cross-shard sync and bottom-model
//! aggregation; the output-partitioned topology is a timing and traffic model over one top
//! model), and [`engine`] the complete round loop that combines them with the control module
//! and the cluster simulator. Every SFL-family approach in the paper (MergeSFL, its
//! ablations, AdaSFL, LocFedMix-SL and the motivation variants SFL-T/FM/BR) is an
//! [`engine::SflStrategy`] preset over the same engine.

pub mod engine;
pub mod merge;
pub mod server;
pub mod worker;

pub use engine::{SflEngine, SflStrategy};
pub use merge::{
    align_gradients, dispatch_gradients, merge_feature_refs, merge_features, FeatureUpload,
    MergedBatch,
};
pub use server::{ShardTopology, ShardedServer, TopStep};
pub use worker::SflWorker;
