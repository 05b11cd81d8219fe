//! # mergesfl-simnet
//!
//! A discrete-event simulator of the paper's physical edge testbed: 80 NVIDIA Jetson
//! devices (30 TX2, 40 NX, 10 AGX) connected to a GPU-workstation parameter server over
//! WiFi. The simulator provides everything the MergeSFL control module measures or
//! estimates about the environment:
//!
//! * [`device`] — Jetson device profiles (Table II), per-device performance modes, and the
//!   per-sample computing time `µ_i^h`.
//! * [`profile`] — paper-scale model/feature sizes used for timing and traffic accounting
//!   (the lite models trained by `mergesfl-nn` are architecture-faithful but much smaller;
//!   timing and traffic are charged at the paper's scale so figures land in the same
//!   regime as the paper's).
//! * [`bandwidth`] — WiFi bandwidth model: four distance groups, 1–30 Mb/s fluctuation,
//!   and the parameter-server ingress bandwidth budget `B^h`.
//! * [`cluster`] — the assembled heterogeneous cluster with per-round state (mode switches
//!   every 20 rounds, freshly drawn bandwidth each round). Stores no per-worker state:
//!   every per-(worker, round) quantity is derived on demand, so registered fleets of
//!   10^5–10^6 clients cost O(1) memory.
//! * [`churn`] — deterministic client availability churn: diurnal availability waves with
//!   per-client phases and mid-round dropout, all pure functions of (seed, client, round).
//! * [`clock`] — round/iteration timing: worker duration `t_i^h = τ d_i (µ_i^h + β_i^h)`,
//!   completion time, and average waiting time `W^h` (paper Eq. 7–8).
//! * [`traffic`] — byte-level accounting of model synchronisation, feature uploads and
//!   gradient downloads.
//!
//! The simulation of time is completely decoupled from wall-clock execution: training runs
//! as fast as the CPU allows while the simulator charges the time the paper's hardware
//! would have taken.

// No unsafe anywhere in this crate: the workspace's only audited unsafe lives in
// mergesfl_nn (pool.rs, kernels/gemm.rs, kernels/micro.rs).
#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod churn;
pub mod clock;
pub mod cluster;
pub mod device;
pub mod profile;
pub mod traffic;

pub use bandwidth::{BandwidthModel, DistanceGroup};
pub use churn::ChurnModel;
pub use clock::{RoundTiming, SimClock, StageModel};
pub use cluster::{Cluster, ClusterConfig, WorkerState};
pub use device::{DeviceKind, DeviceProfile, SimDevice};
pub use profile::ModelProfile;
pub use traffic::{TrafficCategory, TrafficMeter};
