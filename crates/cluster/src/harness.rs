//! The single-job view of the training harness.
//!
//! [`run_training`] replays one training job on the virtual timeline
//! under a checkpoint [`Policy`] and reports throughput, stall, and
//! GPU-busy accounting — the machinery behind Figs. 2, 9, 15 and 16.
//! It is [`run_fleet`] with one client on one daemon, so a job's
//! numbers cannot drift from the fleet's.

use portus_dnn::IterationProfile;
use portus_sim::{CostModel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::event::{run_fleet, FleetConfig};
use crate::ops::JobShape;
use crate::policy::Policy;

/// A training run's static configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// The job's size/shape.
    pub job: JobShape,
    /// Per-iteration phase timing.
    pub profile: IterationProfile,
    /// The checkpoint policy under test.
    pub policy: Policy,
}

/// One contiguous span of the run with a constant GPU state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Span start on the virtual timeline.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Whether the GPU was executing kernels during this span.
    pub busy: bool,
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Iterations executed.
    pub iterations: u64,
    /// Total virtual time.
    pub elapsed: SimDuration,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Total time training was stalled on checkpointing.
    pub checkpoint_stall: SimDuration,
    /// Total GPU-busy time.
    pub gpu_busy: SimDuration,
    /// Busy/idle segments for utilization traces (Fig. 16).
    pub segments: Vec<Segment>,
}

impl RunResult {
    /// Training throughput in iterations per second (zero for a
    /// zero-length run).
    pub fn throughput(&self) -> f64 {
        self.per_second(self.iterations as f64)
    }

    /// Mean GPU utilization over the whole run (zero for a zero-length
    /// run).
    pub fn avg_utilization(&self) -> f64 {
        self.per_second(self.gpu_busy.as_secs_f64())
    }

    /// Share of the run spent stalled on checkpointing (Fig. 2's
    /// "checkpointing overhead"; zero for a zero-length run).
    pub fn checkpoint_share(&self) -> f64 {
        self.per_second(self.checkpoint_stall.as_secs_f64())
    }

    /// `x` per second of the run, or zero when the run took no time.
    fn per_second(&self, x: f64) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            x / self.elapsed.as_secs_f64()
        }
    }
}

/// Simulates `iterations` training iterations under `cfg.policy` (each
/// [`Policy`] variant documents its Fig. 9 semantics): a one-client,
/// one-daemon [`run_fleet`].
pub fn run_training(m: &CostModel, cfg: &TrainingConfig, iterations: u64) -> RunResult {
    let fleet = FleetConfig::uniform(1, 1, cfg.job, cfg.profile, cfg.policy, iterations);
    let client = run_fleet(m, &fleet)
        .clients
        .pop()
        .expect("a one-client fleet reports one client");
    RunResult {
        iterations: client.iterations,
        elapsed: client.finished_at.saturating_since(SimTime::ZERO),
        checkpoints: client.checkpoints,
        checkpoint_stall: client.checkpoint_stall,
        gpu_busy: cfg.profile.gpu_busy() * client.iterations,
        segments: client.segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{portus_checkpoint_cost, Backend};
    use portus_dnn::zoo;

    fn gpt22_cfg(policy: Policy) -> TrainingConfig {
        TrainingConfig {
            job: JobShape {
                total_bytes: 89_600_000_000,
                tensor_count: 600,
                shards: 16,
                nodes: 2,
            },
            profile: IterationProfile::from_total(zoo::gpt_iteration("gpt-22.4b")),
            policy,
        }
    }

    #[test]
    fn no_checkpoint_has_no_stall() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::None), 100);
        assert_eq!(r.checkpoints, 0);
        assert_eq!(r.checkpoint_stall, SimDuration::ZERO);
        assert!((r.avg_utilization() - 0.84).abs() < 0.01);
    }

    #[test]
    fn policies_order_as_fig9() {
        let m = CostModel::icdcs24();
        let every = 26;
        let torch = run_training(
            &m,
            &gpt22_cfg(Policy::TorchSave {
                every,
                backend: Backend::BeegfsPmem,
            }),
            260,
        );
        let cf = run_training(
            &m,
            &gpt22_cfg(Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            }),
            260,
        );
        let psync = run_training(&m, &gpt22_cfg(Policy::PortusSync { every }), 260);
        let pasync = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every }), 260);
        assert!(
            torch.elapsed > cf.elapsed,
            "CheckFreq must beat synchronous torch.save"
        );
        assert!(
            cf.elapsed > psync.elapsed,
            "Portus-sync must beat CheckFreq"
        );
        assert!(psync.elapsed > pasync.elapsed, "async must beat sync");
    }

    #[test]
    fn fig15_and_fig16_headlines() {
        // GPT-22.4B at a fine-grained interval: Portus-async delivers
        // ~2.6x CheckFreq's throughput (Fig. 15) with ~76% average GPU
        // utilization vs CheckFreq's ~30% (Fig. 16, whose plotted peaks
        // stay below 43%).
        let m = CostModel::icdcs24();
        let every = 26;
        let cf = run_training(
            &m,
            &gpt22_cfg(Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            }),
            520,
        );
        let pa = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every }), 520);
        let ratio = pa.throughput() / cf.throughput();
        assert!((2.2..3.0).contains(&ratio), "throughput ratio {ratio:.2}");
        let up = pa.avg_utilization();
        assert!((0.72..0.80).contains(&up), "portus util {up:.3}");
        let uc = cf.avg_utilization();
        assert!((0.24..0.43).contains(&uc), "checkfreq util {uc:.3}");
    }

    #[test]
    fn checkpoint_share_matches_fig2_for_gpt22() {
        // Fig. 2: checkpointing weighs up to 41% of training time for
        // GPT-22.4B at one checkpoint per 100 iterations.
        let m = CostModel::icdcs24();
        let r = run_training(
            &m,
            &gpt22_cfg(Policy::TorchSave {
                every: 100,
                backend: Backend::BeegfsPmem,
            }),
            500,
        );
        let share = r.checkpoint_share();
        assert!((0.36..0.45).contains(&share), "share {share:.3}");
    }

    #[test]
    fn async_pull_overlaps_compute() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every: 26 }), 260);
        let op = portus_checkpoint_cost(&m, gpt22_cfg(Policy::None).job);
        // Stall per checkpoint must be far below the full pull time.
        let stall_per_ckpt = r.checkpoint_stall.as_secs_f64() / r.checkpoints as f64;
        assert!(
            stall_per_ckpt < op.as_secs_f64() / 3.0,
            "stall {stall_per_ckpt:.2}s vs op {op}"
        );
    }

    #[test]
    fn zero_length_runs_report_zero_rates() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::PortusSync { every: 1 }), 0);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.elapsed, SimDuration::ZERO);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.avg_utilization(), 0.0);
        assert_eq!(r.checkpoint_share(), 0.0);
    }

    #[test]
    fn segments_tile_the_run() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every: 26 }), 52);
        let mut cursor = SimTime::ZERO;
        for s in &r.segments {
            assert_eq!(s.start, cursor, "segments must tile without gaps");
            cursor = s.end;
        }
        assert_eq!(cursor, SimTime::ZERO + r.elapsed);
        let busy: SimDuration = r
            .segments
            .iter()
            .filter(|s| s.busy)
            .map(|s| s.end - s.start)
            .sum();
        assert_eq!(busy, r.gpu_busy);
    }
}
