//! Failure injection and lost-work accounting.
//!
//! The paper's motivation (§I, §II-B): failures arrive every few hours
//! (or minutes for large jobs), and checkpoint frequency trades
//! per-checkpoint stalls against re-training after a failure. This
//! module replays a run with injected failures to quantify that
//! trade-off, for both the baseline and Portus policies.

use portus_sim::{CostModel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::event::{FleetConfig, FleetResult};
use crate::harness::TrainingConfig;
use crate::ops::{portus_restore_cost, torch_load_gds_cost};
use crate::policy::Policy;

/// The outcome of a run with failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureOutcome {
    /// Useful iterations completed (monotone progress).
    pub target_iterations: u64,
    /// Total virtual time including re-training and restores.
    pub total_time: SimDuration,
    /// Iterations re-executed because they post-dated the last
    /// checkpoint at failure time.
    pub lost_iterations: u64,
    /// Restores performed.
    pub restores: u32,
    /// Time spent inside restore operations.
    pub restore_time: SimDuration,
}

impl FailureOutcome {
    /// Goodput: useful iterations per second of total time.
    pub fn goodput(&self) -> f64 {
        self.target_iterations as f64 / self.total_time.as_secs_f64()
    }
}

/// Fleet-level lost-work accounting after a daemon-kill schedule:
/// what a [`crate::run_fleet`] run with kills actually cost.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonLossReport {
    /// Daemons the schedule took down.
    pub killed: Vec<usize>,
    /// Checkpoint attempts that lost every replica of some stripe.
    pub failed_checkpoints: u64,
    /// In-flight Active writes fenced by the recovery epoch.
    pub fenced_active: u64,
    /// Stripe copies rebalance repaired onto survivors.
    pub repairs: u64,
    /// Bytes of repair traffic.
    pub repair_bytes: u64,
    /// Dead replicas restores fell through before being served.
    pub restore_failovers: u64,
    /// Iterations past each model's restorable version, summed: the
    /// re-training the kills would cost.
    pub lost_iterations: u64,
    /// Whether every client restores its *latest validated* version —
    /// the zero-loss criterion k-way replication exists to meet.
    pub zero_loss: bool,
}

/// Summarizes daemon-loss damage from a placement-enabled fleet run.
/// Covered iterations are derived from each client's checkpoint
/// interval: version `v` was taken at iteration `v * interval`.
pub fn daemon_loss_report(cfg: &FleetConfig, out: &FleetResult) -> DaemonLossReport {
    let mut report = DaemonLossReport {
        killed: out
            .metrics
            .fleet
            .iter()
            .filter(|d| d.killed)
            .map(|d| d.daemon as usize)
            .collect(),
        restore_failovers: out.metrics.restore_failovers,
        zero_loss: true,
        ..DaemonLossReport::default()
    };
    for d in &out.metrics.fleet {
        report.fenced_active += d.fenced_active;
        report.repairs += d.repairs_in;
        report.repair_bytes += d.repair_bytes;
    }
    for ((spec, c), r) in cfg.clients.iter().zip(&out.clients).zip(&out.restores) {
        report.failed_checkpoints += c.failed_checkpoints;
        let interval = u64::from(spec.policy.interval().unwrap_or(0));
        let covered = r.version.map_or(0, |v| (v * interval).min(c.iterations));
        report.lost_iterations += c.iterations - covered;
        if r.version != c.latest_done_version {
            report.zero_loss = false;
        }
    }
    report
}

/// Cost of one restore under the run's policy (baselines use
/// GDS-assisted `torch.load`; Portus uses one-sided writes).
pub fn restore_cost(m: &CostModel, cfg: &TrainingConfig) -> SimDuration {
    match cfg.policy {
        Policy::None => SimDuration::ZERO,
        Policy::TorchSave { backend, .. } | Policy::CheckFreq { backend, .. } => {
            torch_load_gds_cost(m, cfg.job, backend).total()
        }
        Policy::PortusSync { .. } | Policy::PortusAsync { .. } => portus_restore_cost(m, cfg.job),
    }
}

/// Replays a run until `target_iterations` useful iterations complete,
/// injecting a failure whenever the virtual clock crosses the next
/// entry of `failures` (absolute times). On failure the run rolls back
/// to the last *completed* checkpoint, pays one restore, and resumes.
///
/// The per-iteration cost (including checkpoint stalls) is the
/// policy's steady-state average, probed with [`crate::run_training`]
/// (a one-client fleet run), so failures compose with the same
/// accounting as every other training figure.
pub fn run_with_failures(
    m: &CostModel,
    cfg: &TrainingConfig,
    target_iterations: u64,
    failures: &[SimDuration],
) -> FailureOutcome {
    // Steady-state per-iteration time under the policy.
    let probe_iters = cfg.policy.interval().map_or(100, |k| (k as u64) * 10);
    let probe = crate::run_training(m, cfg, probe_iters);
    let per_iter =
        SimDuration::from_secs_f64(probe.elapsed.as_secs_f64() / probe.iterations as f64);
    let interval = cfg.policy.interval().map(u64::from);
    let restore = restore_cost(m, cfg);

    let mut t = SimTime::ZERO;
    let mut done = 0u64; // iterations whose work is durable or redone
    let mut last_ckpt = 0u64; // last checkpointed iteration
    let mut lost = 0u64;
    let mut restores = 0u32;
    let mut restore_time = SimDuration::ZERO;
    let mut next_failure = failures.iter().copied().peekable();

    while done < target_iterations {
        let t_next = t + per_iter;
        if let Some(&f) = next_failure.peek() {
            if t_next.saturating_since(SimTime::ZERO) >= f {
                // Failure strikes during this iteration.
                next_failure.next();
                let since_ckpt = done - last_ckpt;
                lost += since_ckpt;
                done = last_ckpt;
                t = SimTime::ZERO + f;
                if interval.is_some() && (last_ckpt > 0 || since_ckpt == 0) {
                    restores += 1;
                    restore_time += restore;
                    t += restore;
                }
                continue;
            }
        }
        t = t_next;
        done += 1;
        if let Some(k) = interval {
            if k > 0 && done.is_multiple_of(k) {
                last_ckpt = done;
            }
        }
    }

    FailureOutcome {
        target_iterations,
        total_time: t.saturating_since(SimTime::ZERO),
        lost_iterations: lost,
        restores,
        restore_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Backend, JobShape};
    use portus_dnn::IterationProfile;

    fn cfg(policy: Policy) -> TrainingConfig {
        TrainingConfig {
            job: JobShape::single(1_000_000_000, 300),
            profile: IterationProfile::from_total(SimDuration::from_millis(350)),
            policy,
        }
    }

    #[test]
    fn daemon_loss_report_sums_fleet_damage() {
        use crate::placement::{replica_set, PlacementConfig};
        use portus_sim::{Stage, TraceOp};
        let m = CostModel::icdcs24();
        let base = |k: usize| {
            crate::event::FleetConfig::uniform(
                4,
                4,
                JobShape::single(1_000_000_000, 300),
                IterationProfile::from_total(SimDuration::from_millis(350)),
                Policy::PortusSync { every: 10 },
                50,
            )
            .with_placement(PlacementConfig::mirrored(k))
        };
        // Find client-0's second checkpoint on a dry run and kill its
        // primary daemon at the pull's midpoint — a genuinely
        // mid-checkpoint loss, deterministic per (config, seed).
        let dry = crate::event::run_fleet(&m, &base(1));
        let span = dry
            .spans
            .iter()
            .filter(|s| {
                s.model == "client-0" && s.op == TraceOp::Checkpoint && s.stage == Stage::Total
            })
            .nth(1)
            .expect("client-0 checkpoints at least twice");
        let mid = (span.start + span.end.saturating_since(span.start) / 2)
            .saturating_since(portus_sim::SimTime::ZERO);
        let primary = replica_set("client-0", &[true; 4], 1)[0];

        let lossy_cfg = base(1).with_kill(primary, mid);
        let lossy = daemon_loss_report(&lossy_cfg, &crate::event::run_fleet(&m, &lossy_cfg));
        assert_eq!(lossy.killed, vec![primary]);
        assert!(
            lossy.failed_checkpoints > 0,
            "k=1 loses the checkpoint in flight on the dead primary"
        );
        assert!(
            lossy.fenced_active > 0,
            "the epoch fences the in-flight write"
        );

        let safe_cfg = base(2).with_kill(primary, mid);
        let safe = daemon_loss_report(&safe_cfg, &crate::event::run_fleet(&m, &safe_cfg));
        assert!(safe.zero_loss, "k=2 must survive one mid-checkpoint loss");
        assert_eq!(safe.failed_checkpoints, 0);
        assert_eq!(safe.lost_iterations, 0, "every interval stays covered");
    }

    #[test]
    fn no_failures_means_no_loss() {
        let m = CostModel::icdcs24();
        let out = run_with_failures(&m, &cfg(Policy::PortusAsync { every: 10 }), 100, &[]);
        assert_eq!(out.lost_iterations, 0);
        assert_eq!(out.restores, 0);
    }

    #[test]
    fn failures_cost_lost_work() {
        let m = CostModel::icdcs24();
        let out = run_with_failures(
            &m,
            &cfg(Policy::PortusAsync { every: 10 }),
            200,
            &[SimDuration::from_secs(30)],
        );
        assert!(out.lost_iterations <= 10, "at most one interval lost");
        assert_eq!(out.restores, 1);
        assert!(out.total_time > SimDuration::from_secs(70));
    }

    #[test]
    fn finer_checkpoints_lose_less_on_failure() {
        let m = CostModel::icdcs24();
        let failures: Vec<SimDuration> = (1..=5).map(|i| SimDuration::from_secs(i * 37)).collect();
        let coarse =
            run_with_failures(&m, &cfg(Policy::PortusAsync { every: 100 }), 400, &failures);
        let fine = run_with_failures(&m, &cfg(Policy::PortusAsync { every: 5 }), 400, &failures);
        assert!(
            fine.lost_iterations < coarse.lost_iterations,
            "fine {} vs coarse {}",
            fine.lost_iterations,
            coarse.lost_iterations
        );
    }

    #[test]
    fn portus_tolerates_fine_intervals_that_drown_torch_save() {
        // The paper's core argument: with cheap checkpoints you can
        // afford fine intervals and lose little on failure, without
        // paying big steady-state overheads.
        let m = CostModel::icdcs24();
        let failures: Vec<SimDuration> = (1..=3).map(|i| SimDuration::from_secs(i * 53)).collect();
        let portus = run_with_failures(&m, &cfg(Policy::PortusAsync { every: 5 }), 300, &failures);
        let torch = run_with_failures(
            &m,
            &cfg(Policy::TorchSave {
                every: 5,
                backend: Backend::BeegfsPmem,
            }),
            300,
            &failures,
        );
        assert!(
            portus.goodput() > 1.5 * torch.goodput(),
            "portus {:.2} it/s vs torch {:.2} it/s",
            portus.goodput(),
            torch.goodput()
        );
    }
}
