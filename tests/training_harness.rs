//! Golden guard for the training harness behind Figs. 2, 9, 14–16.
//!
//! `run_training` is replayed over the policy × interval grid for two
//! jobs (GPT-22.4B across 16 shards and a 1 GB single-GPU job), and
//! every total is rendered in integer nanoseconds next to the full
//! busy/idle segment list of one 52-iteration run per policy. The
//! rendering must match `tests/golden/training_harness.json` line for
//! line: any change to the sync/async/CheckFreq/torch.save semantics
//! shows up here as a diff, never as a silently shifted figure.

use portus_cluster::{run_training, Backend, JobShape, Policy, RunResult, TrainingConfig};
use portus_dnn::{zoo, IterationProfile};
use portus_sim::{CostModel, SimDuration, SimTime};

const GOLDEN: &str = include_str!("golden/training_harness.json");

/// Iterations per grid run.
const ITERATIONS: u64 = 520;
/// Checkpoint intervals of the grid.
const INTERVALS: [u32; 4] = [1, 7, 26, 100];

fn jobs() -> Vec<(&'static str, JobShape, IterationProfile)> {
    vec![
        (
            "gpt-22.4b",
            JobShape {
                total_bytes: 89_600_000_000,
                tensor_count: 600,
                shards: 16,
                nodes: 2,
            },
            IterationProfile::from_total(zoo::gpt_iteration("gpt-22.4b")),
        ),
        (
            "single-1gb",
            JobShape::single(1_000_000_000, 300),
            IterationProfile::from_total(SimDuration::from_millis(350)),
        ),
    ]
}

/// Every policy that checkpoints, at interval `every`.
fn policies(every: u32) -> Vec<Policy> {
    let mut out = Vec::new();
    for backend in [Backend::BeegfsPmem, Backend::Ext4Nvme] {
        out.push(Policy::TorchSave { every, backend });
        out.push(Policy::CheckFreq { every, backend });
    }
    out.push(Policy::PortusSync { every });
    out.push(Policy::PortusAsync { every });
    out
}

fn ns(t: SimTime) -> u64 {
    t.saturating_since(SimTime::ZERO).as_nanos()
}

fn summary(job: &str, policy: Policy, r: &RunResult) -> String {
    format!(
        "{{\"job\": \"{job}\", \"policy\": \"{policy:?}\", \"iterations\": {}, \"checkpoints\": {}, \
         \"checkpoint_stall_ns\": {}, \"elapsed_ns\": {}, \"gpu_busy_ns\": {}, \"segments\": {}}}",
        r.iterations,
        r.checkpoints,
        r.checkpoint_stall.as_nanos(),
        r.elapsed.as_nanos(),
        r.gpu_busy.as_nanos(),
        r.segments.len()
    )
}

/// Renders the whole grid, one JSON value per line so a mismatch
/// points at the run (or segment) that moved.
fn render() -> String {
    let m = CostModel::icdcs24();
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    for (name, job, profile) in jobs() {
        let run = |policy: Policy, iterations: u64| {
            run_training(
                &m,
                &TrainingConfig {
                    job,
                    profile,
                    policy,
                },
                iterations,
            )
        };
        runs.push(summary(name, Policy::None, &run(Policy::None, ITERATIONS)));
        for every in INTERVALS {
            for policy in policies(every) {
                runs.push(summary(name, policy, &run(policy, ITERATIONS)));
            }
        }
        if name != "gpt-22.4b" {
            continue;
        }
        let mut traced = vec![Policy::None];
        traced.extend(policies(26));
        for policy in traced {
            let r = run(policy, 52);
            let segments: Vec<String> = r
                .segments
                .iter()
                .map(|s| format!("[{}, {}, {}]", ns(s.start), ns(s.end), s.busy))
                .collect();
            traces.push(format!(
                "{}, \"trace\": [\n{}\n]}}",
                summary(name, policy, &r).trim_end_matches('}'),
                segments.join(",\n")
            ));
        }
    }
    format!(
        "{{\"runs\": [\n{}\n],\n\"traces\": [\n{}\n]}}\n",
        runs.join(",\n"),
        traces.join(",\n")
    )
}

#[test]
fn training_harness_replays_the_golden_grid() {
    let actual = render();
    let (mut want, mut got) = (GOLDEN.lines(), actual.lines());
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(g, w, "training harness diverges at golden line {line}"),
        }
    }
}
