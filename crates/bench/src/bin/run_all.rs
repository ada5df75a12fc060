//! Runs every table/figure harness in sequence (build with `--release`;
//! the real-data-plane experiments move multi-gigabyte models).

use std::process::Command;

const BINS: &[&str] = &[
    "table2_models",
    "fig2_overhead",
    "fig9_timeline",
    "fig10_datapath",
    "fig14_gpt_scale",
    "fig15_throughput",
    "fig16_gpu_util",
    "ablations",
    "failure_sweep",
    "space_sweep",
    "advisor",
    "models_sweep",
    "fleet_sweep",
    "qos_sweep",
    "catalog_sweep",
    // Real-data-plane experiments last (the heavy ones).
    "table1_breakdown",
    "fig13_breakdown",
    "fig11_checkpoint",
    "fig12_restore",
];

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let mut failed = Vec::new();
    for bin in BINS {
        println!("\n===== {bin} =====");
        let status = Command::new(dir.join(bin))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
        if !status.success() {
            failed.push(*bin);
        }
    }
    if failed.is_empty() {
        println!("\nall experiments completed; JSON in target/experiments/");
    } else {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(1);
    }
}
