//! Records the compiler version and the source revision, which every
//! result prints next to its numbers.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // A source tree without git metadata reports "unknown".
    let rev = output_of("git", &["-C", "..", "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["../.git/HEAD", "../.git/refs/heads"] {
        if Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
