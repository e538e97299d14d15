//! Captures the compiler version and build profile for the environment
//! stamp: rows from different toolchains or profiles must never be
//! compared silently.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    let profile = format!(
        "{} opt-level={} debug={}",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default(),
        std::env::var("DEBUG").unwrap_or_default(),
    );
    println!("cargo:rustc-env=BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
