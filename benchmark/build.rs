//! Bakes the run metadata that only the build knows into the binary:
//! the compiler version, the cargo profile and the source revision.
//!
//! The revision is read from the repository's `.git` directory next to
//! this package, without running `git` (so nothing outside the checkout
//! is consulted); a checkout without `.git` records `unknown`.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_PROFILE={profile}");

    println!("cargo:rerun-if-changed=build.rs");
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    if git.join("HEAD").is_file() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
    }
    let rev = git_rev(&git).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_GIT_REV={rev}");
}

/// Resolve `HEAD` to a commit id by reading the ref files directly.
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if git.join(reference).is_file() {
        println!("cargo:rerun-if-changed={}", git.join(reference).display());
    }
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}
