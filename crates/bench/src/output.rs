//! Benchmark artifact paths: every `BENCH_*.json` lands at the repo root
//! (a smoke run's under its gitignored `artifacts/`) no matter what
//! directory the harness was launched from.
//!
//! `cargo run -p cosmo-bench` from a crate subdirectory used to scatter
//! artifacts wherever the cwd happened to be (PR 7 accidentally committed
//! `crates/bench/BENCH_serve.json` that way). The repo root is known at
//! compile time — this crate's manifest dir is `crates/bench` — so resolve
//! against that instead of the cwd.

use std::path::{Path, PathBuf};

/// Absolute path for a benchmark artifact named `name` (e.g.
/// `BENCH_kg.json`), anchored at the repository root.
///
/// `COSMO_BENCH_DIR` overrides the destination directory (useful for CI
/// runs that collect artifacts elsewhere). If the compile-time repo root
/// no longer exists (the binary moved to another machine), falls back to
/// the cwd rather than failing.
pub fn bench_output_path(name: &str) -> PathBuf {
    output_dir().join(name)
}

/// Path for a smoke-tier artifact: `artifacts/<name>` under the same
/// directory (gitignored at the repo root), created if missing. Smoke
/// numbers never replace the committed default-tier ledger.
pub fn smoke_output_path(name: &str) -> PathBuf {
    let dir = output_dir().join("artifacts");
    // a failure surfaces when the caller writes the file
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn output_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("COSMO_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or_default()
}

/// Write a benchmark artifact via [`bench_output_path`], or via
/// [`smoke_output_path`] for a smoke run; returns the one-line status
/// message the experiment appends to its summary.
pub fn write_bench_json(name: &str, contents: &str, smoke: bool) -> String {
    let path = if smoke {
        smoke_output_path(name)
    } else {
        bench_output_path(name)
    };
    match std::fs::write(&path, contents) {
        Ok(()) => format!("wrote {}", path.display()),
        Err(e) => format!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_to_repo_root_not_cwd() {
        let p = bench_output_path("BENCH_test.json");
        // the repo root is the directory holding the workspace manifest
        assert!(
            p.parent().unwrap().join("Cargo.toml").is_file(),
            "expected a workspace root, got {}",
            p.display()
        );
        assert!(p.ends_with("BENCH_test.json"));
    }

    #[test]
    fn smoke_artifacts_never_land_on_the_committed_ledger() {
        for name in ["BENCH_serve.json", "BENCH_serve_swap.json", "BENCH_kg.json"] {
            let smoke = smoke_output_path(name);
            assert!(smoke.ends_with(Path::new("artifacts").join(name)));
            assert_ne!(smoke, bench_output_path(name));
            assert_eq!(
                smoke.parent().unwrap().parent(),
                bench_output_path(name).parent()
            );
            assert!(smoke.parent().unwrap().is_dir(), "artifacts/ is created");
        }
    }
}
