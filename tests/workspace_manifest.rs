//! Guard for the tier-1 gate: plain `cargo test` must run every member
//! crate's suites, not only the root package's. That holds while the
//! root manifest's `default-members` covers `.` and every `crates/*`
//! directory.

use std::path::Path;

/// The string entries of the root manifest's `default-members` array.
fn default_members(manifest: &str) -> Vec<String> {
    let line = manifest
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("default-members"))
        .expect("root Cargo.toml declares default-members");
    let list = line
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .map(|(inner, _)| inner)
        .expect("default-members is a one-line array");
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[test]
fn default_members_cover_every_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    let members = default_members(&manifest);
    assert!(
        members.iter().any(|m| m == "."),
        "root package missing from default-members {members:?}"
    );
    let mut crates = 0;
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        crates += 1;
        let name = dir.file_name().unwrap().to_string_lossy();
        let own = format!("crates/{name}");
        assert!(
            members.iter().any(|m| m == "crates/*" || *m == own),
            "{own} is not in default-members {members:?}: `cargo test` would skip its tests"
        );
    }
    assert!(crates > 0, "no member crates found under crates/");
}
