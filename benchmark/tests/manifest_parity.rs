//! The benchmark builds with the root workspace's release profile, and
//! keeps its build outputs out of git.

use std::path::Path;

/// The `key = value` lines of `[section]`, comments and blanks dropped.
fn section(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let root = std::fs::read_to_string(dir.join("../Cargo.toml")).unwrap();
    let root_profile = section(&root, "[profile.release]");
    assert!(
        !root_profile.is_empty(),
        "root manifest lost its [profile.release]"
    );
    assert_eq!(
        section(&ours, "[profile.release]"),
        root_profile,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest"
    );
}

#[test]
fn depends_only_on_the_simulator_crates() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let mut deps: Vec<String> = section(&ours, "[dependencies]")
        .iter()
        .map(|l| l.split('=').next().unwrap().to_string())
        .collect();
    deps.sort();
    assert_eq!(
        deps,
        [
            "flextm",
            "flextm-check",
            "flextm-sig",
            "flextm-sim",
            "flextm-stm",
            "flextm-workloads"
        ]
    );
}

#[test]
fn build_outputs_are_ignored() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ignore = std::fs::read_to_string(dir.join(".gitignore")).unwrap();
    for entry in ["target/", "out/"] {
        assert!(
            ignore.lines().any(|l| l.trim() == entry),
            "{entry} not ignored"
        );
    }
}
