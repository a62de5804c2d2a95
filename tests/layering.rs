//! The crate graph is strictly layered: `da-core` holds the contract,
//! protocol crates (`da-membership` ← `damulticast` ← `da-baselines`)
//! and substrates (`da-simnet`, `da-runtime`) depend on it and never on
//! each other. They meet only in the harness and the tests.

/// The package names under a manifest's `[dependencies]` table (not
/// `[dev-dependencies]`: unit and doc-tests may use a substrate).
fn dependencies(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .skip_while(|line| line.trim() != "[dependencies]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split(['.', ' ', '=']).next())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
        .collect()
}

#[test]
fn protocols_and_substrates_meet_only_in_da_core() {
    let manifests = [
        (include_str!("../crates/da-core/Cargo.toml"), "rand serde"),
        (
            include_str!("../crates/membership/Cargo.toml"),
            "da-core rand serde",
        ),
        (
            include_str!("../crates/core/Cargo.toml"),
            "bytes da-core da-membership da-topics rand serde",
        ),
        (
            include_str!("../crates/baselines/Cargo.toml"),
            "bytes da-core da-membership da-topics damulticast rand",
        ),
        (
            include_str!("../crates/simnet/Cargo.toml"),
            "da-core rand serde",
        ),
        (
            include_str!("../crates/runtime/Cargo.toml"),
            "crossbeam da-core rand serde",
        ),
    ];
    for (manifest, expected) in manifests {
        let name = manifest.lines().find(|l| l.starts_with("name = "));
        assert_eq!(dependencies(manifest).join(" "), expected, "{name:?}");
    }
}

/// Both substrates park in-flight envelopes in `da_core::wheel` — the
/// one timing structure. Neither grows a queue of its own again.
#[test]
fn substrates_define_no_timing_structure_of_their_own() {
    for dir in ["crates/simnet/src", "crates/runtime/src"] {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        for entry in std::fs::read_dir(&dir).expect("substrate source directory") {
            let path = entry.expect("directory entry").path();
            let source = std::fs::read_to_string(&path).expect("source file");
            for own in ["BinaryHeap", "struct DelayWheel"] {
                assert!(!source.contains(own), "{}: {own}", path.display());
            }
        }
    }
}

/// Protocol hooks count through interned ids (`Exec::bump_id`): a bump
/// by name hashes and compares the label once per message. Names are
/// for fixtures, which in these crates live behind `#[cfg(test)]`.
#[test]
fn protocol_hooks_bump_no_counter_by_name() {
    for dir in ["crates/core/src", "crates/baselines/src"] {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
        for entry in std::fs::read_dir(&dir).expect("protocol source directory") {
            let path = entry.expect("directory entry").path();
            let source = std::fs::read_to_string(&path).expect("source file");
            let shipped = source.split("#[cfg(test)]").next().unwrap_or_default();
            assert!(!shipped.contains(".bump("), "{}", path.display());
        }
    }
}
