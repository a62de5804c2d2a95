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

/// Every file under `dir` (relative to the repo root), subdirectories
/// included, with its source.
fn sources(dir: &str) -> Vec<(std::path::PathBuf, String)> {
    fn walk(dir: &std::path::Path, found: &mut Vec<(std::path::PathBuf, String)>) {
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, found);
            } else {
                let source = std::fs::read_to_string(&path).expect("source file");
                found.push((path, source));
            }
        }
    }
    let mut found = Vec::new();
    walk(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir),
        &mut found,
    );
    found
}

/// Every crate manifest under `crates/` and `crates/shims/`, and the
/// root's, with its text.
fn manifests() -> Vec<(std::path::PathBuf, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = ["crates", "crates/shims"].into_iter().flat_map(|dir| {
        std::fs::read_dir(root.join(dir))
            .expect("crates directory")
            .map(|entry| entry.expect("directory entry").path().join("Cargo.toml"))
    });
    crates
        .chain([root.join("Cargo.toml")])
        .filter_map(|manifest| Some((manifest.clone(), std::fs::read_to_string(manifest).ok()?)))
        .collect()
}

/// What a file ships: its source up to the first `#[cfg(test)]`, and
/// nothing of a `tests.rs` (a test module in a file of its own).
fn shipped<'a>(path: &std::path::Path, source: &'a str) -> &'a str {
    if path.ends_with("tests.rs") {
        return "";
    }
    source.split("#[cfg(test)]").next().unwrap_or_default()
}

#[test]
fn protocols_and_substrates_meet_only_in_da_core() {
    let manifests = [
        (include_str!("../crates/da-core/Cargo.toml"), "rand"),
        (
            include_str!("../crates/membership/Cargo.toml"),
            "da-core rand",
        ),
        (
            include_str!("../crates/core/Cargo.toml"),
            "da-core da-membership da-topics rand",
        ),
        (
            include_str!("../crates/baselines/Cargo.toml"),
            "da-core da-membership da-topics damulticast rand",
        ),
        (include_str!("../crates/simnet/Cargo.toml"), "da-core rand"),
        (
            include_str!("../crates/runtime/Cargo.toml"),
            "crossbeam da-core rand",
        ),
    ];
    for (manifest, expected) in manifests {
        let name = manifest.lines().find(|l| l.starts_with("name = "));
        assert_eq!(dependencies(manifest).join(" "), expected, "{name:?}");
    }
}

/// The offline build stands in for two registry crates, the ones the
/// code calls: `crossbeam` and `rand`. Property tests draw from the
/// workspace's own `da-tape`, not from a proptest stand-in. Nothing
/// serializes (every export is written by hand) and an event keeps only
/// its payload's length, so no serde marker or bytes buffer comes back.
#[test]
fn the_shims_are_the_two_crates_the_code_calls() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut shims: Vec<String> = std::fs::read_dir(root.join("crates/shims"))
        .expect("shims directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .collect();
    shims.sort();
    assert_eq!(shims, ["crossbeam", "rand"]);

    for (manifest, text) in manifests() {
        let named = |dep: &str| text.lines().any(|line| line.trim_start().starts_with(dep));
        assert!(
            !text.contains("serde") && !named("bytes"),
            "{}",
            manifest.display()
        );
    }

    // Spelled in two halves so that this file passes its own check.
    let markers = [
        concat!("Serial", "ize"),
        concat!("Deserial", "ize"),
        concat!("ser", "de("),
    ];
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, source) in sources(dir) {
            if path.extension().is_some_and(|ext| ext == "rs") {
                for marker in markers {
                    assert!(!source.contains(marker), "{}: {marker}", path.display());
                }
            }
        }
    }
}

/// The choice tape is a leaf crate with no `unsafe`, and only tests take
/// it: no manifest names `da-tape` under `[dependencies]`, so nothing
/// shipped draws from it.
#[test]
fn the_tape_is_a_leaf_only_tests_take() {
    let tape = include_str!("../crates/tape/Cargo.toml");
    assert!(
        !tape.contains("dependencies]"),
        "da-tape depends on nothing"
    );
    let lib = include_str!("../crates/tape/src/lib.rs");
    assert!(lib.contains("#![forbid(unsafe_code)]"));
    for (manifest, text) in manifests() {
        assert!(
            !dependencies(&text).contains(&"da-tape"),
            "{} ships a dependency on the tape",
            manifest.display()
        );
    }
}

/// Both substrates park in-flight envelopes in `da_core::wheel` — the
/// one timing structure. Neither grows a queue of its own again.
#[test]
fn substrates_define_no_timing_structure_of_their_own() {
    for dir in ["crates/simnet/src", "crates/runtime/src"] {
        for (path, source) in sources(dir) {
            for own in ["BinaryHeap", "struct DelayWheel"] {
                assert!(!source.contains(own), "{}: {own}", path.display());
            }
        }
    }
}

/// The tick body — plan transitions, delivery verdicts, round hooks,
/// the send ledger and the execution context — exists once, in
/// `da_core::stripe`. A substrate that implements `Exec` again, walks
/// the failure plan itself or names the crashed-destination verdict has
/// started a second copy.
#[test]
fn the_tick_body_lives_in_da_core_only() {
    let mut exec_impls = Vec::new();
    for dir in [
        "crates/da-core/src",
        "crates/simnet/src",
        "crates/runtime/src",
    ] {
        for (path, source) in sources(dir) {
            for line in source.lines() {
                if line.starts_with("impl") && line.contains(" Exec for ") {
                    exec_impls.push(path.clone());
                }
            }
        }
    }
    assert_eq!(exec_impls.len(), 1, "{exec_impls:?}");
    assert!(exec_impls[0].ends_with("crates/da-core/src/stripe.rs"));

    for dir in ["crates/simnet/src", "crates/runtime/src"] {
        for (path, source) in sources(dir) {
            for copied in ["churn_flips", "fates_at(", "TraceVerdict::DroppedCrashed"] {
                assert!(!source.contains(copied), "{}: {copied}", path.display());
            }
        }
    }
}

/// One benchmark system: `benchmark/`. The Criterion benches and their
/// shim stay deleted.
#[test]
fn the_workspace_has_no_second_benchmark_system() {
    let manifest = include_str!("../Cargo.toml");
    for gone in ["crates/bench", "criterion"] {
        assert!(!manifest.contains(gone), "root Cargo.toml names {gone}");
    }
}

/// Protocol hooks count into the substrate's typed tally (`Exec::count`,
/// an array increment): a bump by name would hash and compare the label
/// once per message. Names are for fixtures, which in these crates live
/// behind `#[cfg(test)]`.
#[test]
fn protocol_hooks_bump_no_counter_by_name() {
    for dir in ["crates/core/src", "crates/baselines/src"] {
        for (path, source) in sources(dir) {
            assert!(
                !shipped(&path, &source).contains(".bump("),
                "{}",
                path.display()
            );
        }
    }
}

/// The library crates keep no process-global state: a protocol counts
/// into its stripe's tally, so nothing is set up once per process, held
/// behind a lock or leaked, and a first run costs what a later one does.
/// The one thread-local, the dissemination plan's scratch buffers, is
/// per thread, not global.
#[test]
fn the_crates_keep_no_process_global_state() {
    let global = ["Mutex", "LazyLock", "OnceLock", "Box::leak"];
    for dir in [
        "crates/da-core/src",
        "crates/core/src",
        "crates/baselines/src",
        "crates/simnet/src",
    ] {
        for (path, source) in sources(dir) {
            for name in global {
                let shipped = shipped(&path, &source);
                assert!(!shipped.contains(name), "{}: {name}", path.display());
            }
        }
    }
}

/// The process-wide label interner and its id-keyed bump path are gone
/// from the code and the notes alike, and do not come back.
#[test]
fn the_label_interner_stays_gone() {
    // Spelled in two halves so that this file passes its own check.
    let gone = [concat!("Label", "Id"), concat!("bump", "_id")];
    let naming = |name: &str| -> Vec<std::path::PathBuf> {
        code_and_notes()
            .into_iter()
            .filter(|(_, source)| source.contains(name))
            .map(|(path, _)| path)
            .collect()
    };
    for name in gone {
        assert_eq!(naming(name), Vec::<std::path::PathBuf>::new(), "{name}");
    }
    // The scan reads this file, so a name planted here is found.
    let planted = naming(concat!("fn the_label_", "interner_stays_gone"));
    assert!(planted
        .iter()
        .any(|path| path.ends_with("tests/layering.rs")));
}

/// The concurrent fabric stays small. The crossbeam shim is the SPSC
/// ring alone (channels and scoped threads are `std`'s), the pool keeps
/// no wake-up flag of its own beside `park`/`unpark`, a lane carries one
/// batch shape, and every `Ordering::` site the runtime ships is a row
/// of ARCHITECTURE.md's table — an eighth is added on purpose, there
/// and here. A worker's counters and trace are read through its control
/// channel, so the pool shares no lock: no `Mutex`, no shard registry,
/// no trace sink, and no recorder drained behind the worker's back.
#[test]
fn the_concurrent_fabric_stays_small() {
    let mut shim: Vec<String> = sources("crates/shims/crossbeam/src")
        .iter()
        .map(|(path, _)| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    shim.sort();
    assert_eq!(shim, ["lib.rs", "queue.rs"]);
    let modules: Vec<&str> = include_str!("../crates/shims/crossbeam/src/lib.rs")
        .lines()
        .filter(|line| !line.starts_with("//") && line.contains("mod "))
        .collect();
    assert_eq!(modules, ["pub mod queue;"]);
    assert!(!include_str!("../crates/harness/Cargo.toml").contains("crossbeam"));

    let mut orderings = 0;
    for (path, source) in sources("crates/runtime/src") {
        for gone in ["AtomicBool", "Control::Sync", "enum Batch"] {
            assert!(!source.contains(gone), "{}: {gone}", path.display());
        }
        orderings += shipped(&path, &source).matches("Ordering::").count();
    }
    assert!(orderings <= 7, "{orderings} `Ordering::` sites shipped");

    for file in ["runtime.rs", "worker.rs", "transport.rs"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/runtime/src")
            .join(file);
        let source = std::fs::read_to_string(&path).expect("source file");
        for shared in ["Mutex", "ShardedCounters", "TraceSink"] {
            assert!(
                !shipped(&path, &source).contains(shared),
                "{file}: {shared}"
            );
        }
    }
    for (path, source) in sources("crates") {
        if path.extension().is_some_and(|ext| ext == "rs") {
            for gone in ["struct TraceSink", "take_events"] {
                assert!(!source.contains(gone), "{}: {gone}", path.display());
            }
        }
    }
}

/// A send's per-tick occurrence is counted by one table,
/// `da_core::Occurrences`, which alone knows how an edge is packed and
/// hashed: no substrate keeps a pair-keyed map of its own (or any hash
/// map, on the send path's two files). And a hook's RNG stream is seeded
/// by the draw that needs it: the tick body never asks the store for a
/// materialised one.
#[test]
fn one_occurrence_table_and_no_eager_stream() {
    let mut definitions = Vec::new();
    for (path, source) in sources("crates") {
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let pair_keyed = "HashMap<(ProcessId, ProcessId)";
        let shipped = shipped(&path, &source);
        assert!(!shipped.contains(pair_keyed), "{}", path.display());
        if shipped.contains("struct Occurrences") {
            definitions.push(path);
        }
    }
    assert_eq!(definitions.len(), 1, "{definitions:?}");
    assert!(definitions[0].ends_with("crates/da-core/src/network.rs"));

    let ships = |file: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
        let source = std::fs::read_to_string(&path).expect("source file");
        shipped(&path, &source).to_owned()
    };
    for file in [
        "crates/runtime/src/transport.rs",
        "crates/simnet/src/engine.rs",
    ] {
        assert!(!ships(file).contains("HashMap"), "{file}");
    }
    let stripe = ships("crates/da-core/src/stripe.rs");
    for eager in ["pair_mut(", ".rng("] {
        assert!(!stripe.contains(eager), "stripe.rs: {eager}");
    }
}

/// Tables hash with `da_core::KeyHasher`, digests fold with `FxHasher`:
/// one key hasher, defined once, and no alias that would put the digest
/// fold behind a table again.
#[test]
fn tables_take_the_key_hasher_and_digests_the_fx_fold() {
    // Spelled in two halves so that this file passes its own check.
    let gone = concat!("FxBuild", "Hasher");
    let definition = concat!("struct Key", "Hasher");
    let mut definitions = Vec::new();
    for dir in ["crates", "src", "tests"] {
        for (path, source) in sources(dir) {
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            assert!(!source.contains(gone), "{}: {gone}", path.display());
            if source.contains(definition) {
                definitions.push(path);
            }
        }
    }
    assert_eq!(definitions.len(), 1, "{definitions:?}");
    assert!(definitions[0].ends_with("crates/da-core/src/metrics.rs"));
}

/// Fig. 7's gossip draw exists once (`dissemination::draw_gossip_targets`)
/// and draws only the targets it keeps: the planner shuffles no whole
/// table to cut it to the fanout.
#[test]
fn the_gossip_draw_shuffles_no_whole_table() {
    let source = include_str!("../crates/core/src/dissemination.rs");
    assert!(!source.contains(".shuffle("));
    assert!(source.contains("draw_gossip_targets("));
}

/// A k-of-n draw costs k draws: shipped code cuts a sample with
/// `partial_shuffle` (or `da_core::keep_random`) and shuffles a whole
/// slice only where it keeps the whole permutation, the overlay's
/// adjacency lists and `HierarchicalLayout::partition`. No table is drawn
/// by shuffling its group and truncating it.
#[test]
fn only_whole_permutations_are_shuffled() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sites = Vec::new();
    for dir in ["crates", "src"] {
        for (path, source) in sources(dir) {
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            let mut function = "";
            for line in shipped(&path, &source).lines() {
                let code = line.trim_start();
                let code = code.strip_prefix("pub ").unwrap_or(code);
                if let Some(rest) = code.strip_prefix("fn ") {
                    function = rest.split(['(', '<']).next().unwrap_or_default();
                }
                if line.contains(".shuffle(") {
                    let file = path.strip_prefix(root).unwrap().display();
                    sites.push(format!("{file}: {function}"));
                }
            }
        }
    }
    sites.sort();
    assert_eq!(
        sites,
        [
            "crates/membership/src/hierarchical.rs: partition",
            "crates/membership/src/overlay.rs: random",
        ]
    );
}

/// One daMulticast process serves trees and DAGs: a topic with several
/// direct supertopics is a `TopicHierarchy` topic, and `DaProcess` keeps
/// one supertable per direct supertopic. The second copy of the protocol
/// that once served DAGs does not come back.
#[test]
fn one_process_serves_trees_and_dags() {
    // Spelled in two halves so that this file passes its own check.
    let gone = [
        concat!("Dag", "Process"),
        concat!("Dag", "Network"),
        concat!("MultiSuper", "Tables"),
        concat!("plan_multi", "_dissemination"),
        concat!("Topic", "Dag"),
        concat!("da_topics::", "dag"),
        concat!("dag.", "parasite"),
    ];
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, source) in sources(dir) {
            if path.extension().is_some_and(|ext| ext == "rs") {
                for name in gone {
                    assert!(!source.contains(name), "{}: {name}", path.display());
                }
            }
        }
    }
}

/// One gossip process serves the three baselines: broadcast, multicast
/// and hierarchical broadcast are the tables their builders draw into a
/// `GossipProcess`. The per-algorithm copies of the gossip loop do not
/// come back.
#[test]
fn one_gossip_process_serves_the_baselines() {
    // Spelled in two halves so that this file passes its own check.
    let gone = [
        concat!("Broadcast", "Process"),
        concat!("Multicast", "Process"),
        concat!("Hierarchical", "Process"),
        concat!("Bc", "Msg"),
        concat!("Mc", "Msg"),
        concat!("Hc", "Msg"),
    ];
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, source) in sources(dir) {
            if path.extension().is_some_and(|ext| ext == "rs") {
                for name in gone {
                    assert!(!source.contains(name), "{}: {name}", path.display());
                }
            }
        }
    }
}

/// A scenario that runs on both substrates is written once, against the
/// harness's `Driver`: `da-runtime` tests itself without the simulator,
/// the pool's drift window has no knob to thread through call sites, and
/// a file that builds both an `Engine` and a `Runtime` by hand says why.
#[test]
fn one_driver_runs_a_population_on_either_substrate() {
    let runtime = include_str!("../crates/runtime/Cargo.toml");
    assert!(!runtime.contains("da-simnet"), "da-runtime names da-simnet");

    let both = |source: &str| source.contains("Engine::new") && source.contains("Runtime::spawn");
    // Spelled in two halves so that this file passes its own check.
    let knob = concat!("max", "_lag");
    for (path, source) in sources("crates").into_iter().chain(sources("tests")) {
        if path.extension().is_some_and(|ext| ext == "rs") {
            assert!(!source.contains(knob), "{}: {knob}", path.display());
        }
    }
    for (path, source) in sources("crates/harness/src") {
        assert!(
            !both(&source) || path.ends_with("substrate.rs"),
            "{}: drives both substrates by hand",
            path.display()
        );
    }
    let by_hand: Vec<String> = sources("tests")
        .into_iter()
        .filter(|(path, source)| both(source) && !path.ends_with("layering.rs"))
        .map(|(path, _)| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    // churn_chaos.rs: its simulator scenarios read `Engine::status`
    // mid-run to pick live publishers and its one pool scenario is a
    // ledger check with no simulated twin — no arm is written twice.
    assert_eq!(by_hand, ["churn_chaos.rs"]);
}

/// A single-publication trial is run in one place,
/// `da_harness::scenario::publish_and_settle`, on a `Driver`: a scenario's
/// faults are a `FaultConfig`, not a vocabulary of their own, and no
/// table hand-copies the trial. The harness files that build an `Engine`
/// themselves step it round by round or model-check it.
#[test]
fn one_publication_trial_in_the_harness() {
    // Spelled in two halves so that this file passes its own check.
    let gone = [concat!("Failure", "Kind"), concat!("run_", "with!")];
    for dir in ["crates", "src", "tests", "examples"] {
        for (path, source) in sources(dir) {
            if path.extension().is_some_and(|ext| ext == "rs") {
                for name in gone {
                    assert!(!source.contains(name), "{}: {name}", path.display());
                }
            }
        }
    }
    let harness = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/harness/src");
    let mut by_hand: Vec<String> = sources("crates/harness/src")
        .into_iter()
        .filter(|(_, source)| source.contains("Engine::new"))
        .map(|(path, _)| path.strip_prefix(&harness).unwrap().display().to_string())
        .collect();
    by_hand.sort();
    assert_eq!(
        by_hand,
        [
            "experiments/ablations.rs",
            "experiments/dynamics.rs",
            "experiments/mc.rs",
            "substrate.rs",
        ]
    );
}

/// Every result the harness reports is one `report::Table`, keyed by an
/// x value or a row label, the model checker reads a channel's one
/// certain fate instead of listing fates beside the draw, a partition
/// cuts a set of processes over the one channel, with no named nodes or
/// per-link channels beside it, and the envelope ledger is one typed
/// struct, with no counter ids, per-tick tally or substrate prefix
/// beside it. None of these twins comes back, in the code or in the
/// architecture notes.
#[test]
fn one_result_table_and_no_enumeration_twin() {
    // Spelled in two halves so that this file passes its own check.
    let gone = [
        concat!("Series", "Table"),
        concat!("Series", "Row"),
        concat!("Keyed", "Table"),
        concat!("enumerate", "_fates"),
        concat!("Topo", "logy"),
        concat!("Node", "Id"),
        concat!("with_", "topology"),
        concat!("channel_", "between"),
        concat!("Hot", "Ids"),
        concat!("Tick", "Tally"),
        concat!("Substrate::", "prefix"),
    ];
    for (path, source) in code_and_notes() {
        for name in gone {
            assert!(!source.contains(name), "{}: {name}", path.display());
        }
    }
}

/// Every `.rs` and `.md` file under `crates/ src/ tests/ examples/`, and
/// the architecture notes and README, with their sources.
fn code_and_notes() -> Vec<(std::path::PathBuf, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = ["crates", "src", "tests", "examples"]
        .into_iter()
        .flat_map(sources)
        .filter(|(path, _)| {
            path.extension()
                .is_some_and(|ext| ext == "rs" || ext == "md")
        })
        .collect();
    for name in ["ARCHITECTURE.md", "README.md"] {
        let path = root.join(name);
        let source = std::fs::read_to_string(&path).expect("architecture notes");
        files.push((path, source));
    }
    files
}

/// One population builder: the static and dynamic builders are one
/// `damulticast::Network`, and a network takes a `TopicParams` itself,
/// not a wrapper around one. The old names live on only as the two
/// aliases the frozen benchmark package compiles against, in
/// `damulticast`'s root; nothing else spells them, in the code or in the
/// notes, and the dynamic builder's old name is gone altogether.
#[test]
fn retired_builder_names_are_two_aliases() {
    // Spelled in two halves so that this file passes its own check.
    let aliases = [
        concat!("pub type Static", "Network = Network;"),
        concat!("pub type Param", "Map = TopicParams;"),
    ];
    let retired = [
        concat!("Param", "Map"),
        concat!("Static", "Network"),
        concat!("Dynamic", "Network"),
    ];
    let alias_file =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/lib.rs");
    for (path, source) in code_and_notes() {
        let lines = source.lines();
        for line in lines.filter(|line| !(path == alias_file && aliases.contains(line))) {
            for name in retired {
                assert!(!line.contains(name), "{}: {line}", path.display());
            }
        }
    }
    // The aliases are there, so the rule above is not vacuous.
    let source = std::fs::read_to_string(alias_file).expect("damulticast's root");
    for alias in aliases {
        assert!(source.lines().any(|line| line == alias), "{alias}");
    }
}

/// The envelope ledger is read as `EnvelopeLedger`, never by name: a
/// substrate's `sim.*` / `rt.*` counter name is written, spelled and
/// tested for in `da_core::ledger` alone, the one module that still
/// renders them for the benchmark package.
#[test]
fn ledger_names_live_in_one_module() {
    // Spelled in two halves so that this file passes its own check.
    let spellings = [
        concat!("\"si", "m."),
        concat!("\"r", "t."),
        concat!("\"si", "m\""),
        concat!("\"r", "t\""),
        concat!("{pre", "fix}."),
    ];
    let shim =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/da-core/src/ledger.rs");
    let files = ["crates", "src", "tests", "examples"]
        .into_iter()
        .flat_map(sources)
        .filter(|(path, _)| path.extension().is_some_and(|ext| ext == "rs"));
    for (path, source) in files.filter(|(path, _)| *path != shim) {
        for spelling in spellings {
            assert!(!source.contains(spelling), "{}: {spelling}", path.display());
        }
    }
    // The spellings are the shim's own, so the rule above is not vacuous.
    let shim = std::fs::read_to_string(shim).expect("the ledger module");
    assert!(spellings[..2]
        .iter()
        .all(|spelling| shim.contains(spelling)));
}

/// One run config: the simulator sets exactly a seed, faults and a trace,
/// the pool those plus its worker count and watchdog, and every setter
/// is defined once, on `da_core::RunConfig`, whichever substrate's alias
/// it is called through.
#[test]
fn each_run_config_knob_has_one_setter() {
    let da_simnet::SimConfig {
        seed: _,
        faults: _,
        trace: _,
        pool: (),
    } = da_simnet::SimConfig::default();
    let da_runtime::RuntimeConfig {
        pool:
            da_core::PoolConfig {
                workers: _,
                tick_timeout_ms: _,
            },
        ..
    } = da_runtime::RuntimeConfig::default();

    let setters = [
        "with_seed",
        "with_faults",
        "with_channel",
        "with_partitions",
        "with_failures",
        "with_trace",
        "with_workers",
        "with_tick_timeout_ms",
    ];
    for setter in setters {
        let definition = format!("fn {setter}(");
        let found: Vec<_> = sources("crates")
            .into_iter()
            .filter(|(path, _)| path.extension().is_some_and(|ext| ext == "rs"))
            .flat_map(|(path, source)| {
                let count = shipped(&path, &source).matches(&definition).count();
                std::iter::repeat_n(path, count)
            })
            .collect();
        assert_eq!(found.len(), 1, "{setter}: {found:?}");
        assert!(found[0].ends_with("crates/da-core/src/run.rs"), "{setter}");
    }
    let gone =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/runtime/src/config.rs");
    assert!(!gone.exists(), "{}", gone.display());
}

/// The `pub fn`s of every inherent `impl` of `ty` shipped in `file`,
/// sorted.
fn verbs(file: &str, ty: &str) -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let source = std::fs::read_to_string(&path).expect("source file");
    let mut inside = false;
    let mut verbs = Vec::new();
    for line in shipped(&path, &source).lines() {
        if line.starts_with("impl") {
            inside = line.contains(&format!(" {ty}<")) && !line.contains(" for ");
        } else if let Some(rest) = line.strip_prefix("    pub fn ").filter(|_| inside) {
            let name = rest.split(['(', '<']).next().unwrap_or_default();
            verbs.push(name.to_owned());
        }
    }
    verbs.sort();
    verbs
}

/// Each substrate's public verbs, pinned: a new one is added on purpose,
/// here, and a verb no shipped code calls (a manual crash hatch, a
/// fire-and-forget twin of `with_process_mut`) does not come back.
#[test]
fn each_substrate_has_a_pinned_verb_list() {
    assert_eq!(
        verbs("crates/simnet/src/engine.rs", "Engine"),
        [
            "alive",
            "counters",
            "current_round",
            "in_flight",
            "into_processes",
            "ledger",
            "new",
            "population",
            "process",
            "process_mut",
            "processes",
            "run_rounds",
            "run_until_quiescent",
            "schedule_fate",
            "state_digest",
            "status",
            "step_round",
            "step_round_with",
            "tally",
            "trace_log",
        ]
    );
    assert_eq!(
        verbs("crates/runtime/src/runtime.rs", "Runtime"),
        [
            "counters",
            "ledger",
            "population",
            "run_ticks",
            "run_until_quiescent",
            "shutdown",
            "spawn",
            "step_tick",
            "tally",
            "trace_log",
            "with_process_mut",
            "workers",
        ]
    );
}

/// An envelope is its message plus 24 bytes of routing, and a wave keeps
/// tens of thousands in flight: the stream's footprint, not its copying,
/// is what the receive path pays for. Every shipped `ExecProtocol::Msg`
/// is held to its size here, where the next message type will meet the
/// table, and `DaMsg` names no growable buffer of its own.
#[test]
fn messages_stay_small_and_damsg_owns_no_buffer() {
    use da_baselines::GossipProcess;
    use da_core::{Envelope, ExecProtocol};
    use damulticast::{DaMsg, DaProcess, MetroMsg, MetroProcess};
    use std::mem::size_of;

    fn msg<P: ExecProtocol>() -> usize {
        size_of::<P::Msg>()
    }
    let table = [
        ("DaMsg of DaProcess", msg::<DaProcess>(), 24),
        ("GossipMsg of GossipProcess", msg::<GossipProcess>(), 24),
        ("MetroMsg", msg::<MetroProcess>(), 2),
        ("Envelope<DaMsg>", size_of::<Envelope<DaMsg>>(), 48),
        ("Envelope<MetroMsg>", size_of::<Envelope<MetroMsg>>(), 32),
    ];
    // The table CI writes to the job summary.
    println!("| type | size B | cap B |\n|---|---:|---:|");
    for (name, size, limit) in table {
        println!("| `{name}` | {size} | {limit} |");
        assert!(
            size <= limit,
            "{name} is {size} B, over its {limit} B: +88 B per envelope cost `sim_wave` 28-42%; \
             box what owns a buffer (ARCHITECTURE.md, \"Bytes in flight\")"
        );
    }

    let source = include_str!("../crates/core/src/message.rs");
    let body = source
        .split_once("pub enum DaMsg {")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("enum DaMsg in message.rs")
        .0;
    assert!(body.contains("Event {"), "not the enum's body:\n{body}");
    assert!(
        !body.contains("Vec<"),
        "a `DaMsg` variant owns a `Vec`; it belongs in `ControlMsg`, behind the box"
    );
}

/// Every plain `pub fn` shipped under `crates/*/src` is called from some
/// other `.rs` file of the workspace or of the benchmark (whose probes
/// count as callers): a function only its own file calls is private, and
/// one nothing calls is gone. A call is a use outside a `//` comment that
/// reads like one — `name(`, `name::<` or `::name` — so a field (`.name`
/// with neither after it), a local or a sentence that shares the name
/// does not count. The shims
/// are out of scope — they mirror crates.io APIs — as are trait-impl
/// methods and `pub(crate)` items.
#[test]
fn every_pub_fn_has_a_caller() {
    // One entry per function that stays public without a caller, each
    // with a `// why`. Empty: every public function has one.
    const ALLOWED: &[&str] = &[];

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // `benchmark/src`, not `benchmark`: its build output lives beside it.
    let files: Vec<_> = ["crates", "src", "tests", "examples", "benchmark/src"]
        .into_iter()
        .flat_map(sources)
        .filter(|(path, _)| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    let calls = |source: &str, name: &str| {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        let mut code = source
            .lines()
            .map(|line| line.split("//").next().unwrap_or_default());
        code.any(|line| {
            line.match_indices(name).any(|(at, _)| {
                let (before, after) = (&line[..at], &line[at + name.len()..]);
                let word = !before.chars().next_back().is_some_and(ident)
                    && !after.chars().next().is_some_and(ident);
                word && (after.starts_with('(')
                    || after.starts_with("::<")
                    || before.ends_with("::"))
            })
        })
    };

    let mut uncalled = Vec::new();
    for (path, source) in &files {
        let file = path.strip_prefix(root).unwrap();
        let mut parts = file.iter().filter_map(|part| part.to_str());
        if parts.next() != Some("crates") || parts.nth(1) != Some("src") {
            continue;
        }
        if file.starts_with("crates/shims") {
            continue;
        }
        for line in shipped(path, source).lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let name = rest.split(['(', '<']).next().unwrap_or_default();
            let called = files
                .iter()
                .any(|(other, text)| other != path && calls(text, name));
            if !called && !ALLOWED.contains(&name) {
                uncalled.push(format!("{}: {name}", file.display()));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "no other file calls these; make each private or delete it: {uncalled:#?}"
    );
}
