//! The public surface matches its callers.
//!
//! A name scan over the workspace: every `pub fn` defined in production code
//! (`crates/*/src`, each file cut at its first `#[cfg(test)]`) must be named
//! somewhere outside test code, that is in production code, `examples/`,
//! `benchmark/src` or `benchmark/tests`, on a line that is not a comment, not
//! part of a `use` item and not the function's own definition. A function that
//! only tests call is deleted, or its tests reach the same value through the
//! API the product uses. The few kept on purpose are listed in [`KEPT`], each
//! with its reason.
//!
//! The scan goes by name, so a function that shares its name with anything the
//! product mentions passes unseen; it errs towards letting code stay.
//!
//! Run: `cargo test --release -p tlt --test public_surface`.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions that only tests call, kept on purpose: `"name: reason"`.
const KEPT: &[&str] = &[
    // A ROADMAP item names the caller that will use them.
    "decode_work: ROADMAP 5: the counted-work test holds a decode step to it",
    "verify_work: ROADMAP 5: the counted-work test holds a verify to it",
    "arithmetic_intensity: ROADMAP 5-6: roofline position of counted work",
    "is_compute_bound: ROADMAP 5-6: roofline position of counted work",
    "ridge_intensity: ROADMAP 5-6: roofline position of counted work",
    "achieved_tflops: ROADMAP 6(b): predicted against measured host throughput",
    "with_manager: ROADMAP 10(c): a caller's multi-arm set reaches the evaluator",
    "set_learned_drafter_available: ROADMAP 7(c): the drafter's cold start",
    // Tests compare the product against them, or check it with them.
    "expected_requests: arrival tests check generated counts against it",
    "percentile_f64: metrics tests check the latency summaries against it",
    "derived_trace_checksum: million.rs tests pin the derived trace without a file",
    "leaked_blocks: ledger tests check leak detection with it",
    "set_event_budget: event_core tests the event-budget stop with it",
    "stats: BegMabSelector: tuner tests read the per-arm statistics",
    "select: BegMabSelector: tuner_oracle's reference tuner selects by strategy",
    "transpose: matmul_equivalence's naive oracle multiplies by it",
    "sample_token: the tlt-model crate doc example (a doctest) samples with it",
    "silu_grad: its finite-difference test pins the derivative swiglu_backward fuses",
    // Tests in other crates build their inputs with them.
    "sequence_logprobs: tlt-rl trainer tests score responses with it",
    "gold_response: tlt-rl trainer tests build rewarded answers with it",
    "think: tlt-rl trainer tests build reasoning traces with it",
    "with_prefix: trace and serving tests build prefix workloads with it",
    "constant: trace and serving tests build fixed-rate arrivals with it",
    "single_node: integration and determinism build one-node clusters with it",
    "simulate_serving_traced: golden_routing records a serving run with it",
    "qwen2_5_0_5b: catalog entry step_batch_split sweeps",
    "small_lm_drafter: catalog entry the cost-model tests build",
    "from_measured: sim_engine_oracle builds acceptance profiles with it",
    "storm_injected: trace_replay builds its storm workload with it",
    "forced_violation: chaos tests check that a violation dumps a postmortem",
    "eye: tensor tests build the identity with it",
    "from_rows: tensor and ops tests build literal matrices with it",
];

/// The names of [`KEPT`]; every entry must give a reason.
fn kept_names() -> impl Iterator<Item = &'static str> {
    KEPT.iter().map(|entry| match entry.split_once(": ") {
        Some((name, reason)) if !reason.trim().is_empty() => name,
        _ => panic!("KEPT entry {entry:?} is not \"name: reason\""),
    })
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The name a line defines with `pub fn` (also `pub const fn`, `pub unsafe
/// fn`), if any; `pub(crate)` and narrower are not the public surface.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Whether a trimmed line opens a `use` item (`use`, `pub use`, `pub(..) use`).
fn starts_use_item(trimmed: &str) -> bool {
    let rest = match trimmed.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or("", |(_, r)| r),
        Some(rest) => rest,
        None => trimmed,
    };
    rest.trim_start().starts_with("use ")
}

/// Public functions defined in production code, and the identifiers
/// mentioned outside test code.
struct Scan {
    /// `(path:line, name)` of each `pub fn`.
    definitions: Vec<(String, String)>,
    mentions: HashSet<String>,
}

impl Scan {
    fn run(root: &Path) -> Scan {
        let mut scan = Scan {
            definitions: Vec::new(),
            mentions: HashSet::new(),
        };
        let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
        let mut crate_dirs: Vec<PathBuf> = crates.map(|e| e.unwrap().path().join("src")).collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            for path in rust_files(&dir) {
                let text = fs::read_to_string(&path).unwrap();
                let production = text
                    .find("#[cfg(test)]")
                    .map_or(&text[..], |at| &text[..at]);
                scan.add(root, &path, production, true);
            }
        }
        for dir in ["examples", "benchmark/src", "benchmark/tests"] {
            for path in rust_files(&root.join(dir)) {
                let text = fs::read_to_string(&path).unwrap();
                scan.add(root, &path, &text, false);
            }
        }
        scan
    }

    fn add(&mut self, root: &Path, path: &Path, text: &str, defines: bool) {
        let mut in_use_item = false;
        for (index, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if in_use_item || starts_use_item(trimmed) {
                in_use_item = !trimmed.contains(';');
                continue;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            let mut defined = if defines { pub_fn_name(line) } else { None };
            if let Some(name) = defined {
                let shown = path.strip_prefix(root).unwrap_or(path).display();
                self.definitions
                    .push((format!("{shown}:{}", index + 1), name.to_string()));
            }
            let identifiers = line
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|word| !word.is_empty());
            for word in identifiers {
                if defined == Some(word) {
                    defined = None;
                    continue;
                }
                self.mentions.insert(word.to_string());
            }
        }
    }
}

#[test]
fn every_public_function_has_a_caller_outside_tests() {
    let scan = Scan::run(&workspace_root());
    assert!(
        scan.definitions.len() > 500,
        "the scan found only {} public functions: is the workspace root right?",
        scan.definitions.len()
    );
    let kept: HashSet<&str> = kept_names().collect();
    let uncalled: Vec<String> = scan
        .definitions
        .iter()
        .filter(|(_, name)| !scan.mentions.contains(name) && !kept.contains(name.as_str()))
        .map(|(at, name)| format!("  {at} {name}"))
        .collect();
    assert!(
        uncalled.is_empty(),
        "public functions that only tests call (delete them, let their tests use the \
         product's API, or add them to KEPT with a reason):\n{}",
        uncalled.join("\n")
    );
}

#[test]
fn every_kept_function_is_still_public() {
    let scan = Scan::run(&workspace_root());
    let defined: HashSet<&str> = scan.definitions.iter().map(|(_, n)| n.as_str()).collect();
    let stale: Vec<&str> = kept_names()
        .filter(|name| !defined.contains(name))
        .collect();
    assert!(stale.is_empty(), "KEPT names no public function: {stale:?}");
    let mut names: Vec<&str> = kept_names().collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), KEPT.len(), "KEPT lists a name twice");
}

#[test]
fn the_scan_reads_definitions_and_use_items() {
    assert_eq!(pub_fn_name("    pub fn run(&self) {"), Some("run"));
    assert_eq!(pub_fn_name("pub const fn zeros() -> Self {"), Some("zeros"));
    assert_eq!(pub_fn_name("    pub(crate) fn hidden() {"), None);
    assert_eq!(pub_fn_name("    fn private() {"), None);
    assert!(starts_use_item("use std::fs;"));
    assert!(starts_use_item("pub use kl::kl_divergence;"));
    assert!(starts_use_item("pub(crate) use crate::x;"));
    assert!(!starts_use_item("user_count += 1;"));

    let mut scan = Scan {
        definitions: Vec::new(),
        mentions: HashSet::new(),
    };
    let text = "use a::{\n    only_imported,\n};\n/// only_documented\n\
                pub fn defined_once() {}\npub fn called() {}\nfn f() { called() }\n";
    scan.add(Path::new("."), Path::new("x.rs"), text, true);
    let names: Vec<&str> = scan.definitions.iter().map(|(_, n)| n.as_str()).collect();
    assert_eq!(names, ["defined_once", "called"]);
    for word in ["only_imported", "only_documented", "defined_once"] {
        assert!(!scan.mentions.contains(word), "{word}");
    }
    assert!(scan.mentions.contains("called"));
}
