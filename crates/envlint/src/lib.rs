//! `envlint` — project-specific static analysis for the Env2Vec
//! workspace.
//!
//! Clippy keeps this workspace idiomatic; `envlint` enforces the
//! invariants that are *ours*, the ones a general linter cannot know:
//! screening runs must not panic out of library code, repro tables must
//! be a pure function of the seed, and nothing order-nondeterministic may
//! sit on the paths that produce vocab ids, embeddings, or scraped
//! series. It is written from scratch on a small Rust lexer
//! ([`lexer`]) and a token-stream analyzer ([`analyze`]) with zero
//! dependencies, matching the workspace's vendored-offline constraint.
//!
//! Run it as a binary:
//!
//! ```text
//! cargo run -p envlint -- --check            # human-readable findings
//! cargo run -p envlint -- --check --format=json
//! cargo run -p envlint -- --check --format=sarif   # code-scanning upload
//! cargo run -p envlint -- --rules            # rule table
//! ```
//!
//! or via the test wrapper (`cargo test -p envlint`), which fails the
//! tier-1 suite on any new violation. Escape hatch, always with a
//! reason:
//!
//! ```text
//! // envlint: allow(no-panic) — why the invariant holds here
//! ```
//!
//! See [`rules::RuleId`] for the rule catalogue and scoping.

pub mod analyze;
pub mod lexer;
pub mod rules;
pub mod scope;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use analyze::{lint_source, lint_test_source, Finding};
pub use rules::RuleId;

/// Workspace sub-paths whose files are test code in their entirety:
/// integration tests, benches, and the cross-crate test crate.
const TEST_PATH_MARKERS: [&str; 3] = ["/tests/", "/benches/", "xtests/"];

/// One file queued for linting: absolute path, workspace-relative label,
/// and the crate scope its rules come from.
#[derive(Debug, Clone)]
struct LintJob {
    path: PathBuf,
    rel: String,
    crate_dir: String,
}

/// Lints every Rust source file of the workspace rooted at `root`.
///
/// Scanned: `crates/*/src/**/*.rs` (library and binary code, full rule
/// set per [`RuleId::applies_to`]) and `crates/*/tests`, `xtests/`
/// (test code: only `allow`-directive hygiene). Returns findings sorted
/// by path, line, then rule.
///
/// File scanning fans out over `par`'s threads (the linter dogfoods the
/// layer it lints): the file list is collected and sorted sequentially,
/// chunks are mapped in parallel, and partial results fold in ascending
/// chunk order, so output is bit-identical at any `ENV2VEC_THREADS`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let jobs = collect_jobs(root)?;
    let merged = env2vec_par::par_map_reduce(
        jobs.len(),
        8,
        |range| -> io::Result<Vec<Finding>> {
            let mut findings = Vec::new();
            for job in &jobs[range] {
                lint_one(job, &mut findings)?;
            }
            Ok(findings)
        },
        |a, b| {
            // First error wins; otherwise concatenate in chunk order.
            let mut a = a?;
            a.extend(b?);
            Ok(a)
        },
    );
    let mut findings = merged.unwrap_or_else(|| Ok(Vec::new()))?;
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
    Ok(findings)
}

/// Builds the sorted file list: every crate's `src`/`tests`/`benches`
/// plus `xtests/`.
fn collect_jobs(root: &Path) -> io::Result<Vec<LintJob>> {
    let mut jobs = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
            continue;
        };
        for sub in ["src", "tests", "benches"] {
            let sub_dir = dir.join(sub);
            if sub_dir.is_dir() {
                collect_tree(root, &sub_dir, &name, &mut jobs)?;
            }
        }
    }
    let xtests = root.join("xtests");
    if xtests.is_dir() {
        collect_tree(root, &xtests, "xtests", &mut jobs)?;
    }
    Ok(jobs)
}

/// Recursively queues every `.rs` file under `dir`.
fn collect_tree(
    root: &Path,
    dir: &Path,
    crate_dir: &str,
    jobs: &mut Vec<LintJob>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            // Fixture corpora hold intentional violations for self-tests.
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_tree(root, &path, crate_dir, jobs)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            jobs.push(LintJob {
                path,
                rel,
                crate_dir: crate_dir.to_string(),
            });
        }
    }
    Ok(())
}

/// Lints one queued file.
fn lint_one(job: &LintJob, findings: &mut Vec<Finding>) -> io::Result<()> {
    let source = fs::read_to_string(&job.path)?;
    if TEST_PATH_MARKERS.iter().any(|m| job.rel.contains(m)) {
        findings.extend(lint_test_source(&job.rel, &source));
    } else {
        findings.extend(lint_source(&job.rel, &job.crate_dir, &source));
    }
    Ok(())
}

/// Renders findings as a JSON array (machine-readable `--format=json`).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
            f.rule.id(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders findings as a SARIF 2.1.0 log (`--format=sarif`), the format
/// GitHub code scanning ingests: one run, one rule entry per catalogue
/// rule, one result per finding with a physical location.
pub fn findings_to_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"envlint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            rule.id(),
            json_escape(rule.describe())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.rule.id(),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_escapes_and_shapes() {
        let findings = vec![Finding {
            rule: RuleId::NoPanic,
            file: "crates/x/src/a.rs".to_string(),
            line: 3,
            message: "a \"quoted\" message".to_string(),
        }];
        let json = findings_to_json(&findings);
        assert!(json.contains("\"rule\": \"no-panic\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.trim_start().starts_with('['));
        assert_eq!(findings_to_json(&[]).trim(), "[]");
    }

    #[test]
    fn sarif_rendering_has_rules_and_located_results() {
        let findings = vec![Finding {
            rule: RuleId::LockOrder,
            file: "crates/telemetry/src/tsdb.rs".to_string(),
            line: 42,
            message: "nested \"locks\"".to_string(),
        }];
        let sarif = findings_to_sarif(&findings);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        // Every catalogue rule is declared in the driver.
        for rule in RuleId::ALL {
            assert!(
                sarif.contains(&format!("\"id\": \"{}\"", rule.id())),
                "{}",
                rule.id()
            );
        }
        assert!(sarif.contains("\"ruleId\": \"lock-order\""));
        assert!(sarif.contains("\"uri\": \"crates/telemetry/src/tsdb.rs\""));
        assert!(sarif.contains("\"startLine\": 42"));
        assert!(sarif.contains("nested \\\"locks\\\""));
        // Empty findings still produce a structurally complete log.
        let empty = findings_to_sarif(&[]);
        assert!(empty.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above envlint");
        assert!(root.join("crates").is_dir());
    }
}
