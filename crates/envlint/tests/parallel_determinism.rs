//! `lint_workspace` fans file scanning out over `par`'s threads; its
//! output contract is that findings are bit-identical to the sequential
//! order at any thread count. This test builds a scratch workspace with
//! seeded violations spread over enough files to span several chunks
//! and asserts the rendered output matches exactly at 1 vs 4 threads.

use std::fs;
use std::path::Path;

use env2vec_par::with_thread_limit;
use envlint::{findings_to_json, findings_to_sarif, lint_workspace};

/// Writes a minimal workspace: root manifest + N crates, each with a
/// handful of source files carrying known violations.
fn build_scratch(root: &Path) {
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    for c in ["alpha", "beta", "gamma", "delta"] {
        let src = root.join("crates").join(c).join("src");
        fs::create_dir_all(&src).expect("create crate dirs");
        fs::write(
            root.join("crates").join(c).join("Cargo.toml"),
            format!("[package]\nname = \"{c}\"\n"),
        )
        .expect("write crate manifest");
        for f in 0..4 {
            // Each file seeds a no-panic, a float-cmp, and a lock-order
            // finding at fixed lines, plus one clean function.
            let body = format!(
                "fn risky_{f}() {{ x.unwrap(); }}\n\
                 fn close_{f}(v: f64) -> bool {{ v == 0.5 }}\n\
                 fn nested_{f}(a: &M, b: &M) {{ let ga = a.lock(); let gb = b.lock(); use2(&ga, &gb); }}\n\
                 fn clean_{f}(v: u64) -> u64 {{ v + 1 }}\n"
            );
            fs::write(src.join(format!("m{f}.rs")), body).expect("write source file");
        }
    }
}

#[test]
fn findings_are_bit_identical_at_1_vs_4_threads() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("envlint_par_determinism");
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear scratch workspace");
    }
    fs::create_dir_all(&root).expect("create scratch workspace");
    build_scratch(&root);

    let sequential = with_thread_limit(1, || lint_workspace(&root)).expect("lint at 1 thread");
    let parallel = with_thread_limit(4, || lint_workspace(&root)).expect("lint at 4 threads");

    // 4 crates × 4 files × 3 seeded violations.
    assert_eq!(sequential.len(), 48, "seeded violation count");

    // Bit-identical across every rendering, not just same-length.
    let render =
        |fs: &[envlint::Finding]| fs.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n");
    assert_eq!(render(&sequential), render(&parallel));
    assert_eq!(findings_to_json(&sequential), findings_to_json(&parallel));
    assert_eq!(findings_to_sarif(&sequential), findings_to_sarif(&parallel));
}
