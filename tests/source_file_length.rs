//! Guard against the monolith regrowing: no Rust source file under any
//! crate's `src/` may exceed 1,200 lines. `engine.rs` reached 2,363
//! lines before it was split into the staged `engine/` kernel; this
//! test, part of the tier-1 suite, keeps every module within reviewable
//! bounds.

use std::fs;
use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1_200;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_exceeds_max_lines() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("readable crate dir").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(
        files.len() > 10,
        "suspiciously few source files found ({}): wrong root?",
        files.len()
    );

    let mut oversized: Vec<String> = files
        .iter()
        .filter_map(|p| {
            let lines = fs::read_to_string(p).ok()?.lines().count();
            (lines > MAX_LINES).then(|| format!("{} ({lines} lines)", p.display()))
        })
        .collect();
    oversized.sort();
    assert!(
        oversized.is_empty(),
        "source files over {MAX_LINES} lines — split them into modules:\n  {}",
        oversized.join("\n  ")
    );
}
