//! Captures the provenance stamp the benchmark prints with every result:
//! the compiler version, the git commit when the sources are a git
//! checkout, and a hash of the measured sources either way (a plain
//! source export has no commit, but the hash still tells two trees
//! apart).

use std::path::{Path, PathBuf};
use std::process::Command;

fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

/// FNV-1a over every `.rs`/`.toml`/`.lock` file below `dir`, visited in
/// sorted order so the hash does not depend on directory listing order.
fn hash_tree(dir: &Path, root: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            hash_tree(&path, root, hash);
            continue;
        }
        let keep = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| matches!(e, "rs" | "toml" | "lock"));
        if !keep {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn main() {
    let manifest_dir = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest_dir
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version =
        command_output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let commit = command_output(Command::new("git").arg("-C").arg(&repo).args([
        "rev-parse",
        "--short=12",
        "HEAD",
    ]))
    .unwrap_or_else(|| "none".into());

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in ["crates", "vendor", "Cargo.toml", "Cargo.lock"] {
        let path = repo.join(part);
        if path.is_dir() {
            hash_tree(&path, &repo, &mut hash);
        } else if let Ok(bytes) = std::fs::read(&path) {
            for b in part.bytes().chain(bytes) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        println!("cargo:rerun-if-changed={}", path.display());
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
    println!("cargo:rerun-if-changed=build.rs");
}
