//! Records the rustc version and the git commit of the checkout (when
//! it is a git checkout) for the host-facts line of every output.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // Read the commit straight from `.git` (no git process): a checkout
    // without `.git` reports "unknown".
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = git.join("HEAD");
    let commit = std::fs::read_to_string(&head)
        .ok()
        .and_then(|h| {
            let h = h.trim();
            match h.strip_prefix("ref: ") {
                Some(r) => {
                    if git.join(r).exists() {
                        println!("cargo:rerun-if-changed={}", git.join(r).display());
                    }
                    std::fs::read_to_string(git.join(r)).ok().or_else(|| {
                        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l.split(' ').next().unwrap_or("").to_string())
                    })
                }
                None => Some(h.to_string()),
            }
        })
        .map(|c| c.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    }
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
