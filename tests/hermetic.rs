//! Hermetic-build guard: the workspace must never grow a registry (or
//! git) dependency. Every dependency in every `Cargo.toml` has to be a
//! `path` dependency inside this repository, or a `workspace = true`
//! reference to one. This is what keeps `cargo build --offline` working
//! on a machine that has never talked to crates.io.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // groupsa-suite's manifest dir IS the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            // Skip build output and VCS internals; everything else is
            // in scope so a sneaky nested crate can't hide.
            if name != "target" && name != ".git" {
                collect_manifests(&path, out);
            }
        } else if name == "Cargo.toml" {
            // groupsa-lint's fixture manifests violate the policy on
            // purpose (they are what its cargo-dep rule tests against)
            // and are not workspace members.
            if !path.components().any(|c| c.as_os_str() == "fixtures") {
                out.push(path);
            }
        }
    }
}

/// The dependency-table sections whose entries we police.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_matches(|c| c == '[' || c == ']');
    h == "dependencies"
        || h == "dev-dependencies"
        || h == "build-dependencies"
        || h == "workspace.dependencies"
        || h.starts_with("target.") && h.ends_with("dependencies")
        || h.starts_with("dependencies.")
        || h.starts_with("dev-dependencies.")
        || h.starts_with("build-dependencies.")
        || h.starts_with("workspace.dependencies.")
}

/// `true` when a single dependency line declares a hermetic source.
fn line_is_hermetic(line: &str) -> bool {
    let (_, spec) = line.split_once('=').expect("dependency line has '='");
    let spec = spec.trim();
    // `foo = { path = "..." }`, `foo = { workspace = true }` (with any
    // extra keys like `features`), `foo.workspace = true` handled by
    // the caller via key inspection, bare `foo = "1.2"` is a registry
    // version requirement → not hermetic.
    spec.contains("path =") || spec.contains("path=") || spec.contains("workspace = true") || spec.contains("workspace=true")
}

#[test]
fn every_dependency_in_every_manifest_is_a_path_dependency() {
    let root = workspace_root();
    let mut manifests = Vec::new();
    collect_manifests(&root, &mut manifests);
    assert!(
        manifests.len() >= 13,
        "expected the workspace's manifests (root + 8 crates + 4 compat), found {}",
        manifests.len()
    );

    let mut violations = Vec::new();
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).unwrap();
        let mut in_dep_section = false;
        let mut dotted_dep_section = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                in_dep_section = is_dependency_section(line);
                // `[dependencies.foo]` style: the keys that follow ARE
                // the spec, so `version = "1"` without `path` is a
                // violation but `path = "..."` clears the whole block.
                dotted_dep_section = in_dep_section
                    && line.trim_matches(|c| c == '[' || c == ']').contains("dependencies.");
                continue;
            }
            if !in_dep_section || !line.contains('=') {
                continue;
            }
            if dotted_dep_section {
                if line.starts_with("git ") || line.starts_with("git=") || line.starts_with("registry") {
                    violations.push(format!("{}:{}: {}", manifest.display(), lineno + 1, line));
                }
                continue;
            }
            // `foo.workspace = true` is a reference into
            // [workspace.dependencies], which this test also checks.
            let key = line.split('=').next().unwrap().trim();
            if key.ends_with(".workspace") {
                continue;
            }
            if line.contains("git =") || line.contains("git=") || !line_is_hermetic(line) {
                violations.push(format!("{}:{}: {}", manifest.display(), lineno + 1, line));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "non-path dependencies found (hermetic-build policy, see DESIGN.md):\n{}",
        violations.join("\n")
    );
}

#[test]
fn guard_rejects_a_registry_style_line() {
    // Self-test of the classifier, so a refactor can't silently turn
    // the main test into a no-op.
    assert!(!line_is_hermetic(r#"rand = "0.10""#));
    assert!(!line_is_hermetic(r#"serde = { version = "1", features = ["derive"] }"#));
    assert!(line_is_hermetic(r#"rand = { path = "crates/compat/rand" }"#));
    assert!(line_is_hermetic(r#"proptest = { workspace = true }"#));
}

#[test]
fn compat_crates_shadow_the_external_names() {
    // The whole point of crates/compat: consuming code says `rand`,
    // `proptest` and gets the in-tree implementations.
    let root = workspace_root();
    for (dir, expected) in [
        ("rand", "name = \"rand\""),
        ("proptest", "name = \"proptest\""),
        ("json", "name = \"groupsa-json\""),
    ] {
        let manifest = root.join("crates/compat").join(dir).join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("missing compat crate {dir}: {e}"));
        assert!(text.contains(expected), "{} must declare {expected}", manifest.display());
    }
}
