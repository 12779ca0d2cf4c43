//! The documents cite the code by name, and every citation must
//! resolve. In README.md, DESIGN.md, EXPERIMENTS.md and the verify
//! skill, a backticked path ending in `.rs`, `.sh`, `.json` or `.toml`
//! (optionally `:line`) must name a file in the tree — as written, or
//! as the tail of a longer path — and a backticked Rust path such as
//! `Type::item` or `::item` must name identifiers the code itself
//! still uses, outside comments and string literals. A backticked span
//! that starts with a `--flag` must name flags a program still takes:
//! each of its `--` words must be a `"--flag"` string literal in some
//! `src/` tree or a word of a shell script. Struck-through text
//! (`~~…~~`) and fenced blocks are exempt, and so are patterns such as
//! `<spec>_cells.json`: they name what a tool emits, not a file.
//!
//! A cargo command — in those spans, in those documents' fenced shell
//! blocks, or in `scripts/*.sh` — must name packages, binaries and
//! examples that exist: each `-p <name>` a workspace package, and each
//! `--bin <name>` or `--example <name>` (or `=<name>`) a binary or
//! `examples/<name>.rs` of it (of any package, without a `-p`). A
//! script's `examples=(…)` array, which it expands into `--example`
//! words, must name examples too.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every file under `dir`, as a path relative to `root`, skipping build
/// output and hidden directories.
fn files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" {
                files(root, &path, out);
            }
        } else {
            out.push(path.strip_prefix(root).expect("under root").to_path_buf());
        }
    }
}

/// Adds the identifiers of Rust source `src` to `out`, skipping
/// comments, string literals and character literals.
fn identifiers(src: &str, out: &mut HashSet<String>) {
    let b = src.as_bytes();
    let ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let mut i = 0;
    while i < b.len() {
        let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = src[i..].find('\n').map_or(b.len(), |n| i + n);
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' if b.get(i + 1 + hashes) == Some(&b'"') => {
                let close = format!("\"{}", "#".repeat(hashes));
                let body = i + 2 + hashes;
                i = src[body..]
                    .find(&close)
                    .map_or(b.len(), |n| body + n + close.len());
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'\'' if b.get(i + 1) == Some(&b'\\') => {
                i = src[i + 3..].find('\'').map_or(b.len(), |n| i + 4 + n);
            }
            b'\'' if b.get(i + 2) == Some(&b'\'') => i += 3,
            c if ident(c) => {
                let start = i;
                while i < b.len() && ident(b[i]) {
                    i += 1;
                }
                out.insert(src[start..i].to_string());
            }
            _ => i += 1,
        }
    }
}

/// The backticked spans of `doc`, outside fenced blocks and struck text.
fn spans(doc: &str) -> Vec<String> {
    let mut live = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            live.push_str(line);
            live.push('\n');
        }
    }
    let unstruck: String = live.split("~~").step_by(2).collect();
    unstruck
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.trim().to_string())
        .collect()
}

/// The `--flag` words of `text`: a `--` and a letter, then letters,
/// digits and dashes.
fn flag_words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c == '-' || c.is_ascii_alphanumeric()))
        .filter(|w| w.starts_with("--") && w[2..].starts_with(|c: char| c.is_ascii_alphabetic()))
}

/// Adds the `"--flag"` string literals of Rust source `src` to `out`.
fn flag_literals(src: &str, out: &mut HashSet<String>) {
    for (at, _) in src.match_indices("\"--") {
        let rest = &src[at + 1..];
        let end = rest.find('"').unwrap_or(rest.len());
        out.extend(flag_words(&rest[..end]).map(String::from));
    }
}

/// `span` as a Rust path's segments, if it is one (`a::b`, `::b`, or
/// either followed by an argument list).
fn rust_path(span: &str) -> Option<Vec<&str>> {
    let path = span.split('(').next()?;
    let segments: Vec<&str> = path.trim_start_matches("::").split("::").collect();
    let is_ident = |s: &&str| {
        s.starts_with(|c: char| c == '_' || c.is_ascii_alphabetic())
            && s.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
    };
    (path.contains("::") && segments.iter().all(is_ident)).then_some(segments)
}

#[test]
fn every_cited_file_and_item_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Vec::new();
    files(root, root, &mut tree);
    let mut idents = HashSet::new();
    let mut flags = HashSet::new();
    for path in &tree {
        let ext = path.extension().unwrap_or_default();
        if ext == "rs" {
            let src = fs::read_to_string(root.join(path)).unwrap();
            identifiers(&src, &mut idents);
            if path.components().any(|c| c.as_os_str() == "src") {
                flag_literals(&src, &mut flags);
            }
        } else if ext == "sh" {
            let script = fs::read_to_string(root.join(path)).unwrap();
            flags.extend(flag_words(&script).map(String::from));
        }
    }
    let tree: Vec<String> = tree
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();

    let mut dangling = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("document exists");
        for span in spans(&text) {
            let file = span.split(':').next().unwrap_or_default();
            let is_file = [".rs", ".sh", ".json", ".toml"]
                .iter()
                .any(|ext| file.ends_with(ext))
                && !file.contains(|c: char| c.is_whitespace() || "*<{".contains(c));
            if is_file {
                let tail = format!("/{file}");
                if !tree.iter().any(|p| *p == file || p.ends_with(&tail)) {
                    dangling.push(format!("{doc}: no file `{span}`"));
                }
            } else if let Some(segments) = rust_path(&span) {
                if let Some(gone) = segments.iter().find(|s| !idents.contains(**s)) {
                    dangling.push(format!(
                        "{doc}: `{span}` names `{gone}`, which no code uses"
                    ));
                }
            } else if span.starts_with("--") {
                if let Some(gone) = flag_words(&span).find(|f| !flags.contains(*f)) {
                    dangling.push(format!(
                        "{doc}: `{span}` names `{gone}`, which no program takes"
                    ));
                }
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "{} citations do not resolve (strike them with ~~…~~ if they are history):\n{}",
        dangling.len(),
        dangling.join("\n")
    );
}

/// A package's name and its targets.
type Package = (String, Vec<String>);

/// The workspace's packages with their targets: the root package and
/// every `crates/*` member; a target is `--bin <name>` for `src/main.rs`
/// (named for its package) or a file under `src/bin/`, and
/// `--example <name>` for a file under `examples/`.
fn packages(root: &Path) -> Vec<Package> {
    let mut dirs = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        dirs.push(entry.expect("directory entry").path());
    }
    dirs.iter()
        .filter_map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
            let package = &manifest[manifest.find("[package]")?..];
            let name = package.lines().find_map(|l| l.strip_prefix("name = "))?;
            let name = name.trim_matches('"').to_string();
            let mut targets: Vec<String> = [("--bin", "src/bin"), ("--example", "examples")]
                .iter()
                .flat_map(|(flag, sub)| {
                    let files = fs::read_dir(dir.join(sub)).into_iter().flatten();
                    files.filter_map(move |e| {
                        let stem = e.expect("directory entry").path();
                        Some(format!("{flag} {}", stem.file_stem()?.to_string_lossy()))
                    })
                })
                .collect();
            if dir.join("src/main.rs").exists() {
                targets.push(format!("--bin {name}"));
            }
            Some((name, targets))
        })
        .collect()
}

/// The cargo commands of shell text: each runs from a `cargo` word to
/// the end of its command (a `)`, `|`, `;`, `&` or newline).
fn cargo_commands(text: &str) -> impl Iterator<Item = &str> {
    text.match_indices("cargo ").map(|(at, _)| {
        let rest = &text[at..];
        &rest[..rest.find(|c| ")|;&\n".contains(c)).unwrap_or(rest.len())]
    })
}

/// The first `-p`, `--bin` or `--example` name (`--flag name` or
/// `--flag=name`) of cargo command `cmd` that names no workspace
/// package, or no target of the package it runs, described. Words after
/// a bare `--` are the program's arguments, not cargo's, and a shell
/// variable names nothing yet.
fn stale_cargo_name(cmd: &str, packages: &[Package]) -> Option<String> {
    let words: Vec<&str> = cmd.split_whitespace().take_while(|w| *w != "--").collect();
    let named = |flag: &'static str| {
        let spaced = words.windows(2).filter(move |w| w[0] == flag).map(|w| w[1]);
        let joined = words
            .iter()
            .filter_map(move |w| w.strip_prefix(flag)?.strip_prefix('='));
        spaced.chain(joined).filter(|name| !name.contains('$'))
    };
    let mut owners = Vec::new();
    for name in named("-p") {
        match packages.iter().find(|(p, _)| p == name) {
            Some(package) => owners.push(package),
            None => return Some(format!("`-p {name}` names no workspace package")),
        }
    }
    if owners.is_empty() {
        owners = packages.iter().collect();
    }
    ["--bin", "--example"].into_iter().find_map(|flag| {
        let target = named(flag)
            .map(|name| format!("{flag} {name}"))
            .find(|t| !owners.iter().any(|(_, targets)| targets.contains(t)))?;
        Some(format!("`{target}` names no target of the package it runs"))
    })
}

/// Checks the cargo commands of shell text `text` from `name`, one
/// logical line at a time: a `\` continuation joins the next line, a
/// ` #` comment is dropped, and a command is reported at its first
/// line. A script's `examples=(…)` array, which it expands into
/// `--example` words, must name examples too.
fn check_shell(name: &str, text: &str, packages: &[Package], stale: &mut Vec<String>) {
    let mut start = 0;
    let mut command = String::new();
    for (i, line) in text.lines().enumerate() {
        if command.is_empty() {
            start = i + 1;
        }
        let line = line.split(" #").next().unwrap_or_default();
        match line.strip_suffix('\\') {
            Some(head) => command.push_str(head),
            None => {
                command.push_str(line);
                let array = command.trim().strip_prefix("examples=(");
                let examples = array.map(|a| a.trim_end_matches(')').replace(' ', " --example="));
                let examples = examples.map(|a| format!("cargo run --example={a}"));
                for cmd in cargo_commands(&command).chain(examples.as_deref()) {
                    if let Some(why) = stale_cargo_name(cmd, packages) {
                        stale.push(format!("{name}:{start}: {why}"));
                    }
                }
                command.clear();
            }
        }
    }
}

/// `doc` with every line outside its fenced `bash`, `sh` and `shell`
/// blocks blanked, so line numbers still count from the document's top.
fn fenced_shell(doc: &str) -> String {
    let mut fence = None; // inside a fence: whether it is a shell block
    let mut shell = String::new();
    for line in doc.lines() {
        match (line.trim_start().strip_prefix("```"), fence) {
            (Some(info), None) => fence = Some(["bash", "sh", "shell"].contains(&info.trim())),
            (Some(_), Some(_)) => fence = None,
            (None, Some(true)) => shell.push_str(line),
            _ => {}
        }
        shell.push('\n');
    }
    shell
}

#[test]
fn every_cargo_package_and_binary_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);
    let mut stale = Vec::new();
    for entry in fs::read_dir(root.join("scripts")).expect("scripts/ exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().unwrap_or_default() != "sh" {
            continue;
        }
        let script = fs::read_to_string(&path).unwrap();
        let name = path.strip_prefix(root).expect("under root").display();
        check_shell(&name.to_string(), &script, &packages, &mut stale);
    }
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("document exists");
        check_shell(doc, &fenced_shell(&text), &packages, &mut stale);
        for span in spans(&text) {
            let span = span.replace('\n', " ");
            for cmd in cargo_commands(&span) {
                if let Some(why) = stale_cargo_name(cmd, &packages) {
                    stale.push(format!("{doc}: `{span}`: {why}"));
                }
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} cargo commands name a package, binary or example that does not exist:\n{}",
        stale.len(),
        stale.join("\n")
    );
}
