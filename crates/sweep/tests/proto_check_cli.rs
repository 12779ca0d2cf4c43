//! The gate binaries' usage contract. For `proto_check`, an
//! out-of-range configuration, an unknown flag, or a flag the chosen
//! mode would ignore, is bad usage — exit 2 with the reason on stderr —
//! not a panic in `CheckConfig::new` or a run that silently drops what
//! was asked for. `fingerprint` takes no arguments, so any argument is
//! bad usage the same way.

use std::process::{Command, Output};

fn proto_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_proto_check"))
        .args(args)
        .output()
        .expect("proto_check runs")
}

#[test]
fn out_of_range_configurations_exit_2_without_a_panic() {
    for args in [
        ["--cores", "1"],
        ["--cores", "17"],
        ["--lines", "0"],
        ["--lines", "17"],
    ] {
        let out = proto_check(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} must be in", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

/// Each case names the flag its mode ignores; none of them explores
/// anything before exiting.
#[test]
fn a_flag_the_mode_ignores_exits_2_naming_it() {
    for (args, flag) in [
        (&["--walk", "--depth", "3"][..], "--depth"),
        (&["--walk", "--jobs", "2"], "--jobs"),
        (&["--steps", "10"], "--steps"),
        (&["--seed", "7"], "--seed"),
    ] {
        let out = proto_check(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} has no effect")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

/// An unknown flag is named, not just answered with the usage line.
/// The liveness flags are gone: the pass is `flextm-check`'s unit tests.
#[test]
fn an_unknown_flag_exits_2_naming_it() {
    for flag in ["--liveness", "--revert-tie-break", "--frobnicate"] {
        let out = proto_check(&[flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} ran anyway");
    }
}

/// `fingerprint`'s three runs are pinned: an argument is named and
/// refused before any run starts, not ignored while the pinned lines
/// print.
#[test]
fn fingerprint_refuses_any_argument_naming_it() {
    for args in [&["--threads", "8"][..], &["64"], &["--help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_fingerprint"))
            .args(args)
            .output()
            .expect("fingerprint runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unexpected argument {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}
