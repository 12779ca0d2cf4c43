//! `proto_check`'s usage contract: an out-of-range configuration is
//! bad usage — exit 2 with the range on stderr — not a panic in
//! `CheckConfig::new`.

use std::process::Command;

#[test]
fn out_of_range_configurations_exit_2_without_a_panic() {
    for args in [
        ["--cores", "1"],
        ["--cores", "17"],
        ["--lines", "0"],
        ["--lines", "17"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_proto_check"))
            .args(args)
            .output()
            .expect("proto_check runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} must be in", args[0])),
            "{args:?}: {stderr}"
        );
    }
}
