//! `repro` refuses a flag it does not know before running anything:
//! exit 2 and the list of flags it takes, as for an unknown experiment.

use std::process::Command;

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {out:?}");
    assert!(out.stdout.is_empty(), "repro {args:?} ran: {out:?}");
    String::from_utf8(out.stderr).expect("messages are UTF-8")
}

#[test]
fn unknown_flags_are_refused_with_the_valid_list() {
    for (args, flag) in [
        (&["build-report", "--threads", "4"][..], "--threads"),
        (&["tables", "--bogus"], "--bogus"),
        (&["--bogus", "tables"], "--bogus"),
    ] {
        let err = refused(args);
        assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
        assert!(err.contains("--paper --csv --seed --ops"), "{err}");
    }
    // A known flag passes, so the experiment name is what is refused.
    let err = refused(&["no-such-figure", "--seed", "4", "--paper"]);
    assert!(
        err.contains("unknown experiment \"no-such-figure\""),
        "{err}"
    );
}
