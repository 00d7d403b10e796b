//! `repro <experiment>` at the quick preset prints byte for byte what it
//! printed before `repro.rs` became one table and the forwarding walk
//! became a loop over `SwitchDataplane::step`: `golden/repro_quick.txt`
//! was captured from the binary built at the commit before both. Every
//! number in it is a pure function of the seeds, in debug and release
//! builds alike. `build-report` is left out: its last column is wall time.
//!
//! TESTING.md says how to refresh the golden when an experiment's output
//! is changed on purpose.

use std::process::Command;

/// The experiments of `repro all`, in its order, minus `build-report`.
const QUICK: [&str; 21] = [
    "fig7a",
    "fig8",
    "fig9a",
    "fig9b",
    "fig9c",
    "fig9d",
    "fig11a",
    "fig11b",
    "fig11c",
    "tables",
    "churn",
    "churn-owners",
    "embedding",
    "qdelay",
    "availability",
    "hotspot",
    "contention",
    "fload",
    "cdf",
    "overhead",
    "hetero",
];

#[test]
fn quick_preset_output_matches_the_golden() {
    let mut printed = String::new();
    for experiment in QUICK {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(experiment)
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro {experiment} failed: {out:?}");
        printed.push_str(std::str::from_utf8(&out.stdout).expect("tables are UTF-8"));
    }
    let golden = include_str!("golden/repro_quick.txt");
    let differing = printed
        .lines()
        .zip(golden.lines())
        .position(|(p, g)| p != g);
    if let Some(line) = differing {
        panic!(
            "line {}: printed {:?}, golden has {:?}",
            line + 1,
            printed.lines().nth(line),
            golden.lines().nth(line)
        );
    }
    assert_eq!(
        printed.len(),
        golden.len(),
        "one output is a prefix of the other"
    );
}
