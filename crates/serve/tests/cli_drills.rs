//! Cross-process drills: the built binaries driven the way an operator
//! drives them, so `cargo test` covers what a shell script used to.

use std::process::Command;

/// A `bitgrep` run with `--swap-rules` must emit exactly the union of a
/// prefix scanned under the old rules and a suffix scanned
/// (offset-rebased) under the new.
#[test]
fn bitgrep_swap_rules_reports_old_prefix_and_new_suffix() {
    let dir = std::env::temp_dir().join(format!("bitgen-swap-drill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let (input, rules) = (dir.join("input.bin"), dir.join("new.rules"));
    std::fs::write(&input, "cat dog cat cat dog xx").expect("input file");
    std::fs::write(&rules, "dog\n").expect("rules file");
    let run = Command::new(env!("CARGO_BIN_EXE_bitgrep"))
        .args(["-e", "cat", "--swap-rules"])
        .arg(format!("{}@12", rules.display()))
        .arg("--positions")
        .arg(&input)
        .output()
        .expect("bitgrep runs");
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    assert!(run.status.success(), "bitgrep failed: {}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(String::from_utf8_lossy(&run.stdout), "2\n10\n18\n");
}
