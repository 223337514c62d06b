//! The `trix` binary rejects bad command lines with a message and exit
//! status 2 instead of a panic, and still runs a valid scenario.

use std::process::{Command, Output};

fn trix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trix"))
        .args(args)
        .output()
        .expect("spawn the trix binary")
}

/// Asserts that `args` exit 2 with a message naming `flag` and no panic.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = trix(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?}: message must name {flag}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unparseable_width_is_rejected() {
    assert_rejected(&["run", "--width", "abc"], "--width");
}

#[test]
fn width_below_two_is_rejected_by_every_command() {
    for cmd in ["run", "stabilize", "compare"] {
        assert_rejected(&[cmd, "--width", "1"], "--width");
    }
}

#[test]
fn zero_pulses_is_rejected() {
    assert_rejected(&["run", "--pulses", "0"], "--pulses");
}

#[test]
fn unknown_flags_are_rejected_by_every_command() {
    assert_rejected(&["run", "--widht", "6"], "--widht");
    assert_rejected(&["compare", "--wdth", "4"], "--wdth");
    assert_rejected(&["stabilize", "--layers", "4"], "--layers");
    assert_rejected(&["compare", "--chart"], "--chart");
    assert_rejected(&["run", "6"], "'6'");
}

#[test]
fn switch_given_a_value_is_rejected() {
    assert_rejected(
        &["run", "--width", "4", "--adversarial", "5"],
        "--adversarial",
    );
    assert_rejected(&["run", "--width", "4", "--chart", "yes"], "--chart");
}

#[test]
fn value_flag_without_a_value_is_rejected() {
    assert_rejected(&["run", "--faults", "1", "--behavior"], "--behavior");
}

#[test]
fn valid_run_succeeds() {
    let out = trix(&[
        "run", "--width", "6", "--layers", "4", "--pulses", "2", "--seed", "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("Thm 1.1 bound"), "{stdout}");

    // Switches and the other commands' flags still run.
    let out = trix(&[
        "run",
        "--width",
        "6",
        "--layers",
        "4",
        "--pulses",
        "1",
        "--adversarial",
        "--chart",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = trix(&["compare", "--width", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The fault pattern repeats on a small grid: the run still succeeds,
/// and says how many of the requested faults it placed.
#[test]
fn repeated_fault_positions_are_reported() {
    let out = trix(&[
        "run", "--width", "4", "--layers", "4", "--pulses", "1", "--faults", "100",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let placed: usize = stdout
        .split(", ")
        .find_map(|part| part.strip_suffix(" faults")?.parse().ok())
        .unwrap_or_else(|| panic!("no fault count in {stdout}"));
    assert!(placed < 100, "{stdout}");
    assert!(
        stderr.contains("--faults 100 requested") && stderr.contains(&format!("{placed} placed")),
        "{stderr}"
    );

    // When every requested fault lands on its own position, nothing is
    // reported.
    let out = trix(&[
        "run", "--width", "12", "--layers", "6", "--pulses", "1", "--faults", "2",
    ]);
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("requested"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
