//! End-to-end tests of the `optimist` command-line binary, driven through
//! the real executable (`CARGO_BIN_EXE_optimist`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn optimist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optimist"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("optimist-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const SAMPLE: &str = "
      DOUBLE PRECISION FUNCTION CUBE(X)
      DOUBLE PRECISION X
      CUBE = X*X*X
      END
";

#[test]
fn no_arguments_is_a_usage_error() {
    let out = optimist(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
}

#[test]
fn unknown_command_is_reported() {
    let out = optimist(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn run_evaluates_a_function() {
    let path = write_temp("cube.ft", SAMPLE);
    let out = optimist(&["run", path.to_str().unwrap(), "CUBE", "3.0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("result: 27"), "stdout: {stdout}");
    assert!(stdout.contains("cycles:"));
}

#[test]
fn compile_prints_ir_that_reloads() {
    let path = write_temp("cube2.ft", SAMPLE);
    let out = optimist(&["compile", path.to_str().unwrap()]);
    assert!(out.status.success());
    let ir_text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        ir_text.contains("func CUBE(v0:float) -> float {"),
        "{ir_text}"
    );

    // Reload the dump through the `.ir` path and run it.
    let ir_path = write_temp("cube2.ir", &ir_text);
    let out = optimist(&["run", ir_path.to_str().unwrap(), "CUBE", "2.0", "--no-opt"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("result: 8"));
}

#[test]
fn compare_prints_a_table_row_per_routine() {
    let path = write_temp("cube3.ft", SAMPLE);
    let out = optimist(&["compare", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CUBE"));
    assert!(stdout.contains("routine"));
}

#[test]
fn asm_lists_physical_registers() {
    let path = write_temp("cube4.ft", SAMPLE);
    let out = optimist(&["asm", path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CUBE:"), "{stdout}");
    assert!(stdout.contains("mul.f"), "{stdout}");
    assert!(stdout.contains("f0"), "{stdout}");
}

#[test]
fn graph_emits_dot() {
    let path = write_temp("cube5.ft", SAMPLE);
    let out = optimist(&["graph", path.to_str().unwrap(), "--routine", "CUBE"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("graph interference {"), "{stdout}");
}

#[test]
fn compile_error_goes_to_stderr_with_line() {
    let path = write_temp("bad.ft", "SUBROUTINE S()\nX = @\nEND\n");
    let out = optimist(&["compile", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "stderr: {err}");
}

#[test]
fn heuristic_and_register_options_are_accepted() {
    let path = write_temp("cube6.ft", SAMPLE);
    let out = optimist(&[
        "allocate",
        path.to_str().unwrap(),
        "--strategy",
        "chaitin",
        "--float-regs",
        "4",
        "--remat",
        "--coalesce",
        "conservative",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("CUBE"));
}

#[test]
fn bad_option_is_reported() {
    let out = optimist(&["allocate", "whatever.ft", "--bogus"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn removed_options_are_unknown() {
    // The pre-`--strategy` selector and the intra-function thread knobs
    // are gone, not silently ignored.
    for (flag, value) in [
        ("--heuristic", "chaitin"),
        ("--graph-threads", "4"),
        ("--thread-budget", "8"),
    ] {
        let out = optimist(&["allocate", "whatever.ft", flag, value]);
        assert!(!out.status.success(), "{flag} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown option"), "{flag}: {err}");
        assert!(err.contains(flag), "{flag}: {err}");
    }
}
