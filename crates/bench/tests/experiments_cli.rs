//! Bad `experiments` flags exit 2 with the usage text instead of
//! panicking deep inside a dataset generator or a sampler config, and a
//! scale too small for a window to hold a pair prints a row that says
//! so.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
}

#[test]
fn a_scale_that_is_not_positive_finite_or_u32_sized_exits_2() {
    for scale in ["0", "-1", "inf", "NaN", "1e9"] {
        assert_usage_error(&["table4", "--scale", scale]);
        assert_usage_error(&["row-granularity", "--scale", scale]);
    }
}

#[test]
fn a_window_that_is_not_positive_and_finite_exits_2() {
    for l in ["0", "-100", "inf", "NaN"] {
        assert_usage_error(&["table4", "--l", l]);
    }
}

#[test]
fn missing_unparsable_and_unknown_arguments_exit_2() {
    assert_usage_error(&[]);
    assert_usage_error(&["table4", "--scale"]);
    assert_usage_error(&["table4", "--t", "many"]);
    assert_usage_error(&["table4", "--bogus", "1"]);
    assert_usage_error(&["table5"]);
}

#[test]
fn an_empty_join_prints_a_row_and_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig5", "--scale", "0.0001", "--t", "100"])
        .output()
        .expect("the experiments binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let empty = stdout
        .lines()
        .find(|line| line.contains("empty join"))
        .unwrap_or_else(|| panic!("no empty-join row in:\n{stdout}"));
    assert!(empty.trim_start().starts_with("1 "), "{empty}");
    assert_eq!(empty.matches("empty join").count(), 3, "{empty}");
}
