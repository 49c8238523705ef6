//! `repro` must not report success when it could not write an artifact:
//! the failed path goes to stderr and the run exits non-zero once its
//! output is printed.

use std::fs;
use std::process::Command;

#[test]
fn a_failed_csv_write_exits_non_zero_and_names_the_path() {
    // The perf log is written relative to the working directory, so run in
    // a scratch directory of our own.
    let cwd = std::env::temp_dir().join(format!("repro-artifact-writes-{}", std::process::id()));
    fs::create_dir_all(&cwd).expect("scratch directory is creatable");
    // A regular file where the CSV directory should be: every CSV write
    // under it fails.
    let csv_dir = cwd.join("not-a-directory");
    fs::write(&csv_dir, "a file, not a directory").expect("scratch file is writable");

    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2b", "--quick", "--csv"])
        .arg(&csv_dir)
        .current_dir(&cwd)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    fs::remove_dir_all(&cwd).expect("scratch directory is removable");

    assert!(
        !output.status.success(),
        "repro exited {:?} although its CSV write failed\nstderr: {stderr}",
        output.status.code()
    );
    let failed = csv_dir.join("fig2b.csv");
    assert!(
        stderr.contains(&failed.display().to_string()),
        "stderr does not name {}:\n{stderr}",
        failed.display()
    );
    // The experiment still ran and printed its table.
    assert!(stdout.contains("Fig. 2(b)"), "stdout: {stdout}");
}
