//! Where `repro` writes its artifacts, and what it does when it cannot:
//! every artifact follows `--csv DIR`, and a failed write goes to stderr
//! with its path and makes the run exit non-zero once its output is
//! printed.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch working directory of this test's own: the perf log and
/// the default artifact directory are relative to the working directory.
fn scratch_dir(name: &str) -> PathBuf {
    let cwd = std::env::temp_dir().join(format!("repro-{name}-{}", std::process::id()));
    fs::create_dir_all(&cwd).expect("scratch directory is creatable");
    cwd
}

#[test]
fn a_failed_csv_write_exits_non_zero_and_names_the_path() {
    let cwd = scratch_dir("artifact-writes");
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

#[test]
fn artifacts_follow_the_csv_directory() {
    let cwd = scratch_dir("artifact-dir");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["hunt", "--budget", "6", "--jobs", "1", "--csv", "out"])
        .current_dir(&cwd)
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let exists = |path: &str| cwd.join(path).exists();
    let written = ["out/hunt.json", "out/hunt.csv"].map(exists);
    let stray = ["results/hunt.json", "results/hunt.csv"].map(exists);
    let perf_log = exists("results/perf_hunt.json");
    fs::remove_dir_all(&cwd).expect("scratch directory is removable");

    assert!(output.status.success(), "repro hunt failed:\n{stderr}");
    assert_eq!(written, [true, true], "hunt.json and hunt.csv go to --csv");
    assert_eq!(stray, [false, false], "nothing goes to results/ instead");
    // The wall-clock perf log is not an artifact: it stays under results/.
    assert!(perf_log, "the perf log stays in results/");
}
