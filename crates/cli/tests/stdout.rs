//! The binary's stdout handling: a reader that goes away early is a
//! normal end of a pipeline (`fairjob audit … | head`), not a crash.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    let out = std::env::temp_dir().join(format!("fairjob-stdout-{}.csv", std::process::id()));
    // `generate` builds the population before it prints its summary,
    // so the read end is gone by the time it writes.
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairjob"))
        .args(["generate", "--size", "20000", "--out"])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let done = child.wait_with_output().unwrap();
    let _ = std::fs::remove_file(&out);
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(done.status.code(), Some(0), "stderr: {stderr}");
}

#[test]
fn failed_stdout_write_is_an_io_error() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return; // no always-full device on this platform
    };
    let done = Command::new(env!("CARGO_BIN_EXE_fairjob"))
        .arg("help")
        .stdout(full)
        .output()
        .unwrap();
    assert_eq!(done.status.code(), Some(3));
}
