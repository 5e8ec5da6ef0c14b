//! The CLIs end with status 0 when their reader closes stdout early
//! (`rwbc-trace timeline FILE | head`), instead of panicking on the
//! broken pipe.

use std::io::Read;
use std::process::{Command, Stdio};

const PIPE_BUFFER: usize = 64 << 10;

#[test]
fn every_cli_exits_cleanly_when_stdout_is_already_closed() {
    let runs = [
        (env!("CARGO_BIN_EXE_rwbc-bench"), &["--list"][..]),
        (env!("CARGO_BIN_EXE_rwbc-chaos"), &["presets"]),
        (env!("CARGO_BIN_EXE_rwbc-replay"), &["--help"]),
        (env!("CARGO_BIN_EXE_rwbc-trace"), &["--help"]),
    ];
    for (bin, args) in runs {
        // The reader is gone before the child starts, so its first write
        // to stdout fails every time.
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run the CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{bin} {args:?}: status {:?}, stderr: {stderr}",
            out.status
        );
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn timeline_exits_cleanly_when_its_reader_goes_away() {
    let bin = env!("CARGO_BIN_EXE_rwbc-trace");
    let trace = format!("{}/closed_stdout.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let record = Command::new(bin)
        .args(["record", &trace, "--preset", "clean"])
        .output()
        .expect("run rwbc-trace record");
    assert!(
        record.status.success(),
        "{}",
        String::from_utf8_lossy(&record.stderr)
    );
    let timeline = || {
        let mut cmd = Command::new(bin);
        cmd.args(["timeline", &trace, "--limit", "1000000"]);
        cmd
    };
    // The whole timeline overflows the pipe buffer, so the writer is
    // still writing when the reader goes away.
    let whole = timeline().output().expect("run rwbc-trace timeline");
    assert!(whole.status.success());
    assert!(
        whole.stdout.len() > 2 * PIPE_BUFFER,
        "timeline prints only {} bytes",
        whole.stdout.len()
    );

    let mut child = timeline()
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rwbc-trace timeline");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 1];
    stdout.read_exact(&mut first).expect("the timeline starts");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for rwbc-trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
