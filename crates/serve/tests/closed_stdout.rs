//! `rwbc-serve` ends with status 0 when its reader closes stdout early,
//! instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

use rwbc::distributed::StepSolver;
use rwbc_serve::SolverConfig;

#[test]
fn check_exits_cleanly_when_stdout_is_already_closed() {
    let config = SolverConfig::new(16, 1);
    let graph = config.graph.build();
    let solver = StepSolver::new(&graph, config.distributed_config()).expect("solver");
    let image = solver.checkpoint().expect("checkpoint image");
    let path = format!("{}/closed_stdout.ckpt", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, image).expect("write the image");
    // The reader is gone before the child starts, so its first write to
    // stdout fails.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rwbc-serve"))
        .args(["check", "--checkpoint", &path, "--n", "16", "--seed", "1"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run rwbc-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
