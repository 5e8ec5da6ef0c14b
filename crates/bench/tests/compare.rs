//! `rwbc-bench --compare` reports, after the speedup, whether the two
//! artifacts' fingerprints and phase breakdowns are identical, and both
//! peaks with their ratio.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The lines `rwbc-bench --compare` prints after its speedup line; it
/// must exit 0.
fn compare(baseline: &Path, current: &Path) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_rwbc-bench"))
        .arg("--compare")
        .args([baseline, current])
        .output()
        .expect("run rwbc-bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "status {:?}: {}{stdout}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines();
    assert!(
        lines.next().is_some_and(|l| l.contains("speedup")),
        "{stdout}"
    );
    lines.map(str::to_string).collect()
}

fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

#[test]
fn compare_reports_the_fingerprint_the_phases_and_the_peak() {
    let t1 = committed("BENCH_clean-er-n4096-t1.json");
    let t2 = committed("BENCH_clean-er-n4096-t2.json");
    assert_eq!(
        compare(&t1, &t2),
        [
            "fingerprint (rounds, total_messages, total_bits): identical \
             (4184, 210380973, 5257439115)",
            "phase_breakdown: identical",
            "peak_rss_bytes: baseline 180797440  current 182910976  current/baseline 1.012",
        ]
    );

    // Another fingerprint and no peak on one side are reported, not
    // errors.
    let moved = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare-moved.json");
    let text = std::fs::read_to_string(&t2)
        .unwrap()
        .replace(r#""rounds":4184"#, r#""rounds":4185"#)
        .replace(r#""rounds":4096"#, r#""rounds":4097"#)
        .replace(r#""peak_rss_bytes":182910976"#, r#""peak_rss_bytes":null"#);
    std::fs::write(&moved, text).unwrap();
    assert_eq!(
        compare(&t1, &moved),
        [
            "fingerprint (rounds, total_messages, total_bits): baseline \
             (4184, 210380973, 5257439115)  current (4185, 210380973, 5257439115)",
            "phase_breakdown: differs",
            "peak_rss_bytes: n/a",
        ]
    );
}
