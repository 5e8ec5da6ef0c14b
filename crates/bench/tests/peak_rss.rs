//! Per-scenario peak RSS: `run_scenario` resets the `VmHWM` mark when a
//! scenario starts, so a small scenario run after a large allocation
//! reports its own peak rather than the process's.

use rwbc_bench::perf::{peak_rss_bytes, run_scenario, Mode, Scenario, Topology};

#[test]
fn small_scenario_reports_its_own_peak() {
    if peak_rss_bytes().is_none() {
        // No proc filesystem: there is no peak to measure.
        return;
    }
    const BUFFER: u64 = 256 << 20;
    let buffer = vec![1u8; BUFFER as usize];
    std::hint::black_box(&buffer);
    drop(buffer);
    let before = peak_rss_bytes().expect("procfs present");
    assert!(before >= BUFFER, "the buffer was touched: peak {before}");
    let result = run_scenario(&Scenario::new(Mode::Clean, Topology::Er, 64, 1), 0, 1);
    let peak = result.peak_rss_bytes.expect("procfs present");
    assert!(
        peak < BUFFER,
        "scenario peak {peak} includes the freed buffer"
    );
}
