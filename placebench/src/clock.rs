//! The process's CPU clock: what the timed loops measure.
//!
//! On a shared host the wall clock also counts time the host gives to
//! other tenants (steal) and time spent waiting on a shared disk
//! (journal fsyncs). CPU time counts only the work this process did,
//! in every thread, so it is what the end-to-end throughputs divide by.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) used so far by all threads of this
/// process, with nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_not_with_sleep() {
        let t0 = process_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = process_cpu_s() - t0;
        let t1 = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t1 < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 0.05, "sleeping used {slept} CPU s");
        assert!(process_cpu_s() - t1 >= 0.05);
    }
}
