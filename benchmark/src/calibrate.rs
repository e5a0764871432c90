//! Host-speed calibration.
//!
//! On a shared 2-core VM identical work takes 0.33–0.55 s depending on
//! what the neighbours do, in phases that last seconds; no statistic of
//! raw times taken inside one ten-second run repeats within a tenth. A
//! fixed kernel that calls nothing of the program slows down with the
//! program, so the harness runs it beside every timed section and reports
//! times divided by how much slower than nominal the kernel ran. Over 39
//! ten-second windows of one process the median raw iteration time had an
//! interquartile spread of 8.7% of its median, the normalised one 2.7%.
//!
//! The kernel is three loops, one per way a neighbour can hurt: integer
//! mixing (issue ports, clock), a dependent pointer chase over 16 MiB
//! (cache and memory latency) and a sort (branches, bandwidth). Each is
//! divided by its own nominal time and the three ratios are averaged.

use std::hint::black_box;
use std::time::Instant;

/// Seconds each loop takes on the host the nominal values were read on
/// (2-core Xeon at 2.1 GHz, quiet). They only fix the scale of the
/// reported times; any change is judged against a parent run with the
/// same constants.
const NOMINAL_S: [f64; 3] = [0.0135, 0.0400, 0.0055];

const ALU_ROUNDS: u64 = 10_000_000;
const CHASE_ENTRIES: usize = 4 << 20;
const CHASE_STEPS: usize = 300_000;
const SORT_ENTRIES: usize = 300_000;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_ADD: u64 = 1_442_695_040_888_963_407;

/// The calibration kernel and its working memory.
pub struct Calibrator {
    /// One cycle through every entry, in an order no prefetcher follows.
    next: Vec<u32>,
    sort_buf: Vec<u64>,
}

impl Calibrator {
    /// Builds the pointer-chase cycle (Sattolo's shuffle, fixed seed).
    pub fn new() -> Calibrator {
        let n = CHASE_ENTRIES;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut z = 7u64;
        for i in (1..n).rev() {
            z = z.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            order.swap(i, (z >> 33) as usize % i);
        }
        let mut next = vec![0u32; n];
        for i in 0..n {
            next[order[i] as usize] = order[(i + 1) % n];
        }
        Calibrator {
            next,
            sort_buf: vec![0; SORT_ENTRIES],
        }
    }

    /// Runs the kernel once (about 60 ms) and returns how slow the host is
    /// right now: 1.0 at nominal speed, 1.3 when everything takes 30% longer.
    pub fn slowness(&mut self) -> f64 {
        let t = Instant::now();
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..black_box(ALU_ROUNDS) {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc ^= x ^ (x >> 31);
        }
        black_box(acc);
        let alu = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut at = 0u32;
        for _ in 0..black_box(CHASE_STEPS) {
            at = self.next[at as usize];
        }
        black_box(at);
        let chase = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut z = 1u64;
        for slot in &mut self.sort_buf {
            z = z.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            *slot = z;
        }
        self.sort_buf.sort_unstable();
        black_box(self.sort_buf[SORT_ENTRIES / 2]);
        let sort = t.elapsed().as_secs_f64();

        (alu / NOMINAL_S[0] + chase / NOMINAL_S[1] + sort / NOMINAL_S[2]) / 3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_cycle() {
        let cal = Calibrator::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = cal.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_ENTRIES);
    }

    #[test]
    fn slowness_is_positive_and_finite() {
        let s = Calibrator::new().slowness();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
