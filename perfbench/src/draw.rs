//! Seeded draws. Every input the benchmark chooses — cell order, the
//! server-loop request stream with its fault seeds, and which results are
//! checked —
//! comes from one splitmix64 stream per purpose, derived from `--seed`, so
//! the same seed gives the same inputs on any host.

use avr_core::{BackendKind, DesignKind};
use avr_types::{BenchScale, CellSpec};
use avr_workloads::Workload;

/// Independent sub-streams of one benchmark seed.
pub mod stream {
    pub const ORDER: u64 = 1;
    pub const REQUESTS: u64 = 2;
    pub const CHECK: u64 = 3;
}

/// splitmix64: tiny, fast and well mixed; good enough for choosing inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `purpose` under benchmark seed `seed`.
    pub fn for_stream(seed: u64, purpose: u64) -> Rng {
        Rng(Rng(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct indices of `0..n` (all of them when `k >= n`), in
    /// ascending order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// Cycle `k` of the server-loop request stream: every (workload, layout
/// the workload supports, design) combination once, in a seeded order,
/// each with its own drawn fault seed. The backend rotates with the cycle,
/// so any [`BackendKind::ALL`]`.len()` consecutive cycles cover the whole
/// product once. Whole cycles keep the request mix the same for every
/// seed; only the order and the fault streams change.
pub fn server_cycle(suite: &[Box<dyn Workload>], k: usize, rng: &mut Rng) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for w in suite {
        for &layout in w.layouts() {
            for design in DesignKind::ALL {
                let backend = BackendKind::ALL[(cells.len() + k) % BackendKind::ALL.len()];
                cells.push(CellSpec {
                    scale: BenchScale::Tiny,
                    design,
                    layout,
                    backend: Some(backend),
                    ..CellSpec::new(w.name())
                });
            }
        }
    }
    rng.shuffle(&mut cells);
    for c in &mut cells {
        c.seed = Some(rng.next_u64());
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::LayoutKind;
    use avr_workloads::all_benchmarks;
    use std::collections::HashSet;

    fn supports(suite: &[Box<dyn Workload>], workload: &str, layout: LayoutKind) -> bool {
        suite.iter().any(|w| w.name() == workload && w.layouts().contains(&layout))
    }

    #[test]
    fn same_seed_same_draws_other_seed_other_draws() {
        let suite = all_benchmarks(BenchScale::Tiny);
        let a = server_cycle(&suite, 0, &mut Rng::for_stream(7, stream::REQUESTS));
        let b = server_cycle(&suite, 0, &mut Rng::for_stream(7, stream::REQUESTS));
        let c = server_cycle(&suite, 0, &mut Rng::for_stream(8, stream::REQUESTS));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r1 = Rng::for_stream(7, stream::ORDER);
        let mut r2 = Rng::for_stream(7, stream::ORDER);
        assert_eq!(r1.sample_indices(50, 8), r2.sample_indices(50, 8));
        // Streams of one seed are independent of each other.
        assert_ne!(
            Rng::for_stream(7, stream::ORDER).next_u64(),
            Rng::for_stream(7, stream::CHECK).next_u64()
        );
    }

    #[test]
    fn server_cycles_name_supported_layouts_and_cover_the_product() {
        let suite = all_benchmarks(BenchScale::Tiny);
        let combos: usize = suite.iter().map(|w| w.layouts().len()).sum::<usize>() * 7;
        for seed in 0..10 {
            let mut rng = Rng::for_stream(seed, stream::REQUESTS);
            let mut seen = HashSet::new();
            for k in 0..BackendKind::ALL.len() {
                let cycle = server_cycle(&suite, k, &mut rng);
                assert_eq!(cycle.len(), combos);
                for c in cycle {
                    assert!(
                        supports(&suite, &c.workload, c.layout),
                        "{} drawn with unsupported layout {:?}",
                        c.workload,
                        c.layout
                    );
                    assert!(c.seed.is_some());
                    assert!(seen.insert((c.workload, c.design, c.layout, c.backend)));
                }
            }
            assert_eq!(seen.len(), combos * BackendKind::ALL.len());
        }
    }

    #[test]
    fn below_and_sample_indices_stay_in_range() {
        let mut r = Rng::for_stream(3, 0);
        for n in 1..40 {
            assert!(r.below(n) < n);
        }
        let s = r.sample_indices(10, 4);
        assert_eq!(s.len(), 4);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s.iter().all(|&i| i < 10));
        assert_eq!(r.sample_indices(3, 9), vec![0, 1, 2]);
    }
}
