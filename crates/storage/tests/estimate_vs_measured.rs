//! Differential suite: table-scan estimates vs measured access counts.
//!
//! Each of 160 seeds draws three heaps — row counts from 0 to 257, row
//! widths from 9 to 64 bytes and four page sizes; two of the 480 heaps are
//! empty. On every heap the plan's `blocks_accessed()` /
//! `records_output()` estimates must agree **bit-exactly** with what
//! [`AccessStats`] counts and the scan yields. No tolerance: the heaps
//! are densely packed, so any disagreement is a bug in either the
//! estimator or the executor.

use ivdss_catalog::ids::TableId;
use ivdss_catalog::table::TableMeta;
use ivdss_storage::{AccessStats, TablePlan, TableStorage};

/// Splitmix64 — enough entropy to derive heaps, no vendored-rand needed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn heap(rng: &mut Rng, id: u32, name: &str) -> TableStorage {
    let rows = rng.below(258); // 0..=257, includes empty heaps
    let row_bytes = 9 + rng.below(56) as u32; // 9..=64 -> slot <= 65
    let page_size = [128usize, 256, 512, 1024][rng.below(4) as usize];
    let meta = TableMeta::new(TableId::new(id), name, rows, row_bytes);
    TableStorage::populate(&meta, rows, page_size, rng.next())
}

#[test]
fn estimates_match_measured_across_160_seeded_shapes() {
    let mut empty = 0;
    for seed in 0..160u64 {
        let mut rng = Rng::new(seed);
        let heaps = [
            heap(&mut rng, 0, "a"),
            heap(&mut rng, 1, "b"),
            heap(&mut rng, 2, "c"),
        ];
        for (i, h) in heaps.iter().enumerate() {
            empty += usize::from(h.live_records() == 0);
            let stats = AccessStats::new();
            let plan = TablePlan::new(h, &stats);
            let blocks_est = plan.blocks_accessed();
            let records_est = plan.records_output();
            let yielded = plan.open().count() as u64;
            let ctx = format!("seed {seed} heap {i}");
            assert_eq!(
                yielded, records_est,
                "{ctx}: output records diverged from estimate"
            );
            assert_eq!(
                stats.blocks(),
                blocks_est,
                "{ctx}: measured blocks diverged from estimate"
            );
            assert_eq!(stats.records(), records_est, "{ctx}");
        }
    }
    assert_eq!(empty, 2, "the seeds draw two empty heaps");
}
