//! Order statistics, output digests and the seeded generator that makes
//! every workload's inputs.

use llc_dag::Fold;
use llc_sharing::Table;
use llc_sim::splitmix64;

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Seed of the table-digest chain.
const TABLES_SEED: u64 = 0x7065_7266_7461_626c; // "perftabl"

/// Order-insensitive digest of a rendered table set: each table's title,
/// headers, rows and notes are folded into one chain, rows and notes
/// sorted, so a seeded app order does not change the digest while any
/// changed cell does.
pub fn tables_digest(tables: &[Table]) -> u64 {
    let mut fold = Fold::new(TABLES_SEED);
    for t in tables {
        fold.str(&t.title).str(&t.headers.join("\x1f"));
        let mut rows: Vec<String> = t.rows.iter().map(|r| r.join("\x1f")).collect();
        rows.sort();
        let mut notes = t.notes.clone();
        notes.sort();
        fold.u64(rows.len() as u64);
        for line in rows.iter().chain(&notes) {
            fold.str(line);
        }
        fold.u64(notes.len() as u64);
    }
    fold.finish()
}

/// A SplitMix64 sequence: the benchmark's only source of randomness, so
/// one seed fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads
    /// sharing a seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let draw = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        draw
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_ignores_row_order_but_not_cells() {
        let mut a = Table::new("t", &["app", "x"]);
        a.row(vec!["fft".into(), "1.0".into()]);
        a.row(vec!["dedup".into(), "2.0".into()]);
        let mut b = Table::new("t", &["app", "x"]);
        b.row(vec!["dedup".into(), "2.0".into()]);
        b.row(vec!["fft".into(), "1.0".into()]);
        assert_eq!(tables_digest(&[a.clone()]), tables_digest(&[b]));
        let mut c = a.clone();
        c.rows[0][1] = "1.1".into();
        assert_ne!(tables_digest(&[a]), tables_digest(&[c]));
    }

    #[test]
    fn rng_is_seeded() {
        let draws = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }
}
