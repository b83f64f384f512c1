//! Stable node fingerprints.
//!
//! Every DAG node is content-addressed by a 64-bit fingerprint of its
//! *own* inputs, derived with the same primitives the existing stores
//! use — a splitmix64 chain seeded per node kind, with strings folded in
//! through FNV-1a — so fingerprints are defined by this workspace and do
//! not change across Rust releases, platforms or process restarts.
//! Distinct node kinds use distinct seeds, so a stream fingerprint can
//! never collide with (say) the annotation node derived from it by
//! construction rather than by luck.

/// FNV-1a over a byte string; folded into splitmix chains so labels and
/// other strings contribute stably.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A splitmix64 fold chain — the builder behind every fingerprint in
/// this crate. Seeded per node kind; each folded word permutes the whole
/// state, so field order matters (and is part of each format's contract).
#[derive(Debug, Clone, Copy)]
pub struct Fold(u64);

impl Fold {
    /// Starts a chain from a kind-specific seed.
    pub fn new(seed: u64) -> Fold {
        Fold(seed)
    }

    /// Folds one word into the chain.
    pub fn u64(&mut self, v: u64) -> &mut Fold {
        self.0 = llc_sim::splitmix64(self.0 ^ v);
        self
    }

    /// Folds a string (via FNV-1a) into the chain.
    pub fn str(&mut self, s: &str) -> &mut Fold {
        self.u64(fnv1a64(s.as_bytes()))
    }

    /// The chain's current value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of an annotation node: the fused next-use/shared-soon
/// pre-pass over `stream_fp` with retention window `window`. Nothing
/// else feeds the backward scan, so nothing else is folded — an
/// annotation artifact survives any change to sibling replay nodes.
pub fn annotations_fp(stream_fp: u64, window: u64) -> u64 {
    Fold::new(0x4c4c_4344_414e_4e31) // "LLCDANN1"
        .u64(stream_fp)
        .u64(window)
        .finish()
}

/// Fingerprint of a shard-index node: `stream_fp` split into `shards`
/// contiguous ranges of `sets` sets. Indexes are memory-resident (they
/// rebuild for about the cost of loading the stream), but they are still
/// first-class plan nodes so `repro explain` shows when a replay will
/// pay an index build.
pub fn index_fp(stream_fp: u64, sets: u64, shards: u64) -> u64 {
    Fold::new(0x4c4c_4344_4944_5831) // "LLCDIDX1"
        .u64(stream_fp)
        .u64(sets)
        .u64(shards)
        .finish()
}

/// Fingerprint of a per-policy replay node: the [`crate::ReplayDesc`]
/// fingerprint applied to `stream_fp`. The stream fingerprint already
/// covers workload, thread count, scale and the full hierarchy geometry,
/// so the descriptor only needs to identify the policy configuration.
pub fn replay_fp(stream_fp: u64, desc_fp: u64) -> u64 {
    Fold::new(0x4c4c_4344_5250_4c31) // "LLCDRPL1"
        .u64(stream_fp)
        .u64(desc_fp)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FNV-1a reference vectors (offset basis, and one byte): every
    /// stored fingerprint folds labels through this function.
    #[test]
    fn fnv1a64_matches_reference_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn chains_are_order_sensitive_and_seed_separated() {
        assert_ne!(
            Fold::new(1).u64(2).u64(3).finish(),
            Fold::new(1).u64(3).u64(2).finish()
        );
        assert_ne!(annotations_fp(7, 0), replay_fp(7, 0));
        assert_ne!(annotations_fp(7, 0), index_fp(7, 0, 0));
    }

    #[test]
    fn derivations_are_pinned() {
        // Pinned values: these address on-disk artifacts, so any change
        // here silently invalidates every existing store.
        assert_eq!(
            annotations_fp(0x8641_6d06_bf56_88ce, 256),
            0x2e7a_0133_c5c6_75c5
        );
        assert_eq!(
            replay_fp(0x8641_6d06_bf56_88ce, 0xdead_beef),
            0x6f6e_a12f_e192_733f
        );
        assert_ne!(annotations_fp(1, 2), annotations_fp(2, 1));
    }
}
