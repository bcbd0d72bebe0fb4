//! Block-granular KV accounting for the serving layer.
//!
//! [`BlockLedger`] is the accounting the `tlt-serve` replicas admit against
//! under `KvAccounting::Paged`, and the layer the chaos invariants check.
//! Following PagedAttention, KV memory is counted in fixed-size blocks of
//! `block_size` tokens: a private footprint rounds up to whole blocks, a
//! shared prompt prefix ([`SharedGroup`]) is charged once however many running
//! requests reference it and stays resident as a prefix cache after its last
//! reference drops, and migrations in flight stay charged on both sides until
//! they land. The ledger holds counts, not KV rows: the token-level model
//! decodes through the contiguous [`crate::kv_cache::KvCache`].

/// Snapshot of a [`BlockLedger`]'s block accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolStats {
    /// Tokens per block.
    pub block_size: usize,
    /// Total blocks in the pool.
    pub capacity_blocks: usize,
    /// Blocks charged right now.
    pub in_use_blocks: usize,
    /// High-water mark of `in_use_blocks`.
    pub peak_in_use_blocks: usize,
}

impl PoolStats {
    /// Peak pool utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_blocks == 0 {
            0.0
        } else {
            self.peak_in_use_blocks as f64 / self.capacity_blocks as f64
        }
    }
}

/// One shared-prefix group tracked by a [`BlockLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedGroup {
    /// Caller-assigned prefix identifier.
    pub id: u64,
    /// Full blocks the resident prefix occupies.
    pub blocks: usize,
    /// Running requests currently referencing the prefix.
    pub refs: usize,
}

/// Block-granular KV accounting: the unified layer both the serving replicas
/// (which simulate KV by token counts) and the chaos invariants reason over.
///
/// Private footprints are rounded up to whole blocks; shared prefix groups
/// are charged once no matter how many running requests reference them, and
/// stay resident after their last reference drops (a prefix cache) until
/// [`BlockLedger::evict_unreferenced`] reclaims them under pressure or a
/// crash [`BlockLedger::reset`]s the pool.
#[derive(Debug, Clone)]
pub struct BlockLedger {
    block_size: usize,
    capacity_blocks: usize,
    private_blocks: usize,
    shared: Vec<SharedGroup>,
    /// The `blocks` of `shared`, summed (read on every step).
    shared_blocks: usize,
    inbound_blocks: usize,
    outbound_blocks: usize,
    peak_in_use: usize,
}

impl BlockLedger {
    /// Creates a ledger over `capacity_blocks` blocks of `block_size` tokens.
    pub fn new(block_size: usize, capacity_blocks: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        BlockLedger {
            block_size,
            capacity_blocks,
            private_blocks: 0,
            shared: Vec::new(),
            shared_blocks: 0,
            inbound_blocks: 0,
            outbound_blocks: 0,
            peak_in_use: 0,
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total blocks the ledger admits against.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Blocks needed for `tokens` tokens (partial-block rounding).
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_size)
    }

    /// Blocks held by resident shared groups.
    pub fn shared_blocks(&self) -> usize {
        self.shared_blocks
    }

    /// Blocks reserved for migrations still in flight toward this pool.
    pub fn inbound_blocks(&self) -> usize {
        self.inbound_blocks
    }

    /// Blocks still charged here for migrations in flight away from this pool.
    pub fn outbound_blocks(&self) -> usize {
        self.outbound_blocks
    }

    /// Blocks charged right now (private + resident shared + both migration
    /// directions). In-flight inbound reservations count as used so admission
    /// can never hand out blocks a landing transfer already owns.
    pub fn in_use_blocks(&self) -> usize {
        self.private_blocks + self.shared_blocks + self.inbound_blocks + self.outbound_blocks
    }

    /// Reserves `blocks` for a migration in flight toward this pool. The
    /// reservation is charged immediately — admission sees it as used — so a
    /// transfer landing mid-step can never over-commit the pool.
    pub fn reserve_inbound(&mut self, blocks: usize) {
        self.inbound_blocks += blocks;
        self.touch_peak();
    }

    /// Converts an inbound reservation into real usage: the transfer landed
    /// and its entry now counts in the caller's private footprint (the caller
    /// must follow up with [`BlockLedger::sync_private`]).
    pub fn commit_inbound(&mut self, blocks: usize) {
        assert!(
            self.inbound_blocks >= blocks,
            "inbound commit of {blocks} blocks exceeds {} reserved",
            self.inbound_blocks
        );
        self.inbound_blocks -= blocks;
    }

    /// Drops an inbound reservation without landing it (transfer aborted).
    pub fn cancel_inbound(&mut self, blocks: usize) {
        assert!(
            self.inbound_blocks >= blocks,
            "inbound cancel of {blocks} blocks exceeds {} reserved",
            self.inbound_blocks
        );
        self.inbound_blocks -= blocks;
    }

    /// Keeps `blocks` charged here while their sequence is in flight away from
    /// this pool (the entry has left the running set, so `sync_private` no
    /// longer covers it, but the storage is not free until the transfer lands).
    pub fn begin_outbound(&mut self, blocks: usize) {
        self.outbound_blocks += blocks;
        self.touch_peak();
    }

    /// Releases an outbound charge: the transfer landed remotely (or was
    /// aborted and its entry re-queued), so the source-side blocks are free.
    pub fn complete_outbound(&mut self, blocks: usize) {
        assert!(
            self.outbound_blocks >= blocks,
            "outbound completion of {blocks} blocks exceeds {} charged",
            self.outbound_blocks
        );
        self.outbound_blocks -= blocks;
    }

    /// High-water mark of charged blocks.
    pub fn peak_in_use_blocks(&self) -> usize {
        self.peak_in_use
    }

    /// Blocks of prefix `id` currently resident (0 when absent). Only this
    /// many blocks of a request's prefix hold materialised KV — a request
    /// whose clamped prefix is longer must compute (and charge) the rest.
    pub fn resident_blocks_of(&self, id: u64) -> usize {
        self.shared
            .iter()
            .find(|g| g.id == id)
            .map_or(0, |g| g.blocks)
    }

    /// The resident shared groups.
    pub fn shared_groups(&self) -> &[SharedGroup] {
        &self.shared
    }

    /// References a shared prefix of `blocks` full blocks and bumps its
    /// refcount. Blocks beyond the currently resident count are newly charged
    /// (a longer clamped prefix grows the group — its admitter computes that
    /// KV in its own prefill). Returns how many of the requested blocks were
    /// already resident: only that portion's KV can be reused.
    pub fn admit_shared(&mut self, id: u64, blocks: usize) -> usize {
        if let Some(g) = self.shared.iter_mut().find(|g| g.id == id) {
            let reused = blocks.min(g.blocks);
            self.shared_blocks += blocks - reused;
            g.blocks = g.blocks.max(blocks);
            g.refs += 1;
            self.touch_peak();
            reused
        } else {
            self.shared.push(SharedGroup {
                id,
                blocks,
                refs: 1,
            });
            self.shared_blocks += blocks;
            self.touch_peak();
            0
        }
    }

    /// Drops one reference to prefix `id`; the blocks stay resident for
    /// future hits.
    pub fn release_shared(&mut self, id: u64) {
        let g = self
            .shared
            .iter_mut()
            .find(|g| g.id == id)
            .expect("release of an unknown shared prefix");
        assert!(g.refs > 0, "shared prefix {id} released below zero");
        g.refs -= 1;
    }

    /// Evicts every resident group no running request references, returning
    /// the number of blocks freed (prefix-cache reclamation under pressure).
    pub fn evict_unreferenced(&mut self) -> usize {
        self.evict_unreferenced_except(None)
    }

    /// [`BlockLedger::evict_unreferenced`] sparing the group `keep` — used
    /// when reclaiming under admission pressure so the very prefix the
    /// incoming request wants to reuse is not wiped for zero net headroom.
    pub fn evict_unreferenced_except(&mut self, keep: Option<u64>) -> usize {
        let mut freed = 0;
        self.shared.retain(|g| {
            let kept = g.refs > 0 || Some(g.id) == keep;
            if !kept {
                freed += g.blocks;
            }
            kept
        });
        self.shared_blocks -= freed;
        freed
    }

    /// Blocks that would remain charged after evicting every unreferenced
    /// group — the leak detector the chaos harness asserts is zero after a
    /// full drain (with `sync_private(0)`).
    pub fn leaked_blocks(&self) -> usize {
        self.private_blocks
            + self.inbound_blocks
            + self.outbound_blocks
            + self
                .shared
                .iter()
                .filter(|g| g.refs > 0)
                .map(|g| g.blocks)
                .sum::<usize>()
    }

    /// Updates the private (per-request, unshared) block count to the
    /// caller's recomputed footprint and refreshes the peak.
    pub fn sync_private(&mut self, blocks: usize) {
        self.private_blocks = blocks;
        self.touch_peak();
    }

    fn touch_peak(&mut self) {
        self.peak_in_use = self.peak_in_use.max(self.in_use_blocks());
    }

    /// Frees everything (replica crash wipes the pool, resident prefixes
    /// included). The peak survives for accounting.
    pub fn reset(&mut self) {
        self.private_blocks = 0;
        self.shared.clear();
        self.shared_blocks = 0;
        self.inbound_blocks = 0;
        self.outbound_blocks = 0;
    }

    /// Peak pool utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.capacity_blocks == 0 {
            0.0
        } else {
            self.peak_in_use as f64 / self.capacity_blocks as f64
        }
    }

    /// Accounting snapshot in the shared [`PoolStats`] shape.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            block_size: self.block_size,
            capacity_blocks: self.capacity_blocks,
            in_use_blocks: self.in_use_blocks(),
            peak_in_use_blocks: self.peak_in_use,
        }
    }

    /// Conservation check: charges stay within capacity, every group holds at
    /// least one block, no duplicate prefix ids, the kept shared-block count
    /// equals the groups' sum, refcounts are coherent with `expected_refs`
    /// (total shared references held by running requests).
    pub fn check_conservation(&self, expected_refs: usize) -> Result<(), String> {
        let walked: usize = self.shared.iter().map(|g| g.blocks).sum();
        if walked != self.shared_blocks {
            return Err(format!(
                "shared groups hold {walked} blocks, {} counted",
                self.shared_blocks
            ));
        }
        for (i, g) in self.shared.iter().enumerate() {
            if g.blocks == 0 {
                return Err(format!("shared prefix {} holds zero blocks", g.id));
            }
            if self.shared[..i].iter().any(|o| o.id == g.id) {
                return Err(format!("shared prefix {} tracked twice", g.id));
            }
        }
        let refs: usize = self.shared.iter().map(|g| g.refs).sum();
        if refs != expected_refs {
            return Err(format!(
                "shared refcounts sum to {refs}, expected {expected_refs}"
            ));
        }
        if self.in_use_blocks() > self.capacity_blocks {
            return Err(format!(
                "{} blocks charged against a {}-block pool",
                self.in_use_blocks(),
                self.capacity_blocks
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_charges_shared_blocks_once_and_detects_leaks() {
        let mut l = BlockLedger::new(16, 64);
        assert_eq!(l.blocks_for(0), 0);
        assert_eq!(l.blocks_for(1), 1);
        assert_eq!(l.blocks_for(16), 1);
        assert_eq!(l.blocks_for(17), 2);

        assert_eq!(l.admit_shared(1, 8), 0, "first use materialises the prefix");
        assert_eq!(l.admit_shared(1, 8), 8, "second use reuses every block");
        assert_eq!(l.shared_blocks(), 8, "charged once");
        l.sync_private(10);
        assert_eq!(l.in_use_blocks(), 18);
        assert!(l.check_conservation(2).is_ok());
        assert!(l.check_conservation(1).is_err());

        // A longer clamped prefix grows the group: only the resident part is
        // reusable, the extension is newly charged.
        assert_eq!(l.admit_shared(1, 12), 8, "8 of 12 blocks reusable");
        assert_eq!(l.shared_blocks(), 12, "group grew by the 4 new blocks");
        assert_eq!(l.resident_blocks_of(1), 12);
        // A shorter prefix reuses entirely and never shrinks the group.
        assert_eq!(l.admit_shared(1, 4), 4);
        assert_eq!(l.shared_blocks(), 12);
        l.release_shared(1);
        l.release_shared(1);
        l.release_shared(1);
        l.release_shared(1);
        l.sync_private(0);
        assert_eq!(l.leaked_blocks(), 0, "unreferenced residents are not leaks");
        assert_eq!(l.in_use_blocks(), 12, "prefix stays resident for reuse");
        assert_eq!(l.evict_unreferenced(), 12);
        assert_eq!(l.in_use_blocks(), 0);
        assert_eq!(l.peak_in_use_blocks(), 22);
        assert!(l.utilization() > 0.0);
    }

    #[test]
    fn ledger_reset_models_a_crash() {
        let mut l = BlockLedger::new(16, 32);
        l.admit_shared(7, 4);
        l.sync_private(9);
        l.reset();
        assert_eq!(l.in_use_blocks(), 0);
        assert_eq!(l.resident_blocks_of(7), 0);
        assert_eq!(l.peak_in_use_blocks(), 13, "peak survives the crash");
    }

    #[test]
    fn ledger_charges_in_flight_migrations_in_both_directions() {
        let mut l = BlockLedger::new(16, 32);
        l.sync_private(4);
        l.reserve_inbound(6);
        assert_eq!(l.inbound_blocks(), 6);
        assert_eq!(l.in_use_blocks(), 10, "reservation is charged immediately");
        assert_eq!(
            l.leaked_blocks(),
            10,
            "in-flight blocks are not reclaimable"
        );
        assert!(l.check_conservation(0).is_ok());

        // Landing converts the reservation into private footprint.
        l.commit_inbound(6);
        l.sync_private(10);
        assert_eq!(l.inbound_blocks(), 0);
        assert_eq!(l.in_use_blocks(), 10);

        // Outbound: the sequence leaves the running set but stays charged
        // until the transfer lands remotely.
        l.begin_outbound(6);
        l.sync_private(4);
        assert_eq!(l.outbound_blocks(), 6);
        assert_eq!(l.in_use_blocks(), 10);
        l.complete_outbound(6);
        assert_eq!(l.in_use_blocks(), 4);

        // Aborted transfer: the reservation cancels cleanly.
        l.reserve_inbound(3);
        l.cancel_inbound(3);
        assert_eq!(l.inbound_blocks(), 0);
        assert_eq!(l.peak_in_use_blocks(), 16);

        // A crash wipes in-flight accounting with everything else.
        l.reserve_inbound(2);
        l.begin_outbound(2);
        l.reset();
        assert_eq!(l.in_use_blocks(), 0);
    }

    #[test]
    fn the_kept_shared_block_count_equals_the_walk_after_every_op() {
        let mut l = BlockLedger::new(16, 256);
        let mut refs = [0usize; 4];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        for op in 0..5_000 {
            let id = below(4);
            match below(10) {
                0..=3 => {
                    l.admit_shared(id as u64 + 1, 1 + below(12));
                    refs[id] += 1;
                }
                4..=6 if refs[id] > 0 => {
                    l.release_shared(id as u64 + 1);
                    refs[id] -= 1;
                }
                7 => {
                    l.evict_unreferenced();
                }
                8 => {
                    l.evict_unreferenced_except(Some(id as u64 + 1));
                }
                9 if below(20) == 0 => {
                    l.reset();
                    refs = [0; 4];
                }
                _ => l.sync_private(below(32)),
            }
            let walked: usize = l.shared_groups().iter().map(|g| g.blocks).sum();
            assert_eq!(l.shared_blocks(), walked, "op {op}");
            assert_eq!(l.check_conservation(refs.iter().sum()), Ok(()), "op {op}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn inbound_commit_beyond_reservation_panics() {
        let mut l = BlockLedger::new(16, 32);
        l.reserve_inbound(1);
        l.commit_inbound(2);
    }
}
