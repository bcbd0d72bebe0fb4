//! Selective asynchronous checkpointing of the draft model (§4.2).
//!
//! The spot trainer is preemptible: when rollout finishes, drafter training is halted
//! immediately, so frequent checkpoints are needed to avoid losing progress. The
//! paper's two optimisations are reproduced here:
//!
//! * **Asynchronous** — serialisation happens on a background thread; the training
//!   thread only pays for snapshotting the (small) trainable state.
//! * **Selective** — frozen tied weights (embedding, LM head) are filtered out and
//!   only the trainable fusion + decoder-layer parameters are written.
//!
//! Checkpoints are written into an in-memory byte store rather than the filesystem so
//! the behaviour is deterministic and testable; the blocking-time accounting is the
//! quantity compared in Figure 17(a).

use crate::model::DraftModel;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tlt_model::{Mat, TinyLm};

/// Checkpointing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointMode {
    /// Serialise everything (drafter + tied frozen weights) on the calling thread.
    VanillaSync,
    /// Serialise everything, but on a background thread.
    Async,
    /// Serialise only the trainable drafter parameters, on a background thread.
    SelectiveAsync,
}

impl CheckpointMode {
    /// All modes, in the order of Figure 17(a).
    pub fn all() -> [CheckpointMode; 3] {
        [
            CheckpointMode::VanillaSync,
            CheckpointMode::Async,
            CheckpointMode::SelectiveAsync,
        ]
    }

    /// Display name matching the figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointMode::VanillaSync => "Vanilla Ckpt",
            CheckpointMode::Async => "Async Ckpt",
            CheckpointMode::SelectiveAsync => "Selective Async Ckpt",
        }
    }
}

/// Outcome of a checkpoint request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointReport {
    /// Time the *training thread* was blocked, in microseconds.
    pub blocking_us: u64,
    /// Bytes written to the store.
    pub bytes_written: usize,
    /// Whether serialisation happened on a background thread.
    pub asynchronous: bool,
}

/// Serialises a matrix as little-endian f32s prefixed by its shape.
fn write_mat(buf: &mut BytesMut, mat: &Mat) {
    buf.extend_from_slice(&(mat.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(mat.cols() as u64).to_le_bytes());
    for &v in mat.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn write_vec(buf: &mut BytesMut, values: &[f32]) {
    buf.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encoded length of [`write_mat`]'s output.
fn mat_len(mat: &Mat) -> usize {
    16 + 4 * mat.rows() * mat.cols()
}

/// Length of [`serialize_trainable`]'s output, from the shapes alone.
fn trainable_len(drafter: &DraftModel) -> usize {
    let layer = &drafter.layer;
    let mats = [
        &drafter.fusion.weight,
        &layer.wq,
        &layer.wk,
        &layer.wv,
        &layer.wo,
        &layer.w_gate,
        &layer.w_up,
        &layer.w_down,
    ];
    let norms = 2 * 8 + 4 * (layer.attn_norm.len() + layer.mlp_norm.len());
    8 + norms + mats.into_iter().map(mat_len).sum::<usize>()
}

/// Length of what [`serialize_full`] appends to the trainable state.
fn frozen_len(target: &TinyLm) -> usize {
    mat_len(&target.embedding) + mat_len(&target.lm_head) + 8 + 4 * target.final_norm.len()
}

/// Serialises only the trainable drafter state.
pub fn serialize_trainable(drafter: &DraftModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.extend_from_slice(&drafter.version.to_le_bytes());
    write_mat(&mut buf, &drafter.fusion.weight);
    let layer = &drafter.layer;
    write_vec(&mut buf, &layer.attn_norm);
    write_mat(&mut buf, &layer.wq);
    write_mat(&mut buf, &layer.wk);
    write_mat(&mut buf, &layer.wv);
    write_mat(&mut buf, &layer.wo);
    write_vec(&mut buf, &layer.mlp_norm);
    write_mat(&mut buf, &layer.w_gate);
    write_mat(&mut buf, &layer.w_up);
    write_mat(&mut buf, &layer.w_down);
    buf.freeze()
}

/// Serialises the drafter plus the tied frozen weights of the target (what a
/// non-selective checkpoint of the drafter process would write).
pub fn serialize_full(drafter: &DraftModel, target: &TinyLm) -> Bytes {
    let mut buf = BytesMut::from(&serialize_trainable(drafter)[..]);
    let mut extra = BytesMut::new();
    write_mat(&mut extra, &target.embedding);
    write_mat(&mut extra, &target.lm_head);
    write_vec(&mut extra, &target.final_norm);
    buf.extend_from_slice(&extra);
    buf.freeze()
}

/// Why a checkpoint was rejected by validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointError {
    /// The byte stream ends before the declared structure does.
    Truncated,
    /// A declared dimension is implausibly large for the byte stream (a corrupt
    /// shape header would otherwise ask for a huge allocation).
    ShapeOverflow,
    /// A weight decoded to NaN or infinity.
    NonFinite,
    /// Extra bytes remain after the last tensor.
    TrailingBytes,
    /// The checkpoint is structurally valid but its tensor shapes do not match
    /// the drafter it is being restored into.
    ShapeMismatch,
    /// The checkpoint's version is not newer than the drafter's (stale swap).
    Stale,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckpointError::Truncated => "truncated checkpoint",
            CheckpointError::ShapeOverflow => "corrupt shape header",
            CheckpointError::NonFinite => "non-finite weight",
            CheckpointError::TrailingBytes => "trailing bytes after last tensor",
            CheckpointError::ShapeMismatch => "tensor shapes do not match the drafter",
            CheckpointError::Stale => "checkpoint is not newer than the current drafter",
        };
        f.write_str(s)
    }
}

/// A bounds- and finiteness-checked reader over the checkpoint wire format.
struct Cursor<'a> {
    data: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, offset: 0 }
    }

    fn read_u64(&mut self) -> Result<u64, CheckpointError> {
        let end = self
            .offset
            .checked_add(8)
            .ok_or(CheckpointError::Truncated)?;
        if end > self.data.len() {
            return Err(CheckpointError::Truncated);
        }
        let v = u64::from_le_bytes(self.data[self.offset..end].try_into().expect("8 bytes"));
        self.offset = end;
        Ok(v)
    }

    /// Reads `count` little-endian f32s, rejecting non-finite values.
    fn read_f32s(&mut self, count: usize) -> Result<Vec<f32>, CheckpointError> {
        let bytes = count.checked_mul(4).ok_or(CheckpointError::ShapeOverflow)?;
        let end = self
            .offset
            .checked_add(bytes)
            .ok_or(CheckpointError::ShapeOverflow)?;
        if end > self.data.len() {
            return Err(CheckpointError::Truncated);
        }
        let mut values = Vec::with_capacity(count);
        while self.offset < end {
            let v = f32::from_le_bytes(
                self.data[self.offset..self.offset + 4]
                    .try_into()
                    .expect("4 bytes"),
            );
            if !v.is_finite() {
                return Err(CheckpointError::NonFinite);
            }
            values.push(v);
            self.offset += 4;
        }
        Ok(values)
    }

    fn read_mat(&mut self) -> Result<Mat, CheckpointError> {
        let rows = self.read_u64()? as usize;
        let cols = self.read_u64()? as usize;
        let count = rows
            .checked_mul(cols)
            .ok_or(CheckpointError::ShapeOverflow)?;
        let values = self.read_f32s(count)?;
        Ok(Mat::from_vec(rows, cols, values))
    }

    fn read_vec(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let len = self.read_u64()? as usize;
        self.read_f32s(len)
    }

    fn finish(&self) -> Result<(), CheckpointError> {
        if self.offset == self.data.len() {
            Ok(())
        } else {
            Err(CheckpointError::TrailingBytes)
        }
    }
}

/// The trainable state decoded (and validated) from a checkpoint.
struct DecodedTrainable {
    version: u64,
    fusion_weight: Mat,
    attn_norm: Vec<f32>,
    wq: Mat,
    wk: Mat,
    wv: Mat,
    wo: Mat,
    mlp_norm: Vec<f32>,
    w_gate: Mat,
    w_up: Mat,
    w_down: Mat,
}

fn decode_trainable(data: &[u8]) -> Result<DecodedTrainable, CheckpointError> {
    let mut cur = Cursor::new(data);
    let decoded = DecodedTrainable {
        version: cur.read_u64()?,
        fusion_weight: cur.read_mat()?,
        attn_norm: cur.read_vec()?,
        wq: cur.read_mat()?,
        wk: cur.read_mat()?,
        wv: cur.read_mat()?,
        wo: cur.read_mat()?,
        mlp_norm: cur.read_vec()?,
        w_gate: cur.read_mat()?,
        w_up: cur.read_mat()?,
        w_down: cur.read_mat()?,
    };
    cur.finish()?;
    Ok(decoded)
}

/// Validates a [`serialize_trainable`] byte stream without restoring it: checks
/// structure (every tensor fully present, nothing trailing) and weight
/// finiteness. Returns the checkpoint's version on success.
pub fn validate_trainable(data: &[u8]) -> Result<u64, CheckpointError> {
    decode_trainable(data).map(|d| d.version)
}

/// Validates `data` and restores it into `drafter` only if every check passes —
/// on any error the drafter is left untouched (no partial restore). Shapes must
/// match the drafter's current geometry. Returns the restored version.
pub fn try_restore_trainable(
    drafter: &mut DraftModel,
    data: &[u8],
) -> Result<u64, CheckpointError> {
    let d = decode_trainable(data)?;
    install_decoded(drafter, d)
}

/// Shape-checks an already decoded checkpoint against `drafter` and moves the
/// tensors in (no copy). On mismatch the drafter is untouched.
fn install_decoded(drafter: &mut DraftModel, d: DecodedTrainable) -> Result<u64, CheckpointError> {
    let shape = |m: &Mat| (m.rows(), m.cols());
    let layer = &drafter.layer;
    let matches = shape(&d.fusion_weight) == shape(&drafter.fusion.weight)
        && d.attn_norm.len() == layer.attn_norm.len()
        && shape(&d.wq) == shape(&layer.wq)
        && shape(&d.wk) == shape(&layer.wk)
        && shape(&d.wv) == shape(&layer.wv)
        && shape(&d.wo) == shape(&layer.wo)
        && d.mlp_norm.len() == layer.mlp_norm.len()
        && shape(&d.w_gate) == shape(&layer.w_gate)
        && shape(&d.w_up) == shape(&layer.w_up)
        && shape(&d.w_down) == shape(&layer.w_down);
    if !matches {
        return Err(CheckpointError::ShapeMismatch);
    }
    drafter.version = d.version;
    drafter.fusion.weight = d.fusion_weight;
    drafter.layer.attn_norm = d.attn_norm;
    drafter.layer.wq = d.wq;
    drafter.layer.wk = d.wk;
    drafter.layer.wv = d.wv;
    drafter.layer.wo = d.wo;
    drafter.layer.mlp_norm = d.mlp_norm;
    drafter.layer.w_gate = d.w_gate;
    drafter.layer.w_up = d.w_up;
    drafter.layer.w_down = d.w_down;
    Ok(d.version)
}

/// An in-memory checkpoint store shared with background serialisation threads.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// The completed checkpoint with the highest drafter version, with that
    /// version: background writers finish in any order.
    latest: Arc<Mutex<Option<(u64, Bytes)>>>,
    pending: Vec<JoinHandle<()>>,
}

/// Keeps `data` as the latest checkpoint unless a newer version is held.
fn store_latest(slot: &Mutex<Option<(u64, Bytes)>>, version: u64, data: Bytes) {
    let mut latest = slot.lock();
    if latest.as_ref().is_none_or(|(held, _)| *held <= version) {
        *latest = Some((version, data));
    }
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Latest completed checkpoint, if any (waits for background writes first).
    pub fn latest(&mut self) -> Option<Bytes> {
        self.wait_for_pending();
        self.latest.lock().as_ref().map(|(_, data)| data.clone())
    }

    /// Blocks until all background writes have completed.
    pub fn wait_for_pending(&mut self) {
        for handle in self.pending.drain(..) {
            let _ = handle.join();
        }
    }

    /// Serialises version `version` with `serialize` on a background thread and
    /// offers the result to `latest`.
    fn write_in_background(
        &mut self,
        version: u64,
        serialize: impl FnOnce() -> Bytes + Send + 'static,
    ) {
        let slot = Arc::clone(&self.latest);
        let writer = std::thread::spawn(move || store_latest(&slot, version, serialize()));
        self.pending.push(writer);
    }

    /// Takes a checkpoint of `drafter` under `mode`, returning how long the calling
    /// (training) thread was blocked.
    pub fn checkpoint(
        &mut self,
        mode: CheckpointMode,
        drafter: &DraftModel,
        target: &TinyLm,
    ) -> CheckpointReport {
        let start = Instant::now();
        match mode {
            CheckpointMode::VanillaSync => {
                let data = serialize_full(drafter, target);
                let bytes_written = data.len();
                store_latest(&self.latest, drafter.version, data);
                CheckpointReport {
                    blocking_us: start.elapsed().as_micros() as u64,
                    bytes_written,
                    asynchronous: false,
                }
            }
            CheckpointMode::Async | CheckpointMode::SelectiveAsync => {
                // Blocking portion: clone the state the background thread needs.
                let drafter_snapshot = drafter.clone();
                let target_snapshot = if mode == CheckpointMode::Async {
                    Some(target.clone())
                } else {
                    None
                };
                let blocking_us = start.elapsed().as_micros() as u64;
                // The length is a function of the shapes: nothing is
                // serialised on the calling thread.
                let frozen = target_snapshot.as_ref().map_or(0, frozen_len);
                let bytes_written = trainable_len(drafter) + frozen;
                self.write_in_background(drafter.version, move || match &target_snapshot {
                    Some(t) => serialize_full(&drafter_snapshot, t),
                    None => serialize_trainable(&drafter_snapshot),
                });
                CheckpointReport {
                    blocking_us,
                    bytes_written,
                    asynchronous: true,
                }
            }
        }
    }
}

impl Drop for CheckpointStore {
    fn drop(&mut self) {
        self.wait_for_pending();
    }
}

/// Outcome of offering a candidate checkpoint to a [`DrafterVault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapOutcome {
    /// The candidate validated, was newer, and is now live.
    Swapped {
        /// Version of the adopted checkpoint.
        version: u64,
    },
    /// The candidate failed validation; the current drafter was kept.
    RejectedCorrupt {
        /// Why validation failed.
        error: CheckpointError,
    },
    /// The candidate validated but is not newer than the live drafter.
    RejectedStale {
        /// The candidate's version.
        candidate: u64,
        /// The live drafter's version.
        current: u64,
    },
}

/// Guards the serving drafter against bad checkpoints: every candidate is
/// validated (structure, finiteness, shape, freshness) before it goes live, and
/// the last known-good serialized state is retained so a drafter whose in-memory
/// weights are damaged can be rolled back bit-exactly. Speculative decoding is
/// lossless with *any* drafter, so the vault's job is availability, not
/// correctness: it keeps the acceptance rate from collapsing to garbage weights
/// while the rejection-sampling verifier keeps outputs exact either way.
#[derive(Debug, Default)]
pub struct DrafterVault {
    last_good: Option<Bytes>,
    last_good_version: u64,
    swaps: u64,
    rejected_corrupt: u64,
    rejected_stale: u64,
    rollbacks: u64,
}

impl DrafterVault {
    /// An empty vault (no known-good state yet).
    pub fn new() -> Self {
        DrafterVault::default()
    }

    /// Records `drafter`'s current trainable state as the last known-good
    /// checkpoint. Returns its version.
    pub fn commit(&mut self, drafter: &DraftModel) -> u64 {
        self.last_good = Some(serialize_trainable(drafter));
        self.last_good_version = drafter.version;
        drafter.version
    }

    /// Version of the last committed known-good state (0 before any commit).
    pub fn last_good_version(&self) -> u64 {
        self.last_good_version
    }

    /// Offers a candidate checkpoint: validated and restored into `drafter`
    /// only if it is structurally sound, finite, shape-compatible, and strictly
    /// newer than the live drafter. A rejected candidate leaves the drafter
    /// untouched. A swapped candidate becomes the new last-good state.
    pub fn try_swap(&mut self, drafter: &mut DraftModel, candidate: &[u8]) -> SwapOutcome {
        // One decode covers validation, the staleness gate, and the install
        // (the decoded tensors move into the drafter without re-parsing).
        let decoded = match decode_trainable(candidate) {
            Ok(d) => d,
            Err(error) => {
                self.rejected_corrupt += 1;
                return SwapOutcome::RejectedCorrupt { error };
            }
        };
        if decoded.version <= drafter.version {
            self.rejected_stale += 1;
            return SwapOutcome::RejectedStale {
                candidate: decoded.version,
                current: drafter.version,
            };
        }
        match install_decoded(drafter, decoded) {
            Ok(v) => {
                self.swaps += 1;
                self.last_good = Some(Bytes::copy_from_slice(candidate));
                self.last_good_version = v;
                SwapOutcome::Swapped { version: v }
            }
            Err(error) => {
                self.rejected_corrupt += 1;
                SwapOutcome::RejectedCorrupt { error }
            }
        }
    }

    /// Rolls `drafter` back to the last known-good state (bit-exact). Returns
    /// `false` (leaving the drafter untouched) when nothing was ever committed.
    pub fn restore_last_good(&mut self, drafter: &mut DraftModel) -> bool {
        match &self.last_good {
            Some(data) => {
                try_restore_trainable(drafter, data).expect("committed state is valid");
                self.rollbacks += 1;
                true
            }
            None => false,
        }
    }

    /// Counters: `(swaps, rejected_corrupt, rejected_stale, rollbacks)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.swaps,
            self.rejected_corrupt,
            self.rejected_stale,
            self.rollbacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FeatureSource;
    use tlt_model::ModelConfig;

    fn setup() -> (TinyLm, DraftModel) {
        let target = TinyLm::new(ModelConfig::tiny(), 11);
        let drafter = DraftModel::new(&target, FeatureSource::LastLayer, 1);
        (target, drafter)
    }

    #[test]
    fn trainable_roundtrip_restores_exactly() {
        let (target, mut drafter) = setup();
        drafter.version = 42;
        let data = serialize_trainable(&drafter);
        let mut restored = DraftModel::new(&target, FeatureSource::LastLayer, 99);
        try_restore_trainable(&mut restored, &data).expect("a valid checkpoint");
        assert_eq!(restored.version, 42);
        assert_eq!(restored.fusion.weight, drafter.fusion.weight);
        assert_eq!(restored.layer, drafter.layer);
    }

    #[test]
    fn selective_checkpoint_is_much_smaller_than_full() {
        let (target, drafter) = setup();
        let selective = serialize_trainable(&drafter).len();
        let full = serialize_full(&drafter, &target).len();
        // With the tiny substrate vocabulary the tied embedding/LM-head add ~50%
        // on top of the trainable state; with a real 150K-entry vocabulary the gap
        // is far larger (the paper reports a combined 9.2x checkpoint-latency win).
        assert!(
            full as f64 > 1.2 * selective as f64,
            "full {full} should exceed selective {selective}"
        );
    }

    #[test]
    fn async_modes_report_background_write() {
        let (target, drafter) = setup();
        let mut store = CheckpointStore::new();
        let sync = store.checkpoint(CheckpointMode::VanillaSync, &drafter, &target);
        assert!(!sync.asynchronous);
        let selective = store.checkpoint(CheckpointMode::SelectiveAsync, &drafter, &target);
        assert!(selective.asynchronous);
        assert_eq!(selective.bytes_written, serialize_trainable(&drafter).len());
        let full = store.checkpoint(CheckpointMode::Async, &drafter, &target);
        assert_eq!(full.bytes_written, sync.bytes_written);
        assert_eq!(sync.bytes_written, serialize_full(&drafter, &target).len());
        store.wait_for_pending();
        assert!(store.latest().is_some());
    }

    /// A preempted spot trainer must be handed the newest version it wrote,
    /// whatever order the background writers finish in: the writer of version
    /// 1 is held at a gate until the writer of version 2 has stored its bytes.
    #[test]
    fn latest_checkpoint_is_the_highest_version_when_an_older_writer_finishes_last() {
        let (_, mut drafter) = setup();
        let mut store = CheckpointStore::new();
        let (gate, held) = std::sync::mpsc::channel::<()>();
        drafter.version = 1;
        let old = serialize_trainable(&drafter);
        store.write_in_background(1, move || {
            held.recv().expect("the test opens the gate");
            old
        });
        drafter.version = 2;
        let new = serialize_trainable(&drafter);
        let expected = new.clone();
        store.write_in_background(2, move || new);
        let second = store.pending.pop().expect("two writers pending");
        second.join().expect("writer of version 2");
        gate.send(()).expect("writer of version 1 is waiting");
        assert_eq!(store.latest(), Some(expected));
    }

    #[test]
    fn checkpoint_modes_have_names() {
        for mode in CheckpointMode::all() {
            assert!(!mode.name().is_empty());
        }
    }

    #[test]
    fn validation_accepts_good_and_rejects_corrupt_checkpoints() {
        let (_, mut drafter) = setup();
        drafter.version = 9;
        let good = serialize_trainable(&drafter);
        assert_eq!(validate_trainable(&good), Ok(9));

        // Truncation anywhere in the stream is caught.
        assert_eq!(
            validate_trainable(&good[..good.len() - 3]),
            Err(CheckpointError::Truncated)
        );
        assert_eq!(
            validate_trainable(&good[..4]),
            Err(CheckpointError::Truncated)
        );

        // Trailing garbage is caught.
        let mut trailing = good.to_vec();
        trailing.extend_from_slice(&[0u8; 5]);
        assert_eq!(
            validate_trainable(&trailing),
            Err(CheckpointError::TrailingBytes)
        );

        // A NaN weight is caught (flip a payload float to NaN).
        let mut nan = good.to_vec();
        let weight_offset = 8 + 16; // version + fusion shape header
        nan[weight_offset..weight_offset + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(validate_trainable(&nan), Err(CheckpointError::NonFinite));

        // A corrupted shape header asks for data the stream cannot hold.
        let mut bad_shape = good.to_vec();
        bad_shape[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(validate_trainable(&bad_shape).is_err());
    }

    #[test]
    fn try_restore_rejects_shape_mismatch_without_touching_the_drafter() {
        let (_, tiny) = setup();
        let micro_target = TinyLm::new(ModelConfig::micro(), 13);
        let mut micro = DraftModel::new(&micro_target, FeatureSource::LastLayer, 14);
        let before = micro.clone();
        let data = serialize_trainable(&tiny);
        assert_eq!(
            try_restore_trainable(&mut micro, &data),
            Err(CheckpointError::ShapeMismatch)
        );
        assert_eq!(micro, before, "no partial restore on rejection");
    }

    #[test]
    fn vault_swaps_newer_rejects_stale_and_corrupt() {
        let (target, mut live) = setup();
        live.version = 5;
        let mut vault = DrafterVault::new();
        vault.commit(&live);

        // A newer checkpoint swaps in and becomes the last-good state.
        let mut newer = DraftModel::new(&target, FeatureSource::LastLayer, 3);
        newer.version = 6;
        let candidate = serialize_trainable(&newer);
        assert_eq!(
            vault.try_swap(&mut live, &candidate),
            SwapOutcome::Swapped { version: 6 }
        );
        assert_eq!(live.version, 6);
        assert_eq!(live.layer, newer.layer);
        assert_eq!(vault.last_good_version(), 6);

        // A stale checkpoint (same or older version) is rejected.
        let mut stale = DraftModel::new(&target, FeatureSource::LastLayer, 4);
        stale.version = 6;
        let outcome = vault.try_swap(&mut live, &serialize_trainable(&stale));
        assert_eq!(
            outcome,
            SwapOutcome::RejectedStale {
                candidate: 6,
                current: 6
            }
        );
        assert_eq!(live.layer, newer.layer, "stale swap leaves drafter intact");

        // A corrupt checkpoint is rejected without touching the drafter.
        let mut corrupt = serialize_trainable(&newer).to_vec();
        corrupt.truncate(corrupt.len() / 2);
        let outcome = vault.try_swap(&mut live, &corrupt);
        assert!(matches!(outcome, SwapOutcome::RejectedCorrupt { .. }));
        assert_eq!(live.layer, newer.layer);
        let (swaps, rejected_corrupt, rejected_stale, _) = vault.counters();
        assert_eq!((swaps, rejected_corrupt, rejected_stale), (1, 1, 1));
    }

    #[test]
    fn vault_rolls_back_damaged_weights_bit_exactly() {
        let (_, mut live) = setup();
        live.version = 3;
        let pristine = live.clone();
        let mut vault = DrafterVault::new();
        vault.commit(&live);

        // Damage the in-memory drafter (simulating a bad partial load).
        live.fusion.weight = Mat::from_vec(
            live.fusion.weight.rows(),
            live.fusion.weight.cols(),
            vec![0.0; live.fusion.weight.len()],
        );
        assert_ne!(live.fusion.weight, pristine.fusion.weight);
        assert!(vault.restore_last_good(&mut live));
        assert_eq!(live.fusion.weight, pristine.fusion.weight);
        assert_eq!(live.layer, pristine.layer);
        assert_eq!(live.version, 3);

        // An empty vault refuses to roll back.
        let mut empty = DrafterVault::new();
        assert!(!empty.restore_last_good(&mut live));
    }
}
