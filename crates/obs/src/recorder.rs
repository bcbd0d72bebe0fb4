//! Fixed-capacity flight recorder with a thread-local install point.
//!
//! A [`FlightRecorder`] keeps the last-N events *per track* in preallocated
//! ring buffers: at capacity the oldest event on that track is dropped, so a
//! long run always retains recent history for every replica plus the frontend
//! and coordinator — exactly what a postmortem needs.
//!
//! Recording goes through the free function [`record`]. The disabled fast path
//! is a single relaxed atomic load (no locks, no thread-local touch); when a
//! recorder is installed on the *current thread* the event is appended without
//! allocating (rings are preallocated when a track is first seen). Simulations
//! in this workspace are single-threaded per run and `libtest` runs each test
//! on its own thread, so a thread-local recorder gives deterministic event
//! order with zero cross-test pollution. Events emitted from `parallel_map`
//! worker threads are not captured — a documented limitation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::event::{ObsEvent, Track};

/// Default ring capacity per track: enough decode steps to reconstruct several
/// seconds of sim time around a fault without unbounded memory.
pub const DEFAULT_CAPACITY_PER_TRACK: usize = 512;

/// Fixed-capacity, per-track ring buffer of [`ObsEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    cap_per_track: usize,
    next_seq: u64,
    recorded: u64,
    rings: Vec<(Track, VecDeque<ObsEvent>)>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap_per_track` events on each track.
    /// A capacity of 0 is clamped to 1.
    pub fn new(cap_per_track: usize) -> Self {
        FlightRecorder {
            cap_per_track: cap_per_track.max(1),
            next_seq: 0,
            recorded: 0,
            rings: Vec::new(),
        }
    }

    /// Total events ever recorded (including ones since evicted by wraparound).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events currently retained across all tracks.
    pub fn len(&self) -> usize {
        self.rings.iter().map(|(_, ring)| ring.len()).sum()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an event, stamping its global sequence number. At capacity the
    /// oldest event on the same track is evicted. The ring for a track is
    /// preallocated on first use, so steady-state recording never allocates.
    pub fn record(&mut self, mut event: ObsEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        self.recorded += 1;
        let ring = match self.rings.iter_mut().find(|(t, _)| *t == event.track) {
            Some((_, ring)) => ring,
            None => {
                self.rings
                    .push((event.track, VecDeque::with_capacity(self.cap_per_track)));
                &mut self.rings.last_mut().expect("just pushed").1
            }
        };
        if ring.len() == self.cap_per_track {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// All retained events merged across tracks, in global record order.
    pub fn events(&self) -> Vec<ObsEvent> {
        let mut all: Vec<ObsEvent> = self
            .rings
            .iter()
            .flat_map(|(_, ring)| ring.iter().copied())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Tracks that have recorded at least one event, in first-seen order.
    pub fn tracks(&self) -> Vec<Track> {
        self.rings.iter().map(|(t, _)| *t).collect()
    }
}

/// Count of threads with an installed recorder. The disabled fast path in
/// [`record`] is one relaxed load of this.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
}

/// Install `recorder` on the current thread, returning the previous one.
pub fn install(recorder: FlightRecorder) -> Option<FlightRecorder> {
    CURRENT.with(|slot| {
        let prev = slot.borrow_mut().replace(recorder);
        if prev.is_none() {
            INSTALLED.fetch_add(1, Ordering::Relaxed);
        }
        prev
    })
}

/// Remove and return the current thread's recorder, if any.
pub fn uninstall() -> Option<FlightRecorder> {
    CURRENT.with(|slot| {
        let prev = slot.borrow_mut().take();
        if prev.is_some() {
            INSTALLED.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    })
}

/// Record `event` into the current thread's recorder. With no recorder
/// installed anywhere this is a single relaxed atomic load and return.
#[inline]
pub fn record(event: ObsEvent) {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return;
    }
    CURRENT.with(|slot| {
        if let Some(rec) = slot.borrow_mut().as_mut() {
            rec.record(event);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, NO_REQ};

    fn ev(ts: f64, track: Track, req: u64) -> ObsEvent {
        ObsEvent::instant(ts, track, EventKind::Decode, req)
    }

    #[test]
    fn ring_wraps_at_capacity_dropping_oldest() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..7 {
            rec.record(ev(i as f64, Track::Replica(0), i));
        }
        let kept = rec.events();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|e| e.req).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "oldest events must be evicted first"
        );
        assert_eq!(rec.recorded(), 7);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn wraparound_is_per_track_and_merge_orders_by_seq() {
        let mut rec = FlightRecorder::new(2);
        rec.record(ev(0.0, Track::Frontend, 1));
        rec.record(ev(1.0, Track::Replica(0), 2));
        rec.record(ev(2.0, Track::Frontend, 3));
        rec.record(ev(3.0, Track::Frontend, 4)); // evicts req=1 on Frontend only
        let all = rec.events();
        assert_eq!(all.iter().map(|e| e.req).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn install_record_uninstall_round_trip() {
        assert!(uninstall().is_none());
        install(FlightRecorder::new(8));
        record(ev(0.5, Track::Coordinator, NO_REQ));
        let rec = uninstall().expect("recorder was installed");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.events()[0].track, Track::Coordinator);
        assert!(uninstall().is_none());
    }

    #[test]
    fn record_without_installed_recorder_is_a_noop() {
        record(ev(0.0, Track::Frontend, NO_REQ));
        assert!(uninstall().is_none());
    }
}
