//! A test-local copy of the global-time-order loop `ServeSim` ran before it
//! advanced replica by replica, written over the public `Replica` and
//! `LoadBalancer` API only: the soonest step of all replicas completes next,
//! the lowest index on ties, and an arrival routes through the balancer once
//! every step before it has run. It shares no code with the loop it checks.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::fmt::Debug;
use tlt::obs::{record, EventKind, ObsEvent, Track};
use tlt_serve::{CompletedRequest, LoadBalancer, Replica, ReplicaStats, ServeConfig, ServeRequest};
use tlt_workload::RequestArrival;

/// Runs `arrivals` on `config` (replica `i` slowed by `slow[i]` from t = 0)
/// to drain; returns the completions sorted by `(finish_s, id)` and each
/// replica's stats, as a `ServeReport` holds them.
pub fn run(
    config: &ServeConfig,
    slow: &[f64],
    arrivals: &[RequestArrival],
) -> (Vec<CompletedRequest>, Vec<ReplicaStats>) {
    let mut replicas: Vec<Replica> = (0..config.num_replicas)
        .map(|i| Replica::new(config, i))
        .collect();
    for (r, &factor) in replicas.iter_mut().zip(slow) {
        r.set_slow_factor(factor);
    }
    let mut balancer = LoadBalancer::new(config.balancer);
    let mut log = Vec::new();
    for a in arrivals {
        advance_before(&mut replicas, &mut log, a.time_s());
        let req = ServeRequest::from_arrival(a);
        let up = replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_up())
            .map(|(i, r)| (i, r.load()));
        let target = balancer
            .pick_among(replicas.len(), up)
            .expect("without faults a replica is up");
        record(
            ObsEvent::instant(req.arrival_s, Track::Frontend, EventKind::Arrival, req.id)
                .with_args(target as f64, req.prompt_len as f64),
        );
        replicas[target].enqueue(req, req.arrival_s);
    }
    advance_before(&mut replicas, &mut log, f64::MAX);
    log.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
    let makespan_s = log.iter().map(|r| r.finish_s).fold(0.0f64, f64::max);
    let stats = replicas.iter().map(|r| r.stats(makespan_s)).collect();
    (log, stats)
}

/// Completes every step due strictly before `t`, soonest first.
fn advance_before(replicas: &mut [Replica], log: &mut Vec<CompletedRequest>, t: f64) {
    while let Some((i, t_step)) = replicas
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.next_event_s()))
        .filter(|e| e.1 < t)
        .min_by(|a, b| a.1.total_cmp(&b.1))
    {
        replicas[i].on_step_complete(t_step);
        replicas[i].move_completed_into(log);
    }
}

/// Asserts `got` equals the oracle's `want` element by element, bit for bit
/// (`Debug` prints every float exactly), naming the first that differs.
pub fn assert_same<T: Debug>(got: &[T], want: &[T], what: &str) {
    let differs = |(g, w): (&T, &T)| format!("{g:?}") != format!("{w:?}");
    if let Some(i) = got.iter().zip(want).position(differs) {
        panic!("{what}: #{i} is {:?}, the oracle's {:?}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{what}: length");
}

/// Asserts two runs recorded the same event stream on every track.
pub fn assert_same_tracks(
    got: &BTreeMap<Track, Vec<ObsEvent>>,
    want: &BTreeMap<Track, Vec<ObsEvent>>,
    label: &str,
) {
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "{label}: tracks"
    );
    for (track, events) in got {
        assert_same(events, &want[track], &format!("{label}: {track:?}"));
    }
}
