//! Request lifecycle types shared by the frontend and the replica engines.

use serde::Serialize;
use tlt_workload::RequestArrival;

/// A request as tracked by the serving subsystem: what arrived, plus the oracle
/// output length the simulation decodes towards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeRequest {
    /// Frontend-assigned request id (arrival order).
    pub id: u64,
    /// Arrival time at the frontend, in simulated seconds.
    pub arrival_s: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of output tokens this request will generate.
    pub output_len: usize,
    /// Shared-prefix group the prompt starts with (0 = none). Requests with
    /// the same non-zero id share one resident block group under paged KV
    /// accounting.
    pub prefix_id: u64,
    /// Tokens of the prompt belonging to the shared prefix.
    pub prefix_len: usize,
}

impl ServeRequest {
    /// Builds a request from a workload arrival record.
    pub fn from_arrival(a: &RequestArrival) -> Self {
        ServeRequest {
            id: a.id,
            arrival_s: a.time_s(),
            prompt_len: a.prompt_len.max(1),
            output_len: a.output_len.max(1),
            prefix_id: a.prefix_id,
            prefix_len: a.prefix_len.min(a.prompt_len.max(1)),
        }
    }
}

/// Full latency record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CompletedRequest {
    /// Request id.
    pub id: u64,
    /// Replica that served it.
    pub replica: usize,
    /// Arrival time at the frontend (seconds).
    pub arrival_s: f64,
    /// Time the request was first admitted into a prefill batch (seconds).
    pub admitted_s: f64,
    /// Time the first output token was produced (end of prefill, seconds).
    pub first_token_s: f64,
    /// Time the last output token was produced (seconds).
    pub finish_s: f64,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Output tokens generated.
    pub output_len: usize,
    /// How many times the request was preempted and re-prefilled.
    pub preemptions: u32,
}

impl CompletedRequest {
    /// Time to first token: arrival to first output token.
    pub fn ttft_s(&self) -> f64 {
        self.first_token_s - self.arrival_s
    }

    /// Time per output token over the decode phase (first token excluded).
    pub fn tpot_s(&self) -> f64 {
        (self.finish_s - self.first_token_s) / (self.output_len.saturating_sub(1).max(1)) as f64
    }

    /// End-to-end latency: arrival to last token.
    pub fn e2e_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_accessors_are_consistent() {
        let r = CompletedRequest {
            id: 3,
            replica: 1,
            arrival_s: 10.0,
            admitted_s: 10.5,
            first_token_s: 11.0,
            finish_s: 15.0,
            prompt_len: 128,
            output_len: 5,
            preemptions: 0,
        };
        assert!((r.ttft_s() - 1.0).abs() < 1e-12);
        assert!((r.tpot_s() - 1.0).abs() < 1e-12);
        assert!((r.e2e_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn single_token_tpot_does_not_divide_by_zero() {
        let r = CompletedRequest {
            id: 0,
            replica: 0,
            arrival_s: 0.0,
            admitted_s: 0.0,
            first_token_s: 1.0,
            finish_s: 1.0,
            prompt_len: 8,
            output_len: 1,
            preemptions: 0,
        };
        assert_eq!(r.tpot_s(), 0.0);
    }

    #[test]
    fn from_arrival_clamps_to_at_least_one_token() {
        let a = RequestArrival {
            id: 7,
            time_ns: 1_500_000_000,
            prompt_len: 0,
            output_len: 0,
            prefix_id: 3,
            prefix_len: 40,
        };
        let r = ServeRequest::from_arrival(&a);
        assert_eq!(r.prompt_len, 1);
        assert_eq!(r.output_len, 1);
        assert_eq!(r.prefix_id, 3);
        assert_eq!(r.prefix_len, 1, "prefix clamped to the prompt");
        assert!((r.arrival_s - 1.5).abs() < 1e-12);
    }
}
