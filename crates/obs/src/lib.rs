//! Observability primitives for the serving stack: trace spans, exactly
//! mergeable latency histograms, a lossy ring-buffered event log, and
//! Prometheus-text exposition.
//!
//! Everything here lives **outside the determinism boundary**: the
//! `/v1/place` contract (`pv_server`) promises response bytes that are a
//! pure function of the request, so no type in this crate may ever leak
//! into a response body. The dual contract on this side is that
//! observability can never change a response byte and never panic a
//! request path — every fallible operation (a full ring, a failed file
//! write, a malformed sparse encoding) degrades to a counter bump or a
//! `None`, not an error the caller must handle mid-request.
//!
//! The pieces:
//!
//! - [`Histogram`]: fixed log-bucketed latency histogram. Merging two
//!   histograms is bucket-wise addition, so per-shard histograms compose
//!   *exactly* across process boundaries — unlike quantiles, which do not
//!   compose at all (an average of per-shard p99s is not a quantile of
//!   anything).
//! - [`Stage`] / [`StageTimes`] / [`StageHistograms`]: the span taxonomy
//!   of a placement request (extract, cache lookup, store hydrate, memo
//!   warm-up, solve, encode) and its per-request / aggregate recordings.
//! - [`Timer`]: the sanctioned wall-clock handle (pvlint D02 allows
//!   `Instant` here so metric code elsewhere does not reach for clocks).
//! - [`TraceLog`]: bounded ring buffer of JSONL event lines, flushed off
//!   the request path; lossy by design with a dropped-events counter.
//! - [`Exposition`]: Prometheus text-format rendering for `/v1/metrics`.
//! - [`derive_trace_id`] and the [`TRACE_HEADER`] constant: request-derived
//!   trace ids propagated router→shard via an internal header that is
//!   stripped before any response is written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expose;
mod hist;
mod log;
mod trace;

pub use expose::{Exposition, EXPOSITION_CONTENT_TYPE};
pub use hist::{Histogram, BUCKET_COUNT};
pub use log::TraceLog;
pub use trace::{
    derive_trace_id, event_line, format_trace_id, parse_trace_id, Stage, StageHistograms,
    StageTimes, Timer, TRACE_HEADER,
};
