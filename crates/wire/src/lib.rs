//! `hierod-wire`: the protocol layer of the api → service → engine
//! split — a dependency-free, length-prefixed binary codec.
//!
//! ## Frame format
//!
//! Every frame on the wire, in both directions, is one WAL-style
//! record (see [`hierod_store::wal`]):
//!
//! ```text
//! [u32 LE payload_len][u32 LE crc32(payload)][payload]
//! ```
//!
//! The payload starts with a one-byte tag. Tags 1–4 are **the WAL
//! record tags, verbatim**: an ingest frame's bytes are byte-for-byte a
//! WAL record, a sample frame a run of one to
//! [`MAX_RUN`](hierod_store::wal::MAX_RUN) samples under one checksum,
//! each later sample's lane and timestamp implied where the run predicts
//! them (see [`frame`]) — prepend the WAL magic to a captured ingest stream
//! and it scans and replays through the store unchanged (pinned in
//! `tests/wire_props.rs`). Lane metadata and control payloads carry the
//! shared [`hierod_stream::codec`] encodings, so the wire and the
//! durability journal agree on every byte.
//!
//! Tags ≥ 16 are request frames (admission, tick/finish, queries for
//! per-level scores, per-lane [`LaneStats`](hierod_stream::LaneStats),
//! report deltas, health); tags ≥ 32 are response frames. The full
//! table lives in DESIGN.md §4.16.
//!
//! ## Totality
//!
//! Every decoder is total: arbitrary bytes either parse fully or are
//! rejected (`None` / `io::ErrorKind::InvalidData`) — no panics, no
//! allocation bombs (frame lengths are capped at [`MAX_FRAME_LEN`]).
//! Truncated and bit-flipped frames are exercised by proptests
//! mirroring the segment codec's.
//!
//! ## Reports
//!
//! [`report::encode_report`] serialises a
//! [`StreamReport`](hierod_stream::StreamReport) — detections per
//! level, the Algorithm-1 ⟨global score, outlierness, support⟩ triples,
//! stream stats, and per-lane stats — deterministically, which is what
//! makes "a report obtained over the wire is byte-identical to the
//! embedded path" a testable statement. A report names every scored
//! series but carries none of its per-sample columns, so its size follows
//! the findings, not the history; [`Frame::QuerySeries`] fetches columns
//! on demand, cut to a time range ([`SeriesQuery`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod frame;
pub mod report;

pub use frame::{write_frame, ErrorCode, Frame, FrameReader, LaneColumns, Poll, MAX_FRAME_LEN};
pub use report::{decode_report, encode_report, without_columns, LevelSeries, SeriesQuery};
