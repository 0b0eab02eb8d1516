//! Sharded multi-core streaming: N detector shards over per-shard rings.
//!
//! A **shard** is a [`StreamDetector`] scoped to the subset of lanes whose
//! stable machine×sensor hash ([`shard_of`]) lands on its index. Control
//! events are broadcast to every shard in the same order, so all shards
//! hold *congruent skeletons* — identical machines, jobs, phases, and
//! pipeline slots — while each slot's pipeline lives in exactly one shard.
//! Merging is therefore a fixed-order structural walk with no runtime
//! ordering decisions, and the merged [`StreamReport`] is byte-identical
//! to the single-shard run (the `shard_equivalence` test pins this).
//!
//! Two drivers share this contract and the fixed-order merge
//! (`assemble_multi`):
//!
//! * [`Tenant`](crate::tenant::Tenant) — inline and durable: the caller's
//!   thread broadcasts controls and routes each sample to its owning
//!   [`DurableStream`](crate::DurableStream) shard. This is the driver the
//!   server runs, and the one with interim `tick` reports.
//! * [`ShardedStream`] — threaded: one consumer thread per shard behind a
//!   per-shard SPSC ring carrying [`ShardEvent`]s. The single driver
//!   thread broadcasts controls in-band, which preserves the
//!   control-before-sample contract per shard without any cross-shard
//!   barrier. At [`ShardedStream::finish`], shard pipelines are finalized
//!   through the loom-verified detect [`TaskPool`] and assembled in fixed
//!   shard order.
//!
//! The hand-off protocol (single producer, per-shard SPSC, per-lane FIFO)
//! is model-checked in `tests/loom_shard.rs`; the hash partition
//! properties (stable, total, balanced) in `tests/shard_props.rs`.

use std::thread;

use hierod_core::AlgorithmPolicy;
use hierod_detect::engine::{Task, TaskPool};
use hierod_detect::{DetectError, Result};

use crate::detector::{assemble_multi, ControlEvent, StreamConfig, StreamDetector, StreamReport};
use crate::ring::{ring, Consumer, Producer};
use crate::router::{LaneId, Sample};

/// Default per-shard ring capacity of [`ShardedStream::spawn`].
pub const DEFAULT_SHARD_CAPACITY: usize = 1024;

/// The stable shard of `machine`×`sensor` among `shards` partitions.
///
/// FNV-1a over the machine id, a `0xFF` separator (so `("ab","c")` and
/// `("a","bc")` differ), and the sensor name, reduced modulo `shards`.
/// The function is **total** (every lane maps to exactly one shard for
/// any `shards >= 1`) and **stable** — it depends only on the two names,
/// never on registration order or process state, so producers, consumers,
/// recovery, and re-sharded replays all agree on lane ownership.
pub fn shard_of(machine: &str, sensor: &str, shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in machine.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash ^= 0xFF;
    hash = hash.wrapping_mul(PRIME);
    for &b in sensor.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    (hash % shards.max(1) as u64) as usize
}

/// One event on a shard's ring. Controls are broadcast to every shard;
/// lane definitions and samples go only to the lane's hash owner. Because
/// the driver pushes all three kinds through the same SPSC ring, each
/// shard observes controls and its samples in exactly the order the
/// driver issued them.
///
/// The rare variants (lane binding, control) are boxed so the enum —
/// and with it every ring slot — stays at the size of the hot
/// [`ShardEvent::Sample`] variant instead of the largest control
/// payload (104 bytes unboxed vs 24): ring memory scales with
/// capacity × shards, and the driver rewrites a slot per sample.
#[derive(Debug, Clone)]
pub enum ShardEvent {
    /// Interns a lane number → [`LaneId`] binding on the owning shard;
    /// sent once per lane, before any of its samples.
    Lane {
        /// Driver-assigned dense lane number.
        lane: u32,
        /// The lane's identity.
        id: Box<LaneId>,
    },
    /// A lifecycle event, broadcast to every shard.
    Control(Box<ControlEvent>),
    /// One sensor reading for an interned lane.
    Sample {
        /// Lane number from a previous [`ShardEvent::Lane`].
        lane: u32,
        /// The reading.
        sample: Sample,
    },
}

/// Finalizes shard pipelines in parallel through the detect [`TaskPool`]
/// (watermark flush + scorer finish are shard-local, so tasks are
/// independent), then assembles in fixed shard order. The pool returns
/// results in task order, so nothing about the merge depends on which
/// worker ran which shard.
fn finish_shards(mut shards: Vec<StreamDetector>) -> Result<StreamReport> {
    let pool = TaskPool::new(shards.len().max(1));
    let tasks: Vec<Task<'_, ()>> = shards
        .iter_mut()
        .map(|shard| Box::new(move || shard.finalize_pipelines()) as Task<'_, ()>)
        .collect();
    pool.run(tasks);
    let refs: Vec<&StreamDetector> = shards.iter().collect();
    assemble_multi(&refs)
}

/// The threaded shard runtime: one consumer thread per shard, each owning
/// a scoped [`StreamDetector`] fed by its own SPSC ring. See the module
/// docs for the ordering argument.
pub struct ShardedStream {
    /// `lanes[lane]` is the shard owning that lane number.
    lanes: Vec<usize>,
    /// One producer per shard; `None` after the rings are closed.
    producers: Vec<Option<Producer<ShardEvent>>>,
    workers: Vec<thread::JoinHandle<(StreamDetector, Result<()>)>>,
}

impl ShardedStream {
    /// Spawns `count` shard consumer threads with rings of `capacity`
    /// events each.
    ///
    /// # Errors
    /// Rejects `count == 0` or `capacity == 0`; otherwise as
    /// [`StreamDetector::new`].
    pub fn spawn(
        policy: &AlgorithmPolicy,
        config: StreamConfig,
        count: usize,
        capacity: usize,
    ) -> Result<Self> {
        if count == 0 {
            return Err(DetectError::invalid("shards", "shard count must be >= 1"));
        }
        if capacity == 0 {
            return Err(DetectError::invalid(
                "capacity",
                "ring capacity must be >= 1",
            ));
        }
        let mut producers = Vec::with_capacity(count);
        let mut workers = Vec::with_capacity(count);
        for i in 0..count {
            let detector = StreamDetector::new_shard(policy.clone(), config, i, count)?;
            let (tx, rx) = ring::<ShardEvent>(capacity);
            producers.push(Some(tx));
            workers.push(thread::spawn(move || shard_worker(detector, rx)));
        }
        Ok(Self {
            lanes: Vec::new(),
            producers,
            workers,
        })
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.producers.len()
    }

    /// Interns a lane, binding a dense lane number on the owning shard.
    /// Subsequent [`ShardedStream::send`] calls use the returned number —
    /// the per-sample fast path never touches the lane strings again.
    ///
    /// # Errors
    /// When the owning shard's worker has exited.
    pub fn lane(&mut self, id: LaneId) -> Result<u32> {
        let owner = shard_of(&id.machine, &id.sensor, self.producers.len());
        let lane = u32::try_from(self.lanes.len())
            .map_err(|_| DetectError::invalid("lane", "lane table overflow"))?;
        self.lanes.push(owner);
        self.push(
            owner,
            ShardEvent::Lane {
                lane,
                id: Box::new(id),
            },
        )?;
        Ok(lane)
    }

    /// Broadcasts one control event to every shard, in shard order.
    ///
    /// # Errors
    /// When a shard's worker has exited. Application errors surface at
    /// [`ShardedStream::finish`] — the driver cannot observe them sooner
    /// without a barrier per control.
    pub fn control(&mut self, event: &ControlEvent) -> Result<()> {
        for shard in 0..self.producers.len() {
            self.push(shard, ShardEvent::Control(Box::new(event.clone())))?;
        }
        Ok(())
    }

    /// Sends one sample to its lane's owning shard, blocking while the
    /// shard's ring is full (backpressure).
    ///
    /// # Errors
    /// An unknown lane number, or an owning worker that has exited.
    pub fn send(&mut self, lane: u32, sample: Sample) -> Result<()> {
        let Some(&owner) = self.lanes.get(lane as usize) else {
            return Err(DetectError::Missing {
                what: format!("shard lane {lane}"),
            });
        };
        self.push(owner, ShardEvent::Sample { lane, sample })
    }

    fn push(&mut self, shard: usize, event: ShardEvent) -> Result<()> {
        let Some(tx) = self.producers.get_mut(shard).and_then(Option::as_mut) else {
            return Err(DetectError::invalid("shard", "stream already finished"));
        };
        tx.push(event)
            .map_err(|_| DetectError::invalid("shard", format!("shard {shard} worker exited")))
    }

    /// Closes every ring, joins the shard threads, finalizes their
    /// pipelines through the detect [`TaskPool`], and assembles the final
    /// merged report in fixed shard order — byte-identical to the
    /// unsharded run over the same events.
    ///
    /// # Errors
    /// The first worker-side application error (in shard order), a worker
    /// panic, or upper-level detector failures.
    pub fn finish(mut self) -> Result<StreamReport> {
        for tx in self.producers.iter_mut() {
            drop(tx.take()); // dropping the producer closes the ring
        }
        let mut shards = Vec::with_capacity(self.workers.len());
        let mut first_err = None;
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok((detector, result)) => {
                    if let Err(e) = result {
                        first_err.get_or_insert(e);
                    }
                    shards.push(detector);
                }
                Err(_) => {
                    first_err.get_or_insert(DetectError::invalid("shard", "worker panicked"));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        finish_shards(shards)
    }
}

impl Drop for ShardedStream {
    /// Closes the rings and joins the workers so an abandoned stream
    /// (e.g. after a driver-side error) never leaves threads parked.
    fn drop(&mut self) {
        for tx in self.producers.iter_mut() {
            drop(tx.take());
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The per-shard consumer loop: drains the ring to exhaustion, applying
/// controls and ingesting owned samples. The first error is recorded and
/// returned at join time, but draining continues — stopping early would
/// wedge the driver on a full ring.
fn shard_worker(
    mut detector: StreamDetector,
    mut rx: Consumer<ShardEvent>,
) -> (StreamDetector, Result<()>) {
    let mut lanes: Vec<Option<LaneId>> = Vec::new();
    let mut first_err: Option<DetectError> = None;
    while let Some(event) = rx.pop() {
        let result = match event {
            ShardEvent::Lane { lane, id } => {
                let at = lane as usize;
                if at >= lanes.len() {
                    lanes.resize(at + 1, None);
                }
                if let Some(slot) = lanes.get_mut(at) {
                    *slot = Some(*id);
                }
                Ok(())
            }
            ShardEvent::Control(control) => detector.apply(&control),
            ShardEvent::Sample { lane, sample } => {
                match lanes.get(lane as usize).and_then(Option::as_ref) {
                    Some(id) => detector.ingest(id, sample),
                    None => Err(DetectError::Missing {
                        what: format!("lane {lane} binding on shard"),
                    }),
                }
            }
        };
        if let Err(e) = result {
            first_err.get_or_insert(e);
        }
    }
    let result = match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    };
    (detector, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_total_and_stable() {
        for shards in [1, 2, 4, 8, 64] {
            for m in 0..8 {
                for s in 0..8 {
                    let machine = format!("m{m}");
                    let sensor = format!("m{m}.bed.{s}");
                    let a = shard_of(&machine, &sensor, shards);
                    let b = shard_of(&machine, &sensor, shards);
                    assert_eq!(a, b);
                    assert!(a < shards);
                }
            }
        }
    }

    #[test]
    fn shard_of_separates_machine_and_sensor_bytes() {
        // Without the 0xFF separator, ("ab", "c") and ("a", "bc") would
        // hash the same byte stream and always collide.
        assert_ne!(
            shard_of("ab", "c", 1 << 20),
            shard_of("a", "bc", 1 << 20),
            "separator has no effect"
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(shard_of("m", "s", 0), 0);
    }
}
