//! The shard partition contract.
//!
//! A **shard** is a [`StreamDetector`](crate::StreamDetector) scoped to
//! the subset of lanes whose stable machine×sensor hash ([`shard_of`])
//! lands on its index. Control events are broadcast to every shard in the
//! same order, so all shards hold *congruent skeletons* — identical
//! machines, jobs, phases, and pipeline slots — while each slot's pipeline
//! lives in exactly one shard. Merging is therefore a fixed-order
//! structural walk with no runtime ordering decisions, and the merged
//! [`StreamReport`](crate::StreamReport) is byte-identical to the
//! single-shard run (the `shard_equivalence` test pins this).
//!
//! One driver implements the contract: [`Tenant`](crate::tenant::Tenant),
//! inline and durable — the caller's thread broadcasts controls and routes
//! each sample to its owning [`DurableStream`](crate::DurableStream)
//! shard. The hash partition properties (stable, total, balanced) are
//! pinned in `tests/shard_props.rs`.

/// The stable shard of `machine`×`sensor` among `shards` partitions.
///
/// FNV-1a over the machine id, a `0xFF` separator (so `("ab","c")` and
/// `("a","bc")` differ), and the sensor name, reduced modulo `shards`.
/// The function is **total** (every lane maps to exactly one shard for
/// any `shards >= 1`) and **stable** — it depends only on the two names,
/// never on registration order or process state, so routing, recovery,
/// and re-sharded replays all agree on lane ownership.
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
