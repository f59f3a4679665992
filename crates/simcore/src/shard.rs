//! Rack-aligned shard partitioning for the sharded engine.
//!
//! A [`ShardMap`] assigns every rack of a [`Topology`] to exactly one
//! shard, in contiguous ascending blocks: shard `s` owns racks
//! `[s·R/S, (s+1)·R/S)`. Because racks hold contiguous device ranges
//! and rack blocks are contiguous too, every shard owns one contiguous
//! device range — the property the engine leans on to hand disjoint
//! `&mut` device slices to pool workers (`split_at_mut` chunks, no
//! locks) and to keep canonical shard-ascending message order equal to
//! ascending device order.
//!
//! The map is pure arithmetic over the shape, like the topology it
//! refines: no run state, no RNG, identical for every run of a config.

use crate::topology::Topology;

/// Racks → shards, in contiguous blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    /// `rack_shard[r]` is the shard owning rack `r`.
    rack_shard: Vec<usize>,
    /// Contiguous device range per shard (may be empty for shards
    /// whose racks hold no devices under a sparse layout).
    device_ranges: Vec<std::ops::Range<usize>>,
}

impl ShardMap {
    /// Partitions `topo`'s racks over `requested` shards.
    ///
    /// The shard count is clamped to `[1, racks]` — a shard cannot
    /// split a rack (rack-scoped blast radii must stay shard-local),
    /// so a 4-rack topology caps at 4 shards no matter what was asked.
    pub fn new(topo: &Topology, requested: usize) -> Self {
        let racks = topo.shape().racks;
        let shards = requested.clamp(1, racks);
        let mut rack_shard = vec![0usize; racks];
        let mut device_ranges = Vec::with_capacity(shards);
        for s in 0..shards {
            let first = s * racks / shards;
            let last = (s + 1) * racks / shards; // exclusive
            for r in rack_shard.iter_mut().take(last).skip(first) {
                *r = s;
            }
            let start = topo.devices_in_rack(first).start;
            let end = topo.devices_in_rack(last - 1).end;
            device_ranges.push(start..end);
        }
        ShardMap {
            shards,
            rack_shard,
            device_ranges,
        }
    }

    /// The resolved shard count (after clamping).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning device `d` (via its rack).
    pub fn shard_of_device(&self, topo: &Topology, d: usize) -> usize {
        self.rack_shard[topo.rack_of(d)]
    }

    /// The contiguous device range shard `s` owns.
    pub fn device_range(&self, s: usize) -> std::ops::Range<usize> {
        self.device_ranges[s].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyShape;

    #[test]
    fn device_ranges_partition_devices_in_ascending_order() {
        for (racks, npr, devices, shards) in [
            (4, 2, 12, 2),
            (4, 2, 12, 4),
            (8, 4, 1000, 8),
            (3, 3, 17, 2),
            (5, 1, 23, 3),
            (1, 2, 9, 1),
        ] {
            let topo = Topology::new(TopologyShape::new(racks, npr), devices);
            let map = ShardMap::new(&topo, shards);
            let mut next = 0;
            for s in 0..map.shards() {
                let range = map.device_range(s);
                assert_eq!(
                    range.start, next,
                    "{racks}x{npr}/{devices}/{shards}: shard {s} range {range:?}"
                );
                next = range.end;
                for d in range {
                    assert_eq!(map.shard_of_device(&topo, d), s);
                }
            }
            assert_eq!(next, devices, "{racks}x{npr}/{devices}/{shards}");
        }
    }

    #[test]
    fn rack_blocks_are_contiguous_and_cover_all_racks() {
        let topo = Topology::new(TopologyShape::new(7, 2), 56);
        let map = ShardMap::new(&topo, 3);
        // Walking the racks in order, the owning shard starts at 0,
        // steps up by at most one per rack and ends at the last shard.
        let mut prev = 0;
        for r in 0..7 {
            let owner = map.shard_of_device(&topo, topo.devices_in_rack(r).start);
            assert!(owner == prev || owner == prev + 1, "rack {r}");
            prev = owner;
        }
        assert_eq!(prev, 2);
    }

    #[test]
    fn shard_count_clamps_to_rack_count() {
        let topo = Topology::new(TopologyShape::new(4, 2), 12);
        assert_eq!(ShardMap::new(&topo, 0).shards(), 1);
        assert_eq!(ShardMap::new(&topo, 8).shards(), 4);
        assert_eq!(ShardMap::new(&topo, 3).shards(), 3);
    }

    #[test]
    fn single_shard_owns_everything() {
        let topo = Topology::new(TopologyShape::new(4, 2), 12);
        let map = ShardMap::new(&topo, 1);
        assert_eq!(map.device_range(0), 0..12);
        for d in 0..12 {
            assert_eq!(map.shard_of_device(&topo, d), 0);
        }
    }

    #[test]
    fn never_splits_a_rack() {
        for shards in 1..=6 {
            let topo = Topology::new(TopologyShape::new(6, 3), 90);
            let map = ShardMap::new(&topo, shards);
            for r in 0..6 {
                let owner = map.shard_of_device(&topo, topo.devices_in_rack(r).start);
                for d in topo.devices_in_rack(r) {
                    assert_eq!(
                        map.shard_of_device(&topo, d),
                        owner,
                        "shards={shards} rack {r} device {d}"
                    );
                }
            }
        }
    }
}
