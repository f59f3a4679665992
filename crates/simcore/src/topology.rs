//! Cluster topology: racks → nodes → devices.
//!
//! The paper's cluster layer treats devices as an unstructured flat
//! pool, but real incidents (PDU trips, top-of-rack switch loss, driver
//! rollouts) take down *groups* of co-located GPUs at once. This module
//! gives every flat device index a resolvable address in a
//! `racks → nodes → devices` hierarchy so fault injection can draw
//! correlated (node- and rack-scoped) outages and placement can reason
//! about fault domains.
//!
//! The mapping is purely arithmetic — device `d` lives in node
//! `d / devices_per_node` and rack `node / nodes_per_rack` — so the
//! address of a device depends only on the [`TopologyShape`] and the
//! device count, never on run state. Determinism contracts elsewhere
//! (seeded RNG streams, replayable fault schedules) are unaffected by
//! how many layers of hierarchy sit above a device.

use std::fmt;

/// The configurable shape of the cluster hierarchy.
///
/// The default is 4 racks × 2 nodes per rack (the smallest shape where
/// both node- and rack-scoped faults hit strict subsets of the 12-GPU
/// physical cluster). A run picks another shape through its config.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TopologyShape {
    /// Number of racks in the cluster.
    pub racks: usize,
    /// Number of nodes (hosts) per rack.
    pub nodes_per_rack: usize,
}

impl Default for TopologyShape {
    fn default() -> Self {
        TopologyShape {
            racks: 4,
            nodes_per_rack: 2,
        }
    }
}

impl TopologyShape {
    /// Creates a shape; both dimensions must be at least 1.
    pub fn new(racks: usize, nodes_per_rack: usize) -> Self {
        assert!(racks >= 1, "topology needs at least one rack");
        assert!(nodes_per_rack >= 1, "topology needs at least one node");
        TopologyShape {
            racks,
            nodes_per_rack,
        }
    }

    /// Total node count across all racks.
    pub fn nodes(&self) -> usize {
        self.racks * self.nodes_per_rack
    }
}

impl fmt::Display for TopologyShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.racks, self.nodes_per_rack)
    }
}

/// A concrete topology: a shape instantiated over a device count.
///
/// Devices fill nodes in index order: node `n` holds the contiguous
/// range `[n·k, (n+1)·k)` of device indices (clipped to the device
/// count), where `k = ceil(devices / nodes)`. Flat device indices used
/// everywhere else in the simulator remain valid; the topology only
/// adds a resolvable address on top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    shape: TopologyShape,
    devices: usize,
    devices_per_node: usize,
}

impl Topology {
    /// Lays `devices` out over `shape`.
    pub fn new(shape: TopologyShape, devices: usize) -> Self {
        let nodes = shape.nodes();
        let devices_per_node = devices.div_ceil(nodes).max(1);
        Topology {
            shape,
            devices,
            devices_per_node,
        }
    }

    /// The shape this topology was built from.
    pub fn shape(&self) -> TopologyShape {
        self.shape
    }

    /// Total device count.
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Devices hosted per node (last node may be partially filled).
    pub fn devices_per_node(&self) -> usize {
        self.devices_per_node
    }

    /// The cluster-wide node index of device `d`.
    pub fn node_of(&self, d: usize) -> usize {
        debug_assert!(d < self.devices, "device {d} out of range");
        (d / self.devices_per_node).min(self.shape.nodes() - 1)
    }

    /// The rack index of device `d`.
    pub fn rack_of(&self, d: usize) -> usize {
        self.node_of(d) / self.shape.nodes_per_rack
    }

    /// The device indices hosted by node `n` (may be empty for trailing
    /// nodes of a sparse layout).
    pub fn devices_in_node(&self, n: usize) -> std::ops::Range<usize> {
        let start = (n * self.devices_per_node).min(self.devices);
        let end = ((n + 1) * self.devices_per_node).min(self.devices);
        start..end
    }

    /// The device indices hosted by rack `r`.
    pub fn devices_in_rack(&self, r: usize) -> std::ops::Range<usize> {
        let first_node = r * self.shape.nodes_per_rack;
        let last_node = first_node + self.shape.nodes_per_rack - 1;
        let start = (first_node * self.devices_per_node).min(self.devices);
        let end = ((last_node + 1) * self.devices_per_node).min(self.devices);
        start..end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_is_4x2() {
        let s = TopologyShape::default();
        assert_eq!((s.racks, s.nodes_per_rack, s.nodes()), (4, 2, 8));
    }

    #[test]
    fn twelve_devices_over_4x2() {
        // 8 nodes, ceil(12/8) = 2 devices per node.
        let t = Topology::new(TopologyShape::default(), 12);
        assert_eq!(t.devices_per_node(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 1);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.rack_of(11), 2);
        // Every device resolves, and membership is consistent.
        for d in 0..12 {
            assert!(t.devices_in_node(t.node_of(d)).contains(&d));
            assert!(t.devices_in_rack(t.rack_of(d)).contains(&d));
            assert_eq!(t.rack_of(d), t.node_of(d) / 2);
        }
    }

    #[test]
    fn rack_ranges_partition_the_devices() {
        for devices in [1, 5, 12, 17, 1000] {
            let t = Topology::new(TopologyShape::new(4, 2), devices);
            let mut seen = 0;
            for r in 0..4 {
                let range = t.devices_in_rack(r);
                for d in range.clone() {
                    assert_eq!(t.rack_of(d), r, "device {d} rack mismatch");
                }
                seen += range.len();
            }
            assert_eq!(seen, devices, "racks must cover devices={devices}");
        }
    }

    #[test]
    fn node_ranges_partition_the_devices() {
        for devices in [1, 7, 12, 100] {
            let t = Topology::new(TopologyShape::new(3, 3), devices);
            let mut seen = 0;
            for n in 0..t.shape().nodes() {
                let range = t.devices_in_node(n);
                for d in range.clone() {
                    assert_eq!(t.node_of(d), n);
                }
                seen += range.len();
            }
            assert_eq!(seen, devices);
        }
    }

    #[test]
    fn single_rack_degenerates_gracefully() {
        let t = Topology::new(TopologyShape::new(1, 1), 6);
        for d in 0..6 {
            assert_eq!(t.rack_of(d), 0);
            assert_eq!(t.node_of(d), 0);
        }
        assert_eq!(t.devices_in_rack(0), 0..6);
    }

    #[test]
    fn same_domain_predicates() {
        let t = Topology::new(TopologyShape::new(2, 2), 8);
        // 4 nodes, 2 devices each: node 0 = {0,1}, rack 0 = {0,1,2,3}.
        assert_eq!(t.node_of(0), t.node_of(1));
        assert_ne!(t.node_of(1), t.node_of(2));
        assert_eq!(t.rack_of(1), t.rack_of(2));
        assert_ne!(t.rack_of(3), t.rack_of(4));
    }

    #[test]
    fn display_is_racks_x_nodes() {
        assert_eq!(TopologyShape::new(8, 4).to_string(), "8x4");
    }
}
