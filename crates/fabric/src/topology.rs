//! Route-aware fabric topologies.
//!
//! A topology enumerates *directed* links between device nodes and the
//! ordered link sequence a message crosses from one node to another.
//! Link ids are dense (`0..n_links`) so [`crate::FabricState`] can keep
//! per-link serializer state and statistics in flat vectors.


/// Topology selector for configs (the trait object itself is built at the
/// simulation boundary via [`build_topology`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Open chain: node `i` links to `i±1`.
    Line,
    /// Closed ring: node `i` links to `(i±1) mod n`; routes take the
    /// shorter arc (ties go clockwise, deterministically).
    Ring,
}

impl TopologyKind {
    pub fn tag(&self) -> &'static str {
        match self {
            TopologyKind::Line => "line",
            TopologyKind::Ring => "ring",
        }
    }
}

/// A fabric topology: nodes, directed links, and hop-by-hop routes.
///
/// Implementations must be deterministic — `route` is part of the timing
/// model, so the same `(src, dst)` must always yield the same link
/// sequence.
pub trait Topology: Send + Sync {
    /// Number of device nodes.
    fn nodes(&self) -> usize;

    /// Number of directed links (dense ids `0..n_links`).
    fn n_links(&self) -> usize;

    /// Endpoints `(from, to)` of a directed link.
    fn link_ends(&self, link: usize) -> (usize, usize);

    /// The ordered directed links a message crosses from `src` to `dst`
    /// (empty when `src == dst`).
    fn route(&self, src: usize, dst: usize) -> Vec<usize>;

    fn name(&self) -> &'static str;
}

/// Open chain of `n` nodes: `2(n-1)` directed links. Rightward link
/// `i → i+1` has id `i`; leftward link `i+1 → i` has id `(n-1) + i`.
pub struct Line {
    n: usize,
}

impl Line {
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a fabric needs at least two nodes");
        Self { n }
    }
}

impl Topology for Line {
    fn nodes(&self) -> usize {
        self.n
    }

    fn n_links(&self) -> usize {
        2 * (self.n - 1)
    }

    fn link_ends(&self, link: usize) -> (usize, usize) {
        let right = self.n - 1;
        if link < right {
            (link, link + 1)
        } else {
            let i = link - right;
            (i + 1, i)
        }
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        assert!(src < self.n && dst < self.n, "node out of range");
        if src < dst {
            (src..dst).collect()
        } else {
            // Hop j → j-1 rides leftward link (n-1) + (j-1).
            (dst..src).rev().map(|i| (self.n - 1) + i).collect()
        }
    }

    fn name(&self) -> &'static str {
        "line"
    }
}

/// Closed ring of `n` nodes: `2n` directed links. Clockwise link
/// `i → (i+1) mod n` has id `i`; counter-clockwise link `(i+1) mod n → i`
/// has id `n + i`. Routes take the shorter arc; an exact tie (distance
/// `n/2`) goes clockwise so routing is deterministic.
pub struct Ring {
    n: usize,
}

impl Ring {
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "a fabric needs at least two nodes");
        Self { n }
    }
}

impl Topology for Ring {
    fn nodes(&self) -> usize {
        self.n
    }

    fn n_links(&self) -> usize {
        2 * self.n
    }

    fn link_ends(&self, link: usize) -> (usize, usize) {
        if link < self.n {
            (link, (link + 1) % self.n)
        } else {
            let i = link - self.n;
            ((i + 1) % self.n, i)
        }
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        assert!(src < self.n && dst < self.n, "node out of range");
        if src == dst {
            return Vec::new();
        }
        let cw = (dst + self.n - src) % self.n;
        let ccw = self.n - cw;
        if cw <= ccw {
            (0..cw).map(|h| (src + h) % self.n).collect()
        } else {
            // Hop j → (j-1) mod n rides counter-clockwise link n + ((j-1) mod n).
            (0..ccw).map(|h| self.n + (src + self.n - 1 - h) % self.n).collect()
        }
    }

    fn name(&self) -> &'static str {
        "ring"
    }
}

/// Build a boxed topology of `kind` over `nodes` devices.
pub fn build_topology(kind: TopologyKind, nodes: usize) -> Box<dyn Topology> {
    match kind {
        TopologyKind::Line => Box::new(Line::new(nodes)),
        TopologyKind::Ring => Box::new(Ring::new(nodes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route_nodes(t: &dyn Topology, src: usize, dst: usize) -> Vec<usize> {
        let mut at = src;
        let mut path = vec![at];
        for l in t.route(src, dst) {
            let (from, to) = t.link_ends(l);
            assert_eq!(from, at, "route hop must leave the current node");
            at = to;
            path.push(at);
        }
        assert_eq!(at, dst, "route must end at the destination");
        path
    }

    #[test]
    fn line_routes_are_shortest_and_consistent() {
        let t = Line::new(5);
        assert_eq!(t.n_links(), 8);
        for src in 0..5 {
            for dst in 0..5 {
                let path = route_nodes(&t, src, dst);
                assert_eq!(path.len() - 1, src.abs_diff(dst));
            }
        }
    }

    #[test]
    fn ring_routes_take_the_shorter_arc() {
        let t = Ring::new(6);
        assert_eq!(t.n_links(), 12);
        for src in 0..6 {
            for dst in 0..6 {
                let path = route_nodes(&t, src, dst);
                let cw = (dst + 6 - src) % 6;
                assert_eq!(path.len() - 1, cw.min(6 - cw));
            }
        }
        // The exact tie (distance 3) goes clockwise.
        assert_eq!(t.route(0, 3), vec![0, 1, 2]);
    }

    #[test]
    fn link_ids_are_dense_and_disjoint() {
        for t in [build_topology(TopologyKind::Line, 4), build_topology(TopologyKind::Ring, 4)] {
            let mut seen = std::collections::HashSet::new();
            for l in 0..t.n_links() {
                let (from, to) = t.link_ends(l);
                assert!(from < t.nodes() && to < t.nodes());
                assert_ne!(from, to);
                assert!(seen.insert((from, to, l)));
            }
        }
    }
}
