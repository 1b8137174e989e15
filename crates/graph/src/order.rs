//! Node relabellings for the order-aware operator build.
//!
//! Preprocessing retains only labeled rows, split by split. Diffusing over a
//! graph whose rows are already in split order (`train ‖ val ‖ test ‖
//! unlabeled`) turns "gather the retained rows of every hop" into keeping
//! or copying contiguous row ranges. A [`NodeOrder`] names that relabelling;
//! [`crate::Operator::base_in`] builds an operator directly in it.

/// A permutation of a graph's nodes: position `i` holds old node
/// `order[i]`, and old node `v` sits at position `rank(v)`.
///
/// # Example
///
/// ```
/// use ppgnn_graph::NodeOrder;
///
/// let order = NodeOrder::heads_first(5, &[&[3, 1], &[4]]);
/// assert_eq!(order.as_slice(), &[3, 1, 4, 0, 2]);
/// assert_eq!(order.rank(4), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOrder {
    order: Vec<usize>,
    rank: Vec<u32>,
}

impl NodeOrder {
    /// The ids of `heads` first, list by list in the order given, then
    /// every node no list names, ascending.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= n` or is named twice.
    pub fn heads_first(n: usize, heads: &[&[usize]]) -> Self {
        const UNPLACED: u32 = u32::MAX;
        assert!(n < UNPLACED as usize, "{n} nodes exceed the u32 id space");
        let mut rank = vec![UNPLACED; n];
        let mut order = Vec::with_capacity(n);
        for &v in heads.iter().copied().flatten() {
            assert!(v < n, "node {v} out of range for {n} nodes");
            assert_eq!(rank[v], UNPLACED, "node {v} is named twice");
            rank[v] = order.len() as u32;
            order.push(v);
        }
        for (v, slot) in rank.iter_mut().enumerate() {
            if *slot == UNPLACED {
                *slot = order.len() as u32;
                order.push(v);
            }
        }
        NodeOrder { order, rank }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` for the order of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Old node ids by new position.
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// New position of old node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= len()`.
    #[inline]
    pub fn rank(&self, v: usize) -> usize {
        self.rank[v] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_lead_and_the_rest_ascend() {
        let order = NodeOrder::heads_first(6, &[&[5], &[], &[2, 0]]);
        assert_eq!(order.as_slice(), &[5, 2, 0, 1, 3, 4]);
        for (i, &v) in order.as_slice().iter().enumerate() {
            assert_eq!(order.rank(v), i);
        }
        let identity = NodeOrder::heads_first(3, &[]);
        assert_eq!(identity.as_slice(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "named twice")]
    fn repeated_heads_are_rejected() {
        NodeOrder::heads_first(4, &[&[1], &[1]]);
    }
}
