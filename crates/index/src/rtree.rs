//! A dynamic R-tree (Guttman 1984) with quadratic node splitting.

use crate::mbr::Mbr;
use std::collections::BinaryHeap;

/// Default maximum entries per node.
pub const DEFAULT_MAX_ENTRIES: usize = 16;

/// An R-tree mapping d-dimensional rectangles to payloads of type `T`.
pub struct RTree<T> {
    dims: usize,
    max_entries: usize,
    min_entries: usize,
    root: Node<T>,
    len: usize,
}

enum Node<T> {
    Leaf(Vec<(Mbr, T)>),
    Inner(Vec<(Mbr, Node<T>)>),
}

impl<T> Node<T> {
    fn mbr(&self) -> Option<Mbr> {
        let mut boxes: Box<dyn Iterator<Item = &Mbr>> = match self {
            Node::Leaf(entries) => Box::new(entries.iter().map(|(m, _)| m)),
            Node::Inner(children) => Box::new(children.iter().map(|(m, _)| m)),
        };
        let first = boxes.next()?.clone();
        Some(boxes.fold(first, |acc, m| acc.union(m)))
    }

    fn len(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Inner(children) => children.len(),
        }
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree over `dims`-dimensional rectangles with the
    /// default node capacity.
    pub fn new(dims: usize) -> Self {
        Self::with_capacity(dims, DEFAULT_MAX_ENTRIES)
    }

    /// Creates an empty tree with an explicit node capacity `M` (minimum
    /// fill is `M / 2`, per Guttman's recommendation upper bound).
    ///
    /// # Panics
    /// Panics when `dims == 0` or `max_entries < 4`.
    pub fn with_capacity(dims: usize, max_entries: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        assert!(max_entries >= 4, "node capacity must be at least 4");
        RTree {
            dims,
            max_entries,
            min_entries: (max_entries / 2).max(2),
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Height of the tree (a lone leaf has height 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Inner(children) = node {
            h += 1;
            node = &children[0].1;
        }
        h
    }

    /// Inserts `value` under bounding box `mbr`.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn insert(&mut self, mbr: Mbr, value: T) {
        assert_eq!(mbr.dims(), self.dims, "MBR dimensionality mismatch");
        let max = self.max_entries;
        let min = self.min_entries;
        if let Some((sib_mbr, sibling)) = insert_rec(&mut self.root, mbr, value, max, min) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            let old_mbr = old_root.mbr().expect("split root is non-empty");
            self.root = Node::Inner(vec![(old_mbr, old_root), (sib_mbr, sibling)]);
        }
        self.len += 1;
    }

    /// Collects references to every payload whose box intersects `query`.
    pub fn search_intersecting<'a>(&'a self, query: &Mbr) -> Vec<&'a T> {
        let mut out = Vec::new();
        search_rec(&self.root, query, &mut out);
        out
    }

    /// Collects `(mbr, payload)` pairs whose box intersects `query`.
    pub fn search_entries<'a>(&'a self, query: &Mbr) -> Vec<(&'a Mbr, &'a T)> {
        let mut out = Vec::new();
        search_entries_rec(&self.root, query, &mut out);
        out
    }

    /// Visits every entry (no spatial filter).
    pub fn for_each(&self, mut f: impl FnMut(&Mbr, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Mbr, &T)) {
            match node {
                Node::Leaf(entries) => {
                    for (m, v) in entries {
                        f(m, v);
                    }
                }
                Node::Inner(children) => {
                    for (_, c) in children {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Best-first k-nearest-neighbour search from `point`, using MINDIST
    /// pruning. Returns up to `k` `(distance, payload)` pairs ordered by
    /// ascending Euclidean distance (computed between `point` and each
    /// entry's box).
    pub fn nearest(&self, point: &[f64], k: usize) -> Vec<(f64, &T)> {
        assert_eq!(
            point.len(),
            self.dims,
            "query point dimensionality mismatch"
        );
        if k == 0 || self.len == 0 {
            return Vec::new();
        }
        // Max-heap on Reverse(dist) = min-heap by distance.
        enum Item<'a, T> {
            Node(&'a Node<T>),
            Entry(&'a T),
        }
        struct Queued<'a, T> {
            dist: f64,
            item: Item<'a, T>,
        }
        impl<T> PartialEq for Queued<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist == other.dist
            }
        }
        impl<T> Eq for Queued<'_, T> {}
        impl<T> PartialOrd for Queued<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for Queued<'_, T> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reversed: smaller distance = greater priority.
                other
                    .dist
                    .partial_cmp(&self.dist)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }
        }

        let mut heap: BinaryHeap<Queued<'_, T>> = BinaryHeap::new();
        heap.push(Queued {
            dist: 0.0,
            item: Item::Node(&self.root),
        });
        let mut out = Vec::with_capacity(k.min(self.len));
        while let Some(Queued { dist, item }) = heap.pop() {
            match item {
                Item::Entry(v) => {
                    out.push((dist.sqrt(), v));
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(Node::Leaf(entries)) => {
                    for (m, v) in entries {
                        heap.push(Queued {
                            dist: m.min_dist_sq(point),
                            item: Item::Entry(v),
                        });
                    }
                }
                Item::Node(Node::Inner(children)) => {
                    for (m, c) in children {
                        heap.push(Queued {
                            dist: m.min_dist_sq(point),
                            item: Item::Node(c),
                        });
                    }
                }
            }
        }
        out
    }

    /// Constructs a tree directly from pre-built levels (used by STR bulk
    /// loading). Internal to the crate.
    pub(crate) fn from_parts(
        dims: usize,
        max_entries: usize,
        root: Vec<(Mbr, Vec<(Mbr, T)>)>,
        len: usize,
    ) -> Self {
        // `root` is a list of leaf nodes with their MBRs; build upper levels
        // by repeatedly packing groups of `max_entries`.
        let mut level: Vec<(Mbr, Node<T>)> = root
            .into_iter()
            .map(|(m, entries)| (m, Node::Leaf(entries)))
            .collect();
        if level.is_empty() {
            return RTree::with_capacity(dims, max_entries);
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(max_entries));
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let children: Vec<(Mbr, Node<T>)> = iter.by_ref().take(max_entries).collect();
                let mbr = children
                    .iter()
                    .map(|(m, _)| m.clone())
                    .reduce(|a, b| a.union(&b))
                    .expect("chunk is non-empty");
                next.push((mbr, Node::Inner(children)));
            }
            level = next;
        }
        let (_, root_node) = level.pop().expect("one root remains");
        RTree {
            dims,
            max_entries,
            min_entries: (max_entries / 2).max(2),
            root: root_node,
            len,
        }
    }
}

impl<T: PartialEq> RTree<T> {
    /// Removes one entry equal to (`mbr`, `value`). Returns true when an
    /// entry was removed. Underfull nodes are condensed and their entries
    /// re-inserted (Guttman's CondenseTree).
    pub fn remove(&mut self, mbr: &Mbr, value: &T) -> bool {
        let min = self.min_entries;
        let mut orphans = Vec::new();
        let removed = remove_rec(&mut self.root, mbr, value, min, &mut orphans);
        if !removed {
            debug_assert!(orphans.is_empty());
            return false;
        }
        self.len -= 1;
        // Shrink the root while it is an inner node with a single child.
        loop {
            match &mut self.root {
                Node::Inner(children) if children.len() == 1 => {
                    let (_, child) = children.pop().expect("one child");
                    self.root = child;
                }
                Node::Inner(children) if children.is_empty() => {
                    self.root = Node::Leaf(Vec::new());
                }
                _ => break,
            }
        }
        self.len -= orphans.len();
        for (m, v) in orphans {
            self.insert(m, v);
        }
        true
    }
}

fn search_rec<'a, T>(node: &'a Node<T>, query: &Mbr, out: &mut Vec<&'a T>) {
    match node {
        Node::Leaf(entries) => {
            for (m, v) in entries {
                if m.intersects(query) {
                    out.push(v);
                }
            }
        }
        Node::Inner(children) => {
            for (m, c) in children {
                if m.intersects(query) {
                    search_rec(c, query, out);
                }
            }
        }
    }
}

fn search_entries_rec<'a, T>(node: &'a Node<T>, query: &Mbr, out: &mut Vec<(&'a Mbr, &'a T)>) {
    match node {
        Node::Leaf(entries) => {
            for (m, v) in entries {
                if m.intersects(query) {
                    out.push((m, v));
                }
            }
        }
        Node::Inner(children) => {
            for (m, c) in children {
                if m.intersects(query) {
                    search_entries_rec(c, query, out);
                }
            }
        }
    }
}

/// Recursive insert. Returns `Some((mbr, sibling))` when the child split.
fn insert_rec<T>(
    node: &mut Node<T>,
    mbr: Mbr,
    value: T,
    max: usize,
    min: usize,
) -> Option<(Mbr, Node<T>)> {
    match node {
        Node::Leaf(entries) => {
            entries.push((mbr, value));
            if entries.len() > max {
                let (left, right) = quadratic_split(std::mem::take(entries), min);
                *entries = left;
                let right_mbr = mbr_of(&right);
                return Some((right_mbr, Node::Leaf(right)));
            }
            None
        }
        Node::Inner(children) => {
            // ChooseSubtree: least enlargement, ties by smallest area.
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, (m1, _)), (_, (m2, _))| {
                    let e1 = m1.enlargement(&mbr);
                    let e2 = m2.enlargement(&mbr);
                    e1.partial_cmp(&e2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            m1.area()
                                .partial_cmp(&m2.area())
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                })
                .map(|(i, _)| i)
                .expect("inner node has children");
            children[idx].0.expand(&mbr);
            if let Some((sib_mbr, sibling)) = insert_rec(&mut children[idx].1, mbr, value, max, min)
            {
                // Recompute the split child's MBR (it shrank).
                children[idx].0 = children[idx].1.mbr().expect("non-empty after split");
                children.push((sib_mbr, sibling));
                if children.len() > max {
                    let (left, right) = quadratic_split(std::mem::take(children), min);
                    *children = left;
                    let right_mbr = mbr_of(&right);
                    return Some((right_mbr, Node::Inner(right)));
                }
            }
            None
        }
    }
}

/// Recursive delete with condensing: when a node underflows its surviving
/// leaf entries are drained into `orphans` for re-insertion.
fn remove_rec<T: PartialEq>(
    node: &mut Node<T>,
    mbr: &Mbr,
    value: &T,
    min: usize,
    orphans: &mut Vec<(Mbr, T)>,
) -> bool {
    match node {
        Node::Leaf(entries) => {
            if let Some(pos) = entries.iter().position(|(m, v)| m == mbr && v == value) {
                entries.swap_remove(pos);
                true
            } else {
                false
            }
        }
        Node::Inner(children) => {
            for i in 0..children.len() {
                if !children[i].0.intersects(mbr) {
                    continue;
                }
                if remove_rec(&mut children[i].1, mbr, value, min, orphans) {
                    if children[i].1.len() < min {
                        // Condense: drop the node, orphan its leaf entries.
                        let (_, dead) = children.swap_remove(i);
                        collect_leaf_entries(dead, orphans);
                    } else {
                        children[i].0 = children[i].1.mbr().expect("non-empty child");
                    }
                    return true;
                }
            }
            false
        }
    }
}

fn collect_leaf_entries<T>(node: Node<T>, out: &mut Vec<(Mbr, T)>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Inner(children) => {
            for (_, c) in children {
                collect_leaf_entries(c, out);
            }
        }
    }
}

fn mbr_of<E: HasMbr>(entries: &[E]) -> Mbr {
    let mut it = entries.iter();
    let first = it.next().expect("non-empty entry list").mbr_ref().clone();
    it.fold(first, |acc, e| acc.union(e.mbr_ref()))
}

trait HasMbr {
    fn mbr_ref(&self) -> &Mbr;
}

impl<T> HasMbr for (Mbr, T) {
    fn mbr_ref(&self) -> &Mbr {
        &self.0
    }
}

/// Guttman's quadratic split: pick the pair of entries wasting the most area
/// as seeds, then assign remaining entries to the group whose MBR grows
/// least, honouring the minimum fill.
fn quadratic_split<E: HasMbr>(mut entries: Vec<E>, min: usize) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() >= 2);
    // PickSeeds.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let mi = entries[i].mbr_ref();
            let mj = entries[j].mbr_ref();
            let waste = mi.union(mj).area() - mi.area() - mj.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove the higher index first to keep the lower valid.
    let seed2 = entries.swap_remove(s2.max(s1));
    let seed1 = entries.swap_remove(s2.min(s1));
    let mut mbr1 = seed1.mbr_ref().clone();
    let mut mbr2 = seed2.mbr_ref().clone();
    let mut g1 = vec![seed1];
    let mut g2 = vec![seed2];

    while let Some(next) = entries.pop() {
        let remaining = entries.len();
        // Force assignment when a group must take everything left to reach
        // the minimum fill.
        if g1.len() + remaining < min {
            mbr1.expand(next.mbr_ref());
            g1.push(next);
            continue;
        }
        if g2.len() + remaining < min {
            mbr2.expand(next.mbr_ref());
            g2.push(next);
            continue;
        }
        let e1 = mbr1.enlargement(next.mbr_ref());
        let e2 = mbr2.enlargement(next.mbr_ref());
        let into_first = match e1.partial_cmp(&e2) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Greater) => false,
            _ => mbr1.area() <= mbr2.area(),
        };
        if into_first {
            mbr1.expand(next.mbr_ref());
            g1.push(next);
        } else {
            mbr2.expand(next.mbr_ref());
            g2.push(next);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(x: f64, y: f64) -> Mbr {
        Mbr::point(&[x, y])
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(vec![x0, y0], vec![x1, y1])
    }

    /// Deterministic pseudo-random stream (LCG) for structure-independent
    /// bulk tests without pulling `rand` into the unit tests.
    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn insert_and_point_search() {
        let mut t = RTree::new(2);
        for i in 0..100 {
            t.insert(point(i as f64, i as f64), i);
        }
        assert_eq!(t.len(), 100);
        let hits = t.search_intersecting(&rect(9.5, 9.5, 12.5, 12.5));
        let mut got: Vec<i32> = hits.into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 11, 12]);
    }

    #[test]
    fn search_matches_linear_scan() {
        let mut t = RTree::with_capacity(3, 8);
        let mut seed = 42u64;
        let mut all = Vec::new();
        for i in 0..500 {
            let lo: Vec<f64> = (0..3).map(|_| lcg(&mut seed)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + 0.05).collect();
            let m = Mbr::new(lo, hi);
            all.push((m.clone(), i));
            t.insert(m, i);
        }
        let query = Mbr::new(vec![0.2, 0.2, 0.2], vec![0.5, 0.5, 0.5]);
        let mut expect: Vec<i32> = all
            .iter()
            .filter(|(m, _)| m.intersects(&query))
            .map(|(_, v)| *v)
            .collect();
        expect.sort_unstable();
        let mut got: Vec<i32> = t.search_intersecting(&query).into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert!(!expect.is_empty(), "query should match something");
    }

    #[test]
    fn tree_grows_in_height() {
        let mut t = RTree::with_capacity(2, 4);
        for i in 0..200 {
            t.insert(point((i % 20) as f64, (i / 20) as f64), i);
        }
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.len(), 200);
        // Everything still findable.
        assert_eq!(
            t.search_intersecting(&rect(-1.0, -1.0, 30.0, 30.0)).len(),
            200
        );
    }

    #[test]
    fn nearest_neighbors_exact() {
        let mut t = RTree::new(2);
        for x in 0..10 {
            for y in 0..10 {
                t.insert(point(x as f64, y as f64), (x, y));
            }
        }
        let nn = t.nearest(&[3.2, 3.1], 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(*nn[0].1, (3, 3));
        assert!(nn[0].0 <= nn[1].0 && nn[1].0 <= nn[2].0);
        // Brute-force verification of the k=5 result set.
        let nn5 = t.nearest(&[7.7, 1.2], 5);
        let mut brute: Vec<(f64, (i32, i32))> = (0..10)
            .flat_map(|x| (0..10).map(move |y| (x, y)))
            .map(|(x, y)| {
                let dx = x as f64 - 7.7;
                let dy = y as f64 - 1.2;
                ((dx * dx + dy * dy).sqrt(), (x, y))
            })
            .collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (got, want) in nn5.iter().zip(brute.iter()) {
            assert!((got.0 - want.0).abs() < 1e-9);
        }
    }

    #[test]
    fn nearest_with_k_larger_than_len() {
        let mut t = RTree::new(2);
        t.insert(point(0.0, 0.0), 'a');
        t.insert(point(1.0, 1.0), 'b');
        for k in [10, usize::MAX] {
            let nn = t.nearest(&[0.0, 0.0], k);
            assert_eq!(nn.len(), 2);
            assert_eq!(*nn[0].1, 'a');
        }
    }

    #[test]
    fn nearest_on_empty() {
        let t: RTree<u8> = RTree::new(2);
        assert!(t.nearest(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn remove_existing_and_missing() {
        let mut t = RTree::with_capacity(2, 4);
        for i in 0..50 {
            t.insert(point(i as f64, 0.0), i);
        }
        assert!(t.remove(&point(7.0, 0.0), &7));
        assert_eq!(t.len(), 49);
        assert!(!t.remove(&point(7.0, 0.0), &7), "double remove");
        assert!(!t.remove(&point(3.0, 0.0), &999), "wrong value");
        let hits = t.search_intersecting(&point(7.0, 0.0));
        assert!(hits.is_empty());
        // Everything else intact.
        assert_eq!(
            t.search_intersecting(&rect(-1.0, -1.0, 60.0, 1.0)).len(),
            49
        );
    }

    #[test]
    fn remove_down_to_empty() {
        let mut t = RTree::with_capacity(2, 4);
        for i in 0..30 {
            t.insert(point(i as f64, i as f64), i);
        }
        for i in 0..30 {
            assert!(t.remove(&point(i as f64, i as f64), &i), "remove {i}");
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        // Tree is reusable after emptying.
        t.insert(point(1.0, 1.0), 123);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn for_each_visits_all() {
        let mut t = RTree::with_capacity(2, 5);
        for i in 0..64 {
            t.insert(point(i as f64, -(i as f64)), i);
        }
        let mut seen = [false; 64];
        t.for_each(|_, &v| seen[v as usize] = true);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn duplicate_boxes_supported() {
        let mut t = RTree::new(2);
        for i in 0..10 {
            t.insert(point(1.0, 1.0), i);
        }
        assert_eq!(t.search_intersecting(&point(1.0, 1.0)).len(), 10);
        assert!(t.remove(&point(1.0, 1.0), &5));
        assert_eq!(t.search_intersecting(&point(1.0, 1.0)).len(), 9);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panic() {
        let mut t = RTree::new(2);
        t.insert(Mbr::point(&[1.0, 2.0, 3.0]), 0);
    }

    #[test]
    fn search_entries_returns_boxes() {
        let mut t = RTree::new(2);
        t.insert(rect(0.0, 0.0, 1.0, 1.0), 'a');
        t.insert(rect(5.0, 5.0, 6.0, 6.0), 'b');
        let hits = t.search_entries(&rect(0.5, 0.5, 0.6, 0.6));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].1, 'a');
        assert_eq!(hits[0].0, &rect(0.0, 0.0, 1.0, 1.0));
    }
}
