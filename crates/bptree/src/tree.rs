//! The slab-allocated B+-tree with inline node storage.

use std::fmt;
use std::ops::{Bound, RangeBounds};

use crate::bytesize::ByteSize;
use crate::inline::InlineVec;

/// Sentinel index meaning "no node".
const NIL: u32 = u32::MAX;

/// Default inline node capacity: supports orders up to 64 (the workspace
/// production order), since internal nodes transiently hold `order + 1`
/// children between insert and split.
pub const DEFAULT_NODE_CAP: usize = 65;

/// Deepest descent the removal path tracks inline. Minimum branching is 2
/// (a root may have 2 children), and node indices are `u32`, so no
/// reachable tree exceeds 33 levels; 64 leaves slack for pathological
/// shapes without touching the heap.
const MAX_DEPTH: usize = 64;

/// A node slot in the slab. Keys, values, and child indices live inline
/// ([`InlineVec`]), so the `Vec<Node>` slab is one contiguous arena and
/// node mutations never call the global allocator.
#[derive(Debug)]
enum Node<K, V, const CAP: usize> {
    /// Routing node: `children.len() == keys.len() + 1`; child `i` holds
    /// keys `k` with `keys[i-1] <= k < keys[i]`.
    Internal {
        keys: InlineVec<K, CAP>,
        children: InlineVec<u32, CAP>,
    },
    /// Data node; leaves form a doubly linked, key-sorted list.
    Leaf {
        keys: InlineVec<K, CAP>,
        vals: InlineVec<V, CAP>,
        prev: u32,
        next: u32,
    },
    /// Recycled slot on the free list.
    Free,
}

/// A B+-tree mapping ordered keys to values, with linked leaves and O(1)
/// byte-size accounting. See the [crate docs](crate) for motivation.
///
/// `order` is the maximum number of children of an internal node; leaves
/// hold at most `order - 1` records. Minimum occupancy follows the textbook
/// rules (`⌈order/2⌉` children, `⌊(order-1)/2⌋` leaf records), so the tree
/// stays balanced under any delete sequence.
///
/// `CAP` is the compile-time inline capacity of each node's key/value/
/// child arrays; it must satisfy `order + 1 <= CAP` (internal nodes hold
/// `order + 1` children for an instant before splitting). The default
/// covers every order up to [`DEFAULT_NODE_CAP`]` - 1 = 64`; wider trees
/// pick a bigger `CAP` explicitly, e.g. `BPlusTree::<u64, u64, 130>::new(128)`.
pub struct BPlusTree<K, V, const CAP: usize = DEFAULT_NODE_CAP> {
    slab: Vec<Node<K, V, CAP>>,
    free: Vec<u32>,
    root: u32,
    /// Leftmost leaf — the head of the leaf chain.
    head: u32,
    order: usize,
    len: usize,
    bytes: u64,
}

impl<K: Ord + Clone, V: ByteSize, const CAP: usize> BPlusTree<K, V, CAP> {
    /// Create an empty tree with the given branching factor.
    ///
    /// # Panics
    ///
    /// Panics if `order < 4` (smaller orders cannot satisfy the occupancy
    /// rules during rebalancing) or if `order + 1 > CAP` (the node arrays
    /// could not hold the transient pre-split occupancy).
    pub fn new(order: usize) -> Self {
        assert!(order >= 4, "B+-tree order must be at least 4");
        assert!(
            order < CAP,
            "B+-tree order {order} needs inline node capacity {}, but CAP = {CAP}",
            order + 1
        );
        let root = Node::Leaf {
            keys: InlineVec::new(),
            vals: InlineVec::new(),
            prev: NIL,
            next: NIL,
        };
        let slab = vec![root];
        Self {
            slab,
            free: Vec::with_capacity(0),
            root: 0,
            head: 0,
            order,
            len: 0,
            bytes: 0,
        }
    }

    /// Number of records stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total bytes of stored values (`||n||` in the paper's notation).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Heap bytes of the tree's node storage: the node slab's capacity
    /// and the free list's. A value's own heap allocation is not counted.
    pub fn node_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Node<K, V, CAP>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// The configured branching factor.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    #[inline]
    fn leaf_max(&self) -> usize {
        self.order - 1
    }

    #[inline]
    fn leaf_min(&self) -> usize {
        (self.order - 1) / 2
    }

    #[inline]
    fn internal_min_children(&self) -> usize {
        self.order.div_ceil(2)
    }

    // ---------------------------------------------------------- allocation

    fn alloc(&mut self, node: Node<K, V, CAP>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = node;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(node);
            idx
        }
    }

    fn dealloc(&mut self, idx: u32) {
        self.slab[idx as usize] = Node::Free;
        self.free.push(idx);
    }

    // -------------------------------------------------------------- lookup

    /// Index of the child of an internal node that covers `key`.
    #[inline]
    fn child_for(keys: &[K], key: &K) -> usize {
        keys.partition_point(|s| s <= key)
    }

    /// Descend to the leaf that would contain `key`.
    fn find_leaf(&self, key: &K) -> u32 {
        let mut idx = self.root;
        loop {
            match &self.slab[idx as usize] {
                Node::Internal { keys, children } => {
                    idx = children[Self::child_for(keys, key)];
                }
                Node::Leaf { .. } => return idx,
                Node::Free => unreachable!("descended into freed node"),
            }
        }
    }

    /// Look up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.find_leaf(key);
        match &self.slab[leaf as usize] {
            Node::Leaf { keys, vals, .. } => keys.binary_search(key).ok().map(|pos| &vals[pos]),
            _ => unreachable!(),
        }
    }

    /// Mutable lookup. Note: callers must not change the value's
    /// [`ByteSize`] through this reference; use `insert` to replace a value
    /// so the byte accounting stays correct.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let leaf = self.find_leaf(key);
        match &mut self.slab[leaf as usize] {
            Node::Leaf { keys, vals, .. } => match keys.binary_search(key) {
                Ok(pos) => Some(&mut vals[pos]),
                Err(_) => None,
            },
            _ => unreachable!(),
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    // ------------------------------------------------------------ insertion

    /// Insert a record, returning the previous value for `key` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.upsert(key, |_| Some(value)) {
            Upsert::Replaced(old) => Some(old),
            Upsert::Inserted | Upsert::Refused => None,
        }
    }

    /// Insert or replace `key` in one descent, with the decision taken at
    /// the leaf: `make` sees the value stored under `key` (if any) and
    /// returns the value to store, or `None` to leave the tree untouched.
    /// `make` runs exactly once, before anything in the tree changes — a
    /// caller can run an admission check in it and build the value only
    /// once that check passed.
    pub fn upsert(&mut self, key: K, make: impl FnOnce(Option<&V>) -> Option<V>) -> Upsert<V> {
        let split = match self.insert_rec(self.root, key, make) {
            InsertOutcome::Refused => return Upsert::Refused,
            InsertOutcome::Replaced(old) => return Upsert::Replaced(old),
            InsertOutcome::Inserted(split) => split,
            // A root leaf has no sibling to pass records to.
            InsertOutcome::Overfull => Some(self.split_leaf(self.root)),
        };
        if let Some((sep, right)) = split {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let mut keys = InlineVec::new();
            keys.push(sep);
            let mut children = InlineVec::new();
            children.push(old_root);
            children.push(right);
            self.root = self.alloc(Node::Internal { keys, children });
        }
        Upsert::Inserted
    }

    fn insert_rec(
        &mut self,
        idx: u32,
        key: K,
        make: impl FnOnce(Option<&V>) -> Option<V>,
    ) -> InsertOutcome<K, V> {
        // Find the child to descend into without holding a borrow.
        let child = match &self.slab[idx as usize] {
            Node::Internal { keys, children } => {
                let pos = Self::child_for(keys, &key);
                Some((pos, children[pos]))
            }
            Node::Leaf { .. } => None,
            Node::Free => unreachable!(),
        };

        if let Some((pos, child_idx)) = child {
            let mut outcome = self.insert_rec(child_idx, key, make);
            if let InsertOutcome::Overfull = outcome {
                outcome = InsertOutcome::Inserted(self.relieve_leaf(idx, pos, child_idx));
            }
            if let InsertOutcome::Inserted(Some((sep, new_right))) = outcome {
                // Child split: thread the separator into this node.
                let needs_split = {
                    let Node::Internal { keys, children } = &mut self.slab[idx as usize] else {
                        unreachable!()
                    };
                    let pos = Self::child_for(keys, &sep);
                    keys.insert(pos, sep);
                    children.insert(pos + 1, new_right);
                    children.len() > self.order
                };
                let split = if needs_split {
                    Some(self.split_internal(idx))
                } else {
                    None
                };
                InsertOutcome::Inserted(split)
            } else {
                outcome
            }
        } else {
            // Leaf insertion.
            let appended_overfull = {
                let Node::Leaf { keys, vals, .. } = &mut self.slab[idx as usize] else {
                    unreachable!()
                };
                match keys.binary_search(&key) {
                    Ok(pos) => {
                        let Some(value) = make(Some(&vals[pos])) else {
                            return InsertOutcome::Refused;
                        };
                        let add = value.byte_size() as u64;
                        let old = std::mem::replace(&mut vals[pos], value);
                        self.bytes = self.bytes - old.byte_size() as u64 + add;
                        return InsertOutcome::Replaced(old);
                    }
                    Err(pos) => {
                        let Some(value) = make(None) else {
                            return InsertOutcome::Refused;
                        };
                        self.bytes += value.byte_size() as u64;
                        self.len += 1;
                        let appended = pos == keys.len();
                        keys.insert(pos, key);
                        vals.insert(pos, value);
                        if keys.len() <= self.leaf_max() {
                            return InsertOutcome::Inserted(None);
                        }
                        appended
                    }
                }
            };
            if appended_overfull {
                InsertOutcome::Overfull
            } else {
                InsertOutcome::Inserted(Some(self.split_leaf(idx)))
            }
        }
    }

    /// Make room in the leaf `child` at position `pos` of `parent`, one
    /// record over full after an append at its right end: fill its left
    /// sibling from its front if that sibling has room, and split it only
    /// if not. Returns the split, if any. Records arriving in key order
    /// thus leave full leaves behind them, not the half-full ones a split
    /// alone leaves, and a load in key order touches about half the leaf
    /// memory. Any other overflow splits at once: moving records sideways
    /// on random inserts costs more than the split it saves.
    fn relieve_leaf(&mut self, parent: u32, pos: usize, child: u32) -> Option<(K, u32)> {
        if pos > 0 {
            let Node::Internal { children, .. } = &self.slab[parent as usize] else {
                unreachable!()
            };
            let left = children[pos - 1];
            // `left` holds at least `leaf_min`, so `child` keeps more.
            let room = self.leaf_max() - self.leaf_len(left);
            if room > 0 {
                self.shift_leaf_left(parent, pos, left, child, room);
                return None;
            }
        }
        Some(self.split_leaf(child))
    }

    /// Move the first `n` records of leaf `child` (position `pos` of
    /// `parent`) onto the end of its left sibling `left`, and re-point the
    /// separator between them.
    fn shift_leaf_left(&mut self, parent: u32, pos: usize, left: u32, child: u32, n: usize) {
        let (mut moved_keys, mut moved_vals, new_first) = {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[child as usize] else {
                unreachable!()
            };
            let rest_keys = keys.split_off(n);
            let rest_vals = vals.split_off(n);
            let new_first = rest_keys[0].clone();
            (
                std::mem::replace(keys, rest_keys),
                std::mem::replace(vals, rest_vals),
                new_first,
            )
        };
        {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[left as usize] else {
                unreachable!()
            };
            keys.append(&mut moved_keys);
            vals.append(&mut moved_vals);
        }
        let Node::Internal { keys, .. } = &mut self.slab[parent as usize] else {
            unreachable!()
        };
        keys[pos - 1] = new_first;
    }

    fn split_leaf(&mut self, idx: u32) -> (K, u32) {
        let (right_keys, right_vals, old_next) = {
            let Node::Leaf {
                keys, vals, next, ..
            } = &mut self.slab[idx as usize]
            else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), vals.split_off(mid), *next)
        };
        let sep = right_keys[0].clone();
        let right = self.alloc(Node::Leaf {
            keys: right_keys,
            vals: right_vals,
            prev: idx,
            next: old_next,
        });
        if old_next != NIL {
            if let Node::Leaf { prev, .. } = &mut self.slab[old_next as usize] {
                *prev = right;
            }
        }
        if let Node::Leaf { next, .. } = &mut self.slab[idx as usize] {
            *next = right;
        }
        (sep, right)
    }

    fn split_internal(&mut self, idx: u32) -> (K, u32) {
        let (sep, right_keys, right_children) = {
            let Node::Internal { keys, children } = &mut self.slab[idx as usize] else {
                unreachable!()
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid + 1);
            let sep = keys.pop().expect("mid separator");
            let right_children = children.split_off(mid + 1);
            (sep, right_keys, right_children)
        };
        let right = self.alloc(Node::Internal {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    // -------------------------------------------------------------- removal

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        // Record the descent path: (node index, chosen child position) —
        // inline, so removals stay allocation-free.
        let mut path: InlineVec<(u32, usize), MAX_DEPTH> = InlineVec::new();
        let mut idx = self.root;
        loop {
            match &self.slab[idx as usize] {
                Node::Internal { keys, children } => {
                    let pos = Self::child_for(keys, key);
                    path.push((idx, pos));
                    idx = children[pos];
                }
                Node::Leaf { .. } => break,
                Node::Free => unreachable!(),
            }
        }

        let removed = {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[idx as usize] else {
                unreachable!()
            };
            match keys.binary_search(key) {
                Ok(pos) => {
                    keys.remove(pos);
                    Some(vals.remove(pos))
                }
                Err(_) => None,
            }
        };
        let value = removed?;
        self.len -= 1;
        self.bytes -= value.byte_size() as u64;

        // Walk back up, fixing any underflow the removal caused.
        let mut child = idx;
        while let Some((parent, pos)) = path.pop() {
            if !self.is_underfull(child) {
                break;
            }
            self.rebalance(parent, pos);
            child = parent;
        }
        self.collapse_root();
        Some(value)
    }

    fn is_underfull(&self, idx: u32) -> bool {
        if idx == self.root {
            return false;
        }
        match &self.slab[idx as usize] {
            Node::Leaf { keys, .. } => keys.len() < self.leaf_min(),
            Node::Internal { children, .. } => children.len() < self.internal_min_children(),
            Node::Free => unreachable!(),
        }
    }

    /// If the root is an internal node with a single child, shrink the tree.
    fn collapse_root(&mut self) {
        while let Node::Internal { children, .. } = &self.slab[self.root as usize] {
            if children.len() > 1 {
                break;
            }
            let only = children[0];
            self.dealloc(self.root);
            self.root = only;
        }
    }

    /// Fix the underfull child at `pos` of `parent` by borrowing from a
    /// sibling or merging with one.
    fn rebalance(&mut self, parent: u32, pos: usize) {
        let (child, left, right) = {
            let Node::Internal { children, .. } = &self.slab[parent as usize] else {
                unreachable!()
            };
            let child = children[pos];
            let left = if pos > 0 {
                Some(children[pos - 1])
            } else {
                None
            };
            let right = children.get(pos + 1).copied();
            (child, left, right)
        };

        let is_leaf = matches!(self.slab[child as usize], Node::Leaf { .. });

        if is_leaf {
            if let Some(l) = left {
                if self.leaf_len(l) > self.leaf_min() {
                    self.borrow_leaf_from_left(parent, pos, l, child);
                    return;
                }
            }
            if let Some(r) = right {
                if self.leaf_len(r) > self.leaf_min() {
                    self.borrow_leaf_from_right(parent, pos, child, r);
                    return;
                }
            }
            // Merge with a sibling (left preferred).
            if let Some(l) = left {
                self.merge_leaves(parent, pos - 1, l, child);
            } else if let Some(r) = right {
                self.merge_leaves(parent, pos, child, r);
            }
        } else {
            if let Some(l) = left {
                if self.internal_children(l) > self.internal_min_children() {
                    self.borrow_internal_from_left(parent, pos, l, child);
                    return;
                }
            }
            if let Some(r) = right {
                if self.internal_children(r) > self.internal_min_children() {
                    self.borrow_internal_from_right(parent, pos, child, r);
                    return;
                }
            }
            if let Some(l) = left {
                self.merge_internals(parent, pos - 1, l, child);
            } else if let Some(r) = right {
                self.merge_internals(parent, pos, child, r);
            }
        }
    }

    fn leaf_len(&self, idx: u32) -> usize {
        match &self.slab[idx as usize] {
            Node::Leaf { keys, .. } => keys.len(),
            _ => unreachable!(),
        }
    }

    fn internal_children(&self, idx: u32) -> usize {
        match &self.slab[idx as usize] {
            Node::Internal { children, .. } => children.len(),
            _ => unreachable!(),
        }
    }

    fn borrow_leaf_from_left(&mut self, parent: u32, pos: usize, left: u32, child: u32) {
        let (k, v) = {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[left as usize] else {
                unreachable!()
            };
            (keys.pop().unwrap(), vals.pop().unwrap())
        };
        let new_sep = k.clone();
        {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[child as usize] else {
                unreachable!()
            };
            keys.insert(0, k);
            vals.insert(0, v);
        }
        let Node::Internal { keys, .. } = &mut self.slab[parent as usize] else {
            unreachable!()
        };
        keys[pos - 1] = new_sep;
    }

    fn borrow_leaf_from_right(&mut self, parent: u32, pos: usize, child: u32, right: u32) {
        let (k, v, new_first) = {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[right as usize] else {
                unreachable!()
            };
            let k = keys.remove(0);
            let v = vals.remove(0);
            (k, v, keys[0].clone())
        };
        {
            let Node::Leaf { keys, vals, .. } = &mut self.slab[child as usize] else {
                unreachable!()
            };
            keys.push(k);
            vals.push(v);
        }
        let Node::Internal { keys, .. } = &mut self.slab[parent as usize] else {
            unreachable!()
        };
        keys[pos] = new_first;
    }

    /// Merge the leaf at child position `sep_pos + 1` into the one at
    /// `sep_pos`, dropping separator `sep_pos` from the parent.
    fn merge_leaves(&mut self, parent: u32, sep_pos: usize, left: u32, right: u32) {
        let (mut rkeys, mut rvals, rnext) = {
            let Node::Leaf {
                keys, vals, next, ..
            } = &mut self.slab[right as usize]
            else {
                unreachable!()
            };
            (std::mem::take(keys), std::mem::take(vals), *next)
        };
        {
            let Node::Leaf {
                keys, vals, next, ..
            } = &mut self.slab[left as usize]
            else {
                unreachable!()
            };
            keys.append(&mut rkeys);
            vals.append(&mut rvals);
            *next = rnext;
        }
        if rnext != NIL {
            if let Node::Leaf { prev, .. } = &mut self.slab[rnext as usize] {
                *prev = left;
            }
        }
        self.dealloc(right);
        let Node::Internal { keys, children } = &mut self.slab[parent as usize] else {
            unreachable!()
        };
        keys.remove(sep_pos);
        children.remove(sep_pos + 1);
    }

    fn borrow_internal_from_left(&mut self, parent: u32, pos: usize, left: u32, child: u32) {
        let (moved_key, moved_child) = {
            let Node::Internal { keys, children } = &mut self.slab[left as usize] else {
                unreachable!()
            };
            (keys.pop().unwrap(), children.pop().unwrap())
        };
        let sep = {
            let Node::Internal { keys, .. } = &mut self.slab[parent as usize] else {
                unreachable!()
            };
            std::mem::replace(&mut keys[pos - 1], moved_key)
        };
        let Node::Internal { keys, children } = &mut self.slab[child as usize] else {
            unreachable!()
        };
        keys.insert(0, sep);
        children.insert(0, moved_child);
    }

    fn borrow_internal_from_right(&mut self, parent: u32, pos: usize, child: u32, right: u32) {
        let (moved_key, moved_child) = {
            let Node::Internal { keys, children } = &mut self.slab[right as usize] else {
                unreachable!()
            };
            (keys.remove(0), children.remove(0))
        };
        let sep = {
            let Node::Internal { keys, .. } = &mut self.slab[parent as usize] else {
                unreachable!()
            };
            std::mem::replace(&mut keys[pos], moved_key)
        };
        let Node::Internal { keys, children } = &mut self.slab[child as usize] else {
            unreachable!()
        };
        keys.push(sep);
        children.push(moved_child);
    }

    fn merge_internals(&mut self, parent: u32, sep_pos: usize, left: u32, right: u32) {
        let sep = {
            let Node::Internal { keys, children } = &mut self.slab[parent as usize] else {
                unreachable!()
            };
            let sep = keys.remove(sep_pos);
            children.remove(sep_pos + 1);
            sep
        };
        let (mut rkeys, mut rchildren) = {
            let Node::Internal { keys, children } = &mut self.slab[right as usize] else {
                unreachable!()
            };
            (std::mem::take(keys), std::mem::take(children))
        };
        self.dealloc(right);
        let Node::Internal { keys, children } = &mut self.slab[left as usize] else {
            unreachable!()
        };
        keys.push(sep);
        keys.append(&mut rkeys);
        children.append(&mut rchildren);
    }

    // ------------------------------------------------------------- sweeping

    /// Iterate over records whose keys fall in `range`, in key order, by
    /// walking the linked leaf chain — the access pattern of the paper's
    /// Sweep-and-Migrate (Algorithm 2).
    pub fn range<R: RangeBounds<K>>(&self, range: R) -> RangeIter<'_, K, V, CAP> {
        let (leaf, pos) = match range.start_bound() {
            Bound::Unbounded => (self.head, 0),
            Bound::Included(k) => self.lower_bound(k, true),
            Bound::Excluded(k) => self.lower_bound(k, false),
        };
        RangeIter {
            tree: self,
            leaf,
            pos,
            end: match range.end_bound() {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(k.clone()),
                Bound::Excluded(k) => Bound::Excluded(k.clone()),
            },
        }
    }

    /// Iterate over all records in key order.
    pub fn iter(&self) -> RangeIter<'_, K, V, CAP> {
        self.range(..)
    }

    /// Locate the first record with key `>= k` (or `> k` when
    /// `inclusive == false`); returns `(leaf, position)`.
    fn lower_bound(&self, k: &K, inclusive: bool) -> (u32, usize) {
        let leaf = self.find_leaf(k);
        let Node::Leaf { keys, next, .. } = &self.slab[leaf as usize] else {
            unreachable!()
        };
        let pos = if inclusive {
            keys.partition_point(|key| key < k)
        } else {
            keys.partition_point(|key| key <= k)
        };
        if pos == keys.len() && *next != NIL {
            (*next, 0)
        } else {
            (leaf, pos)
        }
    }

    /// Collect (clones of) all keys in `range`, in order.
    pub fn keys_in_range<R: RangeBounds<K>>(&self, range: R) -> Vec<K> {
        self.range(range).map(|(k, _)| k.clone()).collect()
    }

    /// Remove and return every record with key in `[start, end]`, in key
    /// order. This is the destructive half of Sweep-and-Migrate: the caller
    /// ships the returned records to the destination node. The keys are
    /// listed by one linked-leaf walk; each is then removed with its own
    /// root-to-leaf descent and rebalance.
    pub fn drain_range(&mut self, start: &K, end: &K) -> Vec<(K, V)> {
        let keys = self.keys_in_range(start.clone()..=end.clone());
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let v = self.remove(&k).expect("key listed by sweep must exist");
            out.push((k, v));
        }
        out
    }

    /// Drop every record.
    pub fn clear(&mut self) {
        let order = self.order;
        *self = Self::new(order);
    }

    // ----------------------------------------------------------- validation

    /// Exhaustively check the structural invariants. Intended for tests;
    /// panics with a description of the first violation found.
    pub fn validate(&self) {
        let mut leaf_depth = None;
        let mut count = 0usize;
        let mut bytes = 0u64;
        self.validate_rec(
            self.root,
            0,
            None,
            None,
            &mut leaf_depth,
            &mut count,
            &mut bytes,
        );
        assert_eq!(count, self.len, "len does not match record count");
        assert_eq!(bytes, self.bytes, "bytes does not match accounted sizes");

        // The leaf chain must visit every record in strictly ascending order.
        let mut chain_count = 0usize;
        let mut prev_key: Option<K> = None;
        let mut prev_leaf = NIL;
        let mut idx = self.head;
        while idx != NIL {
            let Node::Leaf {
                keys, prev, next, ..
            } = &self.slab[idx as usize]
            else {
                panic!("leaf chain reached a non-leaf");
            };
            assert_eq!(*prev, prev_leaf, "prev pointer broken at leaf {idx}");
            for k in keys {
                if let Some(p) = &prev_key {
                    assert!(p < k, "leaf chain keys out of order");
                }
                prev_key = Some(k.clone());
                chain_count += 1;
            }
            prev_leaf = idx;
            idx = *next;
        }
        assert_eq!(chain_count, self.len, "leaf chain misses records");
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_rec(
        &self,
        idx: u32,
        depth: usize,
        lo: Option<&K>,
        hi: Option<&K>,
        leaf_depth: &mut Option<usize>,
        count: &mut usize,
        bytes: &mut u64,
    ) {
        match &self.slab[idx as usize] {
            Node::Leaf { keys, vals, .. } => {
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) => assert_eq!(*d, depth, "leaves at different depths"),
                }
                assert_eq!(keys.len(), vals.len());
                assert!(keys.len() <= self.leaf_max(), "overfull leaf");
                if idx != self.root {
                    assert!(keys.len() >= self.leaf_min(), "underfull leaf");
                }
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted leaf");
                if let (Some(lo), Some(first)) = (lo, keys.first()) {
                    assert!(lo <= first, "leaf key below subtree lower bound");
                }
                if let (Some(hi), Some(last)) = (hi, keys.last()) {
                    assert!(last < hi, "leaf key at/above subtree upper bound");
                }
                *count += keys.len();
                *bytes += vals.iter().map(|v| v.byte_size() as u64).sum::<u64>();
            }
            Node::Internal { keys, children } => {
                assert_eq!(children.len(), keys.len() + 1);
                assert!(children.len() <= self.order, "overfull internal node");
                if idx != self.root {
                    assert!(
                        children.len() >= self.internal_min_children(),
                        "underfull internal node"
                    );
                } else {
                    assert!(children.len() >= 2, "root internal with one child");
                }
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "unsorted separators");
                for (i, &child) in children.iter().enumerate() {
                    let clo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let chi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    self.validate_rec(child, depth + 1, clo, chi, leaf_depth, count, bytes);
                }
            }
            Node::Free => panic!("free node reachable from root"),
        }
    }

    /// Height of the tree (levels of nodes; a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut idx = self.root;
        while let Node::Internal { children, .. } = &self.slab[idx as usize] {
            idx = children[0];
            d += 1;
        }
        d
    }
}

impl<K: Ord + Clone + fmt::Debug, V: ByteSize, const CAP: usize> fmt::Debug
    for BPlusTree<K, V, CAP>
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BPlusTree")
            .field("order", &self.order)
            .field("len", &self.len)
            .field("bytes", &self.bytes)
            .field("depth", &self.depth())
            .finish()
    }
}

/// What [`BPlusTree::upsert`] did.
#[derive(Debug, PartialEq, Eq)]
pub enum Upsert<V> {
    /// `make` declined; the tree is unchanged.
    Refused,
    /// `key` was absent; the new record is stored.
    Inserted,
    /// `key` was present; its old value is returned.
    Replaced(V),
}

enum InsertOutcome<K, V> {
    /// `make` declined; nothing changed.
    Refused,
    /// Key existed; value replaced, no structural change.
    Replaced(V),
    /// New record; carries split info if the child split.
    Inserted(Option<(K, u32)>),
    /// New record appended at the right end of a non-root leaf, which is
    /// now one over full: its parent relieves it (`relieve_leaf`).
    Overfull,
}

/// Ordered iterator over a key range, walking the linked leaf chain.
pub struct RangeIter<'a, K, V, const CAP: usize = DEFAULT_NODE_CAP> {
    tree: &'a BPlusTree<K, V, CAP>,
    leaf: u32,
    pos: usize,
    end: Bound<K>,
}

impl<'a, K: Ord + Clone, V: ByteSize, const CAP: usize> Iterator for RangeIter<'a, K, V, CAP> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.leaf == NIL {
                return None;
            }
            let Node::Leaf {
                keys, vals, next, ..
            } = &self.tree.slab[self.leaf as usize]
            else {
                unreachable!()
            };
            if self.pos >= keys.len() {
                self.leaf = *next;
                self.pos = 0;
                continue;
            }
            let k = &keys[self.pos];
            let in_range = match &self.end {
                Bound::Unbounded => true,
                Bound::Included(e) => k <= e,
                Bound::Excluded(e) => k < e,
            };
            if !in_range {
                self.leaf = NIL;
                return None;
            }
            let v = &vals[self.pos];
            self.pos += 1;
            return Some((k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(order: usize, n: u64) -> BPlusTree<u64, u64> {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(order);
        for k in 0..n {
            t.insert(k, k * 10);
        }
        t
    }

    #[test]
    fn empty_tree_behaviour() {
        let t: BPlusTree<u64, u64> = BPlusTree::new(4);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.bytes(), 0);
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        t.validate();
    }

    #[test]
    fn insert_and_get_sequential() {
        let t = tree_with(4, 1000);
        t.validate();
        for k in 0..1000 {
            assert_eq!(t.get(&k), Some(&(k * 10)));
        }
        assert_eq!(t.get(&1000), None);
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn insert_reverse_and_shuffled() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(5);
        for k in (0..500u64).rev() {
            t.insert(k, k);
        }
        t.validate();
        // A deterministic shuffle via multiplication by a unit mod 2^16.
        let mut t2: BPlusTree<u64, u64> = BPlusTree::new(5);
        for i in 0..4096u64 {
            let k = (i * 25173 + 13849) % 65536;
            t2.insert(k, i);
        }
        t2.validate();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn insert_replaces_and_reports_old_value() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(4);
        assert_eq!(t.insert(7u64, 1u64), None);
        assert_eq!(t.insert(7, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&7), Some(&2));
        t.validate();
    }

    #[test]
    fn byte_accounting_tracks_inserts_replacements_removals() {
        // Footprint per record = Vec header + buffer (see `ByteSize`).
        let hdr = std::mem::size_of::<Vec<u8>>() as u64;
        let mut t: BPlusTree<u64, Vec<u8>> = BPlusTree::new(8);
        t.insert(1, vec![0; 100]);
        t.insert(2, vec![0; 50]);
        assert_eq!(t.bytes(), 150 + 2 * hdr);
        t.insert(1, vec![0; 10]); // replace shrinks
        assert_eq!(t.bytes(), 60 + 2 * hdr);
        t.remove(&2);
        assert_eq!(t.bytes(), 10 + hdr);
        t.remove(&1);
        assert_eq!(t.bytes(), 0);
        t.validate();
    }

    #[test]
    fn node_bytes_counts_the_node_slab() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(8);
        let one = t.node_bytes();
        assert_eq!(one, std::mem::size_of::<Node<u64, u64, DEFAULT_NODE_CAP>>());
        for k in 0..1_000 {
            t.insert(k, k);
        }
        let grown = t.node_bytes();
        assert!(
            grown >= t.slab.len() * one,
            "{grown} B for {} nodes",
            t.slab.len()
        );
        // Removal recycles nodes through the free list; the slab keeps them.
        for k in 0..1_000 {
            t.remove(&k);
        }
        assert!(t.node_bytes() >= grown);
    }

    #[test]
    fn remove_missing_returns_none_and_leaves_tree_intact() {
        let mut t = tree_with(4, 100);
        assert_eq!(t.remove(&1000), None);
        assert_eq!(t.len(), 100);
        t.validate();
    }

    #[test]
    fn remove_all_ascending() {
        let mut t = tree_with(4, 500);
        for k in 0..500 {
            assert_eq!(t.remove(&k), Some(k * 10), "at key {k}");
            t.validate();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_all_descending() {
        let mut t = tree_with(4, 500);
        for k in (0..500).rev() {
            assert_eq!(t.remove(&k), Some(k * 10));
            t.validate();
        }
        assert!(t.is_empty());
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn remove_alternating_pattern() {
        let mut t = tree_with(4, 1000);
        for k in (0..1000).step_by(2) {
            assert!(t.remove(&k).is_some());
        }
        t.validate();
        assert_eq!(t.len(), 500);
        for k in (1..1000).step_by(2) {
            assert_eq!(t.get(&k), Some(&(k * 10)));
        }
    }

    #[test]
    fn iteration_is_sorted_and_complete() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(6);
        for i in 0..2000u64 {
            t.insert((i * 7919) % 65536, i);
        }
        let keys: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), t.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_queries_respect_bounds() {
        let t = tree_with(4, 100);
        let mid: Vec<u64> = t.range(10..20).map(|(k, _)| *k).collect();
        assert_eq!(mid, (10..20).collect::<Vec<_>>());
        let inc: Vec<u64> = t.range(10..=20).map(|(k, _)| *k).collect();
        assert_eq!(inc, (10..=20).collect::<Vec<_>>());
        let from: Vec<u64> = t.range(95..).map(|(k, _)| *k).collect();
        assert_eq!(from, vec![95, 96, 97, 98, 99]);
        let upto: Vec<u64> = t.range(..3).map(|(k, _)| *k).collect();
        assert_eq!(upto, vec![0, 1, 2]);
        let none: Vec<u64> = t.range(200..300).map(|(k, _)| *k).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn range_with_absent_bound_keys() {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new(4);
        for k in (0..100u64).step_by(10) {
            t.insert(k, k);
        }
        // Bounds that fall between stored keys.
        let got: Vec<u64> = t.range(15..55).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![20, 30, 40, 50]);
    }

    #[test]
    fn drain_range_removes_and_returns_in_order() {
        let mut t = tree_with(4, 200);
        let drained = t.drain_range(&50, &149);
        assert_eq!(drained.len(), 100);
        assert!(drained.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(drained[0], (50, 500));
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&49), Some(&490));
        assert_eq!(t.get(&50), None);
        assert_eq!(t.get(&150), Some(&1500));
        t.validate();
    }

    #[test]
    fn drain_entire_tree() {
        let mut t = tree_with(5, 300);
        let all = t.drain_range(&0, &299);
        assert_eq!(all.len(), 300);
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = tree_with(4, 100);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.bytes(), 0);
        assert_eq!(t.iter().count(), 0);
        t.insert(5, 5);
        assert_eq!(t.get(&5), Some(&5));
        t.validate();
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut t = tree_with(4, 10);
        *t.get_mut(&3).unwrap() = 999;
        assert_eq!(t.get(&3), Some(&999));
        assert_eq!(t.get_mut(&100), None);
    }

    #[test]
    fn depth_grows_logarithmically() {
        let t = tree_with(4, 10_000);
        // With order 4 a 10k tree must be deeper than 3 but far shallower
        // than linear.
        assert!(t.depth() > 3);
        assert!(t.depth() < 20);
        // Orders above 64 need a wider inline capacity than the default.
        let mut wide: BPlusTree<u64, u64, 130> = BPlusTree::new(128);
        for k in 0..10_000u64 {
            wide.insert(k, k * 10);
        }
        assert!(wide.depth() <= 3);
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut t = tree_with(4, 1000);
        let peak_slots = {
            // Drain and refill; slab should not keep growing without bound.
            for k in 0..1000u64 {
                t.remove(&k);
            }
            t.validate();
            t.slab.len()
        };
        for k in 0..1000u64 {
            t.insert(k, k);
        }
        t.validate();
        assert!(
            t.slab.len() <= peak_slots + peak_slots / 2 + 8,
            "slab grew from {peak_slots} to {}",
            t.slab.len()
        );
    }

    /// Record counts of the leaves, head to tail.
    fn leaf_lens(t: &BPlusTree<u64, u64>) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut idx = t.head;
        while idx != NIL {
            let Node::Leaf { keys, next, .. } = &t.slab[idx as usize] else {
                unreachable!()
            };
            lens.push(keys.len());
            idx = *next;
        }
        lens
    }

    #[test]
    fn a_load_in_key_order_leaves_full_leaves() {
        // Order 8: leaves hold 3..=7 records. A split alone would leave
        // every leaf behind the load at 4.
        let t = tree_with(8, 700);
        t.validate();
        let lens = leaf_lens(&t);
        let (behind, front) = lens.split_at(lens.len() - 2);
        assert!(behind.iter().all(|&n| n == 7), "{lens:?}");
        assert!(front.iter().all(|&n| n >= 4), "{lens:?}");
        assert!(lens.len() <= 700 / 7 + 2);
        // A leaf whose left sibling is full still splits.
        let mut t = tree_with(8, 7);
        t.insert(100, 0);
        assert_eq!(leaf_lens(&t), [4, 4]);
        t.validate();
    }

    #[test]
    fn upsert_decides_at_the_leaf_having_seen_the_old_value() {
        let mut t = tree_with(4, 100);
        // Refused on an absent key: nothing changes.
        let mut seen = None;
        let out = t.upsert(1_000, |old| {
            seen = Some(old.copied());
            None
        });
        assert_eq!((out, seen), (Upsert::Refused, Some(None)));
        assert_eq!((t.len(), t.get(&1_000)), (100, None));
        // Refused on a present key: the old value stays.
        assert_eq!(
            t.upsert(7, |old| old.filter(|&&v| v > 70).copied()),
            Upsert::Refused
        );
        assert_eq!(t.get(&7), Some(&70));
        // Replaced: the closure saw the old value, which comes back.
        assert_eq!(t.upsert(7, |old| old.map(|v| v + 1)), Upsert::Replaced(70));
        assert_eq!(t.get(&7), Some(&71));
        // Inserted, splitting leaves on the way.
        for k in 100..200u64 {
            assert_eq!(
                t.upsert(k, |old| old.is_none().then_some(k)),
                Upsert::Inserted
            );
        }
        assert_eq!(t.len(), 200);
        t.validate();
    }

    #[test]
    fn various_orders_stay_valid_under_churn() {
        for order in [4, 5, 7, 16, 64] {
            let mut t: BPlusTree<u64, u64> = BPlusTree::new(order);
            for i in 0..3000u64 {
                let k = (i * 2654435761) % 4096;
                if i % 3 == 0 {
                    t.remove(&k);
                } else {
                    t.insert(k, i);
                }
            }
            t.validate();
        }
    }

    #[test]
    #[should_panic(expected = "order must be at least 4")]
    fn tiny_order_rejected() {
        let _ = BPlusTree::<u64, u64>::new(3);
    }
}
