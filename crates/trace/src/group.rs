//! The lifecycle walk: a table grouped by entity with one integer sort,
//! cut in two and walked on two threads.
//!
//! [`for_each_lifecycle`] is the walk `validate`, `repair`,
//! `count_transitions` and the simulator's end-of-run checker share. It
//! orders the rows' positions by `(entity, time, input position)` and
//! hands over each entity's positions with a fresh [`StateMachine`]; what
//! is done with each row — replay it, drop it as a duplicate first, count
//! it — is the caller's. The rows themselves stay where they are.
//!
//! The sort key is one integer per row. A first pass over the rows finds
//! the range of every component of the entity id, and whether the table
//! is in time order already; a second pass packs, most significant first,
//! each component's offset from its minimum and the row's position, each
//! in as many bits as its range needs, into a `usize` when they fit (the
//! sorted keys then become the walk's order in place) and a `u128`
//! otherwise. Only ids spread so wide that 128 bits cannot hold them (a
//! foreign or fuzzed trace) are sorted by comparing `RowKey`s. The
//! sort leaves each entity's rows in position order; in a table that is in
//! time order — a freshly read clean trace, every repaired table — that
//! *is* time order, and otherwise each entity's few rows are sorted by
//! `(time, position)` just before they are handed over.
//!
//! The keys are cut in two at the entity that holds the middle row (a
//! selection, then a partition on that entity's part of the key), so the
//! cut falls on an entity boundary and each side holds about half the rows
//! whatever the ids are. Each side sorts its own keys and walks its own
//! entities in id order, the high side on a scoped thread and the low side
//! on the caller's (`on_two_threads`); the two passes over the rows also
//! take half the rows each. A table of fewer than two entities is walked
//! on the caller alone. Every table-sized buffer — the keys, the order,
//! the caller's slots — is allocated on the caller's thread and handed to
//! the threads in halves, so none is made or freed on the other. Each side
//! returns its own result and the caller merges them low side first:
//! since every low-side entity sorts before every high-side one, that is
//! the one-thread walk's result.

use crate::collection::CollectionId;
use crate::instance::InstanceId;
use crate::machine::MachineId;
use crate::on_two_threads;
use crate::state::StateMachine;
use crate::time::Micros;
use std::ops::{BitOr, Shl};

/// An entity id as up to three integers, most significant first, ordered
/// as the id's `Ord` orders it; unused ones are 0.
pub trait Entity: Copy + PartialEq + Send + Sync {
    fn parts(self) -> [u64; 3];
}

impl Entity for MachineId {
    fn parts(self) -> [u64; 3] {
        [self.0.into(), 0, 0]
    }
}

impl Entity for CollectionId {
    fn parts(self) -> [u64; 3] {
        [self.0, 0, 0]
    }
}

impl Entity for InstanceId {
    fn parts(self) -> [u64; 3] {
        [self.collection.0, self.index.into(), 0]
    }
}

impl Entity for (InstanceId, MachineId) {
    fn parts(self) -> [u64; 3] {
        [self.0.collection.0, self.0.index.into(), self.1 .0.into()]
    }
}

/// A usage window: a machine and a window start.
impl Entity for (MachineId, Micros) {
    fn parts(self) -> [u64; 3] {
        [self.0 .0.into(), self.1 .0, 0]
    }
}

/// One entity's rows, as [`Side::walk`] hands them over.
pub struct Lifecycle<'a, K, S> {
    /// The entity.
    pub id: K,
    /// Where its first row falls in entity-major order: its rows take the
    /// ranks from here on.
    pub rank: usize,
    /// Its rows' positions, in `(time, input position)` order.
    pub positions: &'a [usize],
    /// Its rows' slots, one per position, or none when the walk was given
    /// none.
    pub slots: &'a mut [S],
    /// A state machine that has seen none of them.
    pub sm: StateMachine,
}

/// One side of the cut: whole entities, walked on one thread.
pub struct Side<'a, T, F, S> {
    rows: &'a [T],
    key: &'a F,
    /// The side's positions, entity by entity.
    order: &'a mut [usize],
    /// Whether each entity's positions are in time order already.
    time_ordered: bool,
    /// The rank of the side's first row.
    first_rank: usize,
    /// The side's slots, by rank from its first, or none.
    pub slots: &'a mut [S],
}

impl<T, F, S> Side<'_, T, F, S> {
    /// Hands `visit` each of the side's entities, in id order.
    pub fn walk<K: Entity>(&mut self, mut visit: impl FnMut(Lifecycle<'_, K, S>))
    where
        F: Fn(&T) -> (K, Micros),
    {
        let Side {
            rows,
            key,
            order,
            time_ordered,
            first_rank,
            slots,
        } = self;
        let id = |pos: &usize| key(&rows[*pos]).0;
        let (mut rank, mut slots) = (*first_rank, &mut **slots);
        for positions in order.chunk_by_mut(|a, b| id(a) == id(b)) {
            if !*time_ordered {
                positions.sort_unstable_by_key(|&pos| (key(&rows[pos]).1, pos));
            }
            let mine = if slots.is_empty() { 0 } else { positions.len() };
            let (mine, rest) = std::mem::take(&mut slots).split_at_mut(mine);
            slots = rest;
            let (id, sm) = (id(&positions[0]), StateMachine::new());
            visit(Lifecycle {
                id,
                rank,
                positions,
                slots: mine,
                sm,
            });
            rank += positions.len();
        }
    }
}

/// What [`for_each_lifecycle`] leaves the caller.
pub struct Walked<R> {
    /// Every row's position, entity by entity: the position of each rank.
    /// An entity's positions are in `(time, position)` order once its side
    /// has walked it.
    pub order: Vec<usize>,
    /// The first rank of the high side; the row count when the table was
    /// walked on one side.
    pub cut: usize,
    /// What each side returned, the low side first.
    pub sides: [R; 2],
}

/// Walks `rows` by entity, in id order, where `key` gives a row's entity
/// and time: cuts the entities in two, and runs `side` once for each half,
/// the low half on this thread, the high on a scoped one.
///
/// `slots` is empty or holds one value per row; each side gets its rows'
/// share, by rank, and each [`Lifecycle`] its own rows'. A table of fewer
/// than two entities is all on the low side, and the high side's `side`
/// runs here over nothing.
pub fn for_each_lifecycle<T, K, F, S, R>(
    rows: &[T],
    key: F,
    slots: &mut [S],
    side: impl Fn(Side<'_, T, F, S>) -> R + Sync,
) -> Walked<R>
where
    T: Sync,
    K: Entity,
    F: Fn(&T) -> (K, Micros) + Sync,
    S: Send,
    R: Send,
{
    assert!(
        slots.is_empty() || slots.len() == rows.len(),
        "one slot per row, or none"
    );
    let layout = Layout::of(rows, &key);
    if layout.width <= usize::BITS {
        let keys = pack::<usize, _, _>(rows, &key, &layout);
        walk_keys(keys, &layout, rows, &key, slots, &side)
    } else if layout.width <= u128::BITS {
        let keys = pack::<u128, _, _>(rows, &key, &layout);
        walk_keys(keys, &layout, rows, &key, slots, &side)
    } else {
        let keys = rows.iter().enumerate();
        let keys = keys.map(|(pos, row)| RowKey {
            entity: key(row).0.parts(),
            pos,
        });
        walk_keys(keys.collect(), &layout, rows, &key, slots, &side)
    }
}

/// [`for_each_lifecycle`] once the keys are made.
fn walk_keys<P: SortKey, T: Sync, F: Sync, S: Send, R: Send>(
    mut keys: Vec<P>,
    layout: &Layout,
    rows: &[T],
    key: &F,
    slots: &mut [S],
    side: &(impl Fn(Side<'_, T, F, S>) -> R + Sync),
) -> Walked<R> {
    let rows_n = keys.len();
    let cut = cut(&mut keys, layout);
    let mut spare = if P::SPARE {
        vec![0; rows_n]
    } else {
        Vec::new()
    };
    let (low_keys, high_keys) = keys.split_at_mut(cut);
    let spare_cut = cut.min(spare.len());
    let (low_spare, high_spare) = spare.split_at_mut(spare_cut);
    let (low_slots, high_slots) = slots.split_at_mut(cut.min(slots.len()));
    let walk = |keys: &mut [P], spare, slots, first_rank| {
        // Positions are distinct, so no two keys are equal.
        keys.sort_unstable();
        let order = P::positions(keys, spare, layout);
        side(Side {
            rows,
            key,
            order,
            time_ordered: layout.time_ordered,
            first_rank,
            slots,
        })
    };
    let sides = if cut == rows_n {
        [
            walk(low_keys, low_spare, low_slots, 0),
            walk(high_keys, high_spare, high_slots, cut),
        ]
    } else {
        let (high, low) = on_two_threads(
            || walk(high_keys, high_spare, high_slots, cut),
            || walk(low_keys, low_spare, low_slots, 0),
        );
        [low, high]
    };
    let order = P::order(keys, spare);
    Walked { order, cut, sides }
}

/// Reorders `keys` so that the entities below the cut come first, and
/// returns the cut: before or after the entity of the middle row,
/// whichever leaves the sides closer in size, and never with a side
/// empty of entities unless there is one entity or none (then the cut is
/// the row count).
fn cut<P: SortKey>(keys: &mut [P], layout: &Layout) -> usize {
    if keys.len() < 2 {
        return keys.len();
    }
    let mid = keys.len() / 2;
    let (below, middle, above) = keys.select_nth_unstable(mid);
    let entity = middle.entity(layout);
    let before = front(below, |k| k.entity(layout) < entity);
    let with = front(above, |k| k.entity(layout) == entity);
    let after = above.len() - with;
    match before.max(after) {
        0 => keys.len(),
        _ if before >= after => before,
        _ => mid + 1 + with,
    }
}

/// Moves the keys that `pick` picks to the front of `keys`; returns how
/// many there are.
fn front<P: Copy>(keys: &mut [P], pick: impl Fn(P) -> bool) -> usize {
    let mut picked = 0;
    for i in 0..keys.len() {
        if pick(keys[i]) {
            keys.swap(picked, i);
            picked += 1;
        }
    }
    picked
}

/// Where one input row falls in entity-major order, when only comparing
/// will do.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowKey {
    entity: [u64; 3],
    pos: usize,
}

/// A row's sort key: its entity and its position.
trait SortKey: Copy + Ord + Send {
    /// The entity's part of the key, ordered as the entities are.
    type Entity: Copy + Ord;
    /// Whether [`SortKey::positions`] needs a buffer besides the keys.
    const SPARE: bool;
    fn entity(self, layout: &Layout) -> Self::Entity;
    /// The positions of a sorted run of keys: the keys themselves,
    /// overwritten, when a key is a `usize`, else written to `spare`.
    fn positions<'a>(
        keys: &'a mut [Self],
        spare: &'a mut [usize],
        layout: &Layout,
    ) -> &'a mut [usize];
    /// The walk's order: the keys' buffer or the spare one.
    fn order(keys: Vec<Self>, spare: Vec<usize>) -> Vec<usize>;
}

impl SortKey for RowKey {
    type Entity = [u64; 3];
    const SPARE: bool = true;

    fn entity(self, _: &Layout) -> [u64; 3] {
        self.entity
    }

    fn positions<'a>(keys: &'a mut [Self], spare: &'a mut [usize], _: &Layout) -> &'a mut [usize] {
        for (pos, k) in spare.iter_mut().zip(keys) {
            *pos = k.pos;
        }
        spare
    }

    fn order(_: Vec<Self>, spare: Vec<usize>) -> Vec<usize> {
        spare
    }
}

/// The integer the key of a row is packed into.
trait Packed: Copy + Ord + Send + Shl<u32, Output = Self> + BitOr<Output = Self> {
    /// `x`, which the layout has checked fits.
    fn of(x: u64) -> Self;
    fn wide(self) -> u128;
}

impl Packed for usize {
    fn of(x: u64) -> usize {
        x as usize
    }

    fn wide(self) -> u128 {
        self as u128
    }
}

impl Packed for u128 {
    fn of(x: u64) -> u128 {
        x.into()
    }

    fn wide(self) -> u128 {
        self
    }
}

/// The entity part of a packed key.
fn packed_entity(key: impl Packed, layout: &Layout) -> u128 {
    key.wide() >> layout.pos_bits
}

/// Keeps a packed key's position, its low `pos_bits`.
fn pos_mask(layout: &Layout) -> u128 {
    (1 << layout.pos_bits) - 1
}

impl SortKey for usize {
    type Entity = u128;
    const SPARE: bool = false;

    fn entity(self, layout: &Layout) -> u128 {
        packed_entity(self, layout)
    }

    fn positions<'a>(
        keys: &'a mut [usize],
        _: &'a mut [usize],
        layout: &Layout,
    ) -> &'a mut [usize] {
        let mask = pos_mask(layout) as usize;
        keys.iter_mut().for_each(|k| *k &= mask);
        keys
    }

    fn order(keys: Vec<usize>, _: Vec<usize>) -> Vec<usize> {
        keys
    }
}

impl SortKey for u128 {
    type Entity = u128;
    const SPARE: bool = true;

    fn entity(self, layout: &Layout) -> u128 {
        packed_entity(self, layout)
    }

    fn positions<'a>(
        keys: &'a mut [u128],
        spare: &'a mut [usize],
        layout: &Layout,
    ) -> &'a mut [usize] {
        for (pos, &k) in spare.iter_mut().zip(&*keys) {
            *pos = (k & pos_mask(layout)) as usize;
        }
        spare
    }

    fn order(_: Vec<u128>, spare: Vec<usize>) -> Vec<usize> {
        spare
    }
}

/// How the packed key holds the entity, above the position.
struct Layout {
    /// Smallest value of each entity part.
    lo: [u64; 3],
    /// Where each part's offset from `lo` starts in the key; 0 for a part
    /// that takes no bits, whose offset is 0 in every row.
    shift: [u32; 3],
    /// Bits of the position, the low end of the key.
    pos_bits: u32,
    /// Bits of the whole key.
    width: u32,
    /// Whether the rows' times ascend with their positions.
    time_ordered: bool,
}

/// Smallest and largest of the values seen.
#[derive(Clone, Copy)]
struct Range {
    lo: u64,
    hi: u64,
}

impl Range {
    const EMPTY: Range = Range {
        lo: u64::MAX,
        hi: 0,
    };

    fn add(&mut self, x: u64) {
        self.lo = self.lo.min(x);
        self.hi = self.hi.max(x);
    }

    /// Bits that tell the values of a range apart: none for an empty one.
    fn bits(self) -> u32 {
        u64::BITS - self.hi.saturating_sub(self.lo).leading_zeros()
    }

    /// The range of the values of both.
    fn and(self, other: Range) -> Range {
        Range {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// What a pass over some rows finds: the range of each id part, and
/// whether the times ascend.
#[derive(Clone, Copy)]
struct Ranges {
    parts: [Range; 3],
    first_time: u64,
    last_time: u64,
    time_ordered: bool,
}

impl Ranges {
    fn of<T, K: Entity>(rows: &[T], key: &impl Fn(&T) -> (K, Micros)) -> Ranges {
        let mut ranges = Ranges {
            parts: [Range::EMPTY; 3],
            first_time: rows.first().map_or(0, |row| key(row).1 .0),
            last_time: 0,
            time_ordered: true,
        };
        for row in rows {
            let (entity, time) = key(row);
            ranges.time_ordered &= time.0 >= ranges.last_time;
            ranges.last_time = time.0;
            for (range, part) in ranges.parts.iter_mut().zip(entity.parts()) {
                range.add(part);
            }
        }
        ranges
    }

    /// These rows' ranges followed by `next`'s (an empty `next` has none).
    fn then(self, next: Ranges) -> Ranges {
        Ranges {
            parts: [0, 1, 2].map(|i| self.parts[i].and(next.parts[i])),
            first_time: self.first_time,
            last_time: next.last_time,
            time_ordered: self.time_ordered
                && next.time_ordered
                && next.first_time >= self.last_time,
        }
    }
}

impl Layout {
    /// The layout of `rows`. Each half of the rows is looked at on a thread
    /// of its own, unless all rows are of one entity.
    fn of<T: Sync, K: Entity>(rows: &[T], key: &(impl Fn(&T) -> (K, Micros) + Sync)) -> Layout {
        let one_entity = rows.first().map(|first| key(first).0);
        let ranges = if rows.iter().all(|row| Some(key(row).0) == one_entity) {
            Ranges::of(rows, key)
        } else {
            let (low, high) = rows.split_at(rows.len() / 2);
            let (high, low) = on_two_threads(|| Ranges::of(high, key), || Ranges::of(low, key));
            low.then(high)
        };
        let pos_bits = usize::BITS - rows.len().saturating_sub(1).leading_zeros();
        let mut layout = Layout {
            lo: ranges.parts.map(|range| range.lo),
            shift: [0; 3],
            pos_bits,
            width: pos_bits,
            time_ordered: ranges.time_ordered,
        };
        for (shift, range) in layout.shift.iter_mut().zip(ranges.parts).rev() {
            if range.bits() > 0 {
                *shift = layout.width;
                layout.width += range.bits();
            }
        }
        layout
    }
}

/// Every row's key packed into a `P`, which holds the whole key: each half
/// of the rows on a thread of its own, unless all are of one entity.
fn pack<P: Packed, T: Sync, K: Entity>(
    rows: &[T],
    key: &(impl Fn(&T) -> (K, Micros) + Sync),
    layout: &Layout,
) -> Vec<P> {
    let pack = |rows: &[T], keys: &mut [P], first: usize| {
        for ((pos, row), packed) in (first..).zip(rows).zip(keys) {
            let parts = key(row).0.parts().into_iter().zip(layout.lo);
            *packed = parts
                .zip(layout.shift)
                .fold(P::of(pos as u64), |p, ((part, lo), shift)| {
                    p | (P::of(part - lo) << shift)
                });
        }
    };
    let mut keys = vec![P::of(0); rows.len()];
    if layout.width == layout.pos_bits {
        pack(rows, &mut keys, 0);
    } else {
        let mid = rows.len() / 2;
        let (low_rows, high_rows) = rows.split_at(mid);
        let (low_keys, high_keys) = keys.split_at_mut(mid);
        on_two_threads(
            || pack(high_rows, high_keys, mid),
            || pack(low_rows, low_keys, 0),
        );
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `width` bits' worth of values from `lo` up, both ends included
    /// (rows 0 and 1 take them), so the component is exactly that wide.
    fn draw(rng: &mut StdRng, row: usize, lo: u64, width: u32) -> u64 {
        let span = if width == 64 {
            u64::MAX
        } else {
            (1 << width) - 1
        };
        lo + match row {
            0 => 0,
            1 => span,
            _ => rng.random::<u64>() & span,
        }
    }

    /// One table shape: where each part of the id starts and how many bits
    /// it spans, the same for the time, and whether rows are in time order.
    struct Shape {
        parts: [(u64, u32); 3],
        time: (u64, u32),
        time_ordered: bool,
    }

    impl Shape {
        /// Bits of the packed key for `rows` rows (more than one).
        fn width(&self, rows: usize) -> u32 {
            let pos = usize::BITS - (rows - 1).leading_zeros();
            self.parts.iter().map(|p| p.1).sum::<u32>() + pos
        }

        /// The table: per row its three id parts and its time.
        fn rows(&self, rng: &mut StdRng, rows: usize) -> Vec<([u64; 3], Micros)> {
            let mut out: Vec<([u64; 3], Micros)> = (0..rows)
                .map(|row| {
                    (
                        self.parts.map(|(lo, width)| draw(rng, row, lo, width)),
                        Micros(draw(rng, row, self.time.0, self.time.1)),
                    )
                })
                .collect();
            if self.time_ordered {
                let mut times: Vec<Micros> = out.iter().map(|r| r.1).collect();
                times.sort_unstable();
                for (row, time) in out.iter_mut().zip(times) {
                    row.1 = time;
                }
            }
            out
        }
    }

    /// The walk's order of `rows` under the id type `id` makes of the parts,
    /// against a comparator sort of `(id, time, position)` by the id's own
    /// `Ord`.
    fn assert_order<K: Entity + Ord>(
        rows: &[([u64; 3], Micros)],
        id: impl Fn([u64; 3]) -> K + Sync,
        what: &str,
    ) {
        let key = |&(parts, time): &([u64; 3], Micros)| (id(parts), time);
        let walked = for_each_lifecycle(rows, key, &mut [(); 0], |mut side| side.walk(|_| ()));
        let got = walked.order;
        let mut want: Vec<(K, Micros, usize)> = rows
            .iter()
            .enumerate()
            .map(|(pos, &(parts, time))| (id(parts), time, pos))
            .collect();
        want.sort_unstable();
        let want: Vec<usize> = want.iter().map(|k| k.2).collect();
        assert!(got == want, "{what}: order differs");
    }

    const LENGTHS: [usize; 4] = [0, 1, 2, 70_000];

    #[test]
    fn entity_order_is_the_comparator_sort_at_every_width() {
        let rng = &mut StdRng::seed_from_u64(0x0E17);
        // An id range that starts on no power of two: an offset left in
        // would spill out of the part's bits.
        let odd = u64::MAX - (1 << 20) - 12_345;
        let none = (0, 0);
        // (id type, shape, the arm 70 000 rows take: 0 = usize, 1 = u128,
        // 2 = comparator). Narrow times repeat; wide ids reach 0 and MAX.
        let cases = [
            ("machine", [(0, 9), none, none], (0, 37), false, 0),
            ("machine", [(0, 32), none, none], (5, 3), true, 0),
            ("machine", [(0, 32), none, none], (0, 40), false, 0),
            ("collection", [(odd, 20), none, none], (7, 27), false, 0),
            ("collection", [(0, 64), none, none], (0, 64), true, 1),
            ("collection", [(0, 64), none, none], (0, 64), false, 1),
            ("instance", [(odd, 13), (0, 12), none], (0, 37), true, 0),
            ("instance", [(odd, 13), (3, 12), none], (0, 37), false, 0),
            ("instance", [(0, 64), (0, 32), none], (0, 2), true, 1),
            ("instance", [(0, 64), (0, 32), none], (0, 20), false, 1),
            ("usage", [(100, 10), (0, 8), (0, 9)], (0, 37), true, 0),
            ("usage", [(100, 10), (0, 8), (0, 9)], (0, 37), false, 0),
            ("usage", [(0, 64), (0, 32), (0, 32)], (0, 1), true, 2),
            ("usage", [(0, 64), (0, 32), (0, 32)], (0, 37), false, 2),
        ];
        for (ids, parts, time, time_ordered, arm) in cases {
            let shape = Shape {
                parts,
                time,
                time_ordered,
            };
            let width = shape.width(70_000);
            assert_eq!(
                arm,
                usize::from(width > 64) + usize::from(width > 128),
                "{ids}: {width} bits"
            );
            for rows in LENGTHS {
                let what = format!("{ids}, {width} bits, {rows} rows");
                let rows = shape.rows(rng, rows);
                let narrow = |part: u64| u32::try_from(part).expect("drawn from 32 bits");
                let instance = |[c, i, _]: [u64; 3]| InstanceId::new(CollectionId(c), narrow(i));
                match ids {
                    "machine" => assert_order(&rows, |[m, _, _]| MachineId(narrow(m)), &what),
                    "collection" => assert_order(&rows, |[c, _, _]| CollectionId(c), &what),
                    "instance" => assert_order(&rows, instance, &what),
                    _ => assert_order(&rows, |p| (instance(p), MachineId(narrow(p[2]))), &what),
                }
            }
        }
    }

    /// The entities each side visits, with their row counts, after
    /// checking that each lifecycle gets its own ranks' slots.
    fn sides<K: Entity>(rows: &[(K, Micros)]) -> [Vec<(K, usize)>; 2] {
        let mut slots: Vec<usize> = (0..rows.len()).collect();
        let walked = for_each_lifecycle(
            rows,
            |&row| row,
            &mut slots,
            |mut side| {
                let mut seen = Vec::new();
                side.walk(|life| {
                    let ranks: Vec<usize> = (life.rank..life.rank + life.positions.len()).collect();
                    assert_eq!(life.slots, ranks, "a lifecycle's slots are its ranks'");
                    seen.push((life.id, life.positions.len()));
                });
                seen
            },
        );
        let low_rows: usize = walked.sides[0].iter().map(|e| e.1).sum();
        assert_eq!(
            walked.cut, low_rows,
            "the cut is the high side's first rank"
        );
        walked.sides
    }

    /// The walk visits each entity of `rows` once, in id order, and cuts on
    /// an entity boundary that leaves each side an entity when there are
    /// two.
    fn assert_cut<K: Entity + Ord + std::fmt::Debug>(rows: &[(K, Micros)], what: &str) {
        let [low, high] = sides(rows);
        let mut want: Vec<(K, usize)> = Vec::new();
        let mut ids: Vec<K> = rows.iter().map(|r| r.0).collect();
        ids.sort_unstable();
        for id in ids.chunk_by(|a, b| a == b) {
            want.push((id[0], id.len()));
        }
        assert_eq!(
            [&low[..], &high[..]].concat(),
            want,
            "{what}: each entity once, in id order"
        );
        if let (Some(l), Some(h)) = (low.last(), high.first()) {
            assert!(
                l.0 < h.0,
                "{what}: {:?} on the low side, {:?} on the high",
                l.0,
                h.0
            );
        }
        let two = want.len() >= 2;
        assert_eq!(
            !low.is_empty() && !high.is_empty(),
            two,
            "{what}: {} entities",
            want.len()
        );
    }

    /// `rows` with each id repeated `n` times at times drawn out of order,
    /// shuffled.
    fn table<K: Copy>(rng: &mut StdRng, ids: &[(K, usize)]) -> Vec<(K, Micros)> {
        let mut rows: Vec<(K, Micros)> = ids
            .iter()
            .flat_map(|&(id, n)| (0..n).map(move |_| id))
            .map(|id| (id, Micros(rng.random::<u64>() % 50)))
            .collect();
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.random::<u64>() as usize % (i + 1));
        }
        rows
    }

    #[test]
    fn the_cut_falls_between_entities() {
        let rng = &mut StdRng::seed_from_u64(0xC07);
        let c = CollectionId;
        let cases: [(&str, Vec<(CollectionId, usize)>); 8] = [
            ("no rows", vec![]),
            ("one entity, one row", vec![(c(7), 1)]),
            ("one entity", vec![(c(7), 40)]),
            ("two entities, one row each", vec![(c(1), 1), (c(2), 1)]),
            ("two entities, uneven", vec![(c(1), 1), (c(2), 30)]),
            ("99% in the lowest", vec![(c(1), 990), (c(2), 4), (c(3), 6)]),
            ("99% in the middle", vec![(c(1), 3), (c(2), 990), (c(3), 7)]),
            (
                "99% in the highest",
                vec![(c(1), 6), (c(2), 4), (c(3), 990)],
            ),
        ];
        for (what, ids) in cases {
            assert_cut(&table(rng, &ids), what);
        }
        // Ids at 0 and u64::MAX: the u128 arm, then the comparator's.
        let ends = [(c(0), 3), (c(u64::MAX / 2), 50), (c(u64::MAX), 2)];
        assert_cut(&table(rng, &ends), "collections 0 to u64::MAX");
        let wide = |c: u64, i: u32, m: u32| (InstanceId::new(CollectionId(c), i), MachineId(m));
        let ends = [
            (wide(0, 0, 0), 4),
            (wide(0, 0, u32::MAX), 1),
            (wide(u64::MAX, u32::MAX, 0), 9),
            (wide(u64::MAX, u32::MAX, u32::MAX), 2),
        ];
        assert_cut(&table(rng, &ends), "usage ids 0 to u64::MAX");
        let mut time_ordered = table(rng, &[(c(3), 5), (c(1), 5), (c(2), 5)]);
        time_ordered.sort_by_key(|r| r.1);
        assert_cut(&time_ordered, "in time order");
    }
}
