//! The lifecycle walk: a table grouped by entity with one integer sort.
//!
//! [`for_each_lifecycle`] is the walk `validate`, `repair` and the
//! simulator's end-of-run checker share. It sorts the rows' positions
//! once by `(entity, time, input position)` and hands over each entity's
//! positions with a fresh [`StateMachine`]; what is done with each row —
//! replay it, drop it as a duplicate first, count it — is the caller's.
//! The rows themselves stay where they are.
//!
//! The sort key is one integer per row. A first pass over the rows finds
//! the range of every component of the entity id and of the time, and
//! whether the table is in time order already; a second pass packs, most
//! significant first, each component's offset from its minimum, the
//! time's offset, and the row's position, each in as many bits as its
//! range needs, into a `u64` when they fit and a `u128` otherwise, and
//! `sort_unstable` sorts integers. In a table that is in time order — a
//! freshly read clean trace, every repaired table — position order *is*
//! time order within an entity, and the time takes no bits. Only ids
//! spread so wide that 128 bits cannot hold them (a foreign or fuzzed
//! trace) are sorted by comparing `RowKey`s.

use crate::collection::CollectionId;
use crate::instance::InstanceId;
use crate::machine::MachineId;
use crate::state::StateMachine;
use crate::time::Micros;
use std::ops::{BitOr, Shl};

/// An entity id as up to three integers, most significant first, ordered
/// as the id's `Ord` orders it; unused ones are 0.
pub trait Entity: Copy + PartialEq {
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

/// One entity's rows, as [`for_each_lifecycle`] hands them over.
pub struct Lifecycle<'a, K> {
    /// The entity.
    pub id: K,
    /// Its rows' positions, in `(time, input position)` order.
    pub positions: &'a [usize],
    /// A state machine that has seen none of them.
    pub sm: StateMachine,
}

/// Hands `visit` every entity of `rows`, in id order, where `key` gives a
/// row's entity and time; returns the order walked, every row's position
/// entity by entity.
pub fn for_each_lifecycle<T, K: Entity>(
    rows: &[T],
    key: impl Fn(&T) -> (K, Micros),
    mut visit: impl FnMut(Lifecycle<'_, K>),
) -> Vec<usize> {
    let order = entity_order(rows, &key);
    let id = |pos: &usize| key(&rows[*pos]).0;
    for positions in order.chunk_by(|a, b| id(a) == id(b)) {
        let (id, sm) = (id(&positions[0]), StateMachine::new());
        visit(Lifecycle { id, positions, sm });
    }
    order
}

/// Where one input row falls in entity-major order, when only comparing
/// will do.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowKey {
    entity: [u64; 3],
    time: Micros,
    pos: usize,
}

/// The integer the key of a row is packed into.
trait Packed:
    Copy + Ord + From<u64> + Into<u128> + Shl<u32, Output = Self> + BitOr<Output = Self>
{
}

impl Packed for u64 {}
impl Packed for u128 {}

/// How the packed key holds what is ahead of the position, its low end.
struct Layout {
    /// Smallest value of each entity part.
    lo: [u64; 3],
    /// Where each part's offset from `lo` starts in the key; 0 for a part
    /// that takes no bits, whose offset is 0 in every row.
    shift: [u32; 3],
    /// The same for the time; `None` when the table is in time order.
    time: Option<(u64, u32)>,
    /// Bits of the position.
    pos_bits: u32,
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

    /// Bits that tell the values of a non-empty range apart.
    fn bits(self) -> u32 {
        u64::BITS - (self.hi - self.lo).leading_zeros()
    }
}

/// The positions of `rows` sorted by `(entity, time, position)`.
pub(crate) fn entity_order<T, K: Entity>(
    rows: &[T],
    key: &impl Fn(&T) -> (K, Micros),
) -> Vec<usize> {
    let Some(last) = rows.len().checked_sub(1) else {
        return Vec::new();
    };
    let mut parts = [Range::EMPTY; 3];
    let mut times = Range::EMPTY;
    let mut time_ordered = true;
    for row in rows {
        let (entity, time) = key(row);
        time_ordered &= time.0 >= times.hi;
        times.add(time.0);
        for (range, part) in parts.iter_mut().zip(entity.parts()) {
            range.add(part);
        }
    }
    let mut layout = Layout {
        lo: parts.map(|range| range.lo),
        shift: [0; 3],
        time: None,
        pos_bits: usize::BITS - last.leading_zeros(),
    };
    let mut width = layout.pos_bits;
    if !time_ordered {
        layout.time = Some((times.lo, width));
        width += times.bits();
    }
    for (shift, range) in layout.shift.iter_mut().zip(parts).rev() {
        if range.bits() > 0 {
            *shift = width;
            width += range.bits();
        }
    }
    if width <= u64::BITS {
        sort_packed::<u64, _, _>(rows, key, &layout)
    } else if width <= u128::BITS {
        sort_packed::<u128, _, _>(rows, key, &layout)
    } else {
        let mut keys: Vec<RowKey> = rows
            .iter()
            .enumerate()
            .map(|(pos, row)| {
                let (entity, time) = key(row);
                RowKey {
                    entity: entity.parts(),
                    time,
                    pos,
                }
            })
            .collect();
        // Positions are distinct, so no two keys compare equal.
        keys.sort_unstable();
        keys.iter().map(|k| k.pos).collect()
    }
}

/// [`entity_order`] where `P` holds the whole key.
fn sort_packed<P: Packed, T, K: Entity>(
    rows: &[T],
    key: &impl Fn(&T) -> (K, Micros),
    layout: &Layout,
) -> Vec<usize> {
    let mut keys: Vec<P> = rows
        .iter()
        .enumerate()
        .map(|(pos, row)| {
            let (entity, time) = key(row);
            let mut packed = P::from(pos as u64);
            for ((part, lo), shift) in entity.parts().into_iter().zip(layout.lo).zip(layout.shift) {
                packed = packed | (P::from(part - lo) << shift);
            }
            if let Some((lo, shift)) = layout.time {
                packed = packed | (P::from(time.0 - lo) << shift);
            }
            packed
        })
        .collect();
    // Positions are distinct, so no two keys are equal.
    keys.sort_unstable();
    let mask = (1u128 << layout.pos_bits) - 1;
    keys.iter()
        .map(|&packed| (packed.into() & mask) as usize)
        .collect()
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
            let time = if self.time_ordered { 0 } else { self.time.1 };
            let pos = usize::BITS - (rows - 1).leading_zeros();
            self.parts.iter().map(|p| p.1).sum::<u32>() + time + pos
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

    /// `entity_order` of `rows` under the id type `id` makes of the parts,
    /// against a comparator sort of `(id, time, position)` by the id's own
    /// `Ord`.
    fn assert_order<K: Entity + Ord>(
        rows: &[([u64; 3], Micros)],
        id: impl Fn([u64; 3]) -> K,
        what: &str,
    ) {
        let got = entity_order(rows, &|&(parts, time)| (id(parts), time));
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
        // (id type, shape, the arm 70 000 rows take: 0 = u64, 1 = u128,
        // 2 = comparator). Narrow times repeat; wide ids reach 0 and MAX.
        let cases = [
            ("machine", [(0, 9), none, none], (0, 37), false, 0),
            ("machine", [(0, 32), none, none], (5, 3), true, 0),
            ("machine", [(0, 32), none, none], (0, 40), false, 1),
            ("collection", [(odd, 20), none, none], (7, 27), false, 0),
            ("collection", [(0, 64), none, none], (0, 64), true, 1),
            ("collection", [(0, 64), none, none], (0, 64), false, 2),
            ("instance", [(odd, 13), (0, 12), none], (0, 37), true, 0),
            ("instance", [(odd, 13), (3, 12), none], (0, 37), false, 1),
            ("instance", [(0, 64), (0, 32), none], (0, 2), true, 1),
            ("instance", [(0, 64), (0, 32), none], (0, 20), false, 2),
            ("usage", [(100, 10), (0, 8), (0, 9)], (0, 37), true, 0),
            ("usage", [(100, 10), (0, 8), (0, 9)], (0, 37), false, 1),
            ("usage", [(0, 64), (0, 32), (0, 32)], (0, 1), true, 2),
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
}
