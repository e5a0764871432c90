//! Vectorized hash group-by with aggregates.
//!
//! The implementation is columnar and partitioned:
//!
//! 1. Label keys (string and bool columns) whose combinations, null
//!    included, number at most [`DIRECT_SLOTS`] index their groups
//!    directly: a row's mixed-radix slot is read from its codes and
//!    bools, and a per-block slot → group table numbers the groups. Any
//!    other key set is encoded once into flat `u64` vectors
//!    ([`crate::keys`]), so the per-row work is filling a fixed-width
//!    `[u64]` buffer and one probe of a flat [`GroupTable`] — no
//!    `Value`s, no `String` clones, no per-row or per-group allocation.
//!    Both give a block the same groups, first rows and group table.
//! 2. Aggregate state is columnar too: one dense vector per aggregate,
//!    indexed by group, updated by one typed loop per aggregate over
//!    the block's row → group ids.
//! 3. Rows are processed in fixed-size blocks ([`crate::parallel`]),
//!    each block producing a partial aggregation; blocks run on a scoped
//!    thread pool and the partials are merged in block order. Because
//!    block boundaries and merge order are independent of the thread
//!    count, the parallel result is bit-identical to the sequential one.
//!
//! Group order follows first appearance in the input, as before.

use crate::cast::code32;
use crate::column::{Column, PrimVec};
use crate::error::QueryError;
use crate::keys::{encode_column, hash_key, EncodedCol, GroupTable, LabelKey};
use crate::parallel;
use crate::table::Table;
use std::ops::Range;

/// The most key combinations a group-by indexes directly. Each block
/// resets a `u32` slot → group table of this many entries: 16 KiB, which
/// stays in the L1 cache beside the row loop, one entry per 16 of a
/// block's [`parallel::BLOCK_ROWS`] rows. Every paper label set fits
/// (tier × event type × a bool is under 300 slots).
pub const DIRECT_SLOTS: usize = 1 << 12;

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggKind {
    /// Row count (input column ignored for counting, but nulls in the
    /// named column are excluded, SQL-style; use `count_all` for `COUNT(*)`).
    Count,
    /// Count of all rows, including nulls.
    CountAll,
    /// Sum of a numeric column.
    Sum,
    /// Mean of a numeric column.
    Mean,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
    /// Percentile (0–100) of a numeric column.
    Percentile(f64),
    /// Count of distinct non-null values of a column.
    CountDistinct,
    /// Sample variance of a numeric column.
    Variance,
}

/// One aggregate: a kind, an input column, and an output name.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// What to compute.
    pub kind: AggKind,
    /// Input column (ignored by `CountAll`).
    pub input: String,
    /// Name of the output column.
    pub output: String,
}

impl Agg {
    /// `COUNT(input)` excluding nulls.
    pub fn count(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Count,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `COUNT(*)`.
    pub fn count_all(output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::CountAll,
            input: String::new(),
            output: output.into(),
        }
    }

    /// `SUM(input)`.
    pub fn sum(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Sum,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `AVG(input)`.
    pub fn mean(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Mean,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `MIN(input)`.
    pub fn min(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Min,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `MAX(input)`.
    pub fn max(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Max,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `PERCENTILE(input, p)` with `p` in 0–100.
    pub fn percentile(input: impl Into<String>, p: f64, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Percentile(p),
            input: input.into(),
            output: output.into(),
        }
    }

    /// `COUNT(DISTINCT input)` excluding nulls.
    pub fn count_distinct(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::CountDistinct,
            input: input.into(),
            output: output.into(),
        }
    }

    /// `VARIANCE(input)` (sample variance; null with fewer than two
    /// values).
    pub fn variance(input: impl Into<String>, output: impl Into<String>) -> Agg {
        Agg {
            kind: AggKind::Variance,
            input: input.into(),
            output: output.into(),
        }
    }
}

/// Typed, pre-resolved view of one aggregate's input column.
enum AggInput<'a> {
    /// `COUNT(*)`: no input.
    NoInput,
    /// `COUNT(col)`: only needs per-row null checks.
    NullCheck(&'a Column),
    /// `COUNT(DISTINCT col)`: needs grouping-equality keys.
    Distinct(EncodedCol),
    /// Numeric aggregate over an int column.
    Int(&'a PrimVec<i64>),
    /// Numeric aggregate over a float column.
    Float(&'a PrimVec<f64>),
}

impl AggInput<'_> {
    /// Calls `f(group, value)` for every non-null numeric cell of the
    /// block starting at row `start`, in row order (`gids[i]` is the
    /// group of row `start + i`).
    #[inline]
    fn for_each_value(&self, gids: &[u32], start: usize, f: impl FnMut(usize, f64)) {
        #[inline]
        fn each<T: Copy + Default>(
            v: &PrimVec<T>,
            gids: &[u32],
            start: usize,
            widen: impl Fn(T) -> f64,
            mut f: impl FnMut(usize, f64),
        ) {
            let values = &v.values()[start..];
            match v.validity() {
                None => {
                    for (&g, &x) in gids.iter().zip(values) {
                        f(g as usize, widen(x));
                    }
                }
                Some(valid) => {
                    for ((&g, &x), &ok) in gids.iter().zip(values).zip(&valid[start..]) {
                        if ok {
                            f(g as usize, widen(x));
                        }
                    }
                }
            }
        }
        match self {
            AggInput::Int(v) => each(v, gids, start, |x| x as f64, f),
            AggInput::Float(v) => each(v, gids, start, |x| x, f),
            _ => unreachable!("numeric aggregate validated"),
        }
    }
}

/// One aggregate's state for every group: dense vectors indexed by group.
///
/// A state that has seen no rows is the identity of [`AggCol::merge`]
/// (partial float sums start at `+0.0` and so are never `-0.0`, the one
/// value `0.0 + x` would not return unchanged), so merging a block's
/// group into a freshly grown slot equals moving it there.
enum AggCol {
    Count(Vec<u64>),
    Sum {
        sum: Vec<f64>,
        seen: Vec<bool>,
    },
    Mean {
        sum: Vec<f64>,
        n: Vec<u64>,
    },
    /// `MIN` (`max` false) or `MAX`.
    Extreme {
        best: Vec<f64>,
        seen: Vec<bool>,
        max: bool,
    },
    Percentile {
        values: Vec<Vec<f64>>,
        p: f64,
    },
    /// The distinct `[group, value key]` pairs; a group's count is the
    /// number of pairs that name it.
    Distinct(GroupTable),
    Variance {
        sum: Vec<f64>,
        sum_sq: Vec<f64>,
        n: Vec<u64>,
    },
}

impl AggCol {
    fn new(kind: AggKind, groups: usize) -> AggCol {
        let mut col = match kind {
            AggKind::Count | AggKind::CountAll => AggCol::Count(Vec::new()),
            AggKind::Sum => AggCol::Sum {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            AggKind::Mean => AggCol::Mean {
                sum: Vec::new(),
                n: Vec::new(),
            },
            AggKind::Min | AggKind::Max => AggCol::Extreme {
                best: Vec::new(),
                seen: Vec::new(),
                max: kind == AggKind::Max,
            },
            AggKind::Percentile(p) => AggCol::Percentile {
                values: Vec::new(),
                p,
            },
            AggKind::CountDistinct => AggCol::Distinct(GroupTable::new(2)),
            AggKind::Variance => AggCol::Variance {
                sum: Vec::new(),
                sum_sq: Vec::new(),
                n: Vec::new(),
            },
        };
        col.grow_to(groups);
        col
    }

    /// Appends empty states until there are `groups` of them.
    fn grow_to(&mut self, groups: usize) {
        match self {
            AggCol::Count(c) => c.resize(groups, 0),
            AggCol::Mean { sum, n } => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            AggCol::Sum { sum: best, seen } | AggCol::Extreme { best, seen, .. } => {
                best.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            AggCol::Percentile { values, .. } => values.resize_with(groups, Vec::new),
            AggCol::Distinct(_) => {}
            AggCol::Variance { sum, sum_sq, n } => {
                sum.resize(groups, 0.0);
                sum_sq.resize(groups, 0.0);
                n.resize(groups, 0);
            }
        }
    }

    /// Folds one block of rows in, in row order: `gids[i]` is the group
    /// of row `start + i`.
    fn accumulate(&mut self, gids: &[u32], start: usize, input: &AggInput<'_>) {
        match self {
            AggCol::Count(c) => match input {
                AggInput::NullCheck(col) => {
                    for (i, &g) in gids.iter().enumerate() {
                        c[g as usize] += u64::from(!col.is_null_at(start + i));
                    }
                }
                _ => {
                    for &g in gids {
                        c[g as usize] += 1;
                    }
                }
            },
            AggCol::Sum { sum, seen } => input.for_each_value(gids, start, |g, v| {
                sum[g] += v;
                seen[g] = true;
            }),
            AggCol::Mean { sum, n } => input.for_each_value(gids, start, |g, v| {
                sum[g] += v;
                n[g] += 1;
            }),
            AggCol::Extreme { best, seen, max } => input.for_each_value(gids, start, |g, v| {
                best[g] = extreme(*max, seen[g], best[g], v);
                seen[g] = true;
            }),
            AggCol::Percentile { values, .. } => {
                input.for_each_value(gids, start, |g, v| values[g].push(v));
            }
            AggCol::Distinct(pairs) => {
                if let AggInput::Distinct(e) = input {
                    for (&g, &key) in gids.iter().zip(&e.keys[start..]) {
                        if key != e.null_key {
                            let pair = [u64::from(g), key];
                            pairs.find_or_insert(&pair, hash_key(&pair));
                        }
                    }
                }
            }
            AggCol::Variance { sum, sum_sq, n } => input.for_each_value(gids, start, |g, v| {
                sum[g] += v;
                sum_sq[g] += v * v;
                n[g] += 1;
            }),
        }
    }

    /// Folds a later block's states in: `other`'s group `og` goes into
    /// this column's group `map[og]`. Must be called in block order so
    /// float accumulation order is deterministic.
    fn merge(&mut self, map: &[u32], other: AggCol) {
        let slot = |og: usize| map[og] as usize;
        match (self, other) {
            (AggCol::Count(c), AggCol::Count(c2)) => {
                for (og, x) in c2.into_iter().enumerate() {
                    c[slot(og)] += x;
                }
            }
            (
                AggCol::Sum { sum, seen },
                AggCol::Sum {
                    sum: s2,
                    seen: seen2,
                },
            ) => {
                for (og, (x, was_seen)) in s2.into_iter().zip(seen2).enumerate() {
                    if was_seen {
                        sum[slot(og)] += x;
                        seen[slot(og)] = true;
                    }
                }
            }
            (AggCol::Mean { sum, n }, AggCol::Mean { sum: s2, n: n2 }) => {
                for (og, (x, k)) in s2.into_iter().zip(n2).enumerate() {
                    if k > 0 {
                        sum[slot(og)] += x;
                        n[slot(og)] += k;
                    }
                }
            }
            (
                AggCol::Extreme { best, seen, max },
                AggCol::Extreme {
                    best: b2,
                    seen: seen2,
                    ..
                },
            ) => {
                for (og, (v, was_seen)) in b2.into_iter().zip(seen2).enumerate() {
                    if was_seen {
                        let g = slot(og);
                        best[g] = extreme(*max, seen[g], best[g], v);
                        seen[g] = true;
                    }
                }
            }
            (AggCol::Percentile { values, .. }, AggCol::Percentile { values: v2, .. }) => {
                for (og, xs) in v2.into_iter().enumerate() {
                    values[slot(og)].extend(xs);
                }
            }
            (AggCol::Distinct(pairs), AggCol::Distinct(p2)) => {
                for i in 0..p2.len() {
                    let pair = [u64::from(map[pair_group(p2.key(i))]), p2.key(i)[1]];
                    pairs.find_or_insert(&pair, hash_key(&pair));
                }
            }
            (
                AggCol::Variance { sum, sum_sq, n },
                AggCol::Variance {
                    sum: s2,
                    sum_sq: sq2,
                    n: n2,
                },
            ) => {
                for (og, ((x, sq), k)) in s2.into_iter().zip(sq2).zip(n2).enumerate() {
                    if k > 0 {
                        let g = slot(og);
                        sum[g] += x;
                        sum_sq[g] += sq;
                        n[g] += k;
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    /// The finished output column, one cell per group.
    // Percentile rank indices floor/ceil into [0, len-1], so the
    // f64→usize casts cannot truncate a meaningful value.
    #[allow(clippy::cast_possible_truncation)]
    fn finish(self, groups: usize) -> Column {
        let counts = |c: Vec<u64>| {
            let c: Vec<i64> = c.into_iter().map(|c| c as i64).collect();
            Column::Int(c.into())
        };
        match self {
            AggCol::Count(c) => counts(c),
            AggCol::Sum { sum: best, seen } | AggCol::Extreme { best, seen, .. } => {
                Column::Float(PrimVec::from_parts(best, Some(seen)))
            }
            AggCol::Mean { sum, n } => Column::Float(
                sum.into_iter()
                    .zip(n)
                    .map(|(s, n)| (n > 0).then(|| s / n as f64))
                    .collect(),
            ),
            AggCol::Percentile { values, p } => Column::Float(
                values
                    .into_iter()
                    .map(|mut xs| {
                        if xs.is_empty() {
                            return None;
                        }
                        xs.sort_by(|a, b| a.total_cmp(b));
                        let rank = p / 100.0 * (xs.len() - 1) as f64;
                        let lo = rank.floor() as usize;
                        let hi = rank.ceil() as usize;
                        let frac = rank - lo as f64;
                        Some(xs[lo] * (1.0 - frac) + xs[hi] * frac)
                    })
                    .collect(),
            ),
            AggCol::Distinct(pairs) => {
                let mut per_group = vec![0u64; groups];
                for i in 0..pairs.len() {
                    per_group[pair_group(pairs.key(i))] += 1;
                }
                counts(per_group)
            }
            AggCol::Variance { sum, sum_sq, n } => Column::Float(
                sum.into_iter()
                    .zip(sum_sq)
                    .zip(n)
                    .map(|((sum, sum_sq), n)| {
                        (n >= 2).then(|| {
                            let nf = n as f64;
                            let mean = sum / nf;
                            (sum_sq - nf * mean * mean) / (nf - 1.0)
                        })
                    })
                    .collect(),
            ),
        }
    }
}

/// `MIN` (`max` false) or `MAX` of a group's `best` so far and `v`; just
/// `v` when the group has `seen` no value yet.
#[inline]
fn extreme(max: bool, seen: bool, best: f64, v: f64) -> f64 {
    match (seen, max) {
        (false, _) => v,
        (true, false) => best.min(v),
        (true, true) => best.max(v),
    }
}

/// The group index in a `COUNT(DISTINCT)` pair key.
// Word 0 was widened from a `u32` group index.
#[allow(clippy::cast_possible_truncation)]
#[inline]
fn pair_group(pair: &[u64]) -> usize {
    pair[0] as usize
}

/// One block's partial aggregation (and, after merging, the whole
/// table's). Group order is first appearance.
struct Partial {
    groups: GroupTable,
    first_rows: Vec<u32>,
    cols: Vec<AggCol>,
}

impl Partial {
    /// Folds a later block's partial into this one, keeping this one's
    /// groups first and appending the other's new groups in its order.
    fn merge(&mut self, other: Partial) {
        let map: Vec<u32> = (0..other.groups.len())
            .map(|og| {
                let (g, new) = self
                    .groups
                    .find_or_insert(other.groups.key(og), other.groups.hash(og));
                if new {
                    self.first_rows.push(other.first_rows[og]);
                }
                g
            })
            .collect();
        let groups = self.groups.len();
        for (acc, col) in self.cols.iter_mut().zip(other.cols) {
            acc.grow_to(groups);
            acc.merge(&map, col);
        }
    }
}

/// How pass 1 finds each row's group: chosen once per call from the key
/// columns' types and dictionary sizes.
enum GroupKeys<'a> {
    /// Label keys whose combinations number `slots`, at most
    /// [`DIRECT_SLOTS`].
    Direct {
        labels: Vec<LabelKey<'a>>,
        slots: usize,
    },
    /// Every other key set, encoded once for hashing.
    Hashed(Vec<EncodedCol>),
}

impl<'a> GroupKeys<'a> {
    fn select(key_cols: &[&'a Column]) -> GroupKeys<'a> {
        let mut slots = 1usize;
        let labels = key_cols
            .iter()
            .map(|c| {
                let label = LabelKey::of(c)?;
                slots = slots
                    .checked_mul(label.domain())
                    .filter(|&s| s <= DIRECT_SLOTS)?;
                Some(label)
            })
            .collect();
        match labels {
            Some(labels) => GroupKeys::Direct { labels, slots },
            None => GroupKeys::Hashed(key_cols.iter().map(|c| encode_column(c)).collect()),
        }
    }

    /// The counter name's path: `dense` or `hashed`.
    fn path(&self) -> &'static str {
        match self {
            GroupKeys::Direct { .. } => "dense",
            GroupKeys::Hashed(_) => "hashed",
        }
    }
}

/// Pass 1 over encoded keys: each row's key hashed and probed.
fn hashed_groups(
    rows: Range<usize>,
    encoded_keys: &[EncodedCol],
) -> (GroupTable, Vec<u32>, Vec<u32>) {
    let mut groups = GroupTable::new(encoded_keys.len());
    let mut first_rows = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(rows.len());
    let mut key_buf = vec![0u64; encoded_keys.len()];
    for row in rows {
        for (slot, e) in key_buf.iter_mut().zip(encoded_keys) {
            *slot = e.keys[row];
        }
        let (g, new) = groups.find_or_insert(&key_buf, hash_key(&key_buf));
        if new {
            first_rows.push(code32(row));
        }
        gids.push(g);
    }
    (groups, first_rows, gids)
}

/// Pass 1 over label keys: each row's mixed-radix slot, numbered by first
/// appearance through a slot → group table. The groups' first rows alone
/// fill the block's [`GroupTable`], with the keys the hashed pass gives
/// them, so partials of either pass merge alike.
fn direct_groups(
    rows: Range<usize>,
    labels: &[LabelKey<'_>],
    slots: usize,
) -> (GroupTable, Vec<u32>, Vec<u32>) {
    const NONE: u32 = u32::MAX;
    let mut gids = vec![0u32; rows.len()];
    for label in labels {
        label.push_digits(&mut gids, rows.start);
    }
    let mut group_of = vec![NONE; slots];
    let mut first_rows = Vec::new();
    for (row, g) in rows.zip(&mut gids) {
        let group = &mut group_of[*g as usize];
        if *group == NONE {
            *group = code32(first_rows.len());
            first_rows.push(code32(row));
        }
        *g = *group;
    }
    let mut groups = GroupTable::new(labels.len());
    let mut key = vec![0u64; labels.len()];
    for &row in &first_rows {
        for (k, label) in key.iter_mut().zip(labels) {
            *k = label.key(row as usize);
        }
        groups.find_or_insert(&key, hash_key(&key));
    }
    (groups, first_rows, gids)
}

fn aggregate_block(
    rows: Range<usize>,
    keys: &GroupKeys<'_>,
    inputs: &[AggInput<'_>],
    aggs: &[Agg],
) -> Partial {
    // Pass 1: the group of every row. Pass 2: one tight typed loop per
    // aggregate over those group ids.
    let (groups, first_rows, gids) = match keys {
        GroupKeys::Direct { labels, slots } => direct_groups(rows.clone(), labels, *slots),
        GroupKeys::Hashed(encoded_keys) => hashed_groups(rows.clone(), encoded_keys),
    };
    let cols = aggs
        .iter()
        .zip(inputs)
        .map(|(agg, input)| {
            let mut col = AggCol::new(agg.kind, groups.len());
            col.accumulate(&gids, rows.start, input);
            col
        })
        .collect();
    Partial {
        groups,
        first_rows,
        cols,
    }
}

/// Groups `table` by the named key columns and computes the aggregates.
///
/// The output has one row per distinct key combination, with the key
/// columns first (original types preserved) followed by one column per
/// aggregate. Group order follows first appearance in the input. The
/// result is deterministic and independent of the worker-thread count.
pub fn group_by(table: &Table, keys: &[&str], aggs: &[Agg]) -> Result<Table, QueryError> {
    group_by_cancel(table, keys, aggs, None).map(|(out, _)| out)
}

/// [`group_by`] with cooperative cancellation: the per-block partial
/// aggregation re-checks `cancel` at every block boundary and the whole
/// call returns [`QueryError::Cancelled`] once the token is set. An
/// unset (or absent) token leaves the computation bit-identical to
/// [`group_by`]. Also returns pass 1's path, `dense` or `hashed`.
pub(crate) fn group_by_cancel(
    table: &Table,
    keys: &[&str],
    aggs: &[Agg],
    cancel: Option<&crate::cancel::CancelToken>,
) -> Result<(Table, &'static str), QueryError> {
    // Resolve and validate columns up front.
    let key_cols: Vec<&Column> = keys
        .iter()
        .map(|k| table.column(k))
        .collect::<Result<_, _>>()?;
    let mut inputs: Vec<AggInput<'_>> = Vec::with_capacity(aggs.len());
    for agg in aggs {
        if agg.kind == AggKind::CountAll {
            inputs.push(AggInput::NoInput);
            continue;
        }
        let c = table.column(&agg.input)?;
        let input = match (agg.kind, c) {
            (AggKind::Count, c) => AggInput::NullCheck(c),
            (AggKind::CountDistinct, c) => AggInput::Distinct(encode_column(c)),
            (_, Column::Int(v)) => AggInput::Int(v),
            (_, Column::Float(v)) => AggInput::Float(v),
            _ => return Err(QueryError::NonNumericAggregate(agg.input.clone())),
        };
        if let AggKind::Percentile(p) = agg.kind {
            if !(0.0..=100.0).contains(&p) {
                return Err(QueryError::InvalidParameter(format!(
                    "percentile {p} outside 0..=100"
                )));
            }
        }
        inputs.push(input);
    }
    let group_keys = GroupKeys::select(&key_cols);

    // Per-block partial aggregation (parallel), merged in block order so
    // the result is bit-identical to the single-threaded run.
    let mut partials = parallel::try_map_blocks(
        table.num_rows(),
        parallel::num_threads(),
        cancel,
        |_, rows| aggregate_block(rows, &group_keys, &inputs, aggs),
    )?
    .into_iter();
    let mut merged = partials.next().unwrap_or_else(|| Partial {
        groups: GroupTable::new(keys.len()),
        first_rows: Vec::new(),
        cols: aggs.iter().map(|a| AggCol::new(a.kind, 0)).collect(),
    });
    for partial in partials {
        merged.merge(partial);
    }

    // Assemble the output: key columns gather each group's first row
    // (sharing string dictionaries); aggregate columns come straight from
    // the finished state vectors.
    let n_groups = merged.groups.len();
    let mut out_cols: Vec<(String, Column)> = keys
        .iter()
        .zip(&key_cols)
        .map(|(k, c)| (k.to_string(), c.take(&merged.first_rows)))
        .collect();
    for (agg, col) in aggs.iter().zip(merged.cols) {
        let col = col.finish(n_groups);
        debug_assert_eq!(col.len(), n_groups);
        out_cols.push((agg.output.clone(), col));
    }
    Ok((Table::from_columns(out_cols)?, group_keys.path()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::value::Value;

    fn table() -> Table {
        let mut t = Table::new(vec![("tier", DataType::Str), ("cpu", DataType::Float)]);
        for (tier, cpu) in [
            ("prod", 1.0),
            ("beb", 2.0),
            ("prod", 3.0),
            ("free", 4.0),
            ("beb", 6.0),
        ] {
            t.push_row(vec![Value::str(tier), Value::Float(cpu)])
                .unwrap();
        }
        t.push_row(vec![Value::str("prod"), Value::Null]).unwrap();
        t
    }

    #[test]
    fn sum_mean_count() {
        let out = group_by(
            &table(),
            &["tier"],
            &[
                Agg::sum("cpu", "total"),
                Agg::mean("cpu", "avg"),
                Agg::count("cpu", "n"),
                Agg::count_all("rows"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        // First-appearance order: prod, beb, free.
        assert_eq!(out.value(0, "tier").unwrap(), Value::str("prod"));
        assert_eq!(out.value(0, "total").unwrap(), Value::Float(4.0));
        assert_eq!(out.value(0, "avg").unwrap(), Value::Float(2.0));
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2)); // null excluded
        assert_eq!(out.value(0, "rows").unwrap(), Value::Int(3));
        assert_eq!(out.value(1, "total").unwrap(), Value::Float(8.0));
    }

    #[test]
    fn min_max_percentile() {
        let out = group_by(
            &table(),
            &["tier"],
            &[
                Agg::min("cpu", "lo"),
                Agg::max("cpu", "hi"),
                Agg::percentile("cpu", 50.0, "median"),
            ],
        )
        .unwrap();
        assert_eq!(out.value(1, "lo").unwrap(), Value::Float(2.0));
        assert_eq!(out.value(1, "hi").unwrap(), Value::Float(6.0));
        assert_eq!(out.value(1, "median").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn empty_group_by_keys_makes_single_group() {
        let out = group_by(&table(), &[], &[Agg::count_all("n")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(6));
    }

    #[test]
    fn all_null_aggregates_are_null() {
        let mut t = Table::new(vec![("k", DataType::Str), ("v", DataType::Float)]);
        t.push_row(vec![Value::str("a"), Value::Null]).unwrap();
        let out = group_by(
            &t,
            &["k"],
            &[Agg::sum("v", "s"), Agg::mean("v", "m"), Agg::min("v", "lo")],
        )
        .unwrap();
        assert_eq!(out.value(0, "s").unwrap(), Value::Null);
        assert_eq!(out.value(0, "m").unwrap(), Value::Null);
        assert_eq!(out.value(0, "lo").unwrap(), Value::Null);
    }

    #[test]
    fn errors() {
        let t = table();
        assert!(group_by(&t, &["missing"], &[]).is_err());
        assert!(group_by(&t, &["tier"], &[Agg::sum("tier", "x")]).is_err());
        assert!(group_by(&t, &["tier"], &[Agg::percentile("cpu", 150.0, "x")]).is_err());
    }

    #[test]
    fn multi_key_grouping() {
        let mut t = Table::new(vec![
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("v", DataType::Float),
        ]);
        for (a, b, v) in [(1, "x", 1.0), (1, "y", 2.0), (1, "x", 3.0), (2, "x", 4.0)] {
            t.push_row(vec![Value::Int(a), Value::str(b), Value::Float(v)])
                .unwrap();
        }
        let out = group_by(&t, &["a", "b"], &[Agg::sum("v", "s")]).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, "s").unwrap(), Value::Float(4.0));
    }

    #[test]
    fn count_distinct_and_variance() {
        let mut t = Table::new(vec![
            ("k", DataType::Str),
            ("u", DataType::Str),
            ("v", DataType::Float),
        ]);
        for (k, u, v) in [
            ("a", "x", 2.0),
            ("a", "y", 4.0),
            ("a", "x", 6.0),
            ("b", "z", 1.0),
        ] {
            t.push_row(vec![Value::str(k), Value::str(u), Value::Float(v)])
                .unwrap();
        }
        t.push_row(vec![Value::str("a"), Value::Null, Value::Null])
            .unwrap();
        let out = group_by(
            &t,
            &["k"],
            &[Agg::count_distinct("u", "users"), Agg::variance("v", "var")],
        )
        .unwrap();
        assert_eq!(out.value(0, "users").unwrap(), Value::Int(2)); // x, y (null excluded)
                                                                   // Sample variance of [2, 4, 6] = 4.
        assert_eq!(out.value(0, "var").unwrap(), Value::Float(4.0));
        // Group "b": one value → variance null, one distinct user.
        assert_eq!(out.value(1, "users").unwrap(), Value::Int(1));
        assert!(out.value(1, "var").unwrap().is_null());
    }

    #[test]
    fn null_keys_group_together() {
        let mut t = Table::new(vec![("k", DataType::Str), ("v", DataType::Float)]);
        t.push_row(vec![Value::Null, Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Null, Value::Float(2.0)]).unwrap();
        let out = group_by(&t, &["k"], &[Agg::sum("v", "s")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, "s").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn int_and_float_zero_keys_group_like_before() {
        // Int 0, Float 0.0 and -0.0 are the same group key; null is not.
        let mut t = Table::new(vec![("k", DataType::Float), ("v", DataType::Float)]);
        for k in [Value::Float(0.0), Value::Float(-0.0), Value::Null] {
            t.push_row(vec![k, Value::Float(1.0)]).unwrap();
        }
        let out = group_by(&t, &["k"], &[Agg::count_all("n")]).unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, "n").unwrap(), Value::Int(2));
        assert_eq!(out.value(1, "n").unwrap(), Value::Int(1));
    }

    #[test]
    fn parallel_matches_sequential_across_blocks() {
        // Enough rows for several blocks; result must be identical with
        // 1 thread and many.
        let mut t = Table::new(vec![("k", DataType::Int), ("v", DataType::Float)]);
        let rows = crate::parallel::BLOCK_ROWS * 2 + 123;
        for i in 0..rows {
            t.push_row(vec![
                Value::Int((i % 7) as i64),
                Value::Float((i % 13) as f64 * 0.5),
            ])
            .unwrap();
        }
        crate::parallel::override_threads(1);
        let seq = group_by(&t, &["k"], &[Agg::sum("v", "s"), Agg::count_all("n")]).unwrap();
        crate::parallel::override_threads(8);
        let par = group_by(&t, &["k"], &[Agg::sum("v", "s"), Agg::count_all("n")]).unwrap();
        crate::parallel::override_threads(0);
        assert_eq!(seq, par);
    }
}
