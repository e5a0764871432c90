//! The scheduler's placement index: sub-linear best-fit and preemption
//! probes over the machine fleet.
//!
//! The naive Borgmaster loop scans every machine per placement — an
//! O(machines · tasks) wall that caps cell sizes at toys. Borg's
//! production scheduler solved this with score caching and equivalence
//! classes (Verma et al. §3.4; its third technique, relaxed
//! randomization, gives up exact best-fit and is not implemented); this
//! module implements both against the simulator's best-fit policy while
//! staying bit-identical to the naive scan:
//!
//! 1. **Equivalence-class score cache** ([`ScoreCache`]): placements are
//!    keyed by (request bits, tier), one direct-mapped slot per key
//!    ([`ShapeKey::slot`]); a store overwrites the slot, a lookup
//!    compares the key. Each entry memoizes the *top-R candidate
//!    machines* from the last full scan plus a lexicographic
//!    `(score, index)` threshold that every non-candidate provably sits
//!    above. A lookup re-scores only the candidates and the machines
//!    mutated since the entry was written — an O(R + dirty) check that
//!    stays exact (see "Determinism contract" below), tried for as long
//!    as the tail is shorter than the rescan is expensive
//!    ([`max_tail`]). Runner-up candidates mean the common bin-packing
//!    pattern — identical tasks filling the winner until it is full —
//!    falls through to the next candidate instead of forcing a fleet
//!    rescan.
//! 2. **Scan mirror** ([`Mirror`]): cache misses pay one flat pass over
//!    per-machine `(committed, capacity)` rows kept in lock-step with
//!    every commit/free. The pass performs the identical float
//!    operations as [`Machine::fit_score`], so results are
//!    bit-identical, but touches 32 contiguous bytes per machine instead
//!    of chasing `Machine` structs, and it takes no branch on what a row
//!    holds: [`score`] turns "does not fit" into `+inf` by select, the
//!    fleet's scores land in a scratch vector, and a second pass offers
//!    them to the top-R list behind one comparison that is rarely true
//!    ([`TopList::offer`]). Lookups score their few rows through the
//!    same two passes.
//!
//! Preemption probes use a separate **feasibility segment tree**
//! ([`FeasTree`]) over per-subtree maxima of preemption *potential*
//! (headroom plus everything a given tier may evict): the probe descends
//! leftmost-first, pruning subtrees that cannot host the request even
//! after evicting every victim, and runs the exact victim check only at
//! surviving leaves — the same machine the naive `find_map` returns. The
//! tree is maintained lazily: mutations mark leaves dirty and the next
//! probe flushes them, so placement-heavy workloads that never preempt
//! pay almost nothing for it.
//!
//! # Determinism contract
//!
//! Every query returns the same machine the naive scan
//! (`crate::reference`, the test-only model the unit tests here and in
//! `shard.rs` compare against) would pick, with the same score bits:
//!
//! - Scores come from the identical float expression as
//!   [`Machine::fit_score`] — same adds, same divides, same `max` — so
//!   results are bit-identical (the mirror rows are exact copies of
//!   `committed`/`capacity`).
//! - The naive loop keeps the first machine (lowest index) among equal
//!   scores; the index selects the lexicographic minimum of
//!   `(score, index)`, which is the same machine.
//! - A cache entry written at epoch `e` stores candidates `C` and a
//!   threshold `T` such that every machine outside `C` was, at `e`,
//!   either infeasible or lexicographically ≥ `T`. On lookup, the index
//!   re-scores `C` plus every machine mutated since `e` ("the tail") and
//!   takes the lex-minimum `M` (a "nothing fits" entry re-scores only
//!   the tail's loosened machines). Machines outside both sets are
//!   untouched since `e`: still infeasible (tightening never makes a
//!   machine feasible; loosening lands it in the tail), or still ≥ `T`.
//!   So if `M < T`, `M` is the global answer; if nothing fits and `T`
//!   covers the whole fleet (fewer than R machines were feasible at
//!   `e`), "nothing fits" is the global answer. Anything else is a miss
//!   and rescans. The same argument lets the entry be refreshed in place
//!   with the re-scored top-R (the threshold only ever tightens).
//! - Preemption-tree pruning only uses *inflated upper bounds* (a
//!   relative 1e-9 margin) so float non-associativity can never prune a
//!   machine the exact victim check would accept; over-included leaves
//!   are rejected by the exact check and cost nothing but a visit.

use crate::machine::{discount, Machine};
use borg_trace::priority::Tier;
use borg_trace::resources::Resources;
use std::collections::VecDeque;
use std::hint::select_unpredictable;

/// Counters exposing how placements were answered (see
/// [`crate::metrics::SimMetrics::index`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Best-fit queries answered from the score cache (including the
    /// O(R + dirty) candidate-revalidation path).
    pub cache_hits: u64,
    /// Cached "no machine fits" answers reused without a rescan.
    pub negative_hits: u64,
    /// Best-fit queries that fell through to a full mirror scan.
    pub cache_misses: u64,
    /// Machines whose exact score was evaluated during mirror scans.
    pub leaves_scanned: u64,
    /// Mutation-log records walked by the lookups counted in
    /// `cache_hits` and `negative_hits`.
    pub tail_records: u64,
    /// Machines those lookups re-scored (candidates ∪ tail; a negative
    /// entry's tail counts only its loosened machines).
    pub rescored: u64,
    /// Preemption probes answered via the potential-headroom tree.
    pub preempt_probes: u64,
}

/// Inflates a pruning bound so float non-associativity can never exclude
/// a machine the exact leaf check would accept.
fn upper(x: f64) -> f64 {
    x + x.abs() * 1e-9 + 1e-12
}

/// Per-node aggregates: element-wise maxima over the node's machines.
#[derive(Debug, Clone, Copy)]
struct Agg {
    /// Max raw capacity (exact; the `request.fits_in(capacity)` gate).
    cap: Resources,
    /// Max potential headroom for a Production preemptor: headroom plus
    /// all discounted sub-Production, non-alloc occupants (inflated).
    pot_prod: Resources,
    /// Same for a Monitoring preemptor (victims below Monitoring).
    pot_mon: Resources,
}

impl Agg {
    const NEUTRAL: Agg = Agg {
        cap: Resources::ZERO,
        pot_prod: Resources {
            cpu: f64::NEG_INFINITY,
            mem: f64::NEG_INFINITY,
        },
        pot_mon: Resources {
            cpu: f64::NEG_INFINITY,
            mem: f64::NEG_INFINITY,
        },
    };

    fn of(m: &Machine) -> Agg {
        let head = m.headroom();
        let mut pot_prod = head;
        let mut pot_mon = head;
        for o in &m.occupants {
            if o.is_alloc_instance {
                continue;
            }
            let d = o.discounted();
            if o.tier < Tier::Production {
                pot_prod += d;
            }
            if o.tier < Tier::Monitoring {
                pot_mon += d;
            }
        }
        let inflate = |r: Resources| Resources::new(upper(r.cpu), upper(r.mem));
        Agg {
            cap: m.capacity,
            pot_prod: inflate(pot_prod),
            pot_mon: inflate(pot_mon),
        }
    }

    fn merge(a: Agg, b: Agg) -> Agg {
        Agg {
            cap: a.cap.max(&b.cap),
            pot_prod: a.pot_prod.max(&b.pot_prod),
            pot_mon: a.pot_mon.max(&b.pot_mon),
        }
    }

    /// Could some machine under this node host `needed` after preempting
    /// everything below `tier`?
    fn may_preempt(&self, needed: Resources, tier: Tier) -> bool {
        let pot = if tier == Tier::Monitoring {
            &self.pot_mon
        } else {
            &self.pot_prod
        };
        needed.fits_in(pot)
    }
}

/// A power-of-two-padded segment tree of [`Agg`] nodes over the machine
/// index, used by preemption probes.
#[derive(Debug, Clone)]
struct FeasTree {
    /// `nodes[1]` is the root; leaf `i` lives at `size + i`.
    nodes: Vec<Agg>,
    /// Number of leaf slots (power of two).
    size: usize,
    /// Real machine count (leaves beyond this are neutral padding).
    machines: usize,
}

impl FeasTree {
    fn new(machines: &[Machine]) -> FeasTree {
        let size = machines.len().next_power_of_two().max(1);
        let mut nodes = vec![Agg::NEUTRAL; 2 * size];
        for (i, m) in machines.iter().enumerate() {
            nodes[size + i] = Agg::of(m);
        }
        for i in (1..size).rev() {
            nodes[i] = Agg::merge(nodes[2 * i], nodes[2 * i + 1]);
        }
        FeasTree {
            nodes,
            size,
            machines: machines.len(),
        }
    }

    fn update(&mut self, mi: usize, m: &Machine) {
        let mut node = self.size + mi;
        self.nodes[node] = Agg::of(m);
        node /= 2;
        while node >= 1 {
            self.nodes[node] = Agg::merge(self.nodes[2 * node], self.nodes[2 * node + 1]);
            node /= 2;
        }
    }

    /// The lowest machine index whose exact preemption check passes.
    fn first_preemptible<T>(
        &self,
        needed: Resources,
        tier: Tier,
        check: &mut impl FnMut(usize) -> Option<T>,
    ) -> Option<(usize, T)> {
        self.walk_preempt(1, needed, tier, check)
    }

    fn walk_preempt<T>(
        &self,
        node: usize,
        needed: Resources,
        tier: Tier,
        check: &mut impl FnMut(usize) -> Option<T>,
    ) -> Option<(usize, T)> {
        if !self.nodes[node].may_preempt(needed, tier) {
            return None;
        }
        if node >= self.size {
            let mi = node - self.size;
            if mi >= self.machines {
                return None;
            }
            return check(mi).map(|v| (mi, v));
        }
        self.walk_preempt(2 * node, needed, tier, check)
            .or_else(|| self.walk_preempt(2 * node + 1, needed, tier, check))
    }

    /// Every real leaf whose inflated bound admits `needed`, in
    /// ascending machine order — the same pruning as
    /// [`FeasTree::walk_preempt`], but without the exact victim check,
    /// which the sharded layer runs itself in global machine order (see
    /// [`crate::shard`]).
    fn collect_preemptible(&self, node: usize, needed: Resources, tier: Tier, out: &mut Vec<u32>) {
        if !self.nodes[node].may_preempt(needed, tier) {
            return;
        }
        if node >= self.size {
            let mi = node - self.size;
            if mi < self.machines {
                out.push(mi as u32);
            }
            return;
        }
        self.collect_preemptible(2 * node, needed, tier, out);
        self.collect_preemptible(2 * node + 1, needed, tier, out);
    }
}

/// Interleaved mirror of each machine's `(committed, capacity)` — one
/// 32-byte row per machine — for flat cache-friendly score scans that
/// are bit-identical to [`Machine::fit_score`].
#[derive(Debug, Clone)]
struct Mirror {
    /// `[committed.cpu, committed.mem, capacity.cpu, capacity.mem]`.
    rows: Vec<[f64; 4]>,
}

impl Mirror {
    fn row(m: &Machine) -> [f64; 4] {
        [
            m.committed.cpu,
            m.committed.mem,
            m.capacity.cpu,
            m.capacity.mem,
        ]
    }

    fn new(machines: &[Machine]) -> Mirror {
        Mirror {
            rows: machines.iter().map(Mirror::row).collect(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }
}

/// [`Machine::fit_score`] on a mirrored row as one number: the exact
/// score bits where the request fits, `+inf` where it does not (feasible
/// scores are finite). The same adds, the same two IEEE divides and the
/// same `max` in the same order, with each `if` of the original applied
/// as a select on values already computed, so a fleet of rows is one
/// straight run of arithmetic whatever share of it is feasible. The
/// divides run on infeasible rows too (`x / 0.0` and `0.0 / 0.0` do not
/// trap; the select discards them). `dominant_fraction_of`'s remaining
/// arm — `+inf` for a positive demand on a zero capacity — has no select
/// here because no feasible row reaches it: `0 < after <= capacity`.
/// `d` must be `discount(request, tier)`.
#[inline]
fn score(row: [f64; 4], request: Resources, d: Resources) -> f64 {
    let [comm_cpu, comm_mem, cap_cpu, cap_mem] = row;
    let after_cpu = comm_cpu + d.cpu;
    let after_mem = comm_mem + d.mem;
    let feasible = (after_cpu <= cap_cpu)
        & (after_mem <= cap_mem)
        & (request.cpu <= cap_cpu)
        & (request.mem <= cap_mem);
    let frac = |v: f64, c: f64| select_unpredictable(v <= 0.0, 0.0, v / c);
    select_unpredictable(
        feasible,
        1.0 - frac(after_cpu, cap_cpu).max(frac(after_mem, cap_mem)),
        f64::INFINITY,
    )
}

/// Scores a contiguous run of rows into `out`, one [`score`] per row and
/// nothing else in the loop — the shape the compiler turns into packed
/// divides, two rows at a time. A scan passes the mirror itself; a
/// lookup first copies the rows it wants side by side.
fn score_rows(rows: &[[f64; 4]], request: Resources, d: Resources, out: &mut Vec<f64>) {
    out.clear();
    out.extend(rows.iter().map(|&row| score(row, request, d)));
}

/// An equivalence class of placement requests: identical request bits at
/// the same tier score identically on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeKey {
    cpu_bits: u64,
    mem_bits: u64,
    tier: u8,
}

impl ShapeKey {
    fn of(request: Resources, tier: Tier) -> ShapeKey {
        ShapeKey {
            cpu_bits: request.cpu.to_bits(),
            mem_bits: request.mem.to_bits(),
            tier: tier as u8,
        }
    }

    /// The key's cache slot: the top bits of one multiplication, which
    /// depend on every bit of the key. Request bits vary mostly in their
    /// exponent and top mantissa bits, so the memory word is rotated
    /// away from the CPU word's before the two are mixed.
    fn slot(self) -> usize {
        let mixed = self.cpu_bits ^ self.mem_bits.rotate_left(32) ^ u64::from(self.tier);
        (mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MAX_ENTRIES.trailing_zeros())) as usize
    }
}

/// One machine mutation as the score cache remembers it: which machine,
/// and whether the change could have *increased* feasibility (lower
/// committed or higher capacity in some dimension).
#[derive(Debug, Clone, Copy)]
struct LogRec {
    machine: u32,
    loosened: bool,
}

/// A `(score, machine index)` pair under the lexicographic order the
/// naive scan's "keep first among equals" rule induces.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lex {
    score: f64,
    mi: u32,
}

impl Lex {
    /// Sentinel above every real machine (feasible scores are finite):
    /// a threshold of `MAX` means the candidate list covered every
    /// feasible machine when the entry was written.
    const MAX: Lex = Lex {
        score: f64::INFINITY,
        mi: u32::MAX,
    };

    #[inline]
    // IEEE equality (not total_cmp) is load-bearing: the naive scan ties
    // -0.0 with +0.0 and keeps the lower machine index, and the index must
    // reproduce that ordering bit-for-bit.
    #[allow(clippy::float_cmp)]
    fn lt(self, other: Lex) -> bool {
        self.score < other.score || (self.score == other.score && self.mi < other.mi)
    }
}

/// Candidates kept per cache entry. Large enough to ride out the common
/// fill-the-winner churn between full scans; small enough that a lookup
/// stays cheap.
const R: usize = 8;

/// A memoized best-fit answer for `key`: the top-R machines by
/// `(score, index)` at `epoch`, plus the threshold every other machine
/// provably sits at-or-above (see module docs).
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    key: ShapeKey,
    cands: [u32; R],
    n_cands: u8,
    threshold: Lex,
    /// Global mutation count when this entry was (re)validated.
    epoch: u64,
}

impl CacheEntry {
    /// The entry a scan's or a refresh's top list seeds, valid at `epoch`.
    fn from_top(key: ShapeKey, top: &TopList, threshold: Lex, epoch: u64) -> CacheEntry {
        let n = top.len.min(R);
        let mut cands = [0u32; R];
        for (slot, l) in cands.iter_mut().zip(&top.arr[..n]) {
            *slot = l.mi;
        }
        CacheEntry {
            key,
            cands,
            n_cands: n as u8,
            threshold,
            epoch,
        }
    }
}

/// Cache slots, a power of two. A shape is cached in one slot, picked by
/// [`ShapeKey::slot`], and a store there replaces whatever shape held
/// it. Shapes churn with jobs, so precision beyond this is wasted memory.
const MAX_ENTRIES: usize = 4096;

/// Tail length at which a hit also rewrites the entry (advancing its
/// epoch and re-seeding candidates). Refreshing on *every* hit wastes
/// time on table writes; never refreshing lets tails grow until they
/// expire. This amortizes one rewrite per `REFRESH_TAIL` tail
/// records walked.
const REFRESH_TAIL: usize = 8;

/// Longest mutation tail a lookup walks, and so the number of mutations
/// the log keeps, over `fleet` machines: the length at which the walk
/// costs what the rescan it stands in for costs. Measured at 512
/// machines (`placement_path` benches, DESIGN.md §7): a record walked
/// costs ~3.1 ns with about half of them kept and re-scored, a leaf
/// scanned ~2.4 ns — three records for four leaves. The chance that a
/// lookup fails and scans anyway is 2–3% at every tail length from 1 to
/// 512 on a simulated cell-day, so it does not move the break-even.
/// Never below [`REFRESH_TAIL`], or no entry could live to be refreshed.
pub fn max_tail(fleet: usize) -> usize {
    (fleet * 3 / 4).max(REFRESH_TAIL)
}

/// The top-(R+1) lex-smallest entries among the scores offered to it:
/// the first R seed a cache entry's candidates, the (R+1)-th is its
/// threshold.
struct TopList {
    arr: [Lex; R + 1],
    len: usize,
    /// No score above this can enter the list: `f64::MAX` while there is
    /// room (every feasible score passes, the `+inf` of an infeasible
    /// row does not), then the (R+1)-th score.
    bound: f64,
}

impl TopList {
    fn new() -> TopList {
        TopList {
            arr: [Lex::MAX; R + 1],
            len: 0,
            bound: f64::MAX,
        }
    }

    /// Takes machine `mi` at `score` if it belongs in the list. The
    /// bound gate is the only test most rows of a scan meet, and once the
    /// list is full it is rarely passed; it is `<=` because a machine
    /// tying the (R+1)-th score under a lower index displaces it (the
    /// lexicographic test below decides).
    #[inline]
    fn offer(&mut self, score: f64, mi: u32) {
        if score <= self.bound {
            let l = Lex { score, mi };
            let last = self.arr.len() - 1;
            if self.len > last && !l.lt(self.arr[last]) {
                return;
            }
            let mut i = self.len.min(last);
            while i > 0 && l.lt(self.arr[i - 1]) {
                self.arr[i] = self.arr[i - 1];
                i -= 1;
            }
            self.arr[i] = l;
            self.len = (self.len + 1).min(self.arr.len());
            if self.len > last {
                self.bound = self.arr[last].score;
            }
        }
    }

    /// Offers every `(score, machine)` pair in order.
    fn offer_all(&mut self, scores: &[f64], machines: impl Iterator<Item = u32>) {
        for (&score, mi) in scores.iter().zip(machines) {
            self.offer(score, mi);
        }
    }

    fn first(&self) -> Option<Lex> {
        (self.len > 0).then(|| self.arr[0])
    }
}

/// Best-fit winners memoized per request shape, revalidated against the
/// machines mutated since each entry was written (see module docs for
/// the exactness argument).
#[derive(Debug, Clone)]
struct ScoreCache {
    /// [`MAX_ENTRIES`] direct-mapped slots.
    entries: Vec<Option<CacheEntry>>,
    /// Machines mutated recently, oldest first.
    log: VecDeque<LogRec>,
    /// Epoch of `log.front()`; `epoch_base + log.len()` is "now".
    epoch_base: u64,
    /// Mutations remembered: [`max_tail`] of the fleet, the longest tail
    /// a lookup will walk. An entry the log no longer covers is exactly
    /// an entry whose tail is longer than that, so one test expires both.
    log_cap: usize,
    /// Per-machine visit stamps for O(1) tail dedup.
    stamp: Vec<u32>,
    stamp_gen: u32,
    /// Scratch: the machines a lookup re-scores (candidates ∪ tail,
    /// deduped; `R + log_cap` slots, filled from the front) and their
    /// mirror rows, copied side by side.
    ids: Vec<u32>,
    rows: Vec<[f64; 4]>,
}

impl ScoreCache {
    fn new(fleet: usize) -> ScoreCache {
        ScoreCache {
            entries: vec![None; MAX_ENTRIES],
            log: VecDeque::new(),
            epoch_base: 0,
            log_cap: max_tail(fleet),
            stamp: vec![0; fleet],
            stamp_gen: 0,
            ids: vec![0; R + max_tail(fleet)],
            rows: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch_base + self.log.len() as u64
    }

    fn record(&mut self, machine: usize, loosened: bool) {
        self.log.push_back(LogRec {
            machine: machine as u32,
            loosened,
        });
        if self.log.len() > self.log_cap {
            self.log.pop_front();
            self.epoch_base += 1;
        }
    }

    /// Tries to answer `key` from the cached candidates, counting what
    /// an answer cost into `stats`. Returns `None` on a miss; the caller
    /// then scans and calls [`ScoreCache::store`].
    fn lookup(
        &mut self,
        key: ShapeKey,
        mirror: &Mirror,
        request: Resources,
        d: Resources,
        scores: &mut Vec<f64>,
        stats: &mut IndexStats,
    ) -> Option<Option<(usize, f64)>> {
        let slot = key.slot();
        let entry = self.entries[slot].filter(|e| e.key == key)?;
        if entry.epoch < self.epoch_base {
            // The tail outgrew the log: longer than `max_tail`, so the
            // caller's scan is the cheaper way to the answer.
            return None;
        }
        let tail_start = (entry.epoch - self.epoch_base) as usize;
        let tail_len = self.log.len() - tail_start;

        // Candidates ∪ the tail, deduped by visit stamp. A "nothing
        // fits" entry skips the tail's tightenings: they cannot make a
        // machine feasible.
        let negative = entry.threshold == Lex::MAX;
        self.stamp_gen = self.stamp_gen.wrapping_add(1);
        if self.stamp_gen == 0 {
            self.stamp.fill(0);
            self.stamp_gen = 1;
        }
        // `ids` has a slot for every candidate and every record the log
        // can hold: each record is written to the next slot whether or
        // not it is kept, and the slot advances by the keep bit — no
        // branch on a record that differs from the one before.
        let mark = self.stamp_gen;
        // A scan's or a refresh's top-R never names a machine twice.
        let mut kept = entry.n_cands as usize;
        for (slot, &mi) in self.ids.iter_mut().zip(&entry.cands[..kept]) {
            self.stamp[mi as usize] = mark;
            *slot = mi;
        }
        for rec in self.log.range(tail_start..) {
            let seen = &mut self.stamp[rec.machine as usize];
            let keep = (rec.loosened | !negative) & (*seen != mark);
            *seen = select_unpredictable(keep, mark, *seen);
            self.ids[kept] = rec.machine;
            kept += usize::from(keep);
        }
        let ids = &self.ids[..kept];

        // Exact current scores for every one of them; lex-min wins.
        self.rows.clear();
        self.rows
            .extend(ids.iter().map(|&mi| mirror.rows[mi as usize]));
        score_rows(&self.rows, request, d, scores);
        let mut top = TopList::new();
        top.offer_all(scores, ids.iter().copied());
        let best = top.first();

        // Machines outside candidates ∪ tail are unchanged since the
        // entry's epoch: infeasible then (and tightening cannot fix
        // that) or lex ≥ threshold. So a candidate beating the threshold
        // is the global best; and if the threshold covers the fleet,
        // "nothing fits" is global too.
        let hit = match best {
            Some(l) => l.lt(entry.threshold),
            None => negative,
        };
        if !hit {
            return None;
        }
        match best {
            Some(_) => stats.cache_hits += 1,
            None => stats.negative_hits += 1,
        }
        stats.tail_records += tail_len as u64;
        stats.rescored += kept as u64;

        // Long tails get the entry rewritten in place: re-scored top-R
        // candidates, epoch advanced to now, threshold tightened by the
        // first evicted feasible candidate (if any). The same unchanged-
        // machines argument as above makes the rewrite sound.
        if tail_len >= REFRESH_TAIL {
            let threshold = match (top.len > R).then(|| top.arr[R]) {
                Some(t) if t.lt(entry.threshold) => t,
                _ => entry.threshold,
            };
            self.entries[slot] = Some(CacheEntry::from_top(key, &top, threshold, self.now()));
        }
        Some(best.map(|l| (l.mi as usize, l.score)))
    }

    /// Installs a freshly scanned answer in its key's slot, over whatever
    /// shape held it.
    fn store(&mut self, key: ShapeKey, top: &TopList) {
        let threshold = if top.len > R { top.arr[R] } else { Lex::MAX };
        self.entries[key.slot()] = Some(CacheEntry::from_top(key, top, threshold, self.now()));
    }
}

/// The placement index: score cache + scan mirror + preemption tree.
/// Owned by the cell simulator and kept in
/// lock-step with every [`Machine::add`]/[`Machine::remove`] via
/// [`PlacementIndex::on_machine_changed`].
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    tree: FeasTree,
    /// Machines whose tree leaf is stale; flushed before probes.
    tree_dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    mirror: Mirror,
    /// Scratch: the scores of the rows a scan or a lookup just scored.
    scores: Vec<f64>,
    cache: ScoreCache,
    /// Query counters.
    pub stats: IndexStats,
}

impl PlacementIndex {
    /// Builds the index over the initial fleet.
    pub fn new(machines: &[Machine]) -> PlacementIndex {
        PlacementIndex {
            tree: FeasTree::new(machines),
            tree_dirty: vec![false; machines.len()],
            dirty_list: Vec::new(),
            mirror: Mirror::new(machines),
            scores: Vec::new(),
            cache: ScoreCache::new(machines.len()),
            stats: IndexStats::default(),
        }
    }

    /// Refreshes the index after machine `mi` gained or lost an occupant:
    /// syncs the scan mirror, marks the preemption-tree leaf dirty, and
    /// appends the machine to the cache's mutation log.
    pub fn on_machine_changed(&mut self, mi: usize, m: &Machine) {
        let [old_c_cpu, old_c_mem, old_cap_cpu, old_cap_mem] = self.mirror.rows[mi];
        self.mirror.rows[mi] = Mirror::row(m);
        let [c_cpu, c_mem, cap_cpu, cap_mem] = self.mirror.rows[mi];
        // Loosened = feasibility could have grown somewhere: committed
        // dropped or capacity rose in at least one dimension.
        let loosened = c_cpu < old_c_cpu
            || c_mem < old_c_mem
            || cap_cpu > old_cap_cpu
            || cap_mem > old_cap_mem;
        if !self.tree_dirty[mi] {
            self.tree_dirty[mi] = true;
            self.dirty_list.push(mi as u32);
        }
        self.cache.record(mi, loosened);
    }

    fn flush_tree(&mut self, machines: &[Machine]) {
        for &mi in &self.dirty_list {
            self.tree.update(mi as usize, &machines[mi as usize]);
            self.tree_dirty[mi as usize] = false;
        }
        self.dirty_list.clear();
    }

    /// Best fit: the machine (and score) the naive full scan would
    /// choose, or `None` when nothing fits.
    pub fn best_fit(
        &mut self,
        machines: &[Machine],
        request: Resources,
        tier: Tier,
    ) -> Option<(usize, f64)> {
        debug_assert_eq!(machines.len(), self.mirror.len());
        if let Some(answer) = self.cached_best_fit(request, tier) {
            return answer;
        }
        self.scan_best_fit(request, tier)
    }

    /// The score-cache half of [`PlacementIndex::best_fit`]: `Some` with
    /// the exact answer on a hit (including cached "nothing fits"),
    /// `None` on a miss. The sharded layer probes each shard's cache and
    /// scans only the shards that miss.
    pub(crate) fn cached_best_fit(
        &mut self,
        request: Resources,
        tier: Tier,
    ) -> Option<Option<(usize, f64)>> {
        let key = ShapeKey::of(request, tier);
        let d = discount(request, tier);
        self.cache.lookup(
            key,
            &self.mirror,
            request,
            d,
            &mut self.scores,
            &mut self.stats,
        )
    }

    /// The miss half of [`PlacementIndex::best_fit`]: a full mirror scan
    /// plus a cache store. Touches only the mirror columns, never the
    /// `Machine` structs.
    pub(crate) fn scan_best_fit(&mut self, request: Resources, tier: Tier) -> Option<(usize, f64)> {
        let key = ShapeKey::of(request, tier);
        let d = discount(request, tier);
        self.stats.cache_misses += 1;
        let n = self.mirror.len();
        score_rows(&self.mirror.rows, request, d, &mut self.scores);
        let mut top = TopList::new();
        top.offer_all(&self.scores, 0..n as u32);
        self.stats.leaves_scanned += n as u64;
        self.cache.store(key, &top);
        top.first().map(|l| (l.mi as usize, l.score))
    }

    /// The lowest-indexed machine that can host `request` at `tier` after
    /// preempting lower tiers, with its victim list — exactly the machine
    /// the naive `find_map` over [`Machine::preemption_victims`] returns.
    #[allow(clippy::type_complexity)]
    pub fn first_preemptible(
        &mut self,
        machines: &[Machine],
        request: Resources,
        tier: Tier,
    ) -> Option<(usize, Vec<(usize, usize)>)> {
        self.stats.preempt_probes += 1;
        self.flush_tree(machines);
        let needed = discount(request, tier);
        self.tree.first_preemptible(needed, tier, &mut |mi| {
            machines[mi].preemption_victims(request, tier)
        })
    }

    /// Flushes dirty preemption-tree leaves. The sharded layer calls
    /// this on every shard before enumerating candidates.
    pub(crate) fn flush_for_preempt(&mut self, machines: &[Machine]) {
        self.flush_tree(machines);
    }

    /// Preemption candidates for the sharded layer: the shard-local
    /// indices of every machine whose inflated tree bound admits
    /// `needed`, ascending. Requires [`PlacementIndex::flush_for_preempt`]
    /// first. The caller runs the exact `preemption_victims` checks in
    /// global machine order with early exit, so the first passing
    /// machine is exactly the one the naive walk returns; bound-passing
    /// leaves the naive walk never visited (because it exited earlier)
    /// are rejected by the same exact check and cost only the visit.
    pub(crate) fn preempt_candidates(&mut self, needed: Resources, tier: Tier) -> Vec<u32> {
        self.stats.preempt_probes += 1;
        debug_assert!(
            self.dirty_list.is_empty(),
            "flush_for_preempt must run first"
        );
        let mut out = Vec::new();
        self.tree.collect_preemptible(1, needed, tier, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Occupant;
    use crate::reference::{naive_best_fit, naive_first_preemptible, tier_of};
    use borg_trace::machine::MachineId;
    use borg_workload::usage_model::splitmix64;

    fn occupant(owner: usize, tier: Tier, request: Resources) -> Occupant {
        Occupant {
            owner,
            index: 0,
            is_alloc_instance: false,
            tier,
            request,
        }
    }

    /// Drives seeded commits, frees, machine failures and repairs, and
    /// queries — after a burst of mutations the same shape is asked
    /// twice, so an entry rewritten by a long-tail hit is read again —
    /// and checks every answer against the naive reference: the index's
    /// core exactness property. Returns the counters.
    fn churn(seed: u64, capacities: &[Resources], shapes: &[Resources], steps: u64) -> IndexStats {
        let mut machines: Vec<Machine> = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| Machine::new(MachineId(i as u32), cap))
            .collect();
        let mut index = PlacementIndex::new(&machines);
        let mut occupants: Vec<(usize, usize)> = Vec::new();
        let mut next_owner = 0usize;
        for step in 0..steps {
            let r = splitmix64(seed.wrapping_mul(31).wrapping_add(step));
            let request = shapes[(r % shapes.len() as u64) as usize];
            let tier = tier_of(r / 1369);
            match r % 13 {
                // Frees dominate less than commits so machines fill.
                0..=2 => {
                    if !occupants.is_empty() {
                        let k = (r / 13) as usize % occupants.len();
                        let (mi, owner) = occupants.swap_remove(k);
                        machines[mi].remove(owner, 0).expect("occupant present");
                        index.on_machine_changed(mi, &machines[mi]);
                    }
                }
                3..=8 => {
                    let expect = naive_best_fit(&machines, request, tier);
                    // Twice: the second query reads what the first left.
                    for _ in 0..2 {
                        let got = index.best_fit(&machines, request, tier);
                        assert_eq!(got, expect, "seed {seed} step {step}");
                    }
                    if let Some((mi, _)) = expect {
                        machines[mi].add(occupant(next_owner, tier, request));
                        index.on_machine_changed(mi, &machines[mi]);
                        occupants.push((mi, next_owner));
                        next_owner += 1;
                    }
                }
                // A machine fails (capacity to zero, as `fail_machine`
                // leaves it) or comes back.
                9 => {
                    let mi = (r / 13) as usize % machines.len();
                    machines[mi].capacity = if machines[mi].capacity == Resources::ZERO {
                        capacities[mi]
                    } else {
                        Resources::ZERO
                    };
                    index.on_machine_changed(mi, &machines[mi]);
                }
                _ => {
                    let tier = if r.is_multiple_of(2) {
                        Tier::Production
                    } else {
                        Tier::Monitoring
                    };
                    let expect = naive_first_preemptible(&machines, request, tier);
                    let got = index.first_preemptible(&machines, request, tier);
                    assert_eq!(got, expect, "seed {seed} step {step}");
                }
            }
        }
        index.stats
    }

    fn seeded_shapes(seed: u64, n: u64) -> Vec<Resources> {
        (0..n)
            .map(|k| {
                let r = splitmix64(seed ^ (k * 104729));
                Resources::new(
                    0.01 + (r % 37) as f64 / 90.0,
                    0.01 + (r / 37 % 37) as f64 / 90.0,
                )
            })
            .collect()
    }

    /// A mixed fleet and a small shape pool, so the cache sees repeated
    /// equivalence classes interleaved with invalidating mutations.
    #[test]
    fn randomized_ops_match_naive_scan() {
        for seed in [1u64, 7, 99, 1234] {
            let capacities: Vec<Resources> = (0..37u64)
                .map(|i| {
                    let r = splitmix64(seed ^ (i * 7919));
                    Resources::new(
                        0.3 + (r % 100) as f64 / 120.0,
                        0.3 + (r / 100 % 100) as f64 / 120.0,
                    )
                })
                .collect();
            let stats = churn(seed, &capacities, &seeded_shapes(seed, 8), 4000);
            assert!(stats.cache_hits > 0 && stats.negative_hits > 0);
            assert!(stats.cache_misses > 0);
            assert!(stats.rescored > 0 && stats.tail_records > stats.cache_hits);
        }
    }

    /// Identical machines and two shapes that divide them evenly: every
    /// machine holding the same tasks has the same score to the bit, so
    /// far more than R+1 machines tie at the threshold, and a free on a
    /// low-indexed machine brings it back into a tie through the tail —
    /// after higher indices already fill the list.
    #[test]
    fn churn_over_exact_score_ties_matches_naive_scan() {
        let capacities = [Resources::new(1.0, 1.0); 24];
        let shapes = [Resources::new(0.125, 0.125), Resources::new(0.25, 0.125)];
        for seed in [3u64, 11, 2019] {
            let stats = churn(seed, &capacities, &shapes, 3000);
            assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
        }
    }

    /// Fewer machines than a candidate list holds: every entry carries
    /// the sentinel threshold, and shapes near a whole machine leave
    /// "nothing fits" cached while machines fail and come back.
    #[test]
    fn churn_over_a_fleet_smaller_than_the_list_matches_naive_scan() {
        let capacities = [
            Resources::new(1.0, 1.0),
            Resources::new(0.5, 1.0),
            Resources::new(1.0, 0.5),
            Resources::new(0.75, 0.75),
            Resources::new(0.5, 0.5),
        ];
        assert!(capacities.len() < R + 1);
        let shapes = [
            Resources::new(0.9, 0.9),
            Resources::new(0.6, 0.3),
            Resources::new(0.2, 0.2),
        ];
        for seed in [5u64, 13, 77] {
            let stats = churn(seed, &capacities, &shapes, 3000);
            assert!(stats.cache_hits > 0 && stats.negative_hits > 0);
        }
    }

    /// The list is full of machines tying at one score when a lower
    /// index with that same score arrives last, through the tail: the
    /// bound gate has to let it in, because it is the answer.
    #[test]
    fn lower_index_tying_the_bound_wins_when_it_arrives_last() {
        let mut machines: Vec<Machine> = (0..12)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        let request = Resources::new(0.25, 0.25);
        // Machine 0 starts too full for the request, so the scan's
        // candidates are 1..=8 and its threshold is machine 9.
        machines[0].add(occupant(0, Tier::Mid, Resources::new(1.0, 1.0)));
        let mut index = PlacementIndex::new(&machines);
        let scanned = index.best_fit(&machines, request, Tier::Mid);
        assert_eq!(scanned.map(|(mi, _)| mi), Some(1));
        // The tail: machine 9 touched (ninth entry of the list), then
        // machine 0 emptied — same score as all the others, index 0.
        index.on_machine_changed(9, &machines[9]);
        machines[0].remove(0, 0).expect("present");
        index.on_machine_changed(0, &machines[0]);
        let got = index.best_fit(&machines, request, Tier::Mid);
        assert_eq!(got, naive_best_fit(&machines, request, Tier::Mid));
        assert_eq!(got.map(|(mi, _)| mi), Some(0));
        assert_eq!(index.stats.cache_misses, 1, "answered by revalidation");
    }

    /// The score function against `Machine::fit_score`, bit for bit where
    /// the request fits and `+inf` exactly where it does not, over seeded
    /// rows and the rows most likely to separate a select from a branch.
    #[test]
    fn score_is_fit_score_or_infinity() {
        let check = |capacity: Resources, committed: Resources, request: Resources, tier: Tier| {
            let mut m = Machine::new(MachineId(0), capacity);
            m.committed = committed;
            let got = score(Mirror::row(&m), request, discount(request, tier));
            let want = m.fit_score(request, tier).unwrap_or(f64::INFINITY);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{capacity:?} {committed:?} {request:?} {tier:?}"
            );
        };
        let unit = |r: u64| (r % (1 << 20)) as f64 / (1u64 << 20) as f64;
        let mut fits = 0;
        for i in 0..40_000u64 {
            let r = splitmix64(i);
            let tier = tier_of(r >> 3);
            // One machine in eight has failed; commitments of either zero.
            let capacity = if r.is_multiple_of(8) {
                Resources::ZERO
            } else {
                Resources::new(unit(r >> 8), unit(r >> 28))
            };
            let s = splitmix64(r);
            let committed = match s % 4 {
                0 => Resources::ZERO,
                1 => Resources::new(-0.0, -0.0),
                _ => Resources::new(capacity.cpu * unit(s >> 8), capacity.mem * unit(s >> 28)),
            };
            let t = splitmix64(s);
            let request = match t % 8 {
                0 => Resources::ZERO,
                _ => Resources::new(unit(t >> 8) * 0.5, unit(t >> 28) * 0.5),
            };
            check(capacity, committed, request, tier);
            fits += usize::from(
                Machine::new(MachineId(0), capacity)
                    .fit_score_at(committed, request, tier)
                    .is_some(),
            );
            // The same row with the capacity the placement fills exactly:
            // `after == capacity`, the last feasible point, score 0.0.
            let brim = committed + discount(request, tier);
            check(brim, committed, request, tier);
        }
        assert!(
            (10_000..30_000).contains(&fits),
            "both arms of every select exercised: {fits} of 40000 fit"
        );
        let one = Resources::new(1.0, 1.0);
        // Over the machine's size in one dimension only, though the
        // discounted commitment fits in both.
        check(
            Resources::new(0.5, 0.5),
            Resources::ZERO,
            Resources::new(0.6, 0.1),
            Tier::Free,
        );
        check(
            Resources::new(0.5, 0.5),
            Resources::ZERO,
            Resources::new(0.1, 0.6),
            Tier::Free,
        );
        // A NaN request fits nowhere, whichever dimension carries it.
        check(
            one,
            Resources::ZERO,
            Resources::new(f64::NAN, 0.1),
            Tier::Mid,
        );
        check(
            one,
            Resources::ZERO,
            Resources::new(0.1, f64::NAN),
            Tier::Mid,
        );
        // A failed machine takes the empty request and nothing else.
        check(Resources::ZERO, Resources::ZERO, Resources::ZERO, Tier::Mid);
        check(
            Resources::ZERO,
            Resources::new(-0.0, -0.0),
            Resources::new(0.0, 1e-300),
            Tier::Mid,
        );
    }

    /// The tail cutoff follows the fleet: at 1, 48 and 512 machines a
    /// lookup whose tail is exactly `max_tail` long revalidates, one
    /// record more and it rescans — with the reference's answer both
    /// times. The first lookup also refreshes its entry (every cutoff is
    /// at least `REFRESH_TAIL`), or the second tail would be twice the
    /// cutoff, not one past it.
    #[test]
    fn tail_cutoff_scales_with_the_fleet() {
        for fleet in [1usize, 48, 512] {
            let mut machines: Vec<Machine> = (0..fleet)
                .map(|i| Machine::new(MachineId(i as u32), Resources::new(1.0, 1.0)))
                .collect();
            for (i, m) in machines.iter_mut().enumerate() {
                for k in 0..i % 5 {
                    m.add(occupant(k, Tier::Mid, Resources::new(0.2, 0.1)));
                }
            }
            let mut index = PlacementIndex::new(&machines);
            let cutoff = max_tail(fleet);
            assert!((REFRESH_TAIL..=fleet.max(REFRESH_TAIL)).contains(&cutoff));
            let request = Resources::new(0.15, 0.15);
            let expect = naive_best_fit(&machines, request, Tier::Mid);
            assert!(expect.is_some());
            assert_eq!(index.best_fit(&machines, request, Tier::Mid), expect);
            assert_eq!(index.stats.cache_misses, 1);
            let touch = |index: &mut PlacementIndex, n: usize| {
                for k in 0..n {
                    let mi = k * 7 % fleet;
                    index.on_machine_changed(mi, &machines[mi]);
                }
            };
            touch(&mut index, cutoff);
            assert_eq!(index.best_fit(&machines, request, Tier::Mid), expect);
            assert_eq!(
                (index.stats.cache_hits, index.stats.cache_misses),
                (1, 1),
                "fleet {fleet}: a tail of {cutoff} revalidates"
            );
            assert_eq!(index.stats.tail_records, cutoff as u64);
            touch(&mut index, cutoff + 1);
            assert_eq!(index.best_fit(&machines, request, Tier::Mid), expect);
            assert_eq!(
                (index.stats.cache_hits, index.stats.cache_misses),
                (1, 2),
                "fleet {fleet}: a tail of {} rescans",
                cutoff + 1
            );
        }
    }

    /// Repeated identical shapes must ride the candidate list: filling
    /// the winner falls through to the runner-up instead of rescanning.
    #[test]
    fn identical_shapes_hit_cache() {
        let machines: Vec<Machine> = (0..64)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        let mut machines = machines;
        let mut index = PlacementIndex::new(&machines);
        let request = Resources::new(0.1, 0.1);
        for owner in 0..32 {
            let (mi, _) = index
                .best_fit(&machines, request, Tier::Production)
                .expect("fits");
            machines[mi].add(Occupant {
                owner,
                index: 0,
                is_alloc_instance: false,
                tier: Tier::Production,
                request,
            });
            index.on_machine_changed(mi, &machines[mi]);
        }
        assert_eq!(index.stats.cache_hits + index.stats.cache_misses, 32);
        assert_eq!(
            index.stats.cache_misses, 1,
            "one cold scan, then the candidate list absorbs every fill-up"
        );
        assert_eq!(index.stats.cache_hits, 31);
    }

    /// A free on a cached winner is revalidated in place: the loosened
    /// machine is in the mutation tail, so its degraded score is
    /// re-scored exactly and the answer stays correct without a rescan.
    #[test]
    fn loosening_winner_revalidates_in_place() {
        let mut machines: Vec<Machine> = (0..8)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        let mut index = PlacementIndex::new(&machines);
        let request = Resources::new(0.2, 0.2);
        let (w, _) = index.best_fit(&machines, request, Tier::Mid).expect("fits");
        machines[w].add(Occupant {
            owner: 0,
            index: 0,
            is_alloc_instance: false,
            tier: Tier::Mid,
            request,
        });
        index.on_machine_changed(w, &machines[w]);
        machines[w].remove(0, 0).expect("present");
        index.on_machine_changed(w, &machines[w]);
        let misses_before = index.stats.cache_misses;
        let got = index.best_fit(&machines, request, Tier::Mid);
        assert_eq!(got, naive_best_fit(&machines, request, Tier::Mid));
        assert_eq!(
            index.stats.cache_misses, misses_before,
            "tail revalidation answers without a fresh scan"
        );
    }

    /// "Nothing fits" answers are reused while mutations only tighten.
    #[test]
    fn negative_answers_cached() {
        let mut machines = vec![Machine::new(MachineId(0), Resources::new(0.5, 0.5))];
        let mut index = PlacementIndex::new(&machines);
        let big = Resources::new(0.9, 0.9);
        assert_eq!(index.best_fit(&machines, big, Tier::Free), None);
        machines[0].add(Occupant {
            owner: 0,
            index: 0,
            is_alloc_instance: false,
            tier: Tier::Free,
            request: Resources::new(0.1, 0.1),
        });
        index.on_machine_changed(0, &machines[0]);
        assert_eq!(index.best_fit(&machines, big, Tier::Free), None);
        assert_eq!(index.stats.negative_hits, 1);
        assert_eq!(index.stats.cache_misses, 1);
    }

    /// More shapes than slots overwrite each other and stay correct, and
    /// so do two shapes sharing one slot, queried in turn while their
    /// machines fill.
    #[test]
    fn entry_eviction_stays_correct() {
        let mut machines: Vec<Machine> = (0..4)
            .map(|i| Machine::new(MachineId(i), Resources::new(1.0, 1.0)))
            .collect();
        let mut index = PlacementIndex::new(&machines);
        for k in 0..(MAX_ENTRIES + 50) {
            let request = Resources::new(0.1 + k as f64 * 1e-7, 0.1);
            let got = index.best_fit(&machines, request, Tier::Mid);
            assert_eq!(got, naive_best_fit(&machines, request, Tier::Mid));
        }
        // Requery the earliest (overwritten) shape: still correct, via scan.
        let first = Resources::new(0.1, 0.1);
        assert_eq!(
            index.best_fit(&machines, first, Tier::Mid),
            naive_best_fit(&machines, first, Tier::Mid)
        );

        let slot = |r: Resources| ShapeKey::of(r, Tier::Mid).slot();
        let a = Resources::new(0.05, 0.05);
        let b = (1..)
            .map(|k| Resources::new(0.05 + k as f64 * 1e-6, 0.05))
            .find(|&r| slot(r) == slot(a))
            .expect("some shape shares the slot");
        let misses = index.stats.cache_misses;
        for owner in 0..24 {
            let request = if owner % 2 == 0 { a } else { b };
            let expect = naive_best_fit(&machines, request, Tier::Mid);
            assert_eq!(index.best_fit(&machines, request, Tier::Mid), expect);
            let (mi, _) = expect.expect("fits");
            machines[mi].add(occupant(owner, Tier::Mid, request));
            index.on_machine_changed(mi, &machines[mi]);
        }
        // Each query found the other shape in the slot and rescanned.
        assert_eq!(index.stats.cache_misses - misses, 24);
    }

    /// The cache slot spreads a grid of shapes that differ only in a few
    /// high bits of each word — the keys a raw multiply-xor hash of the
    /// two words puts in 931 of 4096 low-bit buckets.
    #[test]
    fn shape_keys_spread_over_the_slots() {
        let mut used = vec![false; MAX_ENTRIES];
        for i in 0..64 {
            for j in 0..64 {
                let request = Resources::new(f64::from(i) / 64.0, f64::from(j) / 64.0);
                used[ShapeKey::of(request, Tier::Production).slot()] = true;
            }
        }
        let reached = used.iter().filter(|&&u| u).count();
        assert!(
            reached >= MAX_ENTRIES / 2,
            "{reached} of {MAX_ENTRIES} slots"
        );
    }

    #[test]
    fn empty_fleet_queries_are_none() {
        let machines: Vec<Machine> = Vec::new();
        let mut index = PlacementIndex::new(&machines);
        assert_eq!(
            index.best_fit(&machines, Resources::new(0.1, 0.1), Tier::Free),
            None
        );
        assert_eq!(
            index.first_preemptible(&machines, Resources::new(0.1, 0.1), Tier::Production),
            None
        );
    }
}
