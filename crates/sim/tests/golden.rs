//! The simulator's frozen oracle: one table of `(label, profile, config)`
//! rows, each pinned to the bytes the simulation must produce.
//!
//! Every row pins
//!
//! * the FNV-1a digest and byte count of the four CSV tables (machine
//!   events, collection events, instance events, usage) as
//!   `borg_trace::csv` writes them,
//! * the scheduler-visible metrics (`preemptions`, `stalls_by_tier`,
//!   `evictions_by_cause`, `machine_failures`, `tasks_lost`), rendered
//!   as text so a mismatch reads as a diff, and
//! * the FNV-1a digest and byte count of the telemetry snapshot's
//!   `deterministic_bytes`, from a second run with telemetry on — whose
//!   trace must digest to the same value (telemetry is a pure observer).
//!
//! The pinned values were produced by the **reference arms** at the
//! commit that introduced this file, while they still existed — not by
//! the code under test: trace and metrics by the seed event loop (one
//! `Dispatch` heap round-trip per placement, allocating usage tick) over
//! the naive O(machines) scan, telemetry by the naive scan under the
//! batched loop (the seed loop's per-placement `Dispatch` events show in
//! the deterministic plane, so telemetry has no loop-independent
//! reference). That commit ran both arms and the production path against
//! this table; the arms are gone, and the production path is held to the
//! same bytes. The live, platform-independent oracle for the placement
//! structures is the shared reference model in
//! `crates/sim/src/reference.rs`.
//!
//! Generated on: rustc 1.95.0 (59807616e 2026-04-14),
//! x86_64-unknown-linux-gnu — recorded because the usage model's `cos`
//! and `exp`/`ln` draws go through the platform's libm: a mismatch on
//! another toolchain or target is first checked against that, before it
//! is read as a regression. A deliberate behaviour change regenerates
//! the table with `print_golden_table`.
//!
//! On top of the digests, every row's trace passes
//! `borg_trace::validate::validate` with zero violations and a
//! task-conservation check (see [`assert_tasks_conserved`]).

use borg_sim::{CellOutcome, CellSim, FaultConfig, SimConfig};
use borg_trace::collection::{CollectionId, CollectionType};
use borg_trace::csv;
use borg_trace::state::EventType;
use borg_trace::time::Micros;
use borg_trace::trace::Trace;
use borg_trace::validate::validate;
use borg_workload::cells::CellProfile;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufWriter, Write};

/// 64-bit FNV-1a over a byte stream, counting the bytes.
struct Fnv {
    hash: u64,
    bytes: u64,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `(digest, byte count)` of the four tables' CSV rendering, in the
/// order machine, collection, instance, usage.
fn trace_digest(trace: &Trace) -> (u64, u64) {
    let mut fnv = Fnv::new();
    {
        let mut w = BufWriter::with_capacity(1 << 16, &mut fnv);
        csv::write_machine_events(&mut w, &trace.machine_events)
            .and_then(|()| csv::write_collection_events(&mut w, &trace.collection_events))
            .and_then(|()| csv::write_instance_events(&mut w, &trace.instance_events))
            .and_then(|()| csv::write_usage(&mut w, &trace.usage))
            .and_then(|()| w.flush())
            .expect("hashing writer cannot fail");
    }
    (fnv.hash, fnv.bytes)
}

fn bytes_digest(bytes: &[u8]) -> (u64, u64) {
    let mut fnv = Fnv::new();
    fnv.write_all(bytes).expect("hashing writer cannot fail");
    (fnv.hash, fnv.bytes)
}

/// The scheduler-visible metrics, as the table spells them.
fn metrics_line(o: &CellOutcome) -> String {
    let m = &o.metrics;
    let stalls: Vec<String> = m
        .stalls_by_tier
        .iter()
        .map(|(tier, n)| format!("{tier}:{n}"))
        .collect();
    let evictions: Vec<String> = m
        .evictions_by_cause
        .iter()
        .map(|(cause, n)| format!("{cause}:{n}"))
        .collect();
    format!(
        "preemptions={} stalls=[{}] evictions=[{}] machine_failures={} tasks_lost={}",
        m.preemptions,
        stalls.join(","),
        evictions.join(","),
        m.machine_failures,
        m.tasks_lost
    )
}

/// What one row pins.
#[derive(Clone, PartialEq, Eq)]
struct Pinned {
    trace: (u64, u64),
    metrics: String,
    telemetry: (u64, u64),
}

/// The three pinned values as `GOLDEN` spells them, one per line.
impl std::fmt::Display for Pinned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "        (0x{:016x}, {}),\n        {:?},\n        (0x{:016x}, {}),",
            self.trace.0, self.trace.1, self.metrics, self.telemetry.0, self.telemetry.1
        )
    }
}

/// One `(label, profile, config)` row of the matrix.
struct Row {
    label: String,
    profile: CellProfile,
    cfg: SimConfig,
}

fn cell(name: char) -> CellProfile {
    CellProfile::cell_2019(name)
}

fn gang(seed: u64) -> SimConfig {
    SimConfig {
        gang_scheduling: true,
        ..SimConfig::tiny_for_tests(seed)
    }
}

fn faults(seed: u64) -> SimConfig {
    SimConfig {
        faults: Some(FaultConfig::default()),
        ..SimConfig::tiny_for_tests(seed)
    }
}

/// Dense fleet, daily maintenance sweeps: every path that mutates
/// machines behind the score cache, pushes pending entries or
/// invalidates generation stamps.
fn churn(seed: u64) -> SimConfig {
    SimConfig {
        scale: 0.004,
        maintenance_per_month: 30.0,
        usage_interval: Micros::from_minutes(30),
        ..SimConfig::tiny_for_tests(seed)
    }
}

fn sharded(seed: u64, k: usize) -> SimConfig {
    SimConfig {
        placement_shards: Some(k),
        ..SimConfig::tiny_for_tests(seed)
    }
}

/// Seeds × cells a/b/c/d/g/2011 × gang × faults × gang + faults ×
/// churn stress × sharded K: the matrix the loop-, index- and
/// naive-vs-sharded equivalence tests ran while the reference arms
/// existed.
fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut push = |label: String, profile: CellProfile, cfg: SimConfig| {
        rows.push(Row {
            label,
            profile,
            cfg,
        });
    };
    for seed in [1u64, 7, 42, 1234, 98765] {
        push(
            format!("cell a, seed {seed}"),
            cell('a'),
            SimConfig::tiny_for_tests(seed),
        );
    }
    for profile in [cell('b'), cell('d'), cell('g'), CellProfile::cell_2011()] {
        push(
            format!("cell {}, seed 11", profile.name),
            profile,
            SimConfig::tiny_for_tests(11),
        );
    }
    for seed in [3u64, 17, 29] {
        push(format!("gang, cell b, seed {seed}"), cell('b'), gang(seed));
    }
    for seed in [5u64, 23, 42] {
        push(
            format!("faults, cell a, seed {seed}"),
            cell('a'),
            faults(seed),
        );
    }
    let a = cell('a');
    let model_faults = SimConfig {
        faults: Some(FaultConfig::from_model(&a.failure_model)),
        ..SimConfig::tiny_for_tests(13)
    };
    push("model faults, cell a, seed 13".into(), a, model_faults);
    for seed in [13u64, 31] {
        let cfg = SimConfig {
            faults: Some(FaultConfig::default()),
            ..gang(seed)
        };
        push(
            format!("gang + faults, cell b, seed {seed}"),
            cell('b'),
            cfg,
        );
    }
    for seed in [5u64, 29] {
        push(
            format!("churn stress, cell c, seed {seed}"),
            cell('c'),
            churn(seed),
        );
        push(
            format!("churn stress, cell 2011, seed {}", seed + 1),
            CellProfile::cell_2011(),
            churn(seed + 1),
        );
    }
    for (seed, k) in [(19u64, 2usize), (21, 3), (19, 7), (21, 16)] {
        push(
            format!("sharded K={k}, cell a, seed {seed}"),
            cell('a'),
            sharded(seed, k),
        );
    }
    push(
        "sharded K=5, cell b, seed 17".into(),
        cell('b'),
        sharded(17, 5),
    );
    rows
}

/// Task conservation, from the trace alone: walking each instance's
/// events in trace order, a task is submitted only while it is not live
/// (none appears twice), is scheduled or terminated only while it is
/// live, and ends the horizon either terminal or live; every task the
/// generator submitted is accounted for exactly once; and no task
/// outlives its job.
///
/// One known gap is carved out rather than hidden: a job that ends
/// before its tasks were ever made ready (killed on arrival because its
/// parent is already dead, or while held in the batch queue) leaves each
/// task with its `Submit` and nothing else — the simulator never emits
/// their `Kill`. Fixing that changes trace bytes, so it is not this
/// table's business; the carve-out admits exactly that shape.
fn assert_tasks_conserved(label: &str, o: &CellOutcome) {
    let job_events = || {
        o.trace
            .collection_events
            .iter()
            .filter(|e| e.collection_type == CollectionType::Job)
    };
    let jobs: BTreeSet<CollectionId> = job_events().map(|e| e.collection_id).collect();
    let ended_jobs: BTreeSet<CollectionId> = job_events()
        .filter(|e| e.event_type.is_terminal())
        .map(|e| e.collection_id)
        .collect();
    // Task → (live after its last event, events seen).
    let mut tasks: BTreeMap<(CollectionId, u32), (bool, u32)> = BTreeMap::new();
    let mut submits = 0u64;
    for e in &o.trace.instance_events {
        let id = e.instance_id;
        if !jobs.contains(&id.collection) {
            continue; // alloc instance
        }
        let (live, events) = tasks.entry((id.collection, id.index)).or_insert((false, 0));
        *events += 1;
        match e.event_type {
            EventType::Submit => {
                assert!(!*live, "{label}: {id:?} submitted while live");
                *live = true;
                submits += 1;
            }
            ev if ev.is_terminal() => {
                assert!(*live, "{label}: {id:?} {ev} while not live");
                *live = false;
            }
            ev => assert!(*live, "{label}: {id:?} {ev} while not live"),
        }
    }
    for (&(collection, index), &(live, events)) in &tasks {
        let never_readied = events == 1;
        assert!(
            !(live && ended_jobs.contains(&collection)) || never_readied,
            "{label}: task {index} of ended job {collection:?} is still live"
        );
    }
    let total = |buckets: &[f64]| buckets.iter().sum::<f64>() as u64;
    assert_eq!(
        tasks.len() as u64,
        total(o.metrics.new_task_submissions.totals()),
        "{label}: distinct tasks in the trace vs tasks the generator submitted"
    );
    assert_eq!(
        submits,
        total(o.metrics.all_task_submissions.totals()),
        "{label}: submit events vs submissions counted"
    );
}

/// Runs one row with telemetry off and again with it on, checks the
/// invariants every run must satisfy, and returns what the row pins.
fn run_row(row: &Row) -> Pinned {
    let label = &row.label;
    let off = CellSim::run_cell(&row.profile, &row.cfg);
    let violations = validate(&off.trace);
    assert!(
        violations.is_empty(),
        "{label}: {} violation(s), first: {:?}",
        violations.len(),
        violations.first()
    );
    assert_tasks_conserved(label, &off);
    let ix = off.metrics.index;
    assert!(
        ix.cache_hits + ix.negative_hits + ix.cache_misses > 0,
        "{label}: index never consulted"
    );
    let on = CellSim::run_cell(
        &row.profile,
        &SimConfig {
            telemetry: true,
            ..row.cfg.clone()
        },
    );
    let trace = trace_digest(&off.trace);
    assert_eq!(
        trace_digest(&on.trace),
        trace,
        "{label}: telemetry perturbed the trace"
    );
    Pinned {
        trace,
        metrics: metrics_line(&off),
        telemetry: bytes_digest(&on.telemetry.deterministic_bytes()),
    }
}

/// Every row against `GOLDEN`, reporting all mismatches at once.
#[test]
fn every_row_matches_golden() {
    let rows = matrix();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "matrix and GOLDEN differ in length"
    );
    let mut mismatches = Vec::new();
    for (row, &(label, trace, metrics, telemetry)) in rows.iter().zip(GOLDEN) {
        assert_eq!(row.label, label, "matrix and GOLDEN differ in order");
        let want = Pinned {
            trace,
            metrics: metrics.to_string(),
            telemetry,
        };
        let got = run_row(row);
        if got != want {
            mismatches.push(format!("{label}: got\n{got}\nwant\n{want}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} rows diverge from the golden table\n{}",
        mismatches.len(),
        rows.len(),
        mismatches.join("\n")
    );
}

fn row(label: &str) -> Row {
    matrix()
        .into_iter()
        .find(|r| r.label == label)
        .expect("label names a matrix row")
}

/// The churn rows must actually exercise preemption/eviction churn, or
/// their digests pin less than they claim.
#[test]
fn churn_stress_actually_churns() {
    let row = row("churn stress, cell c, seed 5");
    let outcome = CellSim::run_cell(&row.profile, &row.cfg);
    let evictions: u64 = outcome.metrics.evictions_by_cause.values().sum();
    assert!(
        evictions > 20,
        "churn config produced only {evictions} evictions"
    );
}

/// The model-fault row must actually fail machines.
#[test]
fn model_fault_row_actually_fails_machines() {
    let row = row("model faults, cell a, seed 13");
    let outcome = CellSim::run_cell(&row.profile, &row.cfg);
    assert!(
        outcome.metrics.machine_failures > 0,
        "want an active fault run"
    );
}

/// Prints a fresh `GOLDEN` body from the code as it stands. Run with
/// `cargo test -p borg-sim --test golden -- --ignored --nocapture` and
/// paste over the table below — only for a deliberate behaviour change.
#[test]
#[ignore = "regenerates the table; not a check"]
fn print_golden_table() {
    for row in matrix() {
        println!("    (\n        {:?},\n{}\n    ),", row.label, run_row(&row));
    }
}

/// `(label, trace (digest, bytes), metrics, telemetry (digest, bytes))`.
type GoldenRow = (&'static str, (u64, u64), &'static str, (u64, u64));

/// The pinned values, in `matrix()` order.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    (
        "cell a, seed 1",
        (0xfcef977e704019c2, 4894673),
        "preemptions=21 stalls=[free:31880,beb:14385,mid:148] evictions=[overcommit:6,preemption:46] machine_failures=0 tasks_lost=0",
        (0x678696519337151e, 1744),
    ),
    (
        "cell a, seed 7",
        (0x2074ae3f4a3fd328, 4709845),
        "preemptions=42 stalls=[free:10181,beb:23320,mid:971] evictions=[alloc_teardown:1,maintenance:11,overcommit:1,preemption:100] machine_failures=0 tasks_lost=0",
        (0xdee5b37185b105d2, 1932),
    ),
    (
        "cell a, seed 42",
        (0xd79e0239094d8988, 4412885),
        "preemptions=50 stalls=[free:29184,beb:43749,mid:4972] evictions=[overcommit:6,preemption:144] machine_failures=0 tasks_lost=0",
        (0xa1042ad80ab05544, 1821),
    ),
    (
        "cell a, seed 1234",
        (0xb85152953d0b2a26, 4573807),
        "preemptions=1 stalls=[free:4214,beb:2342,mid:59] evictions=[alloc_teardown:7,preemption:3] machine_failures=0 tasks_lost=0",
        (0xee3fe04cba8fe9e4, 1827),
    ),
    (
        "cell a, seed 98765",
        (0xf8a3e8c3aea4f030, 3228642),
        "preemptions=38 stalls=[free:88357,beb:154202,mid:9157] evictions=[maintenance:1,overcommit:7,preemption:131] machine_failures=0 tasks_lost=0",
        (0x10bdf52eee1e0694, 1859),
    ),
    (
        "cell b, seed 11",
        (0x5735dceab1f1cad6, 3883562),
        "preemptions=4 stalls=[free:2153,beb:4169] evictions=[maintenance:4,overcommit:12,preemption:9] machine_failures=0 tasks_lost=0",
        (0xd331e3c3cd5086ad, 1833),
    ),
    (
        "cell d, seed 11",
        (0xaa9294ee44f03ee2, 5093877),
        "preemptions=23 stalls=[free:21670,beb:51992,mid:3825] evictions=[maintenance:15,overcommit:1,preemption:45] machine_failures=0 tasks_lost=0",
        (0x4f7c4b0590303edf, 1861),
    ),
    (
        "cell g, seed 11",
        (0x5bbbe77858ac7071, 5021036),
        "preemptions=18 stalls=[free:7334,beb:43033,mid:1065] evictions=[maintenance:7,preemption:32] machine_failures=0 tasks_lost=0",
        (0x52f542cc70ae8e3a, 1787),
    ),
    (
        "cell 2011, seed 11",
        (0x1856d1e54ea078ea, 1411793),
        "preemptions=1 stalls=[beb:3381] evictions=[preemption:1] machine_failures=0 tasks_lost=0",
        (0xa7391863128d63b7, 1521),
    ),
    (
        "gang, cell b, seed 3",
        (0xb9e16c7430609622, 6871847),
        "preemptions=0 stalls=[free:462935,beb:187083] evictions=[maintenance:2,overcommit:15] machine_failures=0 tasks_lost=0",
        (0xf7b793abc2a7b275, 1793),
    ),
    (
        "gang, cell b, seed 17",
        (0xdb55a561592a5ae1, 3779202),
        "preemptions=0 stalls=[free:386117,beb:1823838,mid:57,prod:4] evictions=[maintenance:13,overcommit:5] machine_failures=0 tasks_lost=0",
        (0x98a49fd6b9196dc3, 1855),
    ),
    (
        "gang, cell b, seed 29",
        (0xcb1da771b130e1e3, 2565873),
        "preemptions=0 stalls=[free:71,beb:1224306] evictions=[maintenance:5,overcommit:6] machine_failures=0 tasks_lost=0",
        (0x0e68854b3f6f80c0, 1792),
    ),
    (
        "faults, cell a, seed 5",
        (0xba0f2987dad4fcd2, 3801822),
        "preemptions=9 stalls=[free:8085,beb:10345,mid:667] evictions=[maintenance:1,overcommit:3,preemption:35] machine_failures=0 tasks_lost=0",
        (0x29f615311b527e93, 1854),
    ),
    (
        "faults, cell a, seed 23",
        (0x5dc54627d4b71e40, 6274586),
        "preemptions=93 stalls=[free:48709,beb:58256,mid:1173] evictions=[maintenance:11,overcommit:6,preemption:250] machine_failures=0 tasks_lost=0",
        (0x9da6485ce7b5a632, 1871),
    ),
    (
        "faults, cell a, seed 42",
        (0xd79e0239094d8988, 4412885),
        "preemptions=50 stalls=[free:29184,beb:43749,mid:4972] evictions=[overcommit:6,preemption:144] machine_failures=0 tasks_lost=0",
        (0xd7c20c78c415e1c8, 1821),
    ),
    (
        "model faults, cell a, seed 13",
        (0x15c7bc7f85b49ce7, 4642394),
        "preemptions=1 stalls=[free:4118,beb:13003,mid:304] evictions=[machine-failure:195,preemption:2] machine_failures=10 tasks_lost=13",
        (0x37302a72206e5983, 1978),
    ),
    (
        "gang + faults, cell b, seed 13",
        (0x7691cef0a8261292, 2291817),
        "preemptions=0 stalls=[free:1012,beb:213990,mid:45] evictions=[machine-failure:54,overcommit:5] machine_failures=3 tasks_lost=4",
        (0xd7a6ff3838a7ad78, 1978),
    ),
    (
        "gang + faults, cell b, seed 31",
        (0x8eb752f0d0bd52d4, 3908543),
        "preemptions=0 stalls=[free:63177,beb:1851181,mid:55] evictions=[machine-failure:13,maintenance:2,overcommit:17] machine_failures=1 tasks_lost=0",
        (0x10166e078bc4134c, 2020),
    ),
    (
        "churn stress, cell c, seed 5",
        (0x6a3e7c566ac7ca3f, 9886999),
        "preemptions=45 stalls=[free:65224,beb:889113,mid:4528] evictions=[maintenance:289,preemption:79] machine_failures=0 tasks_lost=0",
        (0xdc2731e5f89512ad, 1869),
    ),
    (
        "churn stress, cell 2011, seed 6",
        (0xd2f23aee88a68511, 4455991),
        "preemptions=4 stalls=[free:1565,beb:748] evictions=[maintenance:93,overcommit:2,preemption:34] machine_failures=0 tasks_lost=0",
        (0xdfa48054dca4e68c, 1679),
    ),
    (
        "churn stress, cell c, seed 29",
        (0x4c0f86562a764ac1, 7177419),
        "preemptions=50 stalls=[free:93969,beb:832449,mid:5490] evictions=[maintenance:193,overcommit:2,preemption:63] machine_failures=0 tasks_lost=0",
        (0xe8828cdcddd45624, 1903),
    ),
    (
        "churn stress, cell 2011, seed 30",
        (0xaad947efd7cc4963, 2535062),
        "preemptions=1 stalls=[free:109,beb:1423] evictions=[maintenance:46,overcommit:2,preemption:2] machine_failures=0 tasks_lost=0",
        (0x40c39ec235827be4, 1664),
    ),
    (
        "sharded K=2, cell a, seed 19",
        (0x441736a809e4204d, 5188724),
        "preemptions=0 stalls=[free:631,beb:169] evictions=[maintenance:3,overcommit:3] machine_failures=0 tasks_lost=0",
        (0x9696cc4cecf1f20e, 1796),
    ),
    (
        "sharded K=3, cell a, seed 21",
        (0xfc596e5e45744bde, 3897132),
        "preemptions=0 stalls=[free:4707,beb:12780] evictions=[maintenance:7,overcommit:2] machine_failures=0 tasks_lost=0",
        (0x21a45b4c835b2bd5, 1786),
    ),
    (
        "sharded K=7, cell a, seed 19",
        (0x441736a809e4204d, 5188724),
        "preemptions=0 stalls=[free:631,beb:169] evictions=[maintenance:3,overcommit:3] machine_failures=0 tasks_lost=0",
        (0x9696cc4cecf1f20e, 1796),
    ),
    (
        "sharded K=16, cell a, seed 21",
        (0xfc596e5e45744bde, 3897132),
        "preemptions=0 stalls=[free:4707,beb:12780] evictions=[maintenance:7,overcommit:2] machine_failures=0 tasks_lost=0",
        (0x21a45b4c835b2bd5, 1786),
    ),
    (
        "sharded K=5, cell b, seed 17",
        (0x868a2d96bcc35048, 4098539),
        "preemptions=9 stalls=[free:46133,beb:112034,mid:844] evictions=[overcommit:2,preemption:9] machine_failures=0 tasks_lost=0",
        (0xaef6836689ee6cd9, 1825),
    ),
];
