//! Cross-crate property-based tests (proptest).
//!
//! These check invariants over randomized inputs: statistics math,
//! trace state machines, CSV round-trips, query-engine semantics versus
//! naive reference implementations, and distribution support bounds.

// Exact float assertions are deliberate: deterministic code must
// reproduce values bit-for-bit, so approximate checks would hide bugs.
#![allow(clippy::float_cmp)]

use borg2019::analysis::ccdf::Ccdf;
use borg2019::analysis::moments::Moments;
use borg2019::analysis::timeseries::HourBuckets;
use borg2019::query::prelude::*;
use borg2019::query::Agg;
use borg2019::trace::state::{EventType, StateMachine};
use borg2019::workload::dist::{BoundedPareto, LogNormal, Sample, Uniform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // ---- analysis ----------------------------------------------------

    #[test]
    fn ccdf_is_monotone_nonincreasing(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let c = Ccdf::from_samples(xs.iter().copied());
        let lo = xs.iter().copied().fold(f64::MAX, f64::min);
        let hi = xs.iter().copied().fold(f64::MIN, f64::max);
        let mut prev = 1.0;
        for (_, p) in c.linear_series(lo, hi, 50) {
            prop_assert!(p <= prev + 1e-12);
            prop_assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        prop_assert_eq!(c.eval(hi), 0.0);
    }

    #[test]
    fn moments_match_naive(xs in prop::collection::vec(-1e3f64..1e3, 2..100)) {
        let m: Moments = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((m.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((m.population_variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    #[test]
    fn moments_merge_associative(
        a in prop::collection::vec(-1e3f64..1e3, 0..50),
        b in prop::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let whole: Moments = a.iter().chain(b.iter()).copied().collect();
        let mut left: Moments = a.iter().copied().collect();
        let right: Moments = b.iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
    }

    #[test]
    fn percentile_within_range(xs in prop::collection::vec(-1e3f64..1e3, 1..100), p in 0.0f64..100.0) {
        let v = Ccdf::from_samples(xs.iter().copied()).percentile(p).unwrap();
        let lo = xs.iter().copied().fold(f64::MAX, f64::min);
        let hi = xs.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn top_share_bounds(xs in prop::collection::vec(0.01f64..1e3, 2..200), pct in 0.1f64..100.0) {
        let s = Ccdf::from_samples(xs.iter().copied()).top_share(pct).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
        // The top share always covers at least its proportional share.
        prop_assert!(s >= pct / 100.0 - 1.0 / xs.len() as f64 - 1e-9);
    }

    #[test]
    fn hour_buckets_conserve_mass(
        intervals in prop::collection::vec((0u64..1000, 0u64..1000, 0.0f64..10.0), 0..30)
    ) {
        let mut b = HourBuckets::new(100, 1000);
        let mut expected = 0.0;
        for &(s, e, r) in &intervals {
            let (s, e) = (s.min(1000), e.min(1000));
            b.add_interval(s, e, r);
            if e > s {
                expected += r * (e - s) as f64;
            }
        }
        let total: f64 = b.totals().iter().sum();
        prop_assert!((total - expected).abs() < 1e-6 * (1.0 + expected));
    }

    // ---- trace state machine ------------------------------------------

    #[test]
    fn state_machine_never_leaves_dead_without_resubmit(
        events in prop::collection::vec(0usize..11, 0..30)
    ) {
        let all = EventType::ALL;
        let mut sm = StateMachine::new();
        for &i in &events {
            let before = sm.state();
            let result = sm.apply(all[i]);
            match result {
                Ok(state) => {
                    // A terminal event from a live state must produce Dead.
                    if all[i].is_terminal() && before.is_some_and(|s| !s.is_dead()) {
                        prop_assert!(state.is_dead());
                    }
                }
                Err(_) => {
                    // Rejected events leave the state unchanged.
                    prop_assert_eq!(sm.state(), before);
                }
            }
        }
    }

    // ---- distributions -------------------------------------------------

    #[test]
    fn bounded_pareto_support(alpha in 0.2f64..3.0, lo in 0.01f64..10.0, span in 1.5f64..100.0, seed in 0u64..1000) {
        let hi = lo * span;
        let d = BoundedPareto::new(alpha, lo, hi);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo - 1e-12 && x <= hi + 1e-9);
        }
        prop_assert!(d.mean() >= lo && d.mean() <= hi);
    }

    #[test]
    fn lognormal_positive(mu in -5.0f64..5.0, sigma in 0.0f64..3.0, seed in 0u64..1000) {
        let d = LogNormal::new(mu, sigma);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn uniform_in_bounds(lo in -100.0f64..100.0, w in 0.0f64..50.0, seed in 0u64..1000) {
        let d = Uniform::new(lo, lo + w);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= lo + w);
        }
    }

    // ---- query engine vs naive reference --------------------------------

    #[test]
    fn filter_matches_naive(xs in prop::collection::vec(-100i64..100, 0..80), threshold in -100i64..100) {
        let mut t = Table::new(vec![("v", DataType::Int)]);
        for &x in &xs {
            t.push_row(vec![Value::Int(x)]).unwrap();
        }
        let out = Query::from(t).filter(col("v").gt(lit(threshold))).run().unwrap();
        let expected: Vec<i64> = xs.iter().copied().filter(|&x| x > threshold).collect();
        prop_assert_eq!(out.num_rows(), expected.len());
        for (r, &e) in expected.iter().enumerate() {
            prop_assert_eq!(out.value(r, "v").unwrap(), Value::Int(e));
        }
    }

    #[test]
    fn group_by_sums_match_naive(rows in prop::collection::vec((0u8..5, -100.0f64..100.0), 0..80)) {
        let mut t = Table::new(vec![("k", DataType::Int), ("v", DataType::Float)]);
        for &(k, v) in &rows {
            t.push_row(vec![Value::Int(i64::from(k)), Value::Float(v)]).unwrap();
        }
        let out = Query::from(t)
            .group_by(&["k"], vec![Agg::sum("v", "s"), Agg::count_all("n")])
            .run()
            .unwrap();
        let mut naive: std::collections::BTreeMap<i64, (f64, i64)> = Default::default();
        for &(k, v) in &rows {
            let e = naive.entry(i64::from(k)).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        prop_assert_eq!(out.num_rows(), naive.len());
        for r in 0..out.num_rows() {
            let k = out.value(r, "k").unwrap().as_i64().unwrap();
            let s = out.value(r, "s").unwrap().as_f64().unwrap();
            let n = out.value(r, "n").unwrap().as_i64().unwrap();
            let (es, en) = naive[&k];
            prop_assert!((s - es).abs() < 1e-6 * (1.0 + es.abs()));
            prop_assert_eq!(n, en);
        }
    }

    #[test]
    fn sort_is_sorted_and_permutation(xs in prop::collection::vec(-1000i64..1000, 0..100)) {
        let mut t = Table::new(vec![("v", DataType::Int)]);
        for &x in &xs {
            t.push_row(vec![Value::Int(x)]).unwrap();
        }
        let out = Query::from(t).sort_by("v", SortOrder::Ascending).run().unwrap();
        let got: Vec<i64> = (0..out.num_rows())
            .map(|r| out.value(r, "v").unwrap().as_i64().unwrap())
            .collect();
        let mut expected = xs.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    // ---- trace CSV round trip -------------------------------------------

    #[test]
    fn machine_events_csv_round_trip(
        rows in prop::collection::vec((0u32..100, 0.01f64..1.0, 0.01f64..1.0, 0u8..7), 0..40)
    ) {
        use borg2019::trace::csv::{read_machine_events, write_machine_events};
        use borg2019::trace::machine::{MachineEvent, MachineId, Platform};
        use borg2019::trace::resources::Resources;
        use borg2019::trace::time::Micros;
        let events: Vec<MachineEvent> = rows
            .iter()
            .map(|&(id, cpu, mem, plat)| {
                MachineEvent::add(Micros::ZERO, MachineId(id), Resources::new(cpu, mem), Platform(plat))
            })
            .collect();
        let mut buf = Vec::new();
        write_machine_events(&mut buf, &events).unwrap();
        let back = read_machine_events(&buf[..]).unwrap();
        prop_assert_eq!(back, events);
    }
}
