//! The §7 analyses' frozen oracle: Table 2, Figures 11–13, the §7.3
//! queueing rows and the Gini/Lorenz summary, pinned to the bits the
//! statistics routines must produce.
//!
//! Every float is pinned as its `f64::to_bits` pattern (hex), followed
//! by a `{:e}` rendering so a mismatch reads as a diff a person can
//! size up. Table 2 is pinned twice: as the rendered table (what
//! `paper table2` prints) and field by field.
//!
//! The statistics were first pinned by the routines at the commit that
//! introduced this file — the slice-taking `percentiles`, `top_share`,
//! `TailShare::compute`, `ParetoFit::fit_ccdf_regression`,
//! `Lorenz::from_samples`, `gini` and the copy-and-sort inside
//! `queueing_rows` — before any of them moved onto `Ccdf`. Those
//! routines survive as the differential reference in
//! `crates/analysis/tests/reference/`; this table holds whatever
//! replaces them to the same bits end to end.
//!
//! Every section but Figure 11 was re-pinned once, when the
//! statistical-mode sample changed definition (paired Box–Muller draw,
//! chunk-seeded streams; DESIGN.md §5). That re-pin was held to the
//! paper rather than to the old bits: the calibration tests in
//! `integral.rs` and `consumption.rs` kept their bounds, and
//! `consumption.rs` bounds the KS distance between the new draw and the
//! old one. Figure 11 draws no integral and did not move.
//!
//! Generated on: rustc 1.95.0 (59807616e 2026-04-14),
//! x86_64-unknown-linux-gnu — recorded because the integral model's
//! draws and the Pareto regression go through the platform's `ln`/`exp`:
//! a mismatch on another toolchain or target is checked against that
//! first. A deliberate behaviour change regenerates the constants with
//! `cargo test -p borg-core --test golden_analyses -- --ignored
//! --nocapture print_golden`.

use borg_analysis::ccdf::Ccdf;
use borg_analysis::lorenz::{gini, Lorenz};
use borg_core::analyses::{consumption, correlation, queueing, tasks_per_job};
use borg_trace::priority::Tier;
use borg_workload::integral::IntegralModel;
use std::fmt::Write;

/// One pinned float: bit pattern, then a readable rendering.
fn bits(v: f64) -> String {
    format!("{:016x} {v:e}", v.to_bits())
}

/// Table 2 at 200 000 samples, seed 42: rendered, then every field.
fn table2_text() -> String {
    let cols = consumption::table2(200_000, 42).expect("table 2 computes");
    let mut out = consumption::render_table2(&cols);
    for (name, c) in ["2011 cpu", "2011 mem", "2019 cpu", "2019 mem"]
        .iter()
        .zip(&cols)
    {
        let fields = [
            ("median", c.median),
            ("mean", c.mean),
            ("variance", c.variance),
            ("p90", c.p90),
            ("p99", c.p99),
            ("p999", c.p999),
            ("maximum", c.maximum),
            ("top_1", c.top_1_percent_load),
            ("top_01", c.top_01_percent_load),
            ("c_squared", c.c_squared),
            ("alpha", c.pareto_alpha),
            ("r_squared", c.r_squared),
        ];
        for (field, v) in fields {
            writeln!(out, "{name} {field} {}", bits(v)).expect("write to String");
        }
    }
    out
}

/// Figure 12: the 2019 CPU log-log CCDF, 50 000 samples, seed 1, 40
/// grid points.
fn fig12_text() -> String {
    let (cpu, _) = consumption::era_samples(&IntegralModel::model_2019(), 50_000, 1);
    let mut out = String::new();
    for (i, (x, p)) in consumption::figure12_series(&cpu, 40)
        .into_iter()
        .enumerate()
    {
        writeln!(out, "{i:02} x {} p {}", bits(x), bits(p)).expect("write to String");
    }
    out
}

/// Figure 13 at 300 000 samples, seed 5: every bucket and the Pearson
/// coefficient of centers against medians.
fn fig13_text() -> String {
    let f = correlation::figure13(300_000, 5).expect("figure 13 computes");
    let mut out = format!("pearson {}\nbuckets {}\n", bits(f.pearson), f.buckets.len());
    for b in &f.buckets {
        writeln!(
            out,
            "[{}, {}) n {} median {}",
            b.x_lo,
            b.x_hi,
            b.count,
            bits(b.median_y)
        )
        .expect("write to String");
    }
    out
}

/// §7.3 rows from 200 000 2019 CPU integrals, seed 77.
fn queueing_text() -> String {
    let (cpu, _) = consumption::era_samples(&IntegralModel::model_2019(), 200_000, 77);
    let rows = queueing::queueing_rows(&cpu, &[0.3, 0.5, 0.7]).expect("valid loads");
    let mut out = String::new();
    for r in rows {
        writeln!(
            out,
            "rho {} full {} mice {} benefit {}",
            r.rho,
            bits(r.delay_full),
            bits(r.delay_mice),
            bits(r.benefit)
        )
        .expect("write to String");
    }
    out
}

/// Figure 11 model quantiles at 60 000 samples, seed 3.
fn fig11_text() -> String {
    let ccdfs = tasks_per_job::model_ccdfs(60_000, 3);
    let mut out = String::new();
    for tier in Tier::REPORTING {
        let c = &ccdfs[&tier];
        write!(
            out,
            "{tier:?} n {} median {}",
            c.len(),
            bits(c.median().expect("non-empty"))
        )
        .expect("write to String");
        for q in [0.5, 0.8, 0.9, 0.95, 0.99, 0.999] {
            let v = c.quantile_exceeding(1.0 - q).expect("q in range");
            write!(out, " p{} {}", q * 100.0, bits(v)).expect("write to String");
        }
        out.push('\n');
    }
    out
}

/// Gini coefficient and an 8-step Lorenz curve of per-job CPU
/// consumption, both eras (200 000 samples, seeds 42 and 43).
fn concentration_text() -> String {
    let mut out = String::new();
    for (era, model, seed) in [
        ("2011", IntegralModel::model_2011(), 42),
        ("2019", IntegralModel::model_2019(), 43),
    ] {
        let (cpu, _) = consumption::era_samples(&model, 200_000, seed);
        let (g, lorenz) = concentration(&cpu);
        writeln!(out, "{era} gini {}", bits(g)).expect("write to String");
        for (pop, load) in lorenz.points {
            writeln!(out, "{era} lorenz {} {}", bits(pop), bits(load)).expect("write to String");
        }
    }
    out
}

/// The only lines that follow the statistics API rather than
/// `borg_core::analyses`.
fn concentration(xs: &[f64]) -> (f64, Lorenz) {
    let sample = Ccdf::from_samples(xs.iter().copied());
    (
        gini(&sample).expect("positive total"),
        Lorenz::from_ccdf(&sample, 8).expect("positive total"),
    )
}

/// Fails with the first differing line instead of two walls of hex.
fn assert_same(section: &str, got: &str, want: &str) {
    let (mut g, mut w) = (got.lines(), want.lines());
    for line in 1.. {
        match (g.next(), w.next()) {
            (None, None) => return,
            (a, b) if a == b => {}
            (a, b) => panic!("{section} line {line}:\n   got {a:?}\n  want {b:?}"),
        }
    }
}

#[test]
fn table2_matches_golden() {
    assert_same("table 2", &table2_text(), TABLE2);
}

#[test]
fn figure12_matches_golden() {
    assert_same("figure 12", &fig12_text(), FIG12);
}

#[test]
fn figure13_matches_golden() {
    assert_same("figure 13", &fig13_text(), FIG13);
}

#[test]
fn queueing_rows_match_golden() {
    assert_same("section 7.3", &queueing_text(), QUEUEING);
}

#[test]
fn figure11_matches_golden() {
    assert_same("figure 11", &fig11_text(), FIG11);
}

#[test]
fn concentration_matches_golden() {
    assert_same("gini/lorenz", &concentration_text(), CONCENTRATION);
}

/// Prints the constants below, ready to paste.
#[test]
#[ignore = "regenerates the pinned constants"]
fn print_golden() {
    for (name, text) in [
        ("TABLE2", table2_text()),
        ("FIG12", fig12_text()),
        ("FIG13", fig13_text()),
        ("QUEUEING", queueing_text()),
        ("FIG11", fig11_text()),
        ("CONCENTRATION", concentration_text()),
    ] {
        println!("#[rustfmt::skip]\nconst {name}: &str = concat!(");
        for line in text.lines() {
            println!("    {:?},", format!("{line}\n"));
        }
        println!(");\n");
    }
}

#[rustfmt::skip]
const TABLE2: &str = concat!(
    "           measure  2011 NCU-h  2011 NMU-h  2019 NCU-h  2019 NMU-h  \n",
    "------------------  ----------  ----------  ----------  ----------  \n",
    "            median    1.935e-4    1.652e-4    5.212e-5    2.761e-5  \n",
    "              mean      2.2690      2.0365      1.1295      0.7138  \n",
    "          variance     4.029e4     3.278e4     6.712e4     2.183e4  \n",
    "            90%ile      0.0270      0.0248      0.0029      0.0016  \n",
    "            99%ile     10.2402      9.4328      1.3846      0.7173  \n",
    "          99.9%ile    185.2048    165.1386     33.7622     19.2663  \n",
    "           maximum     5.141e4     4.732e4     1.115e5     5.920e4  \n",
    "  top 1% jobs load      0.9329      0.9329      0.9949      0.9959  \n",
    "top 0.1% jobs load      0.7901      0.7860      0.9486      0.9552  \n",
    "               C^2     7.827e3     7.904e3     5.261e4     4.285e4  \n",
    "     Pareto(alpha)      0.8181      0.8123      0.7882      0.8107  \n",
    "               R^2      0.9942      0.9907      0.9864      0.9825  \n",
    "2011 cpu median 3f295e43165bb0ce 1.9354409157957278e-4\n",
    "2011 cpu mean 400226f371cc9d80 2.269019021088468e0\n",
    "2011 cpu variance 40e3acd3ea106ca1 4.029462232228486e4\n",
    "2011 cpu p90 3f9ba49e8f24ef5c 2.6995160567124685e-2\n",
    "2011 cpu p99 40247b0051b5ca0f 1.0240236810151172e1\n",
    "2011 cpu p999 4067268dc27b2a63 1.8520480464988495e2\n",
    "2011 cpu maximum 40e91a8309f59650 5.1412094965737895e4\n",
    "2011 cpu top_1 3fedda3582eb0363 9.328868443482005e-1\n",
    "2011 cpu top_01 3fe9482a4bac9ace 7.900592306148952e-1\n",
    "2011 cpu c_squared 40be928ee2fc45f3 7.826558151022985e3\n",
    "2011 cpu alpha 3fea2df157e2eff0 8.181082455189408e-1\n",
    "2011 cpu r_squared 3fefd0651a541fef 9.941888345938404e-1\n",
    "2011 mem median 3f25a86432aee1de 1.652357398975864e-4\n",
    "2011 mem mean 40004acbe231d2d5 2.0365216895537324e0\n",
    "2011 mem variance 40e00188930198ff 3.278026794509775e4\n",
    "2011 mem p90 3f9962192ceda442 2.4788277976231628e-2\n",
    "2011 mem p99 4022dd91f5636757 9.432754200348127e0\n",
    "2011 mem p999 4064a46f5f02a9ee 1.6513859510917922e2\n",
    "2011 mem maximum 40e71a783035a238 4.7315755884949525e4\n",
    "2011 mem top_1 3fedda76507fabb3 9.329177448502065e-1\n",
    "2011 mem top_01 3fe92748d97e6157 7.860454795764252e-1\n",
    "2011 mem c_squared 40bedfc5b4b77bf9 7.903772288768546e3\n",
    "2011 mem alpha 3fe9fe799d27b438 8.123138493953155e-1\n",
    "2011 mem r_squared 3fefb42e2c5b6a96 9.907446733808054e-1\n",
    "2019 cpu median 3f0b53a83fdd1d32 5.212170797946405e-5\n",
    "2019 cpu mean 3ff2127e623dc501 1.1295150601911816e0\n",
    "2019 cpu variance 40f062d8abfe9682 6.711754199084084e4\n",
    "2019 cpu p90 3f676c1d1006cfa7 2.8591697339041713e-3\n",
    "2019 cpu p99 3ff627648705aecc 1.3846173548035265e0\n",
    "2019 cpu p999 4040e190a2ebee72 3.376222645301904e1\n",
    "2019 cpu maximum 40fb3725eb4af485 1.1147436994452968e5\n",
    "2019 cpu top_1 3fefd667b2ae60d1 9.949224939218998e-1\n",
    "2019 cpu top_01 3fee5a92724f9c75 9.485561592708921e-1\n",
    "2019 cpu c_squared 40e9b000c65b47d8 5.2608024213447876e4\n",
    "2019 cpu alpha 3fe939463abadee8 7.882414958066564e-1\n",
    "2019 cpu r_squared 3fef9059423105ee 9.863706867983504e-1\n",
    "2019 mem median 3efcf4906901823e 2.7613953136886584e-5\n",
    "2019 mem mean 3fe6d74bda91c9b2 7.137812870917541e-1\n",
    "2019 mem variance 40d551381de8f171 2.18288768255575e4\n",
    "2019 mem p90 3f598b5378dd091e 1.5590968282173721e-3\n",
    "2019 mem p99 3fe6f46761d15b7b 7.173344526771496e-1\n",
    "2019 mem p999 4033442c118c05c3 1.926629743259924e1\n",
    "2019 mem maximum 40ece76bf94384e1 5.919537417770341e4\n",
    "2019 mem top_1 3fefde5a396a78c4 9.958926316646957e-1\n",
    "2019 mem top_01 3fee90fd8f966f07 9.55199032253831e-1\n",
    "2019 mem c_squared 40e4eba2ed2dc5b6 4.284509145249e4\n",
    "2019 mem alpha 3fe9f10073b14693 8.106691608065425e-1\n",
    "2019 mem r_squared 3fef70d326c407b3 9.82522559847203e-1\n",
);

#[rustfmt::skip]
const FIG12: &str = concat!(
    "00 x 3eb0c6f7a0b5ed8f 1.0000000000000004e-6 p 3fecf0068db8bac7 9.043e-1\n",
    "01 x 3ec00f5198d3e478 1.9144819761699587e-6 p 3feb9d3458cd20b0 8.6294e-1\n",
    "02 x 3ecebf0badec4741 3.6652412370796288e-6 p 3fe9ef49cf56eac8 8.1046e-1\n",
    "03 x 3edd6e7ccc14f9b8 7.0170382867038286e-6 p 3fe7ecaab8a5ce5b 7.4764e-1\n",
    "04 x 3eec2c51fbd20b28 1.3433993325989e-5 p 3fe592641b328b6e 6.7412e-1\n",
    "05 x 3efaf7edb6311644 2.5719138090593446e-5 p 3fe308ede54b48d4 5.9484e-1\n",
    "06 x 3f09d0b93096da51 4.923882631706746e-5 p 3fe049906cca2db6 5.0898e-1\n",
    "07 x 3f18b62413041224 9.426684551178864e-5 p 3fdb06f694467382 4.223e-1\n",
    "08 x 3f27a7a4318160e2 1.8047217668271722e-4 p 3fd5d052934acaff 3.4084e-1\n",
    "09 x 3f36a4b5488fd0fc 3.4551072945922224e-4 p 3fd12c7b890d5a5c 2.6834e-1\n",
    "10 x 3f45acd8bc7cdd48 6.614740641230155e-4 p 3fca21426fe718a8 2.0414e-1\n",
    "11 x 3f54bf955b7a64c3 1.2663801734674053e-3 p 3fc35a858793dd98 1.512e-1\n",
    "12 x 3f63dc77225c43d2 2.4244620170823317e-3 p 3fbb8cfbfc6540cc 1.0762e-1\n",
    "13 x 3f73030f03de999c 4.6415888336127885e-3 p 3fb32df505d0fa59 7.492e-2\n",
    "14 x 3f8232f2b258fc61 8.886238162743422e-3 p 3faaa4fca42aed14 5.204e-2\n",
    "15 x 3f916bbc6bc4107d 1.701254279852592e-2 p 3fa2ccf6be37de94 3.672e-2\n",
    "16 x 3fa0ad0ac7f8174b 3.257020655659789e-2 p 3f9a858793dd97f6 2.59e-2\n",
    "17 x 3fafed011218440c 6.235507341273924e-2 p 3f944bb1af3a14cf 1.982e-2\n",
    "18 x 3fbe8f88db7d3daa 1.1937766417144383e-1 p 3f903d9a95421c04 1.586e-2\n",
    "19 x 3fcd41020ba1ea28 2.2854638641349934e-1 p 3f8bf9c62a1b5c7d 1.366e-2\n",
    "20 x 3fdc00c91081b415 4.37547937507419e-1 p 3f8930be0ded288d 1.23e-2\n",
    "21 x 3feace415695e18d 8.376776400682943e-1 p 3f87e132b55ef1fe 1.166e-2\n",
    "22 x 3ff9a8d4fc464e96 1.6037187437513345e0 p 3f7f9f01b866e43b 7.72e-3\n",
    "23 x 40088ff488a033b2 3.0702906297578574e0 p 3f74b9cb6848beb6 5.06e-3\n",
    "24 x 40178316a52f21fb 5.878016072274927e0 p 3f6bda5119ce075f 3.4e-3\n",
    "25 x 402681b7dad5e882 1.1253355826007695e1 p 3f5fc8f32378ab0d 1.94e-3\n",
    "26 x 40358b5a51868c7a 2.154434690031892e1 p 3f530164840e171a 1.16e-3\n",
    "27 x 40449f8592b9e696 4.124626382901367e1 p 3f483f91e646f156 7.4e-4\n",
    "28 x 4053bdc64e88ce6f 7.896522868499754e1 p 3f3cd5f99c38b04b 4.4e-4\n",
    "29 x 4062e5ae234a079f 1.5117750706156673e2 p 3f2a36e2eb1c432d 2e-4\n",
    "30 x 407216d367995ea1 2.8942661247167604e2 p 3f24f8b588e368f1 1.6e-4\n",
    "31 x 408150d0f6ad9193 5.541020330009509e2 p 3f1f75104d551d69 1.2e-4\n",
    "32 x 40909345fee3c1d5 1.0608183551394516e3 p 3f14f8b588e368f1 8e-5\n",
    "33 x 409fbbaba4d07ff6 2.0309176209047414e3 p 3f0f75104d551d69 6e-5\n",
    "34 x 40ae604f73cb1889 3.888155180308099e3 p 3f04f8b588e368f1 4e-5\n",
    "35 x 40bd13cd9246c656 7.443803013251707e3 p 3ef4f8b588e368f1 2e-5\n",
    "36 x 40cbd5836b01404f 1.4251026703030015e4 p 3ef4f8b588e368f1 2e-5\n",
    "37 x 40daa4d55c6751e0 2.728333376486774e4 p 0000000000000000 0e0\n",
    "38 x 40e9812e6c7be388 5.223345074266853e4 p 0000000000000000 0e0\n",
    "39 x 40f86a000000000e 1.000000000000002e5 p 0000000000000000 0e0\n",
);

#[rustfmt::skip]
const FIG13: &str = concat!(
    "pearson 3fefcb757cc2cf10 9.935862957704291e-1\n",
    "buckets 194\n",
    "[0, 1) n 296314 median 3efb9867ef524ab0 2.631696311945303e-5\n",
    "[1, 2) n 1460 median 3fe788b8480f635a 7.354394347595232e-1\n",
    "[2, 3) n 582 median 3ff4fe1e207b91e4 1.3120404499869602e0\n",
    "[3, 4) n 300 median 3ffc7e0add19a468 1.7807720791554633e0\n",
    "[4, 5) n 187 median 4001e06c372f680d 2.234581404813986e0\n",
    "[5, 6) n 156 median 4006d6ca93545b46 2.854878569614274e0\n",
    "[6, 7) n 104 median 4009e0c97d96b67e 3.2347593127840915e0\n",
    "[7, 8) n 99 median 401095a8c5b95ed8 4.146151627959362e0\n",
    "[8, 9) n 59 median 4012e3b2ab03ed28 4.7223612519403915e0\n",
    "[9, 10) n 52 median 4013ddba948b3e72 4.966532059668326e0\n",
    "[10, 11) n 38 median 4012fbbf8185d14e 4.745847724716738e0\n",
    "[11, 12) n 43 median 4016e7052523d7e5 5.725605564415649e0\n",
    "[12, 13) n 37 median 401684dcb150cc79 5.629748125607073e0\n",
    "[13, 14) n 27 median 4019f503c3251562 6.489272164476775e0\n",
    "[14, 15) n 27 median 40218f08367b630c 8.779359533845785e0\n",
    "[15, 16) n 20 median 4021f6dcf65d2bc6 8.982154559014713e0\n",
    "[16, 17) n 29 median 401db9a4d78f616f 7.4312928849470685e0\n",
    "[17, 18) n 23 median 40221cf388fba060 9.056545525280114e0\n",
    "[18, 19) n 15 median 4023b1a919eee15a 9.846993265543166e0\n",
    "[19, 20) n 13 median 40216610a7b86026 8.699345818764481e0\n",
    "[20, 21) n 16 median 40238cdd2d9e823c 9.775124955748758e0\n",
    "[21, 22) n 16 median 40296aaf82bfc7fa 1.2708370290671144e1\n",
    "[22, 23) n 12 median 402459bb8f383dfd 1.0175259090056892e1\n",
    "[23, 24) n 14 median 402e542d695d19b0 1.5164408962836063e1\n",
    "[24, 25) n 13 median 402595357ca3ae4b 1.0791423697453089e1\n",
    "[25, 26) n 12 median 402a36ab21b7cc04 1.3106774381338262e1\n",
    "[26, 27) n 13 median 402a66d902bd1f0e 1.3200874410234544e1\n",
    "[27, 28) n 14 median 40305850a4bbfb96 1.634498052205489e1\n",
    "[28, 29) n 6 median 402a6abd3fde6f18 1.3208475109007438e1\n",
    "[29, 30) n 4 median 403097adf44b8182 1.6592498081621223e1\n",
    "[30, 31) n 4 median 402ecbf42a0bc61f 1.5398347200333829e1\n",
    "[31, 32) n 4 median 4028a16fa1222bfc 1.2315304789944996e1\n",
    "[32, 33) n 14 median 4030d0c5cd4a6806 1.6815518217721568e1\n",
    "[33, 34) n 8 median 40345414116dc724 2.032843121461987e1\n",
    "[34, 35) n 6 median 40339782d1ad1b26 1.9591839890253276e1\n",
    "[35, 36) n 10 median 403302a09c48d02b 1.901026322152772e1\n",
    "[36, 37) n 6 median 40353e9939cc0cdd 2.1244525539700465e1\n",
    "[37, 38) n 7 median 4039b51d0158ac33 2.5707473835133168e1\n",
    "[38, 39) n 3 median 4038854e273ae7a7 2.4520723773842885e1\n",
    "[39, 40) n 3 median 403b8380bc9120b8 2.751368311446342e1\n",
    "[40, 41) n 2 median 403c339d6ed5dfcb 2.8201620986190203e1\n",
    "[41, 42) n 4 median 403e6f9275a8ecc8 3.0435828546277463e1\n",
    "[42, 43) n 2 median 4035d0b423e439c1 2.181524872133173e1\n",
    "[43, 44) n 1 median 40421fcfd4b2c15b 3.624852999428068e1\n",
    "[44, 45) n 5 median 404048b8e9adc974 3.256814309106531e1\n",
    "[45, 46) n 2 median 40365601c9f0efb8 2.233596479542004e1\n",
    "[47, 48) n 4 median 403966fb924a324f 2.5402276175608048e1\n",
    "[48, 49) n 1 median 40491b15b37ecd35 5.0211599766650046e1\n",
    "[49, 50) n 3 median 403371fea451c7af 1.944529177662451e1\n",
    "[50, 51) n 3 median 403636abb242ff32 2.221355737815538e1\n",
    "[51, 52) n 3 median 403a94d6cffa5416 2.658140277730498e1\n",
    "[54, 55) n 3 median 4031d585d55726b4 1.7834073385026116e1\n",
    "[55, 56) n 1 median 40337ee861b63767 1.949573336313861e1\n",
    "[56, 57) n 2 median 40449bb3a302a387 4.121641957882735e1\n",
    "[57, 58) n 1 median 403f926451f6177f 3.1571843264180185e1\n",
    "[58, 59) n 2 median 40337cf129165326 1.9488054817152396e1\n",
    "[59, 60) n 2 median 4043a55f8480a5a4 3.929197746545404e1\n",
    "[60, 61) n 2 median 4039e915697ec8e2 2.5910482972577377e1\n",
    "[61, 62) n 2 median 403fa821dcbbd1fa 3.1656766696791216e1\n",
    "[62, 63) n 3 median 403d408318b70a4e 2.9252000374496042e1\n",
    "[63, 64) n 2 median 40453c9ac4e69850 4.247347317943115e1\n",
    "[64, 65) n 4 median 4040b74793d8f304 3.343187187283732e1\n",
    "[65, 66) n 2 median 403f15f5bb9c81ea 3.1085780835828622e1\n",
    "[66, 67) n 3 median 40458799e3dfdd51 4.305938385420689e1\n",
    "[67, 68) n 1 median 403fc48bc20b81c1 3.176775753765992e1\n",
    "[68, 69) n 2 median 403e0dfdecea8beb 3.0054655844938605e1\n",
    "[69, 70) n 1 median 40327ac07102579c 1.84794989233702e1\n",
    "[70, 71) n 4 median 4040eeb8defe5fdf 3.3865016817289636e1\n",
    "[72, 73) n 1 median 4049f0b013e3afd0 5.1880373464751415e1\n",
    "[73, 74) n 2 median 403e71add2e5d608 3.0444058590996093e1\n",
    "[75, 76) n 3 median 4046755807696374 4.4916748930415366e1\n",
    "[76, 77) n 1 median 4041482fae3dc136 3.4563955097345044e1\n",
    "[77, 78) n 1 median 4059b510784ee189 1.0282913024619315e2\n",
    "[78, 79) n 2 median 404b9c13897cfa75 5.521934622385462e1\n",
    "[79, 80) n 3 median 4041c33442021788 3.5525032282849736e1\n",
    "[82, 83) n 3 median 4038de37c92a400f 2.4868038723769185e1\n",
    "[83, 84) n 2 median 40542c5398398893 8.069260221117501e1\n",
    "[84, 85) n 1 median 405040cce3309a25 6.501250533815671e1\n",
    "[86, 87) n 2 median 404289422ef4c568 3.7072332257764e1\n",
    "[87, 88) n 4 median 4047a77628980fbe 4.730829341339948e1\n",
    "[88, 89) n 2 median 404863afc74be776 4.877880183416612e1\n",
    "[89, 90) n 2 median 404c0105cd1f7638 5.600798954044552e1\n",
    "[90, 91) n 2 median 4045e8cbab36114c 4.381871547832506e1\n",
    "[92, 93) n 1 median 4043be785c2ce30b 3.9488048097531724e1\n",
    "[94, 95) n 3 median 4050fab62175a6ed 6.791736637582262e1\n",
    "[95, 96) n 2 median 4046bbec6906d2fc 4.546815216859065e1\n",
    "[96, 97) n 1 median 404b8ff682d78a74 5.512471042179541e1\n",
    "[97, 98) n 1 median 404eeb32d596cd6c 6.183748884070778e1\n",
    "[98, 99) n 2 median 4045185609763f1c 4.219012563966518e1\n",
    "[99, 100) n 2 median 405978c2a6f7cb6a 1.0188688062857332e2\n",
    "[100, 101) n 1 median 40547848b4651510 8.187943754073444e1\n",
    "[102, 103) n 2 median 404efb0de3377996 6.196136131485689e1\n",
    "[104, 105) n 1 median 404dce0ed4cd18cd 5.960982761396881e1\n",
    "[105, 106) n 4 median 4047d4f39fd10c22 4.766368482310669e1\n",
    "[106, 107) n 2 median 4053b19d34e9f518 7.877522013518717e1\n",
    "[113, 114) n 2 median 40518104defe3684 7.001592230630382e1\n",
    "[114, 115) n 1 median 40586ee40b9d1812 9.773266878453458e1\n",
    "[115, 116) n 1 median 40486ba326d55dbb 4.884091649454373e1\n",
    "[116, 117) n 1 median 40552593e84f443c 8.458715255490182e1\n",
    "[118, 119) n 1 median 4050cc2aa4a6ffef 6.71901027327401e1\n",
    "[119, 120) n 3 median 404ed0a64672d201 6.16300743160864e1\n",
    "[120, 121) n 1 median 4049398274d41df5 5.044929371220852e1\n",
    "[121, 122) n 1 median 4048b257135669fc 4.939328233451303e1\n",
    "[122, 123) n 1 median 405285b9ea7dd0eb 7.408947241102912e1\n",
    "[125, 126) n 1 median 404c773d5362b91d 5.693155901260818e1\n",
    "[130, 131) n 1 median 40506034ab4a31e3 6.550321466680138e1\n",
    "[131, 132) n 1 median 4054df170ad55b3a 8.348578139148313e1\n",
    "[134, 135) n 1 median 404de32b374c91fb 5.9774756348026095e1\n",
    "[139, 140) n 2 median 4060b302d964dc9e 1.3359409780215805e2\n",
    "[140, 141) n 1 median 4060a8c456581193 1.3327396695328625e2\n",
    "[142, 143) n 1 median 4053e4907ebe7604 7.95713192806216e1\n",
    "[143, 144) n 1 median 404929efbc163a87 5.032762862286932e1\n",
    "[148, 149) n 1 median 405875758b209d4a 9.783529928383828e1\n",
    "[151, 152) n 1 median 40473c3b07dd2a2e 4.647055147456227e1\n",
    "[152, 153) n 2 median 4057f56ac19fee26 9.583464089029493e1\n",
    "[156, 157) n 1 median 40500879348b89fd 6.41323977816282e1\n",
    "[160, 161) n 1 median 40518aefc593e8e0 7.017088450855545e1\n",
    "[161, 162) n 1 median 4054e4554b6db836 8.3567705971859e1\n",
    "[172, 173) n 1 median 40579ca619091d8c 9.444763780489137e1\n",
    "[173, 174) n 2 median 4050d4c51f254430 6.73245313514642e1\n",
    "[179, 180) n 1 median 405a4746f01a5f91 1.0511370470595854e2\n",
    "[182, 183) n 1 median 40600c0008533d0e 1.2837500396974104e2\n",
    "[190, 191) n 1 median 4055061ac5c74797 8.409538406811622e1\n",
    "[199, 200) n 2 median 40593d850a5c0ace 1.0096124514568803e2\n",
    "[208, 209) n 2 median 405e1b48b14172d8 1.2042631179229227e2\n",
    "[211, 212) n 1 median 405416e98fcee2da 8.03580054779408e1\n",
    "[212, 213) n 1 median 405937b13ff8208b 1.0087019347411312e2\n",
    "[215, 216) n 1 median 40601ef11e8ebeca 1.2896693351631103e2\n",
    "[225, 226) n 1 median 40647308602abfb1 1.6359477241849302e2\n",
    "[227, 228) n 1 median 40589cfad07b6e79 9.845280849508153e1\n",
    "[229, 230) n 1 median 40601b15e57d9f93 1.2884642290626343e2\n",
    "[231, 232) n 1 median 40571e43c5d40669 9.247288652139254e1\n",
    "[240, 241) n 1 median 40629c108eda3c90 1.4887702124237376e2\n",
    "[241, 242) n 1 median 405d061a106c5ad5 1.1609534082967305e2\n",
    "[255, 256) n 1 median 4056d91f57a823b0 9.139253798885215e1\n",
    "[256, 257) n 1 median 40570a452beaa151 9.21604718962965e1\n",
    "[266, 267) n 1 median 40638a317b3d68de 1.5631854021066732e2\n",
    "[272, 273) n 1 median 405fad9c64a3d66a 1.2671267047881852e2\n",
    "[278, 279) n 1 median 406115d831678339 1.3668264074532797e2\n",
    "[285, 286) n 1 median 40760d864e5fa5af 3.528452895866603e2\n",
    "[286, 287) n 1 median 406d7fa0d2fafa51 2.359883818532858e2\n",
    "[292, 293) n 1 median 405db8f1663d32a4 1.1888973384834622e2\n",
    "[296, 297) n 2 median 4061cf5e15caf461 1.4248023500098773e2\n",
    "[302, 303) n 1 median 406022bac0ec19df 1.2908529707063187e2\n",
    "[326, 327) n 1 median 4066fab6ab0d4b69 1.8383479836079212e2\n",
    "[330, 331) n 1 median 405eb3a61eadde01 1.2280701415042132e2\n",
    "[352, 353) n 1 median 4068868064727c8a 1.962031728969635e2\n",
    "[360, 361) n 1 median 4067f2c0176b1f94 1.9158594866678743e2\n",
    "[369, 370) n 1 median 406c40b5da17b374 2.2602219872120952e2\n",
    "[380, 381) n 1 median 406b3fc007baffd0 2.179921911861734e2\n",
    "[395, 396) n 1 median 4066906a03b2d784 1.805129412167554e2\n",
    "[396, 397) n 1 median 4068bba2b5e589d9 1.9786361212569935e2\n",
    "[402, 403) n 1 median 4064af5c94a14827 1.6548005134106026e2\n",
    "[403, 404) n 2 median 406d6ed17bacdfe8 2.3546307166828706e2\n",
    "[411, 412) n 1 median 40626cbd0ae10845 1.473980764765894e2\n",
    "[456, 457) n 1 median 407314ef218ce486 3.0530838160549354e2\n",
    "[488, 489) n 2 median 4071146dfc74e9c4 2.7327685208958815e2\n",
    "[489, 490) n 1 median 4076554f358d4e0f 3.573318381805156e2\n",
    "[508, 509) n 1 median 40640a3e5075517b 1.6032010672487e2\n",
    "[527, 528) n 1 median 40707619d0053163 2.6338130189922794e2\n",
    "[570, 571) n 1 median 4073037df96c0395 3.0421825544541326e2\n",
    "[621, 622) n 1 median 4076b1ee1fc10f7f 3.6312063575186033e2\n",
    "[642, 643) n 1 median 406ad6844a9718a5 2.1470364884863844e2\n",
    "[715, 716) n 1 median 4070eca1a4d31307 2.70789463829526e2\n",
    "[749, 750) n 1 median 407b3617c036b9c9 4.3538079854371296e2\n",
    "[770, 771) n 1 median 408126d3b993226c 5.488533812994842e2\n",
    "[774, 775) n 1 median 407033abb6d45cc7 2.592294224067122e2\n",
    "[783, 784) n 1 median 407bd70c2c047389 4.4544047166575234e2\n",
    "[792, 793) n 1 median 40862f43e53635e6 7.099081520304869e2\n",
    "[898, 899) n 1 median 4085fa76f17b9a14 7.033080777794262e2\n",
    "[1074, 1075) n 1 median 4082230742c792fb 5.80378545340703e2\n",
    "[1082, 1083) n 1 median 4081345d20d69868 5.505454727902661e2\n",
    "[1091, 1092) n 1 median 4082af01e96f5bc1 5.978759335231663e2\n",
    "[1663, 1664) n 1 median 408a6d3e4a6afba7 8.456554153783844e2\n",
    "[1930, 1931) n 1 median 408f714a4b1b0c34 1.0061612760651683e3\n",
    "[1965, 1966) n 1 median 409250bfa98a0e77 1.17218717017854e3\n",
    "[2494, 2495) n 1 median 408dc93684db0f7b 9.531516205896472e2\n",
    "[2526, 2527) n 1 median 409bf852472ad452 1.7900803496067133e3\n",
    "[2973, 2974) n 1 median 40a00cad6b7a1234 2.0543387106082173e3\n",
    "[3042, 3043) n 1 median 4092f0ef2c7d4eb6 1.2122335681514064e3\n",
    "[3379, 3380) n 1 median 409939e057cad67e 1.6144690849011818e3\n",
    "[5079, 5080) n 1 median 409a76160fb4dc3a 1.6935215442904869e3\n",
    "[5500, 5501) n 1 median 40b2c04c2b6a16ae 4.800297537451303e3\n",
    "[5556, 5557) n 1 median 40b064e9758d2be2 4.1969119499427925e3\n",
    "[5757, 5758) n 1 median 40a6c0ca04b28aa3 2.912394567088531e3\n",
    "[5796, 5797) n 1 median 40b28c5a933415e2 4.748353808646529e3\n",
    "[6429, 6430) n 1 median 40b15cf2d61d6c95 4.444948579634675e3\n",
    "[7016, 7017) n 1 median 40bbddf43df5682f 7.133954070413528e3\n",
    "[9355, 9356) n 1 median 40b1050c80425247 4.357048832078063e3\n",
    "[9991, 9992) n 1 median 40b286ca6aecdb05 4.742790694049331e3\n",
    "[17908, 17909) n 1 median 40cd5b40b564e1c9 1.5030505535707709e4\n",
    "[30209, 30210) n 1 median 40ca1b1c440784cd 1.3366220826091618e4\n",
    "[51224, 51225) n 1 median 40e211b6da122ab3 3.700571411999073e4\n",
    "[106335, 106336) n 1 median 40f1055f4b69edb2 6.971795591156816e4\n",
);

#[rustfmt::skip]
const QUEUEING: &str = concat!(
    "rho 0.3 full 40ae33eeb4f94415 3.8659662244697197e3 mice 403a6d41a62bdbcb 2.6426782975871713e1 benefit 406249453e90e042 1.462897026853189e2\n",
    "rho 0.5 full 40c19e4b3ee6bd0c 9.020587857096012e3 mice 404ed4cc97332b17 6.166249361036733e1 benefit 406249453e90e042 1.462897026853189e2\n",
    "rho 0.7 full 40d48e02740d31e3 2.1048038333224027e4 mice 4061fc2202ddd922 1.4387915175752374e2 benefit 406249453e90e042 1.462897026853189e2\n",
);

#[rustfmt::skip]
const FIG11: &str = concat!(
    "Free n 60000 median 3ff0000000000000 1e0 p50 3ff0000000000000 1e0 p80 3ff0000000000000 1e0 p90 4014000000000000 5e0 p95 4039000000000000 2.5e1 p99 4083903d70a3d740 6.260300000000061e2 p99.9 40ae2e010624dd40 3.8630020000000077e3\n",
    "BestEffortBatch n 60000 median 4010000000000000 4e0 p50 4010000000000000 4e0 p80 403d000000000000 2.9e1 p90 405e400000000000 1.21e2 p95 407c80cccccccc80 4.5604999999999563e2 p99 40ac620f5c28f5d0 3.633030000000006e3 p99.9 40c0e0083126ea00 8.640064000000246e3\n",
    "Mid n 60000 median 3ff0000000000000 1e0 p50 3ff0000000000000 1e0 p80 3ff0000000000000 1e0 p90 4020000000000000 8e0 p95 4051c00000000000 7.1e1 p99 40a66c3851eb8550 2.8701100000000224e3 p99.9 40cd23876c8b4410 1.4919058000000223e4\n",
    "Production n 60000 median 3ff0000000000000 1e0 p50 3ff0000000000000 1e0 p80 3ff0000000000000 1e0 p90 4000000000000000 2e0 p95 4008000000000000 3e0 p99 401c000000000000 7e0 p99.9 4039000000000000 2.5e1\n",
);

#[rustfmt::skip]
const CONCENTRATION: &str = concat!(
    "2011 gini 3fefd64017af05da 9.949036085674223e-1\n",
    "2011 lorenz 0000000000000000 0e0 0000000000000000 0e0\n",
    "2011 lorenz 3fc0000000000000 1.25e-1 3e7d66fc841b641c 1.0953206788388765e-7\n",
    "2011 lorenz 3fd0000000000000 2.5e-1 3eab4aace848d9d4 8.133560674476104e-7\n",
    "2011 lorenz 3fd8000000000000 3.75e-1 3ecac0d9cbb3f685 3.1892446635806972e-6\n",
    "2011 lorenz 3fe0000000000000 5e-1 3ee4bdd2e4e14ade 9.890317553528366e-6\n",
    "2011 lorenz 3fe4000000000000 6.25e-1 3efde2eb78bf6f11 2.8501897347029426e-5\n",
    "2011 lorenz 3fe8000000000000 7.5e-1 3f1693a33bbe84c3 8.612331197223586e-5\n",
    "2011 lorenz 3fec000000000000 8.75e-1 3f3802ba50cc55bd 3.6637352677479e-4\n",
    "2011 lorenz 3ff0000000000000 1e0 3ff0000000000000 1e0\n",
    "2019 gini 3feff4d1039e43f8 9.98634821955533e-1\n",
    "2019 lorenz 0000000000000000 0e0 0000000000000000 0e0\n",
    "2019 lorenz 3fc0000000000000 1.25e-1 3e82b23d6bbe7618 1.3929791531097167e-7\n",
    "2019 lorenz 3fd0000000000000 2.5e-1 3eb0dc5adc5ae825 1.0049796953918557e-6\n",
    "2019 lorenz 3fd8000000000000 3.75e-1 3ed01409614adc66 3.833357841535097e-6\n",
    "2019 lorenz 3fe0000000000000 5e-1 3ee838e4cde31d18 1.155006469523308e-5\n",
    "2019 lorenz 3fe4000000000000 6.25e-1 3f00bbccf9e31a64 3.191680228691455e-5\n",
    "2019 lorenz 3fe8000000000000 7.5e-1 3f1731a126c69989 8.847757425787228e-5\n",
    "2019 lorenz 3fec000000000000 8.75e-1 3f336039d3e7b443 2.9565250215918634e-4\n",
    "2019 lorenz 3ff0000000000000 1e0 3ff0000000000000 1e0\n",
);
