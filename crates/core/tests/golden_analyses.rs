//! The §7 analyses' frozen oracle: Table 2, Figures 11–13, the §7.3
//! queueing rows and the Gini/Lorenz summary, pinned to the bits the
//! statistics routines must produce.
//!
//! Every float is pinned as its `f64::to_bits` pattern (hex), followed
//! by a `{:e}` rendering so a mismatch reads as a diff a person can
//! size up. Table 2 is pinned twice: as the rendered table (what
//! `paper table2` prints) and field by field.
//!
//! The pinned values were printed by the routines at the commit that
//! introduced this file — the slice-taking `percentiles`, `top_share`,
//! `TailShare::compute`, `ParetoFit::fit_ccdf_regression`,
//! `Lorenz::from_samples`, `gini` and the copy-and-sort inside
//! `queueing_rows` — before any of them moved onto `Ccdf`. Those
//! routines survive as the differential reference in
//! `crates/analysis/tests/reference/`; this table holds whatever
//! replaces them to the same bits end to end.
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
    "            median    1.922e-4    1.640e-4    5.206e-5    2.757e-5  \n",
    "              mean      2.7475      2.7035      0.5237      0.2822  \n",
    "          variance     5.036e4     5.894e4     2.857e3    780.6921  \n",
    "            90%ile      0.0271      0.0246      0.0029      0.0015  \n",
    "            99%ile     11.1855     10.3644      1.3644      0.7240  \n",
    "          99.9%ile    198.3519    191.3308     32.8562     19.3673  \n",
    "           maximum     4.988e4     7.217e4     1.875e4     8.668e3  \n",
    "  top 1% jobs load      0.9415      0.9465      0.9891      0.9896  \n",
    "top 0.1% jobs load      0.8121      0.8223      0.8921      0.8882  \n",
    "               C^2     6.671e3     8.065e3     1.042e4     9.804e3  \n",
    "     Pareto(alpha)      0.7991      0.7826      0.7892      0.8039  \n",
    "               R^2      0.9953      0.9933      0.9887      0.9841  \n",
    "2011 cpu median 3f292fe144d157db 1.921617971755708e-4\n",
    "2011 cpu mean 4005fae2b6a4fe33 2.7475027340986116e0\n",
    "2011 cpu variance 40e89683d5c79d4d 5.035611984616015e4\n",
    "2011 cpu p90 3f9bbc8bc5180ba8 2.7086433319719966e-2\n",
    "2011 cpu p99 40265ef6de101aac 1.1185477199045032e1\n",
    "2011 cpu p999 4068cb4303e15d6a 1.983519305612238e2\n",
    "2011 cpu maximum 40e85b7b6f9d5475 4.9883857374825435e4\n",
    "2011 cpu top_1 3fee20ca765d2be9 9.415027915759967e-1\n",
    "2011 cpu top_01 3fe9fcd8291456fb 8.121147920926143e-1\n",
    "2011 cpu c_squared 40ba0ec537db9af2 6.670770383572892e3\n",
    "2011 cpu alpha 3fe9921df050849f 7.990865415232696e-1\n",
    "2011 cpu r_squared 3fefd955f072eebc 9.952802368420275e-1\n",
    "2011 mem median 3f257f8a7289a7e3 1.6401829749962326e-4\n",
    "2011 mem mean 4005a0bd60ce85ce 2.7034862101579398e0\n",
    "2011 mem variance 40ecc7d157750890 5.8942541925923084e4\n",
    "2011 mem p90 3f993782210ecb9d 2.462580992478146e-2\n",
    "2011 mem p99 4024ba9154f97c59 1.0364390044646074e1\n",
    "2011 mem p999 4067ea95e495b6c3 1.9133079747429846e2\n",
    "2011 mem maximum 40f19e79b83c7362 7.21676074795253e4\n",
    "2011 mem top_1 3fee49a93370f7f3 9.464918141090933e-1\n",
    "2011 mem top_01 3fea502e045791d5 8.22287567597011e-1\n",
    "2011 mem c_squared 40bf808eb9796ca1 8.064557517613431e3\n",
    "2011 mem alpha 3fe90b66109dc24e 7.826414417778069e-1\n",
    "2011 mem r_squared 3fefc916ddec1069 9.932970365921509e-1\n",
    "2019 cpu median 3f0b4bb36189c3cc 5.206242730516168e-5\n",
    "2019 cpu mean 3fe0c24fb2e074ae 5.237196439444654e-1\n",
    "2019 cpu variance 40a6517350409e32 2.8567252216523275e3\n",
    "2019 cpu p90 3f677e37d667dd77 2.8678026749237545e-3\n",
    "2019 cpu p99 3ff5d489013c8c15 1.3643884704877156e0\n",
    "2019 cpu p999 40406d984ccd00ad 3.28562103272428e1\n",
    "2019 cpu maximum 40d250af470c2f8a 1.875473871140139e4\n",
    "2019 cpu top_1 3fefa670b7fcd31c 9.890674203403225e-1\n",
    "2019 cpu top_01 3fec8bb62690117c 8.920546296290435e-1\n",
    "2019 cpu c_squared 40c457a3331ecd25 1.0415274997568291e4\n",
    "2019 cpu alpha 3fe941855cf92f9f 7.892481628309617e-1\n",
    "2019 cpu r_squared 3fefa32bd2d539ce 9.88668357642206e-1\n",
    "2019 mem median 3efce9b87811350b 2.7573557876349674e-5\n",
    "2019 mem mean 3fd20f731b830feb 2.821929711028576e-1\n",
    "2019 mem variance 4088658953736e4d 7.806920537012135e2\n",
    "2019 mem p90 3f59632638532fc9 1.5495179407478568e-3\n",
    "2019 mem p99 3fe72aa75e49b726 7.239567605554142e-1\n",
    "2019 mem p999 40335e08752cc1aa 1.9367316554476623e1\n",
    "2019 mem maximum 40c0ee0b6bb91585 8.668089224944599e3\n",
    "2019 mem top_1 3fefaac789488702 9.89597099429574e-1\n",
    "2019 mem top_01 3fec6bfc6ea4848f 8.881818924893582e-1\n",
    "2019 mem c_squared 40c325d1fa049c60 9.803640442444186e3\n",
    "2019 mem alpha 3fe9b9da2300fd14 8.039370235127614e-1\n",
    "2019 mem r_squared 3fef7d890ff4ae40 9.840741454731372e-1\n",
);

#[rustfmt::skip]
const FIG12: &str = concat!(
    "00 x 3eb0c6f7a0b5ed8f 1.0000000000000004e-6 p 3fecf41f212d7732 9.048e-1\n",
    "01 x 3ec00f5198d3e478 1.9144819761699587e-6 p 3feba176ddaceee1 8.6346e-1\n",
    "02 x 3ecebf0badec4741 3.6652412370796288e-6 p 3fe9f06f69446738 8.106e-1\n",
    "03 x 3edd6e7ccc14f9b8 7.0170382867038286e-6 p 3fe7e718a86d71f3 7.4696e-1\n",
    "04 x 3eec2c51fbd20b28 1.3433993325989e-5 p 3fe58adab9f559b4 6.732e-1\n",
    "05 x 3efaf7edb6311644 2.5719138090593446e-5 p 3fe2ed1394317acc 5.9144e-1\n",
    "06 x 3f09d0b93096da51 4.923882631706746e-5 p 3fe03c9eecbfb15b 5.074e-1\n",
    "07 x 3f18b62413041224 9.426684551178864e-5 p 3fdb16b11c6d1e11 4.2326e-1\n",
    "08 x 3f27a7a4318160e2 1.8047217668271722e-4 p 3fd5f6a93f290abb 3.4318e-1\n",
    "09 x 3f36a4b5488fd0fc 3.4551072945922224e-4 p 3fd141c8216c6152 2.6964e-1\n",
    "10 x 3f45acd8bc7cdd48 6.614740641230155e-4 p 3fca1426fe718a87 2.0374e-1\n",
    "11 x 3f54bf955b7a64c3 1.2663801734674053e-3 p 3fc31b9b66f9335d 1.4928e-1\n",
    "12 x 3f63dc77225c43d2 2.4244620170823317e-3 p 3fbb3fa6defc7a3a 1.0644e-1\n",
    "13 x 3f73030f03de999c 4.6415888336127885e-3 p 3fb3443d46b26bf8 7.526e-2\n",
    "14 x 3f8232f2b258fc61 8.886238162743422e-3 p 3faabf3387160957 5.224e-2\n",
    "15 x 3f916bbc6bc4107d 1.701254279852592e-2 p 3fa31e3a7daa4fca 3.734e-2\n",
    "16 x 3fa0ad0ac7f8174b 3.257020655659789e-2 p 3f9c58255b035bd5 2.768e-2\n",
    "17 x 3fafed011218440c 6.235507341273924e-2 p 3f95a07b352a8438 2.112e-2\n",
    "18 x 3fbe8f88db7d3daa 1.1937766417144383e-1 p 3f91394317acc4f0 1.682e-2\n",
    "19 x 3fcd41020ba1ea28 2.2854638641349934e-1 p 3f8d9d3458cd20b0 1.446e-2\n",
    "20 x 3fdc00c91081b415 4.37547937507419e-1 p 3f8afe1da7b0b392 1.318e-2\n",
    "21 x 3feace415695e18d 8.376776400682943e-1 p 3f8999999999999a 1.25e-2\n",
    "22 x 3ff9a8d4fc464e96 1.6037187437513345e0 p 3f822fad6cb53501 8.88e-3\n",
    "23 x 40088ff488a033b2 3.0702906297578574e0 p 3f776ddaceee0f3d 5.72e-3\n",
    "24 x 40178316a52f21fb 5.878016072274927e0 p 3f6e2584f4c6e6da 3.68e-3\n",
    "25 x 402681b7dad5e882 1.1253355826007695e1 p 3f6426fe718a86d7 2.46e-3\n",
    "26 x 40358b5a51868c7a 2.154434690031892e1 p 3f5b866e43aa79bc 1.68e-3\n",
    "27 x 40449f8592b9e696 4.124626382901367e1 p 3f52ad81adea8976 1.14e-3\n",
    "28 x 4053bdc64e88ce6f 7.896522868499754e1 p 3f4797cc39ffd60f 7.2e-4\n",
    "29 x 4062e5ae234a079f 1.5117750706156673e2 p 3f3e2584f4c6e6da 4.6e-4\n",
    "30 x 407216d367995ea1 2.8942661247167604e2 p 3f310a137f38c543 2.6e-4\n",
    "31 x 408150d0f6ad9193 5.541020330009509e2 p 3f2797cc39ffd60f 1.8e-4\n",
    "32 x 40909345fee3c1d5 1.0608183551394516e3 p 3f22599ed7c6fbd2 1.4e-4\n",
    "33 x 409fbbaba4d07ff6 2.0309176209047414e3 p 3f0f75104d551d69 6e-5\n",
    "34 x 40ae604f73cb1889 3.888155180308099e3 p 3ef4f8b588e368f1 2e-5\n",
    "35 x 40bd13cd9246c656 7.443803013251707e3 p 3ef4f8b588e368f1 2e-5\n",
    "36 x 40cbd5836b01404f 1.4251026703030015e4 p 0000000000000000 0e0\n",
    "37 x 40daa4d55c6751e0 2.728333376486774e4 p 0000000000000000 0e0\n",
    "38 x 40e9812e6c7be388 5.223345074266853e4 p 0000000000000000 0e0\n",
    "39 x 40f86a000000000e 1.000000000000002e5 p 0000000000000000 0e0\n",
);

#[rustfmt::skip]
const FIG13: &str = concat!(
    "pearson 3fef5459082cd529 9.790463599844418e-1\n",
    "buckets 216\n",
    "[0, 1) n 296207 median 3efb90137116206c 2.628593126055604e-5\n",
    "[1, 2) n 1527 median 3fe78728017d607d 7.352485684487103e-1\n",
    "[2, 3) n 562 median 3ff4828abafd1674 1.2818705848925704e0\n",
    "[3, 4) n 319 median 3ffdd42c250acbe4 1.864299912162772e0\n",
    "[4, 5) n 183 median 400283c5905af4f1 2.3143416669614614e0\n",
    "[5, 6) n 139 median 4007263ea3e151e7 2.8936741641175447e0\n",
    "[6, 7) n 118 median 400a8c6f8ad2ac5d 3.3185721250097644e0\n",
    "[7, 8) n 93 median 400e6b6894d851e2 3.802445566989477e0\n",
    "[8, 9) n 67 median 4012b1502a549465 4.673157369053205e0\n",
    "[9, 10) n 36 median 4015e1a87912e24e 5.470369235780323e0\n",
    "[10, 11) n 49 median 4017c9a0904a06d1 5.946901564138629e0\n",
    "[11, 12) n 35 median 401a067f0ced2f69 6.506344034172664e0\n",
    "[12, 13) n 37 median 4019e0be3b02917f 6.4694756717984765e0\n",
    "[13, 14) n 45 median 401d540b79f4236e 7.332075028921151e0\n",
    "[14, 15) n 22 median 401fe50e548da5b2 7.973687478204214e0\n",
    "[15, 16) n 26 median 40223f236c3b2ec8 9.12331712934919e0\n",
    "[16, 17) n 17 median 4022d85ec1410faa 9.422597922508277e0\n",
    "[17, 18) n 24 median 4020d8a601b9e484 8.423141530935261e0\n",
    "[18, 19) n 14 median 4022cfeb6d10bf48 9.406093033117614e0\n",
    "[19, 20) n 15 median 4025ace3a015c0a2 1.0837674143462497e1\n",
    "[20, 21) n 11 median 4029c664393df4f8 1.2887483395398235e1\n",
    "[21, 22) n 19 median 402c6df6bbbc3181 1.4214773050997566e1\n",
    "[22, 23) n 14 median 402bd30a581dc355 1.3912188295014554e1\n",
    "[23, 24) n 10 median 4025657d4b7c02e2 1.0698221548927396e1\n",
    "[24, 25) n 5 median 40283911d67741e9 1.2111464216287418e1\n",
    "[25, 26) n 11 median 40314008cff381b8 1.7250134465169793e1\n",
    "[26, 27) n 11 median 402ae3cecfabe8e4 1.3444937219367098e1\n",
    "[27, 28) n 14 median 402f289db1f8a74b 1.5579328118899545e1\n",
    "[28, 29) n 8 median 40319f348aac13aa 1.7621895472536984e1\n",
    "[29, 30) n 11 median 4030a198cd6577dd 1.663123782851459e1\n",
    "[30, 31) n 6 median 402d079f2afcd9cc 1.4514886229863713e1\n",
    "[31, 32) n 9 median 40308dd09db0f140 1.655396447725184e1\n",
    "[32, 33) n 12 median 402fbf0ce6d88e50 1.587314530747895e1\n",
    "[33, 34) n 10 median 403573c4ec018730 2.14522235397082e1\n",
    "[34, 35) n 9 median 4032e1ea92cdfde4 1.8882485556879956e1\n",
    "[35, 36) n 8 median 4033b7c57262f03a 1.9717856549410705e1\n",
    "[36, 37) n 10 median 4033f6201e333e75 1.996142758132051e1\n",
    "[37, 38) n 3 median 403714b7230f4355 2.3080919448114702e1\n",
    "[38, 39) n 10 median 40307768cfd9c2f2 1.646644305292552e1\n",
    "[39, 40) n 7 median 40338658c6e85f01 1.952479212926028e1\n",
    "[40, 41) n 4 median 402ff1cb591eae82 1.5972254548068353e1\n",
    "[41, 42) n 2 median 40361629492461d4 2.208656746996151e1\n",
    "[42, 43) n 2 median 40409c4c2fff9a0b 3.322107505779794e1\n",
    "[43, 44) n 1 median 4032fab34fe78605 1.8979298585914893e1\n",
    "[44, 45) n 3 median 40406b38d5f91876 3.283767199194783e1\n",
    "[46, 47) n 5 median 403961573739fdb7 2.5380237056406e1\n",
    "[47, 48) n 4 median 4039684d0dea45d0 2.540742575616406e1\n",
    "[48, 49) n 4 median 40375efde7ef366a 2.337106179800177e1\n",
    "[49, 50) n 4 median 4035658dcc814cbe 2.1396694928710296e1\n",
    "[50, 51) n 4 median 403b8113e28f711e 2.750420967103957e1\n",
    "[51, 52) n 2 median 4040f1c5097d8e03 3.388882559424021e1\n",
    "[52, 53) n 5 median 404048339c0ff517 3.256407500056428e1\n",
    "[53, 54) n 3 median 4035ea4140ca6c39 2.1915058183116546e1\n",
    "[54, 55) n 2 median 4035cafee7d761d9 2.17929520512424e1\n",
    "[55, 56) n 4 median 4034f7a0a4a7fafa 2.0967294970522723e1\n",
    "[56, 57) n 2 median 4031a68ecaabee99 1.7650616328216163e1\n",
    "[57, 58) n 5 median 4040b3ea14228be5 3.340558101355399e1\n",
    "[58, 59) n 3 median 4042b609a6c16d64 3.74221695370168e1\n",
    "[59, 60) n 1 median 4035a394c5486aaa 2.1638988809757087e1\n",
    "[60, 61) n 3 median 4047225f098e66ea 4.626852530911658e1\n",
    "[61, 62) n 3 median 403a4fd92b5d3195 2.6311907491924632e1\n",
    "[63, 64) n 2 median 4044aabced5dbef2 4.133389060094295e1\n",
    "[64, 65) n 1 median 403719c365d166f1 2.310063778269154e1\n",
    "[65, 66) n 1 median 40301915df30e62a 1.60979899877913e1\n",
    "[66, 67) n 4 median 403b006575918e80 2.7001548145328798e1\n",
    "[67, 68) n 1 median 403cd9ef67608708 2.88513092623389e1\n",
    "[68, 69) n 2 median 40455e43112d8641 4.273642172549126e1\n",
    "[69, 70) n 2 median 404354b0d8a32e03 3.866164691894303e1\n",
    "[71, 72) n 2 median 403e34a890b8609c 3.0205697102560052e1\n",
    "[72, 73) n 4 median 404490b943d41c86 4.11306538377476e1\n",
    "[73, 74) n 1 median 404311df5a8c55b7 3.813962871410643e1\n",
    "[74, 75) n 4 median 403b9dede5fc0166 2.761691129114606e1\n",
    "[75, 76) n 1 median 40450d81f4b1be92 4.210552843741347e1\n",
    "[76, 77) n 3 median 40404ab40d987826 3.258361978478233e1\n",
    "[77, 78) n 2 median 403a6aa1a7b407c2 2.641652916093131e1\n",
    "[80, 81) n 2 median 403fa8874d0b178c 3.1658314528663638e1\n",
    "[81, 82) n 1 median 404fc9eed775a3a3 6.357760136837103e1\n",
    "[82, 83) n 2 median 40423010639e246e 3.6375500156610414e1\n",
    "[83, 84) n 1 median 4044e079b646e278 4.175371435605206e1\n",
    "[85, 86) n 2 median 404413298057c34b 4.0149704020359955e1\n",
    "[86, 87) n 5 median 4049be8a598d149d 5.148859710110376e1\n",
    "[87, 88) n 2 median 4044c48809494660 4.153540149762989e1\n",
    "[88, 89) n 3 median 404ae389a4cbc167 5.377763805340765e1\n",
    "[89, 90) n 2 median 4047b3fa17db245a 4.7406069738390855e1\n",
    "[91, 92) n 1 median 40482d24e325f483 4.835268821099546e1\n",
    "[92, 93) n 3 median 404a5be4e7511c4e 5.2717923082928436e1\n",
    "[97, 98) n 1 median 405359012d430766 7.739069682641784e1\n",
    "[98, 99) n 3 median 405393444356edf6 7.830104144562924e1\n",
    "[99, 100) n 2 median 404ac49b29b1da45 5.3535985195009324e1\n",
    "[101, 102) n 2 median 404abb91ff3815c2 5.346539297331357e1\n",
    "[102, 103) n 1 median 404f8a12833e45ff 6.30786899618215e1\n",
    "[103, 104) n 1 median 405253293e2f3370 7.329939226731744e1\n",
    "[104, 105) n 1 median 40487aa5172cf588 4.895816316314e1\n",
    "[106, 107) n 1 median 40413f93c0f8657b 3.449669658783656e1\n",
    "[107, 108) n 2 median 40528c20d4471e8b 7.418950373597379e1\n",
    "[108, 109) n 1 median 404fcda82995624e 6.360669441026822e1\n",
    "[112, 113) n 1 median 405b901587054ac8 1.102513139297181e2\n",
    "[121, 122) n 2 median 4052a016835dbb45 7.450137409356564e1\n",
    "[122, 123) n 1 median 4047b0d24af2580b 4.738141762574386e1\n",
    "[123, 124) n 1 median 4054bee085cdcaf5 8.29824537763305e1\n",
    "[124, 125) n 1 median 404b33589ca9f6d7 5.440114172266993e1\n",
    "[125, 126) n 3 median 404ff42c3b8fcab8 6.390759987374389e1\n",
    "[128, 129) n 1 median 404b17101db926ec 5.4180179324537534e1\n",
    "[129, 130) n 1 median 4052cb29a19f1863 7.51744159749665e1\n",
    "[134, 135) n 1 median 404d56f0071889d2 5.867920006464159e1\n",
    "[136, 137) n 1 median 4049a2ac6bda5f97 5.127088688051952e1\n",
    "[138, 139) n 1 median 404813df49256e31 4.815525163962992e1\n",
    "[139, 140) n 1 median 4051e49c8e0cf527 7.157205535188096e1\n",
    "[140, 141) n 2 median 4049df6f7733e89b 5.1745589161249164e1\n",
    "[143, 144) n 2 median 40548454b9c01c89 8.206767123947988e1\n",
    "[146, 147) n 1 median 4051f9b6e91a4c7c 7.190178897445907e1\n",
    "[147, 148) n 1 median 404d08f14c89073a 5.806986386004287e1\n",
    "[148, 149) n 1 median 404b55af16d2fa6d 5.466940579702064e1\n",
    "[150, 151) n 2 median 4054be994d26d5d2 8.297810677330497e1\n",
    "[152, 153) n 1 median 40503f0e855da86d 6.498526128908425e1\n",
    "[155, 156) n 1 median 4049c372a8398436 5.152693655785008e1\n",
    "[161, 162) n 1 median 4058393e94a2b132 9.68944446171561e1\n",
    "[167, 168) n 2 median 405468152db29550 8.162629263343592e1\n",
    "[168, 169) n 1 median 4058fec72dcab243 9.998090691370548e1\n",
    "[171, 172) n 1 median 405f82ca8fd6dfa5 1.2604361339553596e2\n",
    "[172, 173) n 2 median 4059224af35a5503 1.0053582462140552e2\n",
    "[174, 175) n 1 median 4057dc0133284035 9.543757323199027e1\n",
    "[181, 182) n 1 median 405208d2cb12a02d 7.213786579913058e1\n",
    "[185, 186) n 2 median 4061ed67008adcfc 1.434188235008404e2\n",
    "[187, 188) n 1 median 40677b36139b479b 1.87850351146012e2\n",
    "[189, 190) n 1 median 40613ef7562300ad 1.379676924403806e2\n",
    "[190, 191) n 1 median 40650e5099a2c16e 1.684473388842411e2\n",
    "[197, 198) n 1 median 40579e7aab15bfe0 9.447623707889534e1\n",
    "[198, 199) n 2 median 405c97f09bdd4c39 1.1437406059847935e2\n",
    "[200, 201) n 1 median 40610cc1daafbfbc 1.3639866384817094e2\n",
    "[201, 202) n 1 median 4062a4aec5220b31 1.4914633423470653e2\n",
    "[204, 205) n 2 median 405c84acbefead20 1.1407304358359079e2\n",
    "[207, 208) n 1 median 405a28e9aa707eea 1.0463926182733454e2\n",
    "[208, 209) n 1 median 404a0517989b86bb 5.203978259653146e1\n",
    "[214, 215) n 1 median 404ea1ac0d211c7c 6.12630630885769e1\n",
    "[216, 217) n 1 median 4056b614251c1919 9.084497955078076e1\n",
    "[218, 219) n 1 median 40629ce21df6364e 1.489026021775084e2\n",
    "[220, 221) n 1 median 406583ebe3839e1c 1.7212254501062932e2\n",
    "[221, 222) n 1 median 40592d5d36339adb 1.0070881419219533e2\n",
    "[224, 225) n 1 median 40718d9367392603 2.808484871132243e2\n",
    "[226, 227) n 1 median 4060d83d80858ee4 1.3475750757299022e2\n",
    "[227, 228) n 1 median 405ddcd100eb1d07 1.1945025656662266e2\n",
    "[229, 230) n 1 median 406981a4aeb6d563 2.0405135284146954e2\n",
    "[230, 231) n 1 median 4059c7fa0ba87306 1.0312463656854752e2\n",
    "[237, 238) n 1 median 4057b383c7469249 9.480491811649075e1\n",
    "[245, 246) n 1 median 405e8b93aeef5160 1.2218088887568365e2\n",
    "[246, 247) n 1 median 40561f6de84b3c5b 8.849108321521037e1\n",
    "[258, 259) n 1 median 405510bcd611264b 8.426152564692272e1\n",
    "[265, 266) n 1 median 405f7d38515a6114 1.259565623648271e2\n",
    "[272, 273) n 1 median 4062c00a7cf8156d 1.500012802930245e2\n",
    "[276, 277) n 1 median 4059f2f55e2b9745 1.0379622606522487e2\n",
    "[304, 305) n 1 median 405c0cacabfa692d 1.121980390496653e2\n",
    "[338, 339) n 1 median 406c379331d0c1e9 2.2573671808979933e2\n",
    "[340, 341) n 1 median 4064450a4293183f 1.621575024483627e2\n",
    "[350, 351) n 1 median 40612dd0e503b9ff 1.3743174982765046e2\n",
    "[355, 356) n 1 median 406dd574470daaa7 2.3867044403714428e2\n",
    "[358, 359) n 1 median 406706ec8c87a85a 1.8421637560363416e2\n",
    "[373, 374) n 1 median 4062747298fb3b5e 1.4763898896282893e2\n",
    "[378, 379) n 1 median 405c7d69c5e49048 1.1395958087273277e2\n",
    "[396, 397) n 1 median 406184341dd9d341 1.4013136189025866e2\n",
    "[402, 403) n 1 median 406a9f7a921b4631 2.1298371224715223e2\n",
    "[411, 412) n 1 median 405ceb76e3fcc3a7 1.1567913150486002e2\n",
    "[455, 456) n 1 median 406c04010dfe5677 2.2412512874293654e2\n",
    "[477, 478) n 1 median 407461197d1c7973 3.2606872283099e2\n",
    "[479, 480) n 1 median 40796dc576e0d90c 4.068607090743178e2\n",
    "[496, 497) n 1 median 40714cacfc3b3b6b 2.767922327340845e2\n",
    "[503, 504) n 1 median 406fc08793b068c9 2.5401654991583771e2\n",
    "[518, 519) n 1 median 4074c7c0683fb3d6 3.3248447441943915e2\n",
    "[566, 567) n 1 median 407916cb2532af16 4.0142459602163706e2\n",
    "[582, 583) n 1 median 406c6900151737de 2.2728126005682765e2\n",
    "[607, 608) n 1 median 40725770d3fb7a86 2.934650459121116e2\n",
    "[618, 619) n 1 median 406ed26ff073e547 2.4657616446147787e2\n",
    "[622, 623) n 1 median 407d9a695d6da770 4.736507238658296e2\n",
    "[676, 677) n 1 median 4071a979fda25d0f 2.8259228290007826e2\n",
    "[682, 683) n 1 median 4079270f481250a7 4.0244123084215465e2\n",
    "[687, 688) n 1 median 407f39156503a82c 4.9956772328785405e2\n",
    "[705, 706) n 1 median 407605fb785eb9a8 3.523738940906719e2\n",
    "[787, 788) n 1 median 408c4e156bd8b258 9.057604596070696e2\n",
    "[828, 829) n 1 median 4074384b14567099 3.235183299423748e2\n",
    "[871, 872) n 1 median 407872bc28ed23d4 3.911709374678878e2\n",
    "[957, 958) n 2 median 40851ade4d56c83c 6.753585459499222e2\n",
    "[967, 968) n 1 median 408157d36a1e7d00 5.549782297498605e2\n",
    "[992, 993) n 1 median 407fcdccb1a442d2 5.08862474099774e2\n",
    "[1065, 1066) n 1 median 40833472a66b638c 6.145559814824824e2\n",
    "[1110, 1111) n 1 median 408c760c5b0a3cdb 9.107560330200025e2\n",
    "[1226, 1227) n 1 median 4080a1b7376af352 5.322144611697679e2\n",
    "[1243, 1244) n 1 median 408edc630dee66c7 9.875483664155116e2\n",
    "[1306, 1307) n 1 median 40829259d7c1c36f 5.94293868554856e2\n",
    "[1528, 1529) n 1 median 40810548216d05ea 5.446602200047903e2\n",
    "[1569, 1570) n 1 median 408c94008710e86e 9.145002576180393e2\n",
    "[1627, 1628) n 1 median 4079cf135a4313a8 4.1294222475244396e2\n",
    "[1756, 1757) n 1 median 40833d4ec86e2acf 6.156634682280363e2\n",
    "[1949, 1950) n 1 median 4096201f4c218c37 1.416030563854392e3\n",
    "[1982, 1983) n 1 median 408beb9d6e5dc239 8.934518706631562e2\n",
    "[2090, 2091) n 1 median 409431b1051d8743 1.2924228710759933e3\n",
    "[2227, 2228) n 1 median 4090a87f5218c72d 1.0661243366118972e3\n",
    "[2259, 2260) n 1 median 4095768b6cd4c4eb 1.373636157345313e3\n",
    "[2969, 2970) n 1 median 4090a305d180ac57 1.0647556820016086e3\n",
    "[3457, 3458) n 1 median 409d7a3d5ea1fc65 1.8865599313078212e3\n",
    "[3708, 3709) n 1 median 40aeb505b9e8d23a 3.9305111840016007e3\n",
    "[4142, 4143) n 1 median 409620fafe147ae1 1.4162451098632812e3\n",
    "[4546, 4547) n 1 median 409fbc063448dd14 2.0310060588250099e3\n",
    "[4620, 4621) n 1 median 409f43fe050525d1 2.0009980660251933e3\n",
    "[5429, 5430) n 1 median 40acbc0e9cf10cb1 3.678028541119384e3\n",
    "[5577, 5578) n 1 median 40ba1d0c1e8b4245 6.685047341064147e3\n",
    "[6102, 6103) n 1 median 409691f81feb4873 1.4444923092616052e3\n",
    "[7972, 7973) n 1 median 40b49217758c0a98 5.266091637375437e3\n",
    "[13831, 13832) n 1 median 40bf69dff33c81bc 8.041874805242227e3\n",
    "[15021, 15022) n 1 median 40bfc8dff85a1fc1 8.136874883301499e3\n",
    "[17011, 17012) n 1 median 40bb2d61fa742784 6.957382727870605e3\n",
    "[17979, 17980) n 1 median 40ca46257e04ae4a 1.345229290827284e4\n",
    "[21932, 21933) n 1 median 40c2bb0e410f9ce3 9.590111360503774e3\n",
    "[23293, 23294) n 1 median 40c82501e50697df 1.2362014801811367e4\n",
    "[24300, 24301) n 1 median 40c1f1dabb046404 9.18770883231052e3\n",
    "[100906, 100907) n 1 median 40f42c58c81cb7e8 8.262954885551299e4\n",
    "[105276, 105277) n 1 median 40edad5ac3948eaa 6.077883637454857e4\n",
);

#[rustfmt::skip]
const QUEUEING: &str = concat!(
    "rho 0.3 full 40be28e965cf44fe 7.72091170974192e3 mice 403a0b98ad898b16 2.6045298429565342e1 benefit 4072871112742244 2.96441667989395e2\n",
    "rho 0.5 full 40d197dd7b6392e9 1.801546065606448e4 mice 404e62dcca75ccee 6.0772363002319125e1 benefit 4072871112742244 2.96441667989395e2\n",
    "rho 0.7 full 40e48682654980ba 4.203607486415045e4 mice 4061b9ab761a0ce0 1.4180218033874462e2 benefit 4072871112742244 2.96441667989395e2\n",
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
    "2011 gini 3fefdb5281c1a5a0 9.955227407746641e-1\n",
    "2011 lorenz 0000000000000000 0e0 0000000000000000 0e0\n",
    "2011 lorenz 3fc0000000000000 1.25e-1 3e786eeefbe80ad0 9.102126250635556e-8\n",
    "2011 lorenz 3fd0000000000000 2.5e-1 3ea678cc5fdf2eb8 6.697138699106493e-7\n",
    "2011 lorenz 3fd8000000000000 3.75e-1 3ec60897d88ba2b8 2.626605866463561e-6\n",
    "2011 lorenz 3fe0000000000000 5e-1 3ee11051d4a0e83e 8.136629407674256e-6\n",
    "2011 lorenz 3fe4000000000000 6.25e-1 3ef87df41f3f91e3 2.3357397324634792e-5\n",
    "2011 lorenz 3fe8000000000000 7.5e-1 3f126993d3b9f88d 7.023777737377914e-5\n",
    "2011 lorenz 3fec000000000000 8.75e-1 3f33abdbb799d291 3.001605433390698e-4\n",
    "2011 lorenz 3ff0000000000000 1e0 3ff0000000000000 1e0\n",
    "2019 gini 3feffa4deed73190 9.993047394614667e-1\n",
    "2019 lorenz 0000000000000000 0e0 0000000000000000 0e0\n",
    "2019 lorenz 3fc0000000000000 1.25e-1 3e7336baa286688c 7.157692805682298e-8\n",
    "2019 lorenz 3fd0000000000000 2.5e-1 3ea138ffcace3945 5.132750594426507e-7\n",
    "2019 lorenz 3fd8000000000000 3.75e-1 3ec06aae4328260f 1.9570257106013196e-6\n",
    "2019 lorenz 3fe0000000000000 5e-1 3ed8afac6c9aea0a 5.885654624721804e-6\n",
    "2019 lorenz 3fe4000000000000 6.25e-1 3ef0f5ee2e31fef9 1.6174951167346127e-5\n",
    "2019 lorenz 3fe8000000000000 7.5e-1 3f07c31a4d8e0de0 4.532264728765076e-5\n",
    "2019 lorenz 3fec000000000000 8.75e-1 3f23d24552aab82a 1.512250540449134e-4\n",
    "2019 lorenz 3ff0000000000000 1e0 3ff0000000000000 1e0\n",
);
