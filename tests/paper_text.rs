//! The report text of every table, figure and section, pinned.
//!
//! `PINNED` holds the FNV-1a digest and byte count of what each entry of
//! `borg_experiments::paper::EXPERIMENTS` renders at `--scale tiny --seed
//! 2019`. The values were taken from the stdout (banner aside) of the 18
//! single-experiment binaries at the commit before the registry replaced
//! them, so the registry is held to their bytes — with two exceptions,
//! pinned from the registry itself:
//!
//! * `figure07` — the old binary simulated cell g from the base seed; the
//!   registry reads cell g out of the shared era simulation, as the old
//!   `all` did (5753 new-task submits, not 5217);
//! * `figure10` — gained the `2019 pooled` row only `all` printed.
//!
//! `table2`, `figure12`, `figure13` and `section7` were re-pinned once
//! since, when the statistical-mode sample changed definition (paired
//! Box–Muller draw, chunk-seeded streams; DESIGN.md §5).
//!
//! Generated on: rustc 1.95.0, x86_64-unknown-linux-gnu (the samplers go
//! through the platform's libm, as in `crates/sim/tests/golden.rs`). A
//! deliberate change to an experiment's text regenerates the table with
//! `print_pinned`.

use borg_core::pipeline::SimScale;
use borg_experiments::paper::{Experiment, Inputs, EXPERIMENTS};
use borg_experiments::ExpOpts;
use std::sync::OnceLock;

#[rustfmt::skip]
const PINNED: &[(&str, u64, usize)] = &[
    ("table1", 0xc868e0a98ca26177, 665),
    ("figure01", 0x987958f187063aa7, 849),
    ("figure02", 0xf2a952675d1e6df1, 1597),
    ("figure03", 0xddb1b7d2a75263a7, 981),
    ("figure04", 0xbc23532efe7f09e0, 185),
    ("figure05", 0xa767836d39c7acc2, 981),
    ("figure06", 0x0ba266ff49d05854, 1277),
    ("figure07", 0x9a76df0108c12058, 775),
    ("figure08", 0xaf692ef8d9dc2300, 879),
    ("figure09", 0xd743af79aea2611e, 1731),
    ("figure10", 0x8263331e16150874, 1085),
    ("figure11", 0xfaf6cee1c3bd59d3, 519),
    ("figure12", 0xf64653207c532af5, 2586),
    ("figure13", 0xd720f4be79f0c181, 1200),
    ("figure14", 0xf09d0e50c51d9a0f, 292),
    ("table2", 0x6a61df2c08225a8e, 1137),
    ("section5", 0xa2c99e4828b13608, 640),
    ("section7", 0xa011848bcfed3dd5, 409),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The whole battery off one `Inputs` — one simulation — rendered once
/// for the file: each experiment's text, in the registry's order.
fn battery() -> &'static [String] {
    static BATTERY: OnceLock<Vec<String>> = OnceLock::new();
    BATTERY.get_or_init(|| {
        let inputs = Inputs::new(ExpOpts {
            scale: SimScale::Tiny,
            seed: 2019,
            dump: None,
        });
        let render = |e: &Experiment| {
            let mut out = String::new();
            (e.render)(&inputs, &mut out);
            out
        };
        EXPERIMENTS.iter().map(render).collect()
    })
}

#[test]
fn every_experiment_matches_its_pin() {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|&(id, ..)| id).collect();
    assert_eq!(ids, pinned, "PINNED lists the registry's IDs in its order");
    let mut diverging = 0;
    for (text, &(id, digest, bytes)) in battery().iter().zip(PINNED) {
        let got = (fnv1a(text.as_bytes()), text.len());
        if got != (digest, bytes) {
            diverging += 1;
            println!(
                "{id}: got (0x{:016x}, {}) want (0x{digest:016x}, {bytes})",
                got.0, got.1
            );
        }
    }
    assert_eq!(
        diverging, 0,
        "{diverging} experiment(s) diverge; see stdout"
    );
}

#[test]
#[ignore = "regenerates the table; not a check"]
fn print_pinned() {
    for (e, text) in EXPERIMENTS.iter().zip(battery()) {
        println!(
            "    ({:?}, 0x{:016x}, {}),",
            e.id,
            fnv1a(text.as_bytes()),
            text.len()
        );
    }
}
