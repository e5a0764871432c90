//! The paper's evaluation: `paper [--scale S] [--seed N] [--dump DIR] [ID…]`
//! prints the named tables, figures and sections — all of them when no ID
//! is given — off one lazily shared pair of era simulations. Its
//! month-scale output is what EXPERIMENTS.md records.

use borg_experiments::paper::{parse, Inputs};
use borg_experiments::{exit_usage, scale_line};

fn main() {
    let (opts, selected) = parse(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e));
    println!("{}\n", scale_line(&opts));
    let inputs = Inputs::new(opts);
    // lint: nondeterministic-source-ok (wall-clock progress on stderr only; no result depends on it)
    let t0 = std::time::Instant::now();
    let mut last = 0.0;
    for e in selected {
        print!("{}", e.section(&inputs));
        let now = t0.elapsed().as_secs_f64();
        eprintln!("{}: {:.1}s", e.id, now - last);
        last = now;
    }
    eprintln!("total wall time {last:.1}s");
}
