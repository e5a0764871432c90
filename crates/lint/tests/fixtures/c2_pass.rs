//! C2 passing fixture: the worker body bounds-checks with `.get()`, and
//! the one residual panic path in a pool-reachable helper is annotated
//! with the invariant that makes it unreachable (dual marker: the site
//! is both a library panic and a pool unwind).

pub struct ServePool;

impl ServePool {
    pub fn new(_workers: usize, _f: fn(u64) -> u64) -> Self {
        ServePool
    }
}

pub fn build() -> ServePool {
    ServePool::new(4, work as fn(u64) -> u64)
}

fn work(job: u64) -> u64 {
    let table = vec![1u64, 2, 4];
    let base = table.get((job % 3) as usize).copied().unwrap_or(1);
    scale(base)
}

fn scale(x: u64) -> u64 {
    // lint: library-panic-ok (inputs are <= 4 above, so the product fits) unwind-across-pool-ok (same bound holds on workers)
    x.checked_mul(3).expect("bounded")
}
