//! C2 failing fixture (linted as a sim library file): a named worker fn
//! dispatched onto a local ServePool indexes unchecked in its own body
//! and reaches a helper that unwraps — both panic paths unwind across
//! the pool boundary. The `unreached` helper unwraps too but is not
//! pool-reachable, proving C2 is graph-scoped.

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
    let base = table[(job % 3) as usize];
    scale(base)
}

fn scale(x: u64) -> u64 {
    x.checked_mul(3).unwrap()
}

pub fn unreached(x: u64) -> u64 {
    x.checked_mul(5).unwrap()
}
