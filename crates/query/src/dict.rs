//! Dictionary-encoded string storage.
//!
//! String columns are the hot keys of every trace analysis (tiers, event
//! names, collection ids…), and an optional `String` per cell
//! heap-allocates per cell and clones per comparison. [`StrVec`] instead
//! interns every distinct string once in an [`Arc`]-shared pool and
//! stores one dense `u32` code per row, so:
//!
//! * group-by, join, and sort key comparisons operate on integer codes;
//! * `take` copies 4-byte codes and shares the pool (no string clones
//!   at all);
//! * equality against a literal is one pool lookup plus a code scan.
//!
//! Null is represented by the reserved [`NULL_CODE`]: a code vector is
//! already the value-plus-validity layout the other column types use
//! ([`crate::column::PrimVec`]), with the mask folded into one value.

use crate::fxhash::FxHashMap;
use std::sync::Arc;

/// Reserved code for SQL null (never a valid pool index).
pub const NULL_CODE: u32 = u32::MAX;

/// The shared intern pool: dense code → string, plus the reverse index.
#[derive(Debug, Clone, Default)]
struct Dict {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, u32>,
}

impl Dict {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.lookup.get(s) {
            return code;
        }
        let code = crate::cast::code32(self.strings.len());
        assert!(code != NULL_CODE, "dictionary overflow");
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, code);
        code
    }
}

/// A nullable string vector with dictionary encoding.
#[derive(Debug, Clone, Default)]
pub struct StrVec {
    dict: Arc<Dict>,
    codes: Vec<u32>,
}

impl StrVec {
    /// An empty vector.
    pub fn new() -> StrVec {
        StrVec::default()
    }

    /// An empty vector with room for `n` rows.
    pub fn with_capacity(n: usize) -> StrVec {
        StrVec {
            dict: Arc::new(Dict::default()),
            codes: Vec::with_capacity(n),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reserves room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.codes.reserve(additional);
    }

    /// Number of distinct strings in the pool.
    pub fn dict_len(&self) -> usize {
        self.dict.strings.len()
    }

    /// Interns `s` (if new) and returns its code without appending a row.
    pub fn intern(&mut self, s: &str) -> u32 {
        // Hits (nearly every row of a trace column) only read the pool;
        // the copy-on-write check is paid on first sight of a string.
        match self.dict.lookup.get(s) {
            Some(&code) => code,
            None => Arc::make_mut(&mut self.dict).intern(s),
        }
    }

    /// The string behind a pool code.
    ///
    /// # Panics
    ///
    /// Panics when `code` is [`NULL_CODE`] or out of range.
    pub fn string_of(&self, code: u32) -> &str {
        &self.dict.strings[code as usize]
    }

    /// Appends a row.
    pub fn push(&mut self, s: Option<&str>) {
        let code = match s {
            Some(s) => self.intern(s),
            None => NULL_CODE,
        };
        self.codes.push(code);
    }

    /// Appends a row that is already encoded: a code [`StrVec::intern`]
    /// returned for *this* vector, or [`NULL_CODE`]. Lets a builder that
    /// knows its few labels skip the pool lookup per row.
    ///
    /// # Panics
    ///
    /// Panics when `code` is neither in the pool nor [`NULL_CODE`].
    // Inlined into the builders in other crates, which call it per row.
    #[inline]
    pub fn push_code(&mut self, code: u32) {
        assert!(
            code == NULL_CODE || (code as usize) < self.dict.strings.len(),
            "code {code} is not in this dictionary"
        );
        self.codes.push(code);
    }

    /// The row's string; `None` for null or out-of-range rows.
    pub fn get(&self, row: usize) -> Option<&str> {
        match self.codes.get(row) {
            Some(&NULL_CODE) | None => None,
            Some(&code) => Some(&self.dict.strings[code as usize]),
        }
    }

    /// The row's code; [`NULL_CODE`] for null or out-of-range rows.
    pub fn code(&self, row: usize) -> u32 {
        self.codes.get(row).copied().unwrap_or(NULL_CODE)
    }

    /// All row codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Iterates the rows as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        self.codes.iter().map(move |&c| {
            if c == NULL_CODE {
                None
            } else {
                Some(&*self.dict.strings[c as usize])
            }
        })
    }

    /// The contiguous sub-range of rows, sharing this pool.
    pub fn slice(&self, range: std::ops::Range<usize>) -> StrVec {
        StrVec {
            dict: Arc::clone(&self.dict),
            codes: self.codes[range].to_vec(),
        }
    }

    /// Rows rearranged to `indices` order (out-of-range → null), sharing
    /// this pool.
    pub fn take(&self, indices: &[u32]) -> StrVec {
        let mut codes = Vec::with_capacity(indices.len());
        codes.extend(
            indices
                .iter()
                .map(|&i| self.codes.get(i as usize).copied().unwrap_or(NULL_CODE)),
        );
        StrVec {
            dict: Arc::clone(&self.dict),
            codes,
        }
    }

    /// For every pool code, its rank in lexicographic string order.
    ///
    /// Sorting reads a string cell as `rank[code]`, so string order
    /// becomes integer order.
    pub fn lex_ranks(&self) -> Vec<u32> {
        let n = self.dict.strings.len();
        let mut order: Vec<u32> = (0..crate::cast::code32(n)).collect();
        order.sort_unstable_by(|&a, &b| {
            self.dict.strings[a as usize].cmp(&self.dict.strings[b as usize])
        });
        let mut ranks = vec![0u32; n];
        for (rank, &code) in order.iter().enumerate() {
            ranks[code as usize] = crate::cast::code32(rank);
        }
        ranks
    }

    /// Maps every code of `self` to the corresponding code in `other`'s
    /// pool, for join probes across tables. Strings absent from `other`
    /// map to [`NULL_CODE`].
    pub fn code_mapping_into(&self, other: &StrVec) -> Vec<u32> {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            return (0..crate::cast::code32(self.dict.strings.len())).collect();
        }
        self.dict
            .strings
            .iter()
            .map(|s| {
                other
                    .dict
                    .lookup
                    .get(s.as_ref())
                    .copied()
                    .unwrap_or(NULL_CODE)
            })
            .collect()
    }

    /// True when the two vectors share one pool allocation, making raw
    /// code comparison valid across them.
    pub fn same_dict(&self, other: &StrVec) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }
}

impl PartialEq for StrVec {
    /// Row-wise semantic equality (pools may assign different codes).
    fn eq(&self, other: &StrVec) -> bool {
        if self.codes.len() != other.codes.len() {
            return false;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) {
            return self.codes == other.codes;
        }
        self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<'a> FromIterator<Option<&'a str>> for StrVec {
    fn from_iter<I: IntoIterator<Item = Option<&'a str>>>(iter: I) -> StrVec {
        let mut v = StrVec::new();
        for s in iter {
            v.push(s);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let mut v = StrVec::new();
        v.push(Some("prod"));
        v.push(Some("beb"));
        v.push(Some("prod"));
        v.push(None);
        assert_eq!(v.len(), 4);
        assert_eq!(v.dict_len(), 2);
        assert_eq!(v.get(0), Some("prod"));
        assert_eq!(v.get(2), Some("prod"));
        assert_eq!(v.get(3), None);
        assert_eq!(v.code(0), v.code(2));
        assert_ne!(v.code(0), v.code(1));
        assert_eq!(v.code(3), NULL_CODE);
        assert_eq!(v.get(99), None);
    }

    #[test]
    fn take_shares_pool() {
        let mut v = StrVec::new();
        for s in [Some("a"), Some("b"), None, Some("a")] {
            v.push(s);
        }
        let t = v.take(&[3, 99, 1]);
        assert!(t.same_dict(&v));
        assert_eq!(t.get(0), Some("a"));
        assert_eq!(t.get(1), None); // out of range → null
        assert_eq!(t.get(2), Some("b"));
    }

    #[test]
    fn semantic_equality_across_pools() {
        let mut a = StrVec::new();
        a.push(Some("x"));
        a.push(Some("y"));
        let mut b = StrVec::new();
        b.push(Some("y")); // different insertion order → different codes
        b.push(Some("x"));
        let b = b.take(&[1, 0]);
        assert_eq!(a, b);
        assert_ne!(a.code(0), b.code(0)); // codes differ, strings match
    }

    #[test]
    fn lex_ranks_order_strings() {
        let words = ["mid", "beb", "prod", "free"];
        let mut v = StrVec::new();
        for s in words {
            v.push(Some(s));
        }
        let ranks = v.lex_ranks();
        let rank_of = |s: &str| {
            let row = words.iter().position(|&w| w == s).unwrap();
            ranks[v.code(row) as usize]
        };
        assert!(rank_of("beb") < rank_of("free"));
        assert!(rank_of("free") < rank_of("mid"));
        assert!(rank_of("mid") < rank_of("prod"));
    }

    #[test]
    fn code_mapping_across_pools() {
        let mut l = StrVec::new();
        l.push(Some("prod"));
        l.push(Some("beb"));
        let mut r = StrVec::new();
        r.push(Some("beb"));
        r.push(Some("unknown"));
        let map = r.code_mapping_into(&l);
        assert_eq!(map[r.code(0) as usize], l.code(1));
        assert_eq!(map[r.code(1) as usize], NULL_CODE);
    }
}
