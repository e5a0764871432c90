//! Expression AST and evaluation.
//!
//! Expressions reference columns, combine them with arithmetic, compare
//! them, and connect predicates with boolean logic — the `WHERE`-clause
//! subset the paper's queries need. Nulls propagate SQL-style: any
//! operation on a null yields null, and a null predicate does not select
//! the row.
//!
//! Evaluation is columnar: an expression evaluates over a row range into
//! a typed vector ([`EvalVec`]), with literal operands kept as broadcast
//! constants and per-type kernels for the hot combinations (numeric
//! arithmetic and comparison, string-vs-literal comparison via
//! dictionary codes, boolean logic). Predicate masks evaluate blocks of
//! rows in parallel ([`crate::parallel`]); because each block is a pure
//! function of the input rows, the mask is identical however many
//! threads run. [`Expr::eval_row`] remains as the row-at-a-time
//! reference implementation.

use crate::column::Column;
use crate::dict::{StrVec, NULL_CODE};
use crate::error::QueryError;
use crate::parallel;
use crate::table::Table;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Range;

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Boolean negation.
    Not(Box<Expr>),
    /// True when the operand is null.
    IsNull(Box<Expr>),
    /// Floors a numeric operand to a multiple of a positive width —
    /// SQL-style bucketing (`bucket(time, 3600)` groups into hours).
    Bucket {
        /// The numeric operand.
        inner: Box<Expr>,
        /// Bucket width (must be positive).
        width: f64,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float; division by zero yields null).
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// A column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// A literal.
pub fn lit(value: impl Into<Value>) -> Expr {
    Expr::Literal(value.into())
}

macro_rules! binop_method {
    ($(#[$doc:meta])* $name:ident, $op:ident) => {
        $(#[$doc])*
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Binary {
                op: BinOp::$op,
                left: Box::new(self),
                right: Box::new(rhs),
            }
        }
    };
}

// The arithmetic method names intentionally mirror the `std::ops` traits:
// they build AST nodes rather than compute, like most query DSLs.
#[allow(clippy::should_implement_trait)]
impl Expr {
    binop_method!(/// `self + rhs`.
        add, Add);
    binop_method!(/// `self - rhs`.
        sub, Sub);
    binop_method!(/// `self * rhs`.
        mul, Mul);
    binop_method!(/// `self / rhs` (null on division by zero).
        div, Div);
    binop_method!(/// `self == rhs`.
        eq, Eq);
    binop_method!(/// `self != rhs`.
        ne, Ne);
    binop_method!(/// `self < rhs`.
        lt, Lt);
    binop_method!(/// `self <= rhs`.
        le, Le);
    binop_method!(/// `self > rhs`.
        gt, Gt);
    binop_method!(/// `self >= rhs`.
        ge, Ge);
    binop_method!(/// `self AND rhs`.
        and, And);
    binop_method!(/// `self OR rhs`.
        or, Or);

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// True when the expression evaluates to null.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }

    /// Floors the (numeric) expression to a multiple of `width` — the
    /// bucketing idiom behind the paper's hourly aggregations (Figures
    /// 2/4/8/9) and Figure 13's 1-NCU-hour bins.
    pub fn bucket(self, width: f64) -> Expr {
        Expr::Bucket {
            inner: Box::new(self),
            width,
        }
    }

    /// Adds the name of every column the expression reads to `out`.
    pub fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Not(inner) | Expr::IsNull(inner) | Expr::Bucket { inner, .. } => {
                inner.collect_columns(out);
            }
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
        }
    }

    /// Evaluates the expression for one row of a table (the reference
    /// semantics; the columnar path must agree with this).
    pub fn eval_row(&self, table: &Table, row: usize) -> Result<Value, QueryError> {
        match self {
            Expr::Column(name) => table.value(row, name),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Not(inner) => match inner.eval_row(table, row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(QueryError::IncompatibleOperands {
                    op: "not",
                    detail: format!("{other:?}"),
                }),
            },
            Expr::IsNull(inner) => Ok(Value::Bool(inner.eval_row(table, row)?.is_null())),
            Expr::Bucket { inner, width } => {
                check_bucket_width(*width)?;
                match inner.eval_row(table, row)? {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(bucket_int(i, *width)),
                    Value::Float(x) => Ok(Value::Float(bucket_f64(x, *width))),
                    other => Err(QueryError::IncompatibleOperands {
                        op: "bucket",
                        detail: format!("{other:?}"),
                    }),
                }
            }
            Expr::Binary { op, left, right } => {
                let l = left.eval_row(table, row)?;
                let r = right.eval_row(table, row)?;
                eval_binop(*op, l, r)
            }
        }
    }

    /// Evaluates the expression for every row, producing a column.
    pub fn eval(&self, table: &Table) -> Result<Vec<Value>, QueryError> {
        (0..table.num_rows())
            .map(|r| self.eval_row(table, r))
            .collect()
    }

    /// Evaluates the expression as a predicate mask: null ⇒ `false`.
    ///
    /// Blocks of rows evaluate in parallel; the result is independent of
    /// the thread count.
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>, QueryError> {
        self.eval_mask_cancel(table, None)
    }

    /// [`Expr::eval_mask`] with a cooperative cancellation check at every
    /// block boundary; returns [`QueryError::Cancelled`] once `cancel`
    /// is set. An unset (or absent) token changes nothing.
    pub fn eval_mask_cancel(
        &self,
        table: &Table,
        cancel: Option<&crate::cancel::CancelToken>,
    ) -> Result<Vec<bool>, QueryError> {
        let n = table.num_rows();
        if n == 0 {
            return Ok(Vec::new());
        }
        let blocks = parallel::try_map_blocks(n, parallel::num_threads(), cancel, |_, rows| {
            let len = rows.len();
            self.eval_vec(table, rows).and_then(|v| mask_block(v, len))
        })?;
        let mut mask = Vec::with_capacity(n);
        for block in blocks {
            mask.extend(block?);
        }
        Ok(mask)
    }

    /// Evaluates into a typed [`Column`] (type inferred from the first
    /// non-null value; all-null becomes a float column).
    pub fn eval_column(&self, table: &Table) -> Result<Column, QueryError> {
        let n = table.num_rows();
        if n == 0 {
            return Ok(Column::Float(Vec::new()));
        }
        fn all_null<T>(v: &[Option<T>]) -> bool {
            v.iter().all(Option::is_none)
        }
        Ok(match self.eval_vec(table, 0..n)? {
            EvalVec::Int(v) if !all_null(&v) => Column::Int(v),
            EvalVec::Float(v) if !all_null(&v) => Column::Float(v),
            EvalVec::Str(v) if v.codes().iter().any(|&c| c != NULL_CODE) => Column::Str(v),
            EvalVec::Bool(v) if !all_null(&v) => Column::Bool(v),
            EvalVec::Const(Value::Int(x)) => Column::Int(vec![Some(x); n]),
            EvalVec::Const(Value::Float(x)) => Column::Float(vec![Some(x); n]),
            EvalVec::Const(Value::Bool(x)) => Column::Bool(vec![Some(x); n]),
            EvalVec::Const(Value::Str(s)) => {
                let mut v = StrVec::with_capacity(n);
                let code = v.intern(&s);
                for _ in 0..n {
                    v.push_code(code);
                }
                Column::Str(v)
            }
            // All-null results (whatever carrier produced them) become a
            // float column, matching the row-at-a-time type inference.
            _ => Column::Float(vec![None; n]),
        })
    }

    /// Columnar evaluation over a row range. Pure: the result depends
    /// only on `table` and `rows`, never on scheduling.
    fn eval_vec(&self, table: &Table, rows: Range<usize>) -> Result<EvalVec, QueryError> {
        match self {
            Expr::Column(name) => Ok(match table.column(name)? {
                Column::Int(v) => EvalVec::Int(v[rows].to_vec()),
                Column::Float(v) => EvalVec::Float(v[rows].to_vec()),
                Column::Str(v) => EvalVec::Str(v.slice(rows)),
                Column::Bool(v) => EvalVec::Bool(v[rows].to_vec()),
            }),
            Expr::Literal(v) => Ok(EvalVec::Const(v.clone())),
            Expr::Not(inner) => eval_not(inner.eval_vec(table, rows)?),
            Expr::IsNull(inner) => Ok(eval_is_null(inner.eval_vec(table, rows)?)),
            Expr::Bucket { inner, width } => {
                check_bucket_width(*width)?;
                eval_bucket(inner.eval_vec(table, rows)?, *width)
            }
            Expr::Binary { op, left, right } => {
                let len = rows.len();
                let l = left.eval_vec(table, rows.clone())?;
                let r = right.eval_vec(table, rows)?;
                eval_binop_vec(*op, l, r, len)
            }
        }
    }
}

/// One block's evaluation result: a typed vector, or a broadcast literal
/// (length-independent).
enum EvalVec {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(StrVec),
    Bool(Vec<Option<bool>>),
    Const(Value),
}

/// A borrowed scalar view of one cell — the generic fallback currency
/// (no heap allocation, unlike [`Value`]).
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
}

impl Cell<'_> {
    fn is_null(self) -> bool {
        matches!(self, Cell::Null)
    }

    fn as_f64(self) -> Option<f64> {
        match self {
            Cell::Int(i) => Some(i as f64),
            Cell::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Owned value, for error messages only.
    fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(s.to_string()),
            Cell::Bool(b) => Value::Bool(b),
        }
    }
}

impl EvalVec {
    #[inline]
    fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            EvalVec::Int(v) => v[i].map_or(Cell::Null, Cell::Int),
            EvalVec::Float(v) => v[i].map_or(Cell::Null, Cell::Float),
            EvalVec::Str(v) => v.get(i).map_or(Cell::Null, Cell::Str),
            EvalVec::Bool(v) => v[i].map_or(Cell::Null, Cell::Bool),
            EvalVec::Const(v) => match v {
                Value::Null => Cell::Null,
                Value::Int(x) => Cell::Int(*x),
                Value::Float(x) => Cell::Float(*x),
                Value::Str(s) => Cell::Str(s),
                Value::Bool(b) => Cell::Bool(*b),
            },
        }
    }

    fn is_const_null(&self) -> bool {
        matches!(self, EvalVec::Const(Value::Null))
    }

    /// The first non-null cell, if any (error paths and all-null checks).
    fn first_non_null(&self, len: usize) -> Option<Cell<'_>> {
        (0..len).map(|i| self.cell(i)).find(|c| !c.is_null())
    }
}

/// Numeric per-row view: ints widen to `f64`.
enum NumView<'a> {
    Int(&'a [Option<i64>]),
    Float(&'a [Option<f64>]),
    Const(f64),
}

impl NumView<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<f64> {
        match self {
            NumView::Int(v) => v[i].map(|x| x as f64),
            NumView::Float(v) => v[i],
            NumView::Const(x) => Some(*x),
        }
    }
}

/// Numeric view when the operand is statically numeric; `None` otherwise
/// (the caller falls back to the generic cell path).
fn num_view(v: &EvalVec) -> Option<NumView<'_>> {
    match v {
        EvalVec::Int(v) => Some(NumView::Int(v)),
        EvalVec::Float(v) => Some(NumView::Float(v)),
        EvalVec::Const(Value::Int(x)) => Some(NumView::Const(*x as f64)),
        EvalVec::Const(Value::Float(x)) => Some(NumView::Const(*x)),
        _ => None,
    }
}

/// Integer per-row view (for int-preserving arithmetic).
enum IntView<'a> {
    Vec(&'a [Option<i64>]),
    Const(i64),
}

impl IntView<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        match self {
            IntView::Vec(v) => v[i],
            IntView::Const(x) => Some(*x),
        }
    }
}

fn int_view(v: &EvalVec) -> Option<IntView<'_>> {
    match v {
        EvalVec::Int(v) => Some(IntView::Vec(v)),
        EvalVec::Const(Value::Int(x)) => Some(IntView::Const(*x)),
        _ => None,
    }
}

/// Boolean per-row view for `AND`/`OR`/`NOT` operands. Errors when the
/// operand can produce a non-null non-boolean (matching the row-at-a-time
/// semantics, where such a row errors regardless of the other operand).
enum BoolView<'a> {
    Vec(&'a [Option<bool>]),
    Const(Option<bool>),
}

impl BoolView<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        match self {
            BoolView::Vec(v) => v[i],
            BoolView::Const(b) => *b,
        }
    }
}

fn bool_view<'a>(v: &'a EvalVec, len: usize, op: &'static str) -> Result<BoolView<'a>, QueryError> {
    match v {
        EvalVec::Bool(v) => Ok(BoolView::Vec(v)),
        EvalVec::Const(Value::Bool(b)) => Ok(BoolView::Const(Some(*b))),
        EvalVec::Const(Value::Null) => Ok(BoolView::Const(None)),
        other => match other.first_non_null(len) {
            None => Ok(BoolView::Const(None)), // all null: a null operand per row
            Some(cell) => Err(QueryError::IncompatibleOperands {
                op,
                detail: format!("{:?}", cell.to_value()),
            }),
        },
    }
}

fn check_bucket_width(width: f64) -> Result<(), QueryError> {
    if width.partial_cmp(&0.0) != Some(Ordering::Greater) {
        return Err(QueryError::IncompatibleOperands {
            op: "bucket",
            detail: format!("non-positive width {width}"),
        });
    }
    Ok(())
}

// The f64→i64 cast deliberately truncates toward zero and is then
// round-trip checked (`width - w as f64`) before the integer path is
// taken; non-integral widths fall through to float bucketing.
#[allow(clippy::cast_possible_truncation)]
fn bucket_int(i: i64, width: f64) -> Value {
    let w = width as i64;
    if w >= 1 && (width - w as f64).abs() < 1e-9 {
        Value::Int(i.div_euclid(w) * w)
    } else {
        Value::Float((i as f64 / width).floor() * width)
    }
}

fn bucket_f64(x: f64, width: f64) -> f64 {
    (x / width).floor() * width
}

fn eval_not(v: EvalVec) -> Result<EvalVec, QueryError> {
    match v {
        EvalVec::Bool(v) => Ok(EvalVec::Bool(
            v.into_iter().map(|b| b.map(|b| !b)).collect(),
        )),
        EvalVec::Const(Value::Bool(b)) => Ok(EvalVec::Const(Value::Bool(!b))),
        EvalVec::Const(Value::Null) => Ok(EvalVec::Const(Value::Null)),
        other => {
            let len = match &other {
                EvalVec::Int(v) => v.len(),
                EvalVec::Float(v) => v.len(),
                EvalVec::Str(v) => v.len(),
                _ => 1,
            };
            match other.first_non_null(len) {
                None => Ok(EvalVec::Const(Value::Null)),
                Some(cell) => Err(QueryError::IncompatibleOperands {
                    op: "not",
                    detail: format!("{:?}", cell.to_value()),
                }),
            }
        }
    }
}

fn eval_is_null(v: EvalVec) -> EvalVec {
    match v {
        EvalVec::Int(v) => EvalVec::Bool(v.into_iter().map(|c| Some(c.is_none())).collect()),
        EvalVec::Float(v) => EvalVec::Bool(v.into_iter().map(|c| Some(c.is_none())).collect()),
        EvalVec::Str(v) => EvalVec::Bool(v.codes().iter().map(|&c| Some(c == NULL_CODE)).collect()),
        EvalVec::Bool(v) => EvalVec::Bool(v.into_iter().map(|c| Some(c.is_none())).collect()),
        EvalVec::Const(v) => EvalVec::Const(Value::Bool(v.is_null())),
    }
}

// Same round-trip-checked truncation as `bucket_int` above.
#[allow(clippy::cast_possible_truncation)]
fn eval_bucket(v: EvalVec, width: f64) -> Result<EvalVec, QueryError> {
    match v {
        EvalVec::Int(xs) => {
            let w = width as i64;
            if w >= 1 && (width - w as f64).abs() < 1e-9 {
                Ok(EvalVec::Int(
                    xs.into_iter()
                        .map(|c| c.map(|i| i.div_euclid(w) * w))
                        .collect(),
                ))
            } else {
                Ok(EvalVec::Float(
                    xs.into_iter()
                        .map(|c| c.map(|i| bucket_f64(i as f64, width)))
                        .collect(),
                ))
            }
        }
        EvalVec::Float(xs) => Ok(EvalVec::Float(
            xs.into_iter()
                .map(|c| c.map(|x| bucket_f64(x, width)))
                .collect(),
        )),
        EvalVec::Const(Value::Null) => Ok(EvalVec::Const(Value::Null)),
        EvalVec::Const(Value::Int(i)) => Ok(EvalVec::Const(bucket_int(i, width))),
        EvalVec::Const(Value::Float(x)) => Ok(EvalVec::Const(Value::Float(bucket_f64(x, width)))),
        other => {
            let len = match &other {
                EvalVec::Str(v) => v.len(),
                EvalVec::Bool(v) => v.len(),
                _ => 1,
            };
            match other.first_non_null(len) {
                None => Ok(EvalVec::Const(Value::Null)),
                Some(cell) => Err(QueryError::IncompatibleOperands {
                    op: "bucket",
                    detail: format!("{:?}", cell.to_value()),
                }),
            }
        }
    }
}

#[inline]
fn ord_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("comparison op"),
    }
}

/// String column vs string literal: one `Ordering` per dictionary code,
/// then an integer scan (`flipped` when the literal is the left operand).
fn str_const_cmp(op: BinOp, sv: &StrVec, s: &str, flipped: bool) -> EvalVec {
    let ords: Vec<Ordering> = (0..crate::cast::code32(sv.dict_len()))
        .map(|c| {
            let ord = sv.string_of(c).cmp(s);
            if flipped {
                ord.reverse()
            } else {
                ord
            }
        })
        .collect();
    EvalVec::Bool(
        sv.codes()
            .iter()
            .map(|&c| {
                if c == NULL_CODE {
                    None
                } else {
                    Some(ord_matches(op, ords[c as usize]))
                }
            })
            .collect(),
    )
}

fn incompatible(op: &'static str, l: Cell<'_>, r: Cell<'_>) -> QueryError {
    QueryError::IncompatibleOperands {
        op,
        detail: format!("{:?} vs {:?}", l.to_value(), r.to_value()),
    }
}

/// Generic arithmetic fallback: at least one operand is statically
/// non-numeric, so every row with both sides non-null is an error and
/// the surviving rows are all null.
fn generic_arith(l: &EvalVec, r: &EvalVec, len: usize) -> Result<EvalVec, QueryError> {
    for i in 0..len {
        let (cl, cr) = (l.cell(i), r.cell(i));
        if !cl.is_null() && !cr.is_null() {
            return Err(incompatible("arithmetic", cl, cr));
        }
    }
    Ok(EvalVec::Float(vec![None; len]))
}

/// Generic comparison fallback, mirroring `Value::compare` cell-wise.
fn generic_cmp(op: BinOp, l: &EvalVec, r: &EvalVec, len: usize) -> Result<EvalVec, QueryError> {
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let (cl, cr) = (l.cell(i), r.cell(i));
        if cl.is_null() || cr.is_null() {
            out.push(None);
            continue;
        }
        let ord = match (cl, cr) {
            (Cell::Str(a), Cell::Str(b)) => a.cmp(b),
            (Cell::Bool(a), Cell::Bool(b)) => a.cmp(&b),
            _ => match (cl.as_f64(), cr.as_f64()) {
                (Some(a), Some(b)) => match a.partial_cmp(&b) {
                    Some(ord) => ord,
                    None => return Err(incompatible("comparison", cl, cr)),
                },
                _ => return Err(incompatible("comparison", cl, cr)),
            },
        };
        out.push(Some(ord_matches(op, ord)));
    }
    Ok(EvalVec::Bool(out))
}

fn eval_binop_vec(op: BinOp, l: EvalVec, r: EvalVec, len: usize) -> Result<EvalVec, QueryError> {
    use BinOp::*;
    // Two literals fold to a literal via the scalar engine.
    if let (EvalVec::Const(a), EvalVec::Const(b)) = (&l, &r) {
        return Ok(EvalVec::Const(eval_binop(op, a.clone(), b.clone())?));
    }
    match op {
        And | Or => {
            let lv = bool_view(&l, len, "and/or")?;
            let rv = bool_view(&r, len, "and/or")?;
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                // SQL three-valued logic.
                out.push(match (op, lv.get(i), rv.get(i)) {
                    (And, Some(false), _) | (And, _, Some(false)) => Some(false),
                    (And, Some(true), Some(true)) => Some(true),
                    (Or, Some(true), _) | (Or, _, Some(true)) => Some(true),
                    (Or, Some(false), Some(false)) => Some(false),
                    _ => None,
                });
            }
            Ok(EvalVec::Bool(out))
        }
        Add | Sub | Mul | Div => {
            // A null literal nulls every row, whatever the other side is.
            if l.is_const_null() || r.is_const_null() {
                return Ok(EvalVec::Const(Value::Null));
            }
            if let (Some(a), Some(b)) = (int_view(&l), int_view(&r)) {
                // Integer arithmetic stays integral except for division.
                return Ok(if op == Div {
                    EvalVec::Float(
                        (0..len)
                            .map(|i| match (a.get(i), b.get(i)) {
                                (Some(x), Some(y)) if y != 0 => Some(x as f64 / y as f64),
                                _ => None,
                            })
                            .collect(),
                    )
                } else {
                    EvalVec::Int(
                        (0..len)
                            .map(|i| match (a.get(i), b.get(i)) {
                                (Some(x), Some(y)) => Some(match op {
                                    Add => x.wrapping_add(y),
                                    Sub => x.wrapping_sub(y),
                                    Mul => x.wrapping_mul(y),
                                    _ => unreachable!("int arithmetic op"),
                                }),
                                _ => None,
                            })
                            .collect(),
                    )
                });
            }
            if let (Some(a), Some(b)) = (num_view(&l), num_view(&r)) {
                return Ok(EvalVec::Float(
                    (0..len)
                        .map(|i| match (a.get(i), b.get(i)) {
                            (Some(x), Some(y)) => match op {
                                Add => Some(x + y),
                                Sub => Some(x - y),
                                Mul => Some(x * y),
                                Div => {
                                    if y == 0.0 {
                                        None
                                    } else {
                                        Some(x / y)
                                    }
                                }
                                _ => unreachable!("arithmetic op"),
                            },
                            _ => None,
                        })
                        .collect(),
                ));
            }
            generic_arith(&l, &r, len)
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            // A null literal nulls every comparison.
            if l.is_const_null() || r.is_const_null() {
                return Ok(EvalVec::Const(Value::Null));
            }
            if let (EvalVec::Str(sv), EvalVec::Const(Value::Str(s))) = (&l, &r) {
                return Ok(str_const_cmp(op, sv, s, false));
            }
            if let (EvalVec::Const(Value::Str(s)), EvalVec::Str(sv)) = (&l, &r) {
                return Ok(str_const_cmp(op, sv, s, true));
            }
            if let (Some(a), Some(b)) = (num_view(&l), num_view(&r)) {
                let mut out = Vec::with_capacity(len);
                for i in 0..len {
                    out.push(match (a.get(i), b.get(i)) {
                        (Some(x), Some(y)) => match x.partial_cmp(&y) {
                            Some(ord) => Some(ord_matches(op, ord)),
                            // NaN comparisons error, as in the scalar path.
                            None => return Err(incompatible("comparison", l.cell(i), r.cell(i))),
                        },
                        _ => None,
                    });
                }
                return Ok(EvalVec::Bool(out));
            }
            generic_cmp(op, &l, &r, len)
        }
    }
}

/// Converts one block's predicate result to a mask (null ⇒ `false`).
fn mask_block(v: EvalVec, len: usize) -> Result<Vec<bool>, QueryError> {
    match v {
        EvalVec::Bool(v) => Ok(v.into_iter().map(|b| b.unwrap_or(false)).collect()),
        EvalVec::Const(Value::Bool(b)) => Ok(vec![b; len]),
        EvalVec::Const(Value::Null) => Ok(vec![false; len]),
        other => {
            let first = other
                .first_non_null(len)
                .map_or(Value::Null, |c| c.to_value());
            Err(QueryError::IncompatibleOperands {
                op: "filter",
                detail: format!("predicate produced {first:?}"),
            })
        }
    }
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, QueryError> {
    use BinOp::*;
    match op {
        And | Or => {
            // SQL three-valued logic.
            let lb = match &l {
                Value::Bool(b) => Some(*b),
                Value::Null => None,
                other => {
                    return Err(QueryError::IncompatibleOperands {
                        op: "and/or",
                        detail: format!("{other:?}"),
                    })
                }
            };
            let rb = match &r {
                Value::Bool(b) => Some(*b),
                Value::Null => None,
                other => {
                    return Err(QueryError::IncompatibleOperands {
                        op: "and/or",
                        detail: format!("{other:?}"),
                    })
                }
            };
            Ok(match (op, lb, rb) {
                (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
                (And, Some(true), Some(true)) => Value::Bool(true),
                (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
                (Or, Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic stays integral except for division.
            if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
                return Ok(match op {
                    Add => Value::Int(a.wrapping_add(*b)),
                    Sub => Value::Int(a.wrapping_sub(*b)),
                    Mul => Value::Int(a.wrapping_mul(*b)),
                    Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Float(*a as f64 / *b as f64)
                        }
                    }
                    _ => unreachable!("arithmetic op"),
                });
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(QueryError::IncompatibleOperands {
                        op: "arithmetic",
                        detail: format!("{l:?} vs {r:?}"),
                    })
                }
            };
            Ok(match op {
                Add => Value::Float(a + b),
                Sub => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                _ => unreachable!("arithmetic op"),
            })
        }
        Eq | Ne | Lt | Le | Gt | Ge => match l.compare(&r) {
            None if l.is_null() || r.is_null() => Ok(Value::Null),
            None => Err(QueryError::IncompatibleOperands {
                op: "comparison",
                detail: format!("{l:?} vs {r:?}"),
            }),
            Some(ord) => Ok(Value::Bool(ord_matches(op, ord))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;

    fn table() -> Table {
        let mut t = Table::new(vec![
            ("x", DataType::Int),
            ("y", DataType::Float),
            ("s", DataType::Str),
        ]);
        t.push_row(vec![Value::Int(1), Value::Float(0.5), Value::str("a")])
            .unwrap();
        t.push_row(vec![Value::Int(2), Value::Null, Value::str("b")])
            .unwrap();
        t.push_row(vec![Value::Int(3), Value::Float(3.5), Value::Null])
            .unwrap();
        t
    }

    #[test]
    fn arithmetic_and_comparison() {
        let t = table();
        let e = col("x").mul(lit(2i64)).add(lit(1i64));
        assert_eq!(e.eval_row(&t, 0).unwrap(), Value::Int(3));
        let cmp = col("x").ge(lit(2i64));
        assert_eq!(cmp.eval_mask(&t).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn nulls_propagate() {
        let t = table();
        let e = col("y").add(lit(1.0));
        assert_eq!(e.eval_row(&t, 1).unwrap(), Value::Null);
        // Null comparison does not select.
        let m = col("y").gt(lit(0.0)).eval_mask(&t).unwrap();
        assert_eq!(m, vec![true, false, true]);
    }

    #[test]
    fn division_by_zero_is_null() {
        let t = table();
        let e = col("x").div(lit(0i64));
        assert_eq!(e.eval_row(&t, 0).unwrap(), Value::Null);
        let f = col("y").div(lit(0.0));
        assert_eq!(f.eval_row(&t, 0).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let t = table();
        // null AND false = false; null OR true = true; null AND true = null.
        let null_pred = col("y").gt(lit(100.0)); // null on row 1
        let and_false = null_pred.clone().and(lit(false));
        assert_eq!(and_false.eval_row(&t, 1).unwrap(), Value::Bool(false));
        let or_true = null_pred.clone().or(lit(true));
        assert_eq!(or_true.eval_row(&t, 1).unwrap(), Value::Bool(true));
        let and_true = null_pred.and(lit(true));
        assert_eq!(and_true.eval_row(&t, 1).unwrap(), Value::Null);
    }

    #[test]
    fn not_and_is_null() {
        let t = table();
        let e = col("s").is_null();
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false, false, true]);
        let n = col("x").eq(lit(1i64)).not();
        assert_eq!(n.eval_mask(&t).unwrap(), vec![false, true, true]);
    }

    #[test]
    fn string_comparison() {
        let t = table();
        let e = col("s").eq(lit("a"));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, false]);
        // Flipped operand order and inequality.
        let f = lit("a").lt(col("s"));
        assert_eq!(f.eval_mask(&t).unwrap(), vec![false, true, false]);
    }

    #[test]
    fn type_errors_reported() {
        let t = table();
        assert!(col("s").add(lit(1i64)).eval_row(&t, 0).is_err());
        assert!(col("x").and(lit(true)).eval_row(&t, 0).is_err());
        assert!(col("s").gt(lit(1i64)).eval_row(&t, 0).is_err());
        assert!(lit(5i64).not().eval_row(&t, 0).is_err());
        // The columnar path agrees.
        assert!(col("s").add(lit(1i64)).eval_column(&t).is_err());
        assert!(col("x").and(lit(true)).eval_mask(&t).is_err());
        assert!(col("s").gt(lit(1i64)).eval_mask(&t).is_err());
        assert!(lit(5i64).not().eval_mask(&t).is_err());
    }

    #[test]
    fn eval_column_types() {
        let t = table();
        let c = col("x").mul(lit(2i64)).eval_column(&t).unwrap();
        assert_eq!(c.data_type(), DataType::Int);
        let f = col("y").eval_column(&t).unwrap();
        assert_eq!(f.data_type(), DataType::Float);
        // Strings and literals materialize too.
        let s = col("s").eval_column(&t).unwrap();
        assert_eq!(s.data_type(), DataType::Str);
        assert_eq!(s.get(1), Value::str("b"));
        let k = lit("tag").eval_column(&t).unwrap();
        assert_eq!(k.get(2), Value::str("tag"));
    }

    #[test]
    fn all_null_expression_becomes_float_column() {
        let mut t = Table::new(vec![("x", DataType::Int)]);
        t.push_row(vec![Value::Null]).unwrap();
        let c = col("x").eval_column(&t).unwrap();
        assert_eq!(c.data_type(), DataType::Float);
        assert!(c.get(0).is_null());
    }

    #[test]
    fn bucket_floors_to_width() {
        let t = table();
        assert_eq!(
            col("x").bucket(2.0).eval_row(&t, 2).unwrap(),
            Value::Int(2),
            "3 buckets to 2"
        );
        assert_eq!(
            col("y").bucket(1.0).eval_row(&t, 2).unwrap(),
            Value::Float(3.0),
            "3.5 buckets to 3.0"
        );
        assert_eq!(col("y").bucket(1.0).eval_row(&t, 1).unwrap(), Value::Null);
        assert!(col("s").bucket(1.0).eval_row(&t, 0).is_err());
        assert!(col("x").bucket(0.0).eval_row(&t, 0).is_err());
        assert!(col("s").bucket(1.0).eval_column(&t).is_err());
        assert!(col("x").bucket(0.0).eval_column(&t).is_err());
        // Negative values floor toward -infinity, like SQL's
        // date_trunc-style bucketing.
        let mut neg = Table::new(vec![("v", DataType::Int)]);
        neg.push_row(vec![Value::Int(-3)]).unwrap();
        assert_eq!(
            col("v").bucket(2.0).eval_row(&neg, 0).unwrap(),
            Value::Int(-4)
        );
        assert_eq!(
            col("v").bucket(2.0).eval_column(&neg).unwrap().get(0),
            Value::Int(-4)
        );
    }

    #[test]
    fn int_float_mixed_arithmetic() {
        let t = table();
        let e = col("x").add(col("y"));
        assert_eq!(e.eval_row(&t, 0).unwrap(), Value::Float(1.5));
        assert_eq!(e.eval_column(&t).unwrap().get(0), Value::Float(1.5));
    }

    #[test]
    fn columnar_matches_row_reference() {
        // Mixed expression over every column type, checked cell by cell
        // against eval_row.
        let mut t = Table::new(vec![
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("s", DataType::Str),
            ("b", DataType::Bool),
        ]);
        let rows = [
            (
                Value::Int(3),
                Value::Float(0.5),
                Value::str("x"),
                Value::Bool(true),
            ),
            (
                Value::Null,
                Value::Float(-0.5),
                Value::str("y"),
                Value::Bool(false),
            ),
            (Value::Int(-2), Value::Null, Value::Null, Value::Null),
            (
                Value::Int(0),
                Value::Float(2.0),
                Value::str("x"),
                Value::Bool(true),
            ),
        ];
        for (a, b, c, d) in rows {
            t.push_row(vec![a, b, c, d]).unwrap();
        }
        let exprs = [
            col("i").add(col("f")).mul(lit(2.0)),
            col("i").sub(lit(1i64)),
            col("f").div(lit(0.0)),
            col("s").ne(lit("x")),
            col("b").or(col("f").lt(lit(0.0))),
            col("i").bucket(2.0),
            col("s").is_null().or(col("b")),
        ];
        for e in exprs {
            let column = e.eval_column(&t).unwrap();
            for row in 0..t.num_rows() {
                let reference = e.eval_row(&t, row).unwrap();
                // Int cells may be carried in a float column when the
                // reference produced all nulls; compare semantically.
                match (column.get(row), reference) {
                    (a, b) if a == b => {}
                    (a, b) => panic!("row {row}: columnar {a:?} vs reference {b:?}"),
                }
            }
        }
    }

    #[test]
    fn mask_parallel_matches_sequential() {
        let mut t = Table::new(vec![("v", DataType::Int)]);
        let rows = crate::parallel::BLOCK_ROWS + 1000;
        for i in 0..rows {
            t.push_row(vec![if i % 17 == 0 {
                Value::Null
            } else {
                Value::Int(i as i64 % 31)
            }])
            .unwrap();
        }
        let pred = col("v").gt(lit(15i64)).and(col("v").ne(lit(20i64)));
        crate::parallel::override_threads(1);
        let seq = pred.eval_mask(&t).unwrap();
        crate::parallel::override_threads(8);
        let par = pred.eval_mask(&t).unwrap();
        crate::parallel::override_threads(0);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), rows);
    }
}
