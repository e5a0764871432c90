//! Expression AST and evaluation.
//!
//! Expressions reference columns, combine them with arithmetic, compare
//! them, and connect predicates with boolean logic — the `WHERE`-clause
//! subset the paper's queries need. Nulls propagate SQL-style: any
//! operation on a null yields null, and a null predicate does not select
//! the row.
//!
//! Evaluation is columnar: an expression evaluates over a row range into
//! typed cells ([`EvalVec`]) — a column reference borrows its rows, plain
//! values plus validity mask, without copying — with literal operands
//! kept as broadcast constants and per-type kernels for the hot
//! combinations (numeric arithmetic and comparison, string-vs-literal
//! comparison via dictionary codes, boolean logic). Predicate masks
//! evaluate blocks of rows in parallel ([`crate::parallel`]); because
//! each block is a pure function of the input rows, the mask is
//! identical however many threads run. [`Expr::eval_row`] remains as the
//! row-at-a-time reference implementation.

use crate::column::{Column, PrimVec};
use crate::dict::{StrVec, NULL_CODE};
use crate::error::QueryError;
use crate::parallel;
use crate::table::Table;
use crate::value::Value;
use std::borrow::Cow;
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
            return Ok(Column::Float(PrimVec::new()));
        }
        Ok(match self.eval_vec(table, 0..n)? {
            EvalVec::Int(c) if c.any_valid() => Column::Int(c.into_prim()),
            EvalVec::Float(c) if c.any_valid() => Column::Float(c.into_prim()),
            EvalVec::Str(sv, codes) if codes.iter().any(|&c| c != NULL_CODE) => {
                Column::Str(sv.slice(0..n))
            }
            EvalVec::Bool(c) if c.any_valid() => Column::Bool(c.into_prim()),
            EvalVec::Const(Value::Int(x)) => Column::Int(vec![x; n].into()),
            EvalVec::Const(Value::Float(x)) => Column::Float(vec![x; n].into()),
            EvalVec::Const(Value::Bool(x)) => Column::Bool(vec![x; n].into()),
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
            _ => Column::Float(PrimVec::nulls(n)),
        })
    }

    /// Columnar evaluation over a row range. Pure: the result depends
    /// only on `table` and `rows`, never on scheduling. A column
    /// reference borrows the range of the column; only operators write
    /// new cells.
    fn eval_vec<'t>(
        &self,
        table: &'t Table,
        rows: Range<usize>,
    ) -> Result<EvalVec<'t>, QueryError> {
        match self {
            Expr::Column(name) => Ok(match table.column(name)? {
                Column::Int(v) => EvalVec::Int(Cells::of(v, rows)),
                Column::Float(v) => EvalVec::Float(Cells::of(v, rows)),
                Column::Str(v) => EvalVec::Str(v, &v.codes()[rows]),
                Column::Bool(v) => EvalVec::Bool(Cells::of(v, rows)),
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

/// One block of plain-value cells: a range of a column, borrowed, or an
/// operator's output. Either way a null row's value slot holds zero, as
/// in a column, so a kernel may compute on every slot and mask after;
/// unlike a column's, a borrowed block's mask may have no `false` in it.
struct Cells<'a, T: Clone> {
    values: Cow<'a, [T]>,
    valid: Option<Cow<'a, [bool]>>,
}

impl<'a, T: Copy + Default> Cells<'a, T> {
    /// The rows `rows` of a column.
    fn of(v: &'a PrimVec<T>, rows: Range<usize>) -> Cells<'a, T> {
        Cells {
            values: Cow::Borrowed(&v.values()[rows.clone()]),
            valid: v.validity().map(|mask| Cow::Borrowed(&mask[rows])),
        }
    }

    /// An operator's output.
    fn new(v: PrimVec<T>) -> Cells<'a, T> {
        let (values, valid) = v.into_parts();
        Cells {
            values: Cow::Owned(values),
            valid: valid.map(Cow::Owned),
        }
    }

    /// An operator's output from every slot's value and the rows that
    /// hold one (null slots are zeroed here).
    fn computed(values: Vec<T>, valid: Option<Vec<bool>>) -> Cells<'a, T> {
        Cells::new(PrimVec::from_parts(values, valid))
    }

    #[inline]
    fn get(&self, i: usize) -> Option<T> {
        self.valid
            .as_ref()
            .is_none_or(|mask| mask[i])
            .then(|| self.values[i])
    }

    fn values(&self) -> &[T] {
        &self.values
    }

    fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    /// True when some row holds a value.
    fn any_valid(&self) -> bool {
        self.valid
            .as_ref()
            .map_or(!self.values.is_empty(), |mask| mask.contains(&true))
    }

    /// The cells as a column's (canonical) storage.
    fn into_prim(self) -> PrimVec<T> {
        PrimVec::from_parts(self.values.into_owned(), self.valid.map(Cow::into_owned))
    }
}

/// One block's evaluation result: typed cells, or a broadcast literal
/// (length-independent).
enum EvalVec<'a> {
    Int(Cells<'a, i64>),
    Float(Cells<'a, f64>),
    /// A string column's dictionary and the block's codes.
    Str(&'a StrVec, &'a [u32]),
    Bool(Cells<'a, bool>),
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

impl EvalVec<'_> {
    #[inline]
    fn cell(&self, i: usize) -> Cell<'_> {
        match self {
            EvalVec::Int(c) => c.get(i).map_or(Cell::Null, Cell::Int),
            EvalVec::Float(c) => c.get(i).map_or(Cell::Null, Cell::Float),
            EvalVec::Str(sv, codes) => match codes[i] {
                NULL_CODE => Cell::Null,
                code => Cell::Str(sv.string_of(code)),
            },
            EvalVec::Bool(c) => c.get(i).map_or(Cell::Null, Cell::Bool),
            EvalVec::Const(v) => match v {
                Value::Null => Cell::Null,
                Value::Int(x) => Cell::Int(*x),
                Value::Float(x) => Cell::Float(*x),
                Value::Str(s) => Cell::Str(s),
                Value::Bool(b) => Cell::Bool(*b),
            },
        }
    }

    /// Rows to scan for a first non-null cell: the block's, or one for a
    /// literal.
    fn rows(&self) -> usize {
        match self {
            EvalVec::Int(c) => c.values().len(),
            EvalVec::Float(c) => c.values().len(),
            EvalVec::Str(_, codes) => codes.len(),
            EvalVec::Bool(c) => c.values().len(),
            EvalVec::Const(_) => 1,
        }
    }

    /// The validity mask of typed cells; `None` for mask-free cells, a
    /// string block or a literal.
    fn validity(&self) -> Option<&[bool]> {
        match self {
            EvalVec::Int(c) => c.validity(),
            EvalVec::Float(c) => c.validity(),
            EvalVec::Bool(c) => c.validity(),
            EvalVec::Str(..) | EvalVec::Const(_) => None,
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

/// Rows where both operands hold a value; `None` when neither has a mask.
fn both_valid(l: Option<&[bool]>, r: Option<&[bool]>) -> Option<Vec<bool>> {
    match (l, r) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(&x, &y)| x & y).collect()),
    }
}

/// Nulls every row whose divisor is zero (`nonzero` false), creating the
/// mask on the first.
fn null_where_zero(valid: &mut Option<Vec<bool>>, nonzero: Vec<bool>) {
    if nonzero.contains(&false) {
        match valid {
            Some(mask) => mask.iter_mut().zip(nonzero).for_each(|(ok, nz)| *ok &= nz),
            None => *valid = Some(nonzero),
        }
    }
}

/// One operand of a row kernel: a block's value slots, or a literal in
/// every row. The kernels are generic over it and the `with_*` macros
/// below match an operand's kind once per block, so each kernel's row
/// loop is straight-line code.
trait Operand<T>: Copy {
    /// The first `len` rows' values.
    fn rows(self, len: usize) -> impl Iterator<Item = T>;
}

impl<T: Copy> Operand<T> for &[T] {
    fn rows(self, len: usize) -> impl Iterator<Item = T> {
        self[..len].iter().copied()
    }
}

/// A literal: the same value in every row.
#[derive(Clone, Copy)]
struct Splat<T>(T);

impl<T: Copy> Operand<T> for Splat<T> {
    fn rows(self, len: usize) -> impl Iterator<Item = T> {
        std::iter::repeat_n(self.0, len)
    }
}

/// An int block read as floats.
#[derive(Clone, Copy)]
struct Widened<'a>(&'a [i64]);

impl Operand<f64> for Widened<'_> {
    fn rows(self, len: usize) -> impl Iterator<Item = f64> {
        self.0[..len].iter().map(|&x| x as f64)
    }
}

/// A bool block and its validity mask, read as `(value, valid)`.
#[derive(Clone, Copy)]
struct Masked<'a>(&'a [bool], &'a [bool]);

impl Operand<(bool, bool)> for Masked<'_> {
    fn rows(self, len: usize) -> impl Iterator<Item = (bool, bool)> {
        self.0[..len]
            .iter()
            .copied()
            .zip(self.1[..len].iter().copied())
    }
}

/// A bool block with no null, read as `(value, true)`.
#[derive(Clone, Copy)]
struct AllValid<'a>(&'a [bool]);

impl Operand<(bool, bool)> for AllValid<'_> {
    fn rows(self, len: usize) -> impl Iterator<Item = (bool, bool)> {
        self.0[..len].iter().map(|&b| (b, true))
    }
}

/// `f` over the two operands' rows, collected.
#[inline]
fn zip_rows<T, U, R, C: FromIterator<R>>(
    len: usize,
    a: impl Operand<T>,
    b: impl Operand<U>,
    mut f: impl FnMut(T, U) -> R,
) -> C {
    a.rows(len).zip(b.rows(len)).map(|(x, y)| f(x, y)).collect()
}

/// Numeric view of every value slot: ints widen to `f64`.
enum NumView<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Const(f64),
}

/// Evaluates `$body` with `$x` bound to a [`NumView`] as an
/// `Operand<f64>` of its kind; the body is compiled once per kind.
macro_rules! with_num {
    ($view:expr, |$x:ident| $body:expr) => {
        match $view {
            NumView::Int(v) => {
                let $x = Widened(v);
                $body
            }
            NumView::Float(v) => {
                let $x = v;
                $body
            }
            NumView::Const(c) => {
                let $x = Splat(c);
                $body
            }
        }
    };
}

/// Numeric view when the operand is statically numeric; `None` otherwise
/// (the caller falls back to the generic cell path).
fn num_view<'v>(v: &'v EvalVec<'_>) -> Option<NumView<'v>> {
    match v {
        EvalVec::Int(c) => Some(NumView::Int(c.values())),
        EvalVec::Float(c) => Some(NumView::Float(c.values())),
        EvalVec::Const(Value::Int(x)) => Some(NumView::Const(*x as f64)),
        EvalVec::Const(Value::Float(x)) => Some(NumView::Const(*x)),
        _ => None,
    }
}

/// Integer view of every value slot (for int-preserving arithmetic).
enum IntView<'a> {
    Vec(&'a [i64]),
    Const(i64),
}

/// [`with_num`] for an [`IntView`], as an `Operand<i64>`.
macro_rules! with_int {
    ($view:expr, |$x:ident| $body:expr) => {
        match $view {
            IntView::Vec(v) => {
                let $x = v;
                $body
            }
            IntView::Const(c) => {
                let $x = Splat(c);
                $body
            }
        }
    };
}

fn int_view<'v>(v: &'v EvalVec<'_>) -> Option<IntView<'v>> {
    match v {
        EvalVec::Int(c) => Some(IntView::Vec(c.values())),
        EvalVec::Const(Value::Int(x)) => Some(IntView::Const(*x)),
        _ => None,
    }
}

/// Boolean view for `AND`/`OR` operands. Errors when the operand can
/// produce a non-null non-boolean (matching the row-at-a-time semantics,
/// where such a row errors regardless of the other operand).
enum BoolView<'a> {
    /// Values and validity.
    Vec(&'a [bool], Option<&'a [bool]>),
    Const(Option<bool>),
}

/// [`with_num`] for a [`BoolView`], as an `Operand<(bool, bool)>` of each
/// row's value slot (`false` for a null) and validity.
macro_rules! with_bool {
    ($view:expr, |$x:ident| $body:expr) => {
        match $view {
            BoolView::Vec(v, Some(mask)) => {
                let $x = Masked(v, mask);
                $body
            }
            BoolView::Vec(v, None) => {
                let $x = AllValid(v);
                $body
            }
            BoolView::Const(b) => {
                let $x = Splat((b.unwrap_or(false), b.is_some()));
                $body
            }
        }
    };
}

fn bool_view<'v>(
    v: &'v EvalVec<'_>,
    len: usize,
    op: &'static str,
) -> Result<BoolView<'v>, QueryError> {
    match v {
        EvalVec::Bool(c) => Ok(BoolView::Vec(c.values(), c.validity())),
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

fn eval_not(v: EvalVec<'_>) -> Result<EvalVec<'_>, QueryError> {
    match v {
        EvalVec::Bool(c) => Ok(EvalVec::Bool(Cells::computed(
            c.values().iter().map(|&b| !b).collect(),
            c.validity().map(<[bool]>::to_vec),
        ))),
        EvalVec::Const(Value::Bool(b)) => Ok(EvalVec::Const(Value::Bool(!b))),
        EvalVec::Const(Value::Null) => Ok(EvalVec::Const(Value::Null)),
        other => match other.first_non_null(other.rows()) {
            None => Ok(EvalVec::Const(Value::Null)),
            Some(cell) => Err(QueryError::IncompatibleOperands {
                op: "not",
                detail: format!("{:?}", cell.to_value()),
            }),
        },
    }
}

fn eval_is_null(v: EvalVec<'_>) -> EvalVec<'_> {
    let values: Vec<bool> = match &v {
        EvalVec::Str(_, codes) => codes.iter().map(|&c| c == NULL_CODE).collect(),
        EvalVec::Const(c) => return EvalVec::Const(Value::Bool(c.is_null())),
        cells => match cells.validity() {
            Some(valid) => valid.iter().map(|&ok| !ok).collect(),
            None => vec![false; cells.rows()],
        },
    };
    EvalVec::Bool(Cells::new(values.into()))
}

// Same round-trip-checked truncation as `bucket_int` above.
#[allow(clippy::cast_possible_truncation)]
fn eval_bucket(v: EvalVec<'_>, width: f64) -> Result<EvalVec<'_>, QueryError> {
    match v {
        EvalVec::Int(c) => {
            let w = width as i64;
            let valid = c.validity().map(<[bool]>::to_vec);
            if w >= 1 && (width - w as f64).abs() < 1e-9 {
                Ok(EvalVec::Int(Cells::computed(
                    c.values().iter().map(|&i| i.div_euclid(w) * w).collect(),
                    valid,
                )))
            } else {
                Ok(EvalVec::Float(Cells::computed(
                    c.values()
                        .iter()
                        .map(|&i| bucket_f64(i as f64, width))
                        .collect(),
                    valid,
                )))
            }
        }
        EvalVec::Float(c) => Ok(EvalVec::Float(Cells::computed(
            c.values().iter().map(|&x| bucket_f64(x, width)).collect(),
            c.validity().map(<[bool]>::to_vec),
        ))),
        EvalVec::Const(Value::Null) => Ok(EvalVec::Const(Value::Null)),
        EvalVec::Const(Value::Int(i)) => Ok(EvalVec::Const(bucket_int(i, width))),
        EvalVec::Const(Value::Float(x)) => Ok(EvalVec::Const(Value::Float(bucket_f64(x, width)))),
        other => match other.first_non_null(other.rows()) {
            None => Ok(EvalVec::Const(Value::Null)),
            Some(cell) => Err(QueryError::IncompatibleOperands {
                op: "bucket",
                detail: format!("{:?}", cell.to_value()),
            }),
        },
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

/// String column vs string literal: one answer per dictionary code, then
/// an integer scan (`flipped` when the literal is the left operand).
fn str_const_cmp<'a>(op: BinOp, sv: &StrVec, codes: &[u32], s: &str, flipped: bool) -> EvalVec<'a> {
    let hits: Vec<bool> = (0..crate::cast::code32(sv.dict_len()))
        .map(|c| {
            let ord = sv.string_of(c).cmp(s);
            ord_matches(op, if flipped { ord.reverse() } else { ord })
        })
        .collect();
    // Only the null code is past the end of `hits`.
    let mut any_null = false;
    let values: Vec<bool> = codes
        .iter()
        .map(|&c| {
            hits.get(c as usize).copied().unwrap_or_else(|| {
                any_null = true;
                false
            })
        })
        .collect();
    let valid = any_null.then(|| codes.iter().map(|&c| c != NULL_CODE).collect());
    EvalVec::Bool(Cells::computed(values, valid))
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
fn generic_arith<'a>(
    l: &EvalVec<'_>,
    r: &EvalVec<'_>,
    len: usize,
) -> Result<EvalVec<'a>, QueryError> {
    for i in 0..len {
        let (cl, cr) = (l.cell(i), r.cell(i));
        if !cl.is_null() && !cr.is_null() {
            return Err(incompatible("arithmetic", cl, cr));
        }
    }
    Ok(EvalVec::Float(Cells::new(PrimVec::nulls(len))))
}

/// Generic comparison fallback, mirroring `Value::compare` cell-wise.
fn generic_cmp<'a>(
    op: BinOp,
    l: &EvalVec<'_>,
    r: &EvalVec<'_>,
    len: usize,
) -> Result<EvalVec<'a>, QueryError> {
    let mut out = PrimVec::with_capacity(len);
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
    Ok(EvalVec::Bool(Cells::new(out)))
}

fn eval_binop_vec<'a>(
    op: BinOp,
    l: EvalVec<'a>,
    r: EvalVec<'a>,
    len: usize,
) -> Result<EvalVec<'a>, QueryError> {
    use BinOp::*;
    // Two literals fold to a literal via the scalar engine.
    if let (EvalVec::Const(a), EvalVec::Const(b)) = (&l, &r) {
        return Ok(EvalVec::Const(eval_binop(op, a.clone(), b.clone())?));
    }
    match op {
        And | Or => {
            let lv = bool_view(&l, len, "and/or")?;
            let rv = bool_view(&r, len, "and/or")?;
            // SQL three-valued logic, without a branch: a null's value
            // slot is `false`, so a value alone means "known true".
            let (values, valid): (Vec<bool>, Vec<bool>) = with_bool!(lv, |a| {
                with_bool!(rv, |b| if op == And {
                    zip_rows(len, a, b, |(x, x_ok), (y, y_ok): (bool, bool)| {
                        let known_true = x & y;
                        (known_true, known_true | (x_ok & !x) | (y_ok & !y))
                    })
                } else {
                    zip_rows(len, a, b, |(x, x_ok), (y, y_ok): (bool, bool)| {
                        let known_true = x | y;
                        (known_true, known_true | (x_ok & !x & y_ok & !y))
                    })
                })
            });
            Ok(EvalVec::Bool(Cells::computed(values, Some(valid))))
        }
        Add | Sub | Mul | Div => {
            // A null literal nulls every row, whatever the other side is.
            if l.is_const_null() || r.is_const_null() {
                return Ok(EvalVec::Const(Value::Null));
            }
            let mut valid = both_valid(l.validity(), r.validity());
            if let (Some(a), Some(b)) = (int_view(&l), int_view(&r)) {
                // Integer arithmetic stays integral except for division.
                return Ok(if op == Div {
                    let (values, nonzero) = with_int!(a, |x| {
                        with_int!(b, |y| zip_rows(len, x, y, |x: i64, y: i64| {
                            (x as f64 / y as f64, y != 0)
                        }))
                    });
                    null_where_zero(&mut valid, nonzero);
                    EvalVec::Float(Cells::computed(values, valid))
                } else {
                    let values = with_int!(a, |x| {
                        with_int!(b, |y| match op {
                            Add => zip_rows(len, x, y, i64::wrapping_add),
                            Sub => zip_rows(len, x, y, i64::wrapping_sub),
                            _ => zip_rows(len, x, y, i64::wrapping_mul),
                        })
                    });
                    EvalVec::Int(Cells::computed(values, valid))
                });
            }
            if let (Some(a), Some(b)) = (num_view(&l), num_view(&r)) {
                let values = with_num!(a, |x| {
                    with_num!(b, |y| match op {
                        Add => zip_rows(len, x, y, |x: f64, y| x + y),
                        Sub => zip_rows(len, x, y, |x: f64, y| x - y),
                        Mul => zip_rows(len, x, y, |x: f64, y| x * y),
                        _ => {
                            let (values, nonzero) =
                                zip_rows(len, x, y, |x: f64, y: f64| (x / y, y != 0.0));
                            null_where_zero(&mut valid, nonzero);
                            values
                        }
                    })
                });
                return Ok(EvalVec::Float(Cells::computed(values, valid)));
            }
            generic_arith(&l, &r, len)
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            // A null literal nulls every comparison.
            if l.is_const_null() || r.is_const_null() {
                return Ok(EvalVec::Const(Value::Null));
            }
            if let (EvalVec::Str(sv, codes), EvalVec::Const(Value::Str(s))) = (&l, &r) {
                return Ok(str_const_cmp(op, sv, codes, s, false));
            }
            if let (EvalVec::Const(Value::Str(s)), EvalVec::Str(sv, codes)) = (&l, &r) {
                return Ok(str_const_cmp(op, sv, codes, s, true));
            }
            if let (Some(a), Some(b)) = (num_view(&l), num_view(&r)) {
                let valid = both_valid(l.validity(), r.validity());
                // The orderings `op` accepts; a NaN has none of them.
                let [lt, eq, gt] = [Ordering::Less, Ordering::Equal, Ordering::Greater]
                    .map(|o| ord_matches(op, o));
                let mut any_nan = false;
                // Exact `==` is what `partial_cmp` answering `Equal` means.
                #[allow(clippy::float_cmp)]
                let out = with_num!(a, |x| {
                    with_num!(b, |y| zip_rows(len, x, y, |x: f64, y: f64| {
                        any_nan |= x.is_nan() | y.is_nan();
                        (lt & (x < y)) | (eq & (x == y)) | (gt & (x > y))
                    }))
                });
                // NaN comparisons error, as in the scalar path; a null row
                // compares nothing.
                let is_nan = |c: Cell<'_>| c.as_f64().is_some_and(f64::is_nan);
                let nan_row = any_nan
                    .then(|| {
                        (0..len).find(|&i| {
                            valid.as_ref().is_none_or(|mask| mask[i])
                                && (is_nan(l.cell(i)) || is_nan(r.cell(i)))
                        })
                    })
                    .flatten();
                if let Some(i) = nan_row {
                    return Err(incompatible("comparison", l.cell(i), r.cell(i)));
                }
                return Ok(EvalVec::Bool(Cells::computed(out, valid)));
            }
            generic_cmp(op, &l, &r, len)
        }
    }
}

/// Converts one block's predicate result to a mask (null ⇒ `false`).
fn mask_block(v: EvalVec<'_>, len: usize) -> Result<Vec<bool>, QueryError> {
    match v {
        // A null row's value slot holds `false`.
        EvalVec::Bool(c) => Ok(c.values.into_owned()),
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
    fn columnar_three_valued_logic_matches_row_reference() {
        // Every (true, false, null) pair, column against column and
        // against each literal.
        let cells = [Value::Bool(true), Value::Bool(false), Value::Null];
        let mut t = Table::new(vec![("a", DataType::Bool), ("b", DataType::Bool)]);
        for a in &cells {
            for b in &cells {
                t.push_row(vec![a.clone(), b.clone()]).unwrap();
            }
        }
        let mut exprs = vec![col("a").and(col("b")), col("a").or(col("b"))];
        for c in cells {
            exprs.push(col("a").and(lit(c.clone())));
            exprs.push(lit(c).or(col("b")));
        }
        for e in exprs {
            let column = e.eval_column(&t).unwrap();
            let mask = e.eval_mask(&t).unwrap();
            assert_eq!(mask.len(), t.num_rows());
            for (row, &selected) in mask.iter().enumerate() {
                let want = e.eval_row(&t, row).unwrap();
                // An all-null result is a float column, so compare cells.
                assert_eq!(column.get(row).is_null(), want.is_null(), "{e:?} row {row}");
                if !want.is_null() {
                    assert_eq!(column.get(row), want, "{e:?} row {row}");
                }
                assert_eq!(selected, want == Value::Bool(true), "{e:?} row {row}");
            }
        }
    }

    #[test]
    fn a_nan_in_a_valid_row_errors_for_every_operand_pair() {
        // Row 1 holds the NaN (or meets the NaN literal) with both sides
        // valid; row 0 is fine, so the error names row 1's cells.
        let t = Table::from_columns(vec![
            ("f", Column::Float(vec![1.0, f64::NAN].into())),
            ("g", Column::Float(vec![2.0, 3.0].into())),
            ("i", Column::Int(vec![1, 2].into())),
        ])
        .unwrap();
        let nan = || lit(f64::NAN);
        for (e, detail) in [
            (col("f").lt(lit(1.0)), "Float(NaN) vs Float(1.0)"),
            (lit(1.0).lt(col("f")), "Float(1.0) vs Float(NaN)"),
            (col("f").lt(col("g")), "Float(NaN) vs Float(3.0)"),
            (col("f").ge(lit(1i64)), "Float(NaN) vs Int(1)"),
            (lit(1i64).ge(col("f")), "Int(1) vs Float(NaN)"),
            (col("i").eq(col("f")), "Int(2) vs Float(NaN)"),
            (col("g").ne(nan()), "Float(2.0) vs Float(NaN)"),
            (nan().gt(col("i")), "Float(NaN) vs Int(1)"),
        ] {
            let want = QueryError::IncompatibleOperands {
                op: "comparison",
                detail: detail.to_string(),
            };
            assert_eq!(e.eval_mask(&t).unwrap_err(), want, "{e:?}");
            let first_error = (0..t.num_rows()).find_map(|r| e.eval_row(&t, r).err());
            assert_eq!(first_error, Some(want), "{e:?} row at a time");
        }
    }

    #[test]
    fn a_null_row_never_errors() {
        // The NaN in `f` meets only null rows, and the NaN literal only
        // all-null columns.
        let t = Table::from_columns(vec![
            ("f", Column::Float(vec![f64::NAN, 1.0].into())),
            ("h", Column::Float([None, Some(2.0)].into_iter().collect())),
            ("j", Column::Int([None, Some(3)].into_iter().collect())),
            ("n", Column::Float(PrimVec::nulls(2))),
            ("m", Column::Int(PrimVec::nulls(2))),
        ])
        .unwrap();
        for (e, want) in [
            (col("f").lt(col("h")), [None, Some(true)]),
            (col("j").le(col("f")), [None, Some(false)]),
            (col("n").eq(lit(f64::NAN)), [None, None]),
            (lit(f64::NAN).gt(col("m")), [None, None]),
            (col("m").ne(col("f")), [None, None]),
        ] {
            let got = e.eval_column(&t).unwrap();
            let want: Vec<Value> = want
                .iter()
                .map(|&b| b.map_or(Value::Null, Value::Bool))
                .collect();
            assert_eq!(got.iter_values().collect::<Vec<_>>(), want, "{e:?}");
            for (r, w) in want.iter().enumerate() {
                assert_eq!(&e.eval_row(&t, r).unwrap(), w, "{e:?} row {r}");
            }
        }
    }

    #[test]
    fn negative_zero_equals_zero_in_every_operand_pair() {
        let t = Table::from_columns(vec![
            ("z", Column::Float(vec![-0.0, 0.0].into())),
            ("i", Column::Int(vec![0, 0].into())),
        ])
        .unwrap();
        for e in [
            col("z").eq(lit(0.0)),
            lit(-0.0).eq(col("z")),
            col("z").eq(col("i")),
            col("i").eq(lit(-0.0)),
            col("z").le(lit(0i64)),
            col("z").ge(col("z")),
            col("z").ne(lit(0.0)).not(),
        ] {
            assert_eq!(e.eval_mask(&t).unwrap(), [true, true], "{e:?}");
            for r in 0..2 {
                assert_eq!(e.eval_row(&t, r).unwrap(), Value::Bool(true), "{e:?}");
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
