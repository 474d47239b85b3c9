//! The monoid framework (ViDa §3.2, Table 1).
//!
//! A monoid `(⊕, Z⊕)` is an associative binary *merge* with identity `Z⊕`.
//! Collection monoids additionally carry a *unit* function `U⊕(x)` building a
//! singleton collection. Comprehensions `⊕{ e | q1..qn }` evaluate `e` under
//! each binding produced by the qualifiers and fold the results with `⊕`.
//!
//! Primitive monoids here: `sum`, `prod`, `count`, `max`, `min`, `avg`
//! (tracked as a (sum,count) pair internally), `and` (∧), `or` (∨).
//! Collection monoids: `set`, `bag`, `list`, `array`.
//!
//! Properties (tested, incl. by proptest in this crate):
//! - all monoids: associativity, left/right identity;
//! - commutative monoids: `sum, prod, count, max, min, and, or, set, bag`;
//! - idempotent monoids: `max, min, and, or, set`.
//!
//! The optimizer relies on these properties: e.g. a non-commutative
//! accumulator (list) forbids generator reordering, and idempotence is what
//! makes duplicate elimination for sets correct.

use crate::error::{Result, VidaError};
use crate::value::Value;
use std::fmt;

/// Kinds of collection monoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectionKind {
    Set,
    Bag,
    List,
    Array,
}

impl CollectionKind {
    pub fn name(&self) -> &'static str {
        match self {
            CollectionKind::Set => "set",
            CollectionKind::Bag => "bag",
            CollectionKind::List => "list",
            CollectionKind::Array => "array",
        }
    }

    /// Commutative merge? (element order irrelevant)
    pub fn commutative(&self) -> bool {
        matches!(self, CollectionKind::Set | CollectionKind::Bag)
    }

    /// Idempotent merge? (duplicates collapse)
    pub fn idempotent(&self) -> bool {
        matches!(self, CollectionKind::Set)
    }
}

/// Primitive (scalar-valued) monoids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveMonoid {
    Sum,
    Prod,
    Count,
    Max,
    Min,
    Avg,
    /// Boolean conjunction (universal quantification).
    All,
    /// Boolean disjunction (existential quantification).
    Any,
}

impl PrimitiveMonoid {
    pub fn name(&self) -> &'static str {
        match self {
            PrimitiveMonoid::Sum => "sum",
            PrimitiveMonoid::Prod => "prod",
            PrimitiveMonoid::Count => "count",
            PrimitiveMonoid::Max => "max",
            PrimitiveMonoid::Min => "min",
            PrimitiveMonoid::Avg => "avg",
            PrimitiveMonoid::All => "all",
            PrimitiveMonoid::Any => "any",
        }
    }

    /// Parse a monoid name as it appears after `yield`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sum" => PrimitiveMonoid::Sum,
            "prod" => PrimitiveMonoid::Prod,
            "count" => PrimitiveMonoid::Count,
            "max" => PrimitiveMonoid::Max,
            "min" => PrimitiveMonoid::Min,
            "avg" => PrimitiveMonoid::Avg,
            "all" | "and" => PrimitiveMonoid::All,
            "any" | "or" | "some" => PrimitiveMonoid::Any,
            _ => return None,
        })
    }

    pub fn commutative(&self) -> bool {
        true // every primitive monoid here is commutative
    }

    pub fn idempotent(&self) -> bool {
        matches!(
            self,
            PrimitiveMonoid::Max
                | PrimitiveMonoid::Min
                | PrimitiveMonoid::All
                | PrimitiveMonoid::Any
        )
    }
}

/// A monoid: either primitive (scalar accumulator) or a collection kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Monoid {
    Primitive(PrimitiveMonoid),
    Collection(CollectionKind),
}

impl Monoid {
    /// Parse a monoid name (`sum`, `bag`, ...).
    pub fn from_name(name: &str) -> Option<Self> {
        if let Some(p) = PrimitiveMonoid::from_name(name) {
            return Some(Monoid::Primitive(p));
        }
        Some(Monoid::Collection(match name {
            "set" => CollectionKind::Set,
            "bag" => CollectionKind::Bag,
            "list" => CollectionKind::List,
            "array" => CollectionKind::Array,
            _ => return None,
        }))
    }

    pub fn name(&self) -> &'static str {
        match self {
            Monoid::Primitive(p) => p.name(),
            Monoid::Collection(k) => k.name(),
        }
    }

    pub fn commutative(&self) -> bool {
        match self {
            Monoid::Primitive(p) => p.commutative(),
            Monoid::Collection(k) => k.commutative(),
        }
    }

    pub fn idempotent(&self) -> bool {
        match self {
            Monoid::Primitive(p) => p.idempotent(),
            Monoid::Collection(k) => k.idempotent(),
        }
    }

    /// The zero element `Z⊕`.
    ///
    /// `Avg` uses an internal `(sum, count)` record accumulator that
    /// [`Monoid::finalize`] converts into a float.
    pub fn zero(&self) -> Value {
        match self {
            Monoid::Primitive(PrimitiveMonoid::Sum) => Value::Int(0),
            Monoid::Primitive(PrimitiveMonoid::Prod) => Value::Int(1),
            Monoid::Primitive(PrimitiveMonoid::Count) => Value::Int(0),
            Monoid::Primitive(PrimitiveMonoid::Max) => Value::Null,
            Monoid::Primitive(PrimitiveMonoid::Min) => Value::Null,
            Monoid::Primitive(PrimitiveMonoid::Avg) => Monoid::avg_accumulator(0.0, 0),
            Monoid::Primitive(PrimitiveMonoid::All) => Value::Bool(true),
            Monoid::Primitive(PrimitiveMonoid::Any) => Value::Bool(false),
            Monoid::Collection(k) => Value::Collection(*k, Vec::new()),
        }
    }

    /// The `avg` accumulator carrier for a running `(sum, count)`: the
    /// record [`Monoid::zero`], [`Monoid::unit`] and [`Monoid::merge`]
    /// produce and [`Monoid::finalize`] divides out. Executors that fold
    /// `avg` with a typed pair wrap it through here.
    pub fn avg_accumulator(sum: f64, count: i64) -> Value {
        Value::record([("__sum", Value::Float(sum)), ("__count", Value::Int(count))])
    }

    /// The unit function `U⊕(x)` lifting one element into the monoid carrier.
    pub fn unit(&self, v: Value) -> Value {
        match self {
            Monoid::Primitive(PrimitiveMonoid::Count) => Value::Int(1),
            Monoid::Primitive(PrimitiveMonoid::Avg) => {
                Monoid::avg_accumulator(v.as_f64().unwrap_or(0.0), 1)
            }
            Monoid::Primitive(_) => v,
            Monoid::Collection(CollectionKind::Set) => Value::set(vec![v]),
            Monoid::Collection(k) => Value::Collection(*k, vec![v]),
        }
    }

    /// The merge function `a ⊕ b`.
    pub fn merge(&self, a: Value, b: Value) -> Result<Value> {
        use PrimitiveMonoid::*;
        match self {
            Monoid::Primitive(Sum) => {
                numeric_binop(a, b, "sum", |x, y| x + y, |x, y| x.checked_add(y))
            }
            Monoid::Primitive(Prod) => {
                numeric_binop(a, b, "prod", |x, y| x * y, |x, y| x.checked_mul(y))
            }
            Monoid::Primitive(Count) => {
                numeric_binop(a, b, "count", |x, y| x + y, |x, y| x.checked_add(y))
            }
            Monoid::Primitive(Max) => Ok(match (a, b) {
                (Value::Null, x) | (x, Value::Null) => x,
                (x, y) => {
                    if x.total_cmp(&y) == std::cmp::Ordering::Less {
                        y
                    } else {
                        x
                    }
                }
            }),
            Monoid::Primitive(Min) => Ok(match (a, b) {
                (Value::Null, x) | (x, Value::Null) => x,
                (x, y) => {
                    if x.total_cmp(&y) == std::cmp::Ordering::Greater {
                        y
                    } else {
                        x
                    }
                }
            }),
            Monoid::Primitive(Avg) => {
                let (s1, c1) = avg_parts(&a)?;
                let (s2, c2) = avg_parts(&b)?;
                Ok(Monoid::avg_accumulator(s1 + s2, c1 + c2))
            }
            Monoid::Primitive(All) => bool_binop(a, b, "all", |x, y| x && y),
            Monoid::Primitive(Any) => bool_binop(a, b, "any", |x, y| x || y),
            Monoid::Collection(kind) => {
                let mut xs = into_elements(a, *kind)?;
                let ys = into_elements(b, *kind)?;
                xs.extend(ys);
                Ok(match kind {
                    CollectionKind::Set => Value::set(xs),
                    k => Value::Collection(*k, xs),
                })
            }
        }
    }

    /// Convert an internal accumulator into the user-visible result
    /// (identity except for `avg`, and `max`/`min` of empty input → `Null`).
    pub fn finalize(&self, acc: Value) -> Result<Value> {
        match self {
            Monoid::Primitive(PrimitiveMonoid::Avg) => {
                let (s, c) = avg_parts(&acc)?;
                if c == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Float(s / c as f64))
                }
            }
            _ => Ok(acc),
        }
    }

    /// Fold an iterator of elements through `unit` + `merge` + `finalize`.
    pub fn fold<I: IntoIterator<Item = Value>>(&self, items: I) -> Result<Value> {
        let mut acc = self.zero();
        for item in items {
            acc = self.merge(acc, self.unit(item))?;
        }
        self.finalize(acc)
    }

    /// Merge per-partition accumulators **in the order given** (no
    /// `finalize`).
    ///
    /// This is the deterministic reduction step of parallel folds: each
    /// worker folds its morsels into partial accumulators, and the partials
    /// merge here in morsel order — so non-commutative monoids (`list`) see
    /// exactly the sequential element order, and any worker count produces
    /// the same merge tree. The first partial seeds the accumulator (rather
    /// than `zero`), so a single-partial merge is bit-identical to that
    /// partial — including float payloads.
    pub fn merge_partials<I: IntoIterator<Item = Value>>(&self, partials: I) -> Result<Value> {
        let mut iter = partials.into_iter();
        let mut acc = match iter.next() {
            Some(first) => first,
            None => return Ok(self.zero()),
        };
        for p in iter {
            acc = self.merge(acc, p)?;
        }
        Ok(acc)
    }
}

impl fmt::Display for Monoid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

fn avg_parts(v: &Value) -> Result<(f64, i64)> {
    // A bare numeric value may reach the accumulator when merges mix units
    // (e.g. during parallel partial aggregation); treat it as (x, 1).
    if let Some(x) = v.as_f64() {
        if !matches!(v, Value::Record(_)) {
            return Ok((x, 1));
        }
    }
    let s = v
        .field("__sum")
        .and_then(Value::as_f64)
        .ok_or_else(|| VidaError::Exec("avg accumulator missing __sum".into()))?;
    let c = v
        .field("__count")
        .and_then(Value::as_i64)
        .ok_or_else(|| VidaError::Exec("avg accumulator missing __count".into()))?;
    Ok((s, c))
}

fn numeric_binop(
    a: Value,
    b: Value,
    name: &str,
    ff: fn(f64, f64) -> f64,
    fi: fn(i64, i64) -> Option<i64>,
) -> Result<Value> {
    match (&a, &b) {
        (Value::Int(x), Value::Int(y)) => fi(*x, *y)
            .map(Value::Int)
            .ok_or_else(|| VidaError::Exec(format!("integer overflow in {name}"))),
        _ => {
            let x = a
                .as_f64()
                .ok_or_else(|| VidaError::Exec(format!("{name}: non-numeric {a}")))?;
            let y = b
                .as_f64()
                .ok_or_else(|| VidaError::Exec(format!("{name}: non-numeric {b}")))?;
            Ok(Value::Float(ff(x, y)))
        }
    }
}

fn bool_binop(a: Value, b: Value, name: &str, f: fn(bool, bool) -> bool) -> Result<Value> {
    let x = a
        .as_bool()
        .ok_or_else(|| VidaError::Exec(format!("{name}: non-boolean {a}")))?;
    let y = b
        .as_bool()
        .ok_or_else(|| VidaError::Exec(format!("{name}: non-boolean {b}")))?;
    Ok(Value::Bool(f(x, y)))
}

fn into_elements(v: Value, kind: CollectionKind) -> Result<Vec<Value>> {
    match v {
        Value::Collection(_, items) => Ok(items),
        Value::Array { data, .. } => Ok(data),
        other => Err(VidaError::Exec(format!(
            "{} merge expects a collection, got {other}",
            kind.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_monoids() -> Vec<Monoid> {
        vec![
            Monoid::Primitive(PrimitiveMonoid::Sum),
            Monoid::Primitive(PrimitiveMonoid::Prod),
            Monoid::Primitive(PrimitiveMonoid::Count),
            Monoid::Primitive(PrimitiveMonoid::Max),
            Monoid::Primitive(PrimitiveMonoid::Min),
            Monoid::Primitive(PrimitiveMonoid::Avg),
            Monoid::Primitive(PrimitiveMonoid::All),
            Monoid::Primitive(PrimitiveMonoid::Any),
            Monoid::Collection(CollectionKind::Set),
            Monoid::Collection(CollectionKind::Bag),
            Monoid::Collection(CollectionKind::List),
            Monoid::Collection(CollectionKind::Array),
        ]
    }

    fn sample_for(m: &Monoid) -> Vec<Value> {
        match m {
            Monoid::Primitive(PrimitiveMonoid::All) | Monoid::Primitive(PrimitiveMonoid::Any) => {
                vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)]
            }
            _ => vec![Value::Int(3), Value::Int(1), Value::Int(2)],
        }
    }

    #[test]
    fn left_right_identity() {
        for m in all_monoids() {
            for x in sample_for(&m) {
                let u = m.unit(x);
                let l = m.merge(m.zero(), u.clone()).unwrap();
                let r = m.merge(u.clone(), m.zero()).unwrap();
                assert!(l.sem_eq(&u), "{m}: left identity failed");
                assert!(r.sem_eq(&u), "{m}: right identity failed");
            }
        }
    }

    #[test]
    fn associativity() {
        for m in all_monoids() {
            let xs = sample_for(&m);
            let (a, b, c) = (
                m.unit(xs[0].clone()),
                m.unit(xs[1].clone()),
                m.unit(xs[2].clone()),
            );
            let ab_c = m
                .merge(m.merge(a.clone(), b.clone()).unwrap(), c.clone())
                .unwrap();
            let a_bc = m.merge(a, m.merge(b, c).unwrap()).unwrap();
            assert!(ab_c.sem_eq(&a_bc), "{m}: associativity failed");
        }
    }

    #[test]
    fn fold_matches_expected() {
        let xs = vec![Value::Int(3), Value::Int(1), Value::Int(2)];
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Sum)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Count)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Max)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Min)
                .fold(xs.clone())
                .unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Avg)
                .fold(xs.clone())
                .unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Prod).fold(xs).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn empty_folds() {
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Sum)
                .fold(vec![])
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Max)
                .fold(vec![])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Avg)
                .fold(vec![])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::All)
                .fold(vec![])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Monoid::Primitive(PrimitiveMonoid::Any)
                .fold(vec![])
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn merge_partials_matches_sequential_fold() {
        // Partition the same elements two different ways; the ordered merge
        // of partial accumulators must agree with the one-pass fold.
        let xs: Vec<Value> = (1..=10).map(Value::Int).collect();
        for m in all_monoids() {
            let xs = match m {
                Monoid::Primitive(PrimitiveMonoid::All)
                | Monoid::Primitive(PrimitiveMonoid::Any) => {
                    vec![Value::Bool(true); 10]
                }
                _ => xs.clone(),
            };
            let sequential = m.fold(xs.clone()).unwrap();
            for chunk in [1usize, 3, 10] {
                let partials: Vec<Value> = xs
                    .chunks(chunk)
                    .map(|c| {
                        let mut acc = m.zero();
                        for x in c {
                            acc = m.merge(acc, m.unit(x.clone())).unwrap();
                        }
                        acc
                    })
                    .collect();
                let merged = m.finalize(m.merge_partials(partials).unwrap()).unwrap();
                assert!(
                    merged.sem_eq(&sequential),
                    "{m}: chunk {chunk} deviates ({merged} vs {sequential})"
                );
            }
        }
    }

    #[test]
    fn merge_partials_of_nothing_is_zero() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        assert_eq!(sum.merge_partials(vec![]).unwrap(), Value::Int(0));
    }

    #[test]
    fn merge_partials_single_is_identity() {
        // Bit-identical pass-through, no zero merge.
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let v = Value::Float(-0.0);
        let out = sum.merge_partials(vec![v]).unwrap();
        match out {
            Value::Float(f) => assert!(f.is_sign_negative(), "zero merge would lose -0.0"),
            other => panic!("expected float, got {other}"),
        }
    }

    #[test]
    fn merge_partials_preserves_list_order() {
        let list = Monoid::Collection(CollectionKind::List);
        let p1 = list.fold(vec![Value::Int(3), Value::Int(1)]).unwrap();
        let p2 = list.fold(vec![Value::Int(2)]).unwrap();
        let out = list.merge_partials(vec![p1, p2]).unwrap();
        assert_eq!(
            out.elements().unwrap(),
            &[Value::Int(3), Value::Int(1), Value::Int(2)]
        );
    }

    #[test]
    fn set_is_idempotent_bag_is_not() {
        let set = Monoid::Collection(CollectionKind::Set);
        let bag = Monoid::Collection(CollectionKind::Bag);
        let xs = vec![Value::Int(1), Value::Int(1), Value::Int(2)];
        let s = set.fold(xs.clone()).unwrap();
        let b = bag.fold(xs).unwrap();
        assert_eq!(s.elements().unwrap().len(), 2);
        assert_eq!(b.elements().unwrap().len(), 3);
        assert!(set.idempotent());
        assert!(!bag.idempotent());
    }

    #[test]
    fn list_preserves_order() {
        let list = Monoid::Collection(CollectionKind::List);
        let out = list
            .fold(vec![Value::Int(3), Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(
            out.elements().unwrap(),
            &[Value::Int(3), Value::Int(1), Value::Int(2)]
        );
        assert!(!list.commutative());
    }

    #[test]
    fn overflow_is_an_error_not_a_panic() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let e = sum.merge(Value::Int(i64::MAX), Value::Int(1)).unwrap_err();
        assert_eq!(e.kind(), "exec");
    }

    #[test]
    fn mixed_numeric_promotes_to_float() {
        let sum = Monoid::Primitive(PrimitiveMonoid::Sum);
        let out = sum.merge(Value::Int(1), Value::Float(2.5)).unwrap();
        assert_eq!(out, Value::Float(3.5));
    }

    #[test]
    fn from_name_round_trip() {
        for m in all_monoids() {
            assert_eq!(Monoid::from_name(m.name()), Some(m));
        }
        assert_eq!(Monoid::from_name("nope"), None);
        // aliases
        assert_eq!(
            Monoid::from_name("and"),
            Some(Monoid::Primitive(PrimitiveMonoid::All))
        );
        assert_eq!(
            Monoid::from_name("or"),
            Some(Monoid::Primitive(PrimitiveMonoid::Any))
        );
    }

    #[test]
    fn bad_merge_inputs_error() {
        let all = Monoid::Primitive(PrimitiveMonoid::All);
        assert!(all.merge(Value::Int(1), Value::Bool(true)).is_err());
        let bag = Monoid::Collection(CollectionKind::Bag);
        assert!(bag.merge(Value::Int(1), Value::bag(vec![])).is_err());
    }
}
