//! The output check: reference results from the interpreted Volcano
//! engine, and the comparison rule.
//!
//! `run_volcano` joins by nested loop, which is quadratic and cannot finish
//! on 200k-row inputs. Plans with a join are therefore split here: every
//! join-free subtree still runs through `run_volcano`, and the checker
//! joins their bindings by hashing the equi-join key, re-checking the full
//! join predicate with the calculus interpreter. The head and monoid fold
//! use the same interpreter, so no JIT code is involved.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use vida_core::lang::Bindings;
use vida_core::types::CollectionKind;
use vida_core::{
    eval, lower, parse, rewrite, run_volcano, Expr, Monoid, Plan, Result, SourceProvider, Value,
    VidaError,
};

/// Check engine answers against the reference, spreading the distinct
/// queries over `threads` threads; returns the number of queries whose
/// answer does not [`matches`] the reference (a query the reference
/// cannot run counts as failed too).
pub fn check(answers: &[(String, Value)], catalog: &dyn SourceProvider, threads: usize) -> u64 {
    let next = AtomicUsize::new(0);
    let failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, answers.len().max(1)) {
            scope.spawn(|| {
                let mut memo = Memo::default();
                while let Some((text, got)) = answers.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let want = parse(text)
                        .and_then(|e| lower(&e))
                        .and_then(|p| reference(&rewrite(&p), catalog, &mut memo));
                    match want {
                        Ok(want) if matches(got, &want) => {}
                        other => {
                            let shown = other.map_or_else(|e| e.to_string(), |v| v.to_string());
                            let shown: String = shown.chars().take(200).collect();
                            eprintln!("perfbench: wrong result for `{text}`; reference: {shown}");
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    failed.into_inner()
}

/// Join-free subtrees already collected in this check pass (the build
/// sides the join queries of one batch share), by plan text.
type Memo = HashMap<String, Arc<Vec<Bindings>>>;

/// Reference result of `plan` over `catalog`.
fn reference(plan: &Plan, catalog: &dyn SourceProvider, memo: &mut Memo) -> Result<Value> {
    match plan {
        Plan::Reduce {
            input,
            monoid,
            head,
        } if has_join(input) => {
            let mut acc = Some(monoid.zero());
            for_each_row(input, catalog, memo, &mut |row| {
                let prev = acc.take().expect("accumulator is put back after every row");
                acc = Some(monoid.merge(prev, monoid.unit(eval(head, row)?))?);
                Ok(())
            })?;
            monoid.finalize(acc.expect("accumulator is put back after every row"))
        }
        _ => run_volcano(plan, catalog),
    }
}

fn has_join(plan: &Plan) -> bool {
    match plan {
        Plan::Join { .. } => true,
        Plan::Scan { .. } => false,
        Plan::Select { input, .. } | Plan::Reduce { input, .. } | Plan::Unnest { input, .. } => {
            has_join(input)
        }
    }
}

type RowFn<'a> = dyn FnMut(&Bindings) -> Result<()> + 'a;

/// Stream the bindings `plan` produces into `f`.
fn for_each_row(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    memo: &mut Memo,
    f: &mut RowFn<'_>,
) -> Result<()> {
    match plan {
        Plan::Select { input, predicate } if has_join(input) => {
            for_each_row(input, catalog, memo, &mut |row| {
                if holds(predicate, row)? {
                    f(row)?;
                }
                Ok(())
            })
        }
        Plan::Join {
            left,
            right,
            predicate,
        } => {
            let right_rows = collect(right, catalog, memo)?;
            let keys = Plan::equi_join_keys(predicate, &left.bound_vars(), &right.bound_vars());
            let mut table: HashMap<String, Vec<&Bindings>> = HashMap::new();
            if let Some((_, rk)) = &keys {
                for r in right_rows.iter() {
                    table.entry(key(eval(rk, r)?)).or_default().push(r);
                }
            }
            for_each_row(left, catalog, memo, &mut |l| {
                let matches: Vec<&Bindings> = match &keys {
                    Some((lk, _)) => table.get(&key(eval(lk, l)?)).cloned().unwrap_or_default(),
                    None => right_rows.iter().collect(),
                };
                for r in matches {
                    let mut row = l.clone();
                    row.extend(r.iter().map(|(k, v)| (k.clone(), v.clone())));
                    if holds(predicate, &row)? {
                        f(&row)?;
                    }
                }
                Ok(())
            })
        }
        _ if has_join(plan) => Err(VidaError::Plan(
            "output check: joins below an unnest are not supported".into(),
        )),
        _ => {
            for row in &volcano_rows(plan, catalog)? {
                f(row)?;
            }
            Ok(())
        }
    }
}

/// The rows of a join's build side, memoized when join-free.
fn collect(
    plan: &Plan,
    catalog: &dyn SourceProvider,
    memo: &mut Memo,
) -> Result<Arc<Vec<Bindings>>> {
    if has_join(plan) {
        let mut rows = Vec::new();
        for_each_row(plan, catalog, memo, &mut |row| {
            rows.push(row.clone());
            Ok(())
        })?;
        return Ok(Arc::new(rows));
    }
    let id = format!("{plan:?}");
    if let Some(rows) = memo.get(&id) {
        return Ok(Arc::clone(rows));
    }
    let rows = Arc::new(volcano_rows(plan, catalog)?);
    memo.insert(id, Arc::clone(&rows));
    Ok(rows)
}

/// The bindings of a join-free subtree, through `run_volcano`.
fn volcano_rows(plan: &Plan, catalog: &dyn SourceProvider) -> Result<Vec<Bindings>> {
    // One record per row, holding each bound variable.
    let vars = plan.bound_vars();
    let head = Expr::Record(
        vars.iter()
            .map(|v| (v.clone(), Expr::Var(v.clone())))
            .collect(),
    );
    let list = run_volcano(
        &Plan::Reduce {
            input: Box::new(plan.clone()),
            monoid: Monoid::Collection(CollectionKind::List),
            head,
        },
        catalog,
    )?;
    Ok(match list {
        Value::Collection(_, rows) => rows
            .into_iter()
            .map(|row| match row {
                Value::Record(fields) => fields.into_iter().collect(),
                _ => Bindings::new(),
            })
            .collect(),
        _ => Vec::new(),
    })
}

/// Hash key of a join value: its printed form, with integral floats
/// printed as integers so `1 = 1.0` still meets in the table.
fn key(v: Value) -> String {
    match v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => (f as i64).to_string(),
        v => v.to_string(),
    }
}

fn holds(predicate: &Expr, row: &Bindings) -> Result<bool> {
    Ok(matches!(eval(predicate, row)?, Value::Bool(true)))
}

/// Whether an engine result matches the reference: exact, except that
/// floats may differ by 1e-9 relative (parallel folds may reassociate
/// float sums) and bag/set element order is free.
pub fn matches(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Float(a), Value::Float(b)) => close(*a, *b),
        (Value::Record(a), Value::Record(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((na, va), (nb, vb))| na == nb && matches(va, vb))
        }
        (Value::Collection(ka, a), Value::Collection(kb, b)) if ka == kb && a.len() == b.len() => {
            if ka.commutative() {
                let (mut a, mut b) = (a.clone(), b.clone());
                a.sort_by(|x, y| x.total_cmp(y));
                b.sort_by(|x, y| x.total_cmp(y));
                a.iter().zip(&b).all(|(x, y)| matches(x, y))
            } else {
                a.iter().zip(b).all(|(x, y)| matches(x, y))
            }
        }
        _ => got == want,
    }
}

/// Relative float comparison at 1e-9.
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}
