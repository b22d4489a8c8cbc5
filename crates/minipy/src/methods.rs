//! Built-in method dispatch for the kernel's object kinds.
//!
//! Mirrors the Python/pandas/NumPy methods the paper's workloads lean on.
//! In-place methods (`list.append`, `ser.replace`, `arr.fill`, ...) mutate
//! through [`Heap::modify`](kishu_kernel::Heap::modify), so they dirty pages and are visible to both
//! page-level and VarGraph-level delta detection — the contrast Fig 6
//! illustrates.

use kishu_kernel::{ObjId, ObjKind};

use crate::error::{RunError, RunErrorKind};
use crate::interp::Interp;
#[cfg(test)]
use crate::repr;

/// Dispatch `recv.method(args, kwargs)` over the built-in kinds.
pub fn dispatch(
    interp: &mut Interp,
    recv: ObjId,
    method: &str,
    args: &[ObjId],
    kwargs: &[(String, ObjId)],
) -> Result<ObjId, RunError> {
    let _ = kwargs;
    match interp.heap.kind(recv).clone() {
        ObjKind::List(items) => list_method(interp, recv, &items, method, args),
        ObjKind::Dict(pairs) => dict_method(interp, recv, &pairs, method, args),
        ObjKind::Set(items) => set_method(interp, recv, &items, method, args),
        ObjKind::Str(s) => str_method(interp, &s, method, args),
        ObjKind::NdArray(values) => ndarray_method(interp, recv, &values, method, args),
        ObjKind::Series { name, values } => series_method(interp, recv, &name, values, method, args),
        ObjKind::DataFrame(cols) => dataframe_method(interp, recv, &cols, method, args),
        ObjKind::Generator { token } => generator_method(interp, token, method),
        other => Err(no_method(other.type_tag(), method)),
    }
}

fn no_method(type_tag: &str, method: &str) -> RunError {
    RunError::new(
        RunErrorKind::AttributeError,
        format!("{type_tag} object has no method `{method}`"),
    )
}

fn arity(args: &[ObjId], n: usize, method: &str) -> Result<(), RunError> {
    if args.len() != n {
        return Err(RunError::new(
            RunErrorKind::TypeError,
            format!("{method}() takes {n} argument(s), got {}", args.len()),
        ));
    }
    Ok(())
}

fn none(interp: &mut Interp) -> ObjId {
    interp.heap.alloc(ObjKind::None)
}

// ----------------------------------------------------------------------
// list

fn list_method(
    interp: &mut Interp,
    recv: ObjId,
    items: &[ObjId],
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "append" => {
            arity(args, 1, method)?;
            let v = args[0];
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    items.push(v);
                }
            });
            Ok(none(interp))
        }
        "extend" => {
            arity(args, 1, method)?;
            let extra = interp.iterate(args[0])?;
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    items.extend(extra);
                }
            });
            Ok(none(interp))
        }
        "insert" => {
            arity(args, 2, method)?;
            let i = interp.expect_int(args[0])?.clamp(0, items.len() as i64) as usize;
            let v = args[1];
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    items.insert(i, v);
                }
            });
            Ok(none(interp))
        }
        "pop" => {
            let i = if args.is_empty() {
                items.len().checked_sub(1).ok_or_else(|| {
                    RunError::new(RunErrorKind::IndexError, "pop from empty list")
                })?
            } else {
                let raw = interp.expect_int(args[0])?;
                let idx = if raw < 0 { items.len() as i64 + raw } else { raw };
                if idx < 0 || idx as usize >= items.len() {
                    return Err(RunError::new(RunErrorKind::IndexError, "pop index out of range"));
                }
                idx as usize
            };
            let mut popped = None;
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    popped = Some(items.remove(i));
                }
            });
            Ok(popped.expect("index validated"))
        }
        "remove" => {
            arity(args, 1, method)?;
            let pos = items.iter().position(|i| interp.value_eq(*i, args[0]));
            match pos {
                Some(i) => {
                    interp.heap.modify(recv, |k| {
                        if let ObjKind::List(items) = k {
                            items.remove(i);
                        }
                    });
                    Ok(none(interp))
                }
                None => Err(RunError::new(RunErrorKind::ValueError, "value not in list")),
            }
        }
        "clear" => {
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    items.clear();
                }
            });
            Ok(none(interp))
        }
        "sort" => {
            let sorted = sorted_ids(interp, items)?;
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    *items = sorted;
                }
            });
            Ok(none(interp))
        }
        "reverse" => {
            interp.heap.modify(recv, |k| {
                if let ObjKind::List(items) = k {
                    items.reverse();
                }
            });
            Ok(none(interp))
        }
        "index" => {
            arity(args, 1, method)?;
            match items.iter().position(|i| interp.value_eq(*i, args[0])) {
                Some(i) => Ok(interp.heap.alloc(ObjKind::Int(i as i64))),
                None => Err(RunError::new(RunErrorKind::ValueError, "value not in list")),
            }
        }
        "count" => {
            arity(args, 1, method)?;
            let n = items.iter().filter(|i| interp.value_eq(**i, args[0])).count();
            Ok(interp.heap.alloc(ObjKind::Int(n as i64)))
        }
        "copy" => Ok(interp.heap.alloc(ObjKind::List(items.to_vec()))),
        _ => Err(no_method("list", method)),
    }
}

/// Sort object ids by value (numbers/strings/lists), stable.
fn sorted_ids(interp: &mut Interp, items: &[ObjId]) -> Result<Vec<ObjId>, RunError> {
    // Decorate with sortable keys to avoid interior mutability headaches.
    #[derive(PartialEq, PartialOrd)]
    enum Key {
        Num(f64),
        Str(String),
    }
    let mut decorated: Vec<(Key, ObjId)> = Vec::with_capacity(items.len());
    for id in items {
        let key = match interp.heap.kind(*id) {
            ObjKind::Int(v) => Key::Num(*v as f64),
            ObjKind::Float(v) => Key::Num(*v),
            ObjKind::Bool(b) => Key::Num(*b as i64 as f64),
            ObjKind::Str(s) => Key::Str(s.clone()),
            other => {
                return Err(RunError::new(
                    RunErrorKind::TypeError,
                    format!("cannot sort {}", other.type_tag()),
                ))
            }
        };
        decorated.push((key, *id));
    }
    if decorated.iter().any(|(k, _)| matches!(k, Key::Num(_)))
        && decorated.iter().any(|(k, _)| matches!(k, Key::Str(_)))
    {
        return Err(RunError::new(
            RunErrorKind::TypeError,
            "cannot sort mixed numbers and strings",
        ));
    }
    decorated.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    Ok(decorated.into_iter().map(|(_, id)| id).collect())
}

// ----------------------------------------------------------------------
// dict

fn dict_method(
    interp: &mut Interp,
    recv: ObjId,
    pairs: &[(ObjId, ObjId)],
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "get" => {
            if args.is_empty() || args.len() > 2 {
                return Err(RunError::new(RunErrorKind::TypeError, "get() takes 1-2 arguments"));
            }
            for (k, v) in pairs {
                if interp.value_eq(*k, args[0]) {
                    return Ok(*v);
                }
            }
            Ok(args.get(1).copied().unwrap_or_else(|| none(interp)))
        }
        "keys" => {
            let ks: Vec<ObjId> = pairs.iter().map(|(k, _)| *k).collect();
            Ok(interp.heap.alloc(ObjKind::List(ks)))
        }
        "values" => {
            let vs: Vec<ObjId> = pairs.iter().map(|(_, v)| *v).collect();
            Ok(interp.heap.alloc(ObjKind::List(vs)))
        }
        "items" => {
            let ts: Vec<ObjId> = pairs
                .iter()
                .map(|(k, v)| interp.heap.alloc(ObjKind::Tuple(vec![*k, *v])))
                .collect();
            Ok(interp.heap.alloc(ObjKind::List(ts)))
        }
        "pop" => {
            arity(args, 1, method)?;
            let pos = pairs.iter().position(|(k, _)| interp.value_eq(*k, args[0]));
            match pos {
                Some(i) => {
                    let mut v = None;
                    interp.heap.modify(recv, |k| {
                        if let ObjKind::Dict(pairs) = k {
                            v = Some(pairs.remove(i).1);
                        }
                    });
                    Ok(v.expect("position validated"))
                }
                None => Err(RunError::new(RunErrorKind::KeyError, "key not found")),
            }
        }
        "update" => {
            arity(args, 1, method)?;
            let other = match interp.heap.kind(args[0]) {
                ObjKind::Dict(ps) => ps.clone(),
                k => {
                    return Err(RunError::new(
                        RunErrorKind::TypeError,
                        format!("update() expects dict, got {}", k.type_tag()),
                    ))
                }
            };
            for (nk, nv) in other {
                let pos = {
                    let current = match interp.heap.kind(recv) {
                        ObjKind::Dict(ps) => ps.clone(),
                        _ => unreachable!("recv is a dict"),
                    };
                    current.iter().position(|(k, _)| interp.value_eq(*k, nk))
                };
                interp.heap.modify(recv, |k| {
                    if let ObjKind::Dict(pairs) = k {
                        match pos {
                            Some(i) => pairs[i].1 = nv,
                            None => pairs.push((nk, nv)),
                        }
                    }
                });
            }
            Ok(none(interp))
        }
        "clear" => {
            interp.heap.modify(recv, |k| {
                if let ObjKind::Dict(pairs) = k {
                    pairs.clear();
                }
            });
            Ok(none(interp))
        }
        "copy" => Ok(interp.heap.alloc(ObjKind::Dict(pairs.to_vec()))),
        _ => Err(no_method("dict", method)),
    }
}

// ----------------------------------------------------------------------
// set

fn set_method(
    interp: &mut Interp,
    recv: ObjId,
    items: &[ObjId],
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "add" => {
            arity(args, 1, method)?;
            if !items.iter().any(|i| interp.value_eq(*i, args[0])) {
                let v = args[0];
                interp.heap.modify(recv, |k| {
                    if let ObjKind::Set(items) = k {
                        items.push(v);
                    }
                });
            }
            Ok(none(interp))
        }
        "remove" | "discard" => {
            arity(args, 1, method)?;
            let pos = items.iter().position(|i| interp.value_eq(*i, args[0]));
            match pos {
                Some(i) => {
                    interp.heap.modify(recv, |k| {
                        if let ObjKind::Set(items) = k {
                            items.remove(i);
                        }
                    });
                    Ok(none(interp))
                }
                None if method == "discard" => Ok(none(interp)),
                None => Err(RunError::new(RunErrorKind::KeyError, "element not in set")),
            }
        }
        "clear" => {
            interp.heap.modify(recv, |k| {
                if let ObjKind::Set(items) = k {
                    items.clear();
                }
            });
            Ok(none(interp))
        }
        "copy" => Ok(interp.heap.alloc(ObjKind::Set(items.to_vec()))),
        _ => Err(no_method("set", method)),
    }
}

// ----------------------------------------------------------------------
// str

fn str_method(
    interp: &mut Interp,
    s: &str,
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    let alloc_str = |interp: &mut Interp, v: String| interp.heap.alloc(ObjKind::Str(v));
    match method {
        "upper" => Ok(alloc_str(interp, s.to_uppercase())),
        "lower" => Ok(alloc_str(interp, s.to_lowercase())),
        "strip" => Ok(alloc_str(interp, s.trim().to_string())),
        "replace" => {
            arity(args, 2, method)?;
            let from = interp.expect_str(args[0])?.to_string();
            let to = interp.expect_str(args[1])?.to_string();
            Ok(alloc_str(interp, s.replace(&from, &to)))
        }
        "split" => {
            let parts: Vec<String> = if args.is_empty() {
                s.split_whitespace().map(|p| p.to_string()).collect()
            } else {
                let sep = interp.expect_str(args[0])?.to_string();
                s.split(&sep).map(|p| p.to_string()).collect()
            };
            let ids: Vec<ObjId> = parts
                .into_iter()
                .map(|p| interp.heap.alloc(ObjKind::Str(p)))
                .collect();
            Ok(interp.heap.alloc(ObjKind::List(ids)))
        }
        "startswith" => {
            arity(args, 1, method)?;
            let p = interp.expect_str(args[0])?;
            let b = s.starts_with(p);
            Ok(interp.heap.alloc(ObjKind::Bool(b)))
        }
        "endswith" => {
            arity(args, 1, method)?;
            let p = interp.expect_str(args[0])?;
            let b = s.ends_with(p);
            Ok(interp.heap.alloc(ObjKind::Bool(b)))
        }
        "join" => {
            arity(args, 1, method)?;
            let parts = interp.iterate(args[0])?;
            let mut strs = Vec::with_capacity(parts.len());
            for p in parts {
                strs.push(interp.expect_str(p)?.to_string());
            }
            Ok(alloc_str(interp, strs.join(s)))
        }
        _ => Err(no_method("str", method)),
    }
}

// ----------------------------------------------------------------------
// ndarray

fn ndarray_method(
    interp: &mut Interp,
    recv: ObjId,
    values: &[f64],
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "sum" => Ok(interp.heap.alloc(ObjKind::Float(values.iter().sum()))),
        "mean" => {
            let m = if values.is_empty() {
                f64::NAN
            } else {
                values.iter().sum::<f64>() / values.len() as f64
            };
            Ok(interp.heap.alloc(ObjKind::Float(m)))
        }
        "std" => {
            let n = values.len().max(1) as f64;
            let mean = values.iter().sum::<f64>() / n;
            let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            Ok(interp.heap.alloc(ObjKind::Float(var.sqrt())))
        }
        "max" => Ok(interp.heap.alloc(ObjKind::Float(
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        ))),
        "min" => Ok(interp.heap.alloc(ObjKind::Float(
            values.iter().copied().fold(f64::INFINITY, f64::min),
        ))),
        "copy" => Ok(interp.heap.alloc(ObjKind::NdArray(values.to_vec()))),
        "tolist" => {
            let ids: Vec<ObjId> = values
                .iter()
                .map(|v| interp.heap.alloc(ObjKind::Float(*v)))
                .collect();
            Ok(interp.heap.alloc(ObjKind::List(ids)))
        }
        "fill" => {
            arity(args, 1, method)?;
            let v = interp.expect_float(args[0])?;
            interp.heap.modify(recv, |k| {
                if let ObjKind::NdArray(values) = k {
                    for x in values.iter_mut() {
                        *x = v;
                    }
                }
            });
            Ok(none(interp))
        }
        "sort" => {
            interp.heap.modify(recv, |k| {
                if let ObjKind::NdArray(values) = k {
                    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                }
            });
            Ok(none(interp))
        }
        _ => Err(no_method("ndarray", method)),
    }
}

// ----------------------------------------------------------------------
// Series

fn series_method(
    interp: &mut Interp,
    recv: ObjId,
    name: &str,
    values: ObjId,
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "sum" | "mean" | "std" | "max" | "min" | "tolist" | "sort" | "fill" => {
            // Delegate numeric reductions to the backing object.
            interp.call_method(values, method, args, &[])
        }
        "replace" => {
            // pandas-style in-place element replacement over the backing
            // list — the paper's Fig 6 "`ser.replace`" node-wise update.
            arity(args, 2, method)?;
            let from = args[0];
            let to = args[1];
            match interp.heap.kind(values).clone() {
                ObjKind::List(items) => {
                    let replaced: Vec<usize> = items
                        .iter()
                        .enumerate()
                        .filter(|(_, i)| interp.value_eq(**i, from))
                        .map(|(n, _)| n)
                        .collect();
                    interp.heap.modify(values, |k| {
                        if let ObjKind::List(items) = k {
                            for i in &replaced {
                                items[*i] = to;
                            }
                        }
                    });
                    Ok(none(interp))
                }
                ObjKind::NdArray(_) => {
                    let f = interp.expect_float(from)?;
                    let t = interp.expect_float(to)?;
                    interp.heap.modify(values, |k| {
                        if let ObjKind::NdArray(vs) = k {
                            for v in vs.iter_mut() {
                                if *v == f {
                                    *v = t;
                                }
                            }
                        }
                    });
                    Ok(none(interp))
                }
                other => Err(RunError::new(
                    RunErrorKind::TypeError,
                    format!("cannot replace in Series backed by {}", other.type_tag()),
                )),
            }
        }
        "rename" => {
            arity(args, 1, method)?;
            let n = interp.expect_str(args[0])?.to_string();
            interp.heap.modify(recv, |k| {
                if let ObjKind::Series { name, .. } = k {
                    *name = n;
                }
            });
            Ok(none(interp))
        }
        "copy" => {
            // Deep copy: new backing object too (like pandas).
            let new_values = match interp.heap.kind(values).clone() {
                ObjKind::NdArray(vs) => interp.heap.alloc(ObjKind::NdArray(vs)),
                ObjKind::List(items) => interp.heap.alloc(ObjKind::List(items)),
                other => interp.heap.alloc(other),
            };
            Ok(interp.heap.alloc(ObjKind::Series {
                name: name.to_string(),
                values: new_values,
            }))
        }
        _ => Err(no_method("Series", method)),
    }
}

// ----------------------------------------------------------------------
// DataFrame

fn dataframe_method(
    interp: &mut Interp,
    recv: ObjId,
    cols: &[(String, ObjId)],
    method: &str,
    args: &[ObjId],
) -> Result<ObjId, RunError> {
    match method {
        "drop" => {
            // pandas default: returns a NEW frame sharing the surviving
            // column objects (the irreversible-looking `df = df.drop('a')`
            // from §2.1 — exactly what Kishu lets users undo).
            arity(args, 1, method)?;
            let name = interp.expect_str(args[0])?.to_string();
            if !cols.iter().any(|(n, _)| *n == name) {
                return Err(RunError::new(RunErrorKind::KeyError, format!("column `{name}`")));
            }
            let remaining: Vec<(String, ObjId)> =
                cols.iter().filter(|(n, _)| *n != name).cloned().collect();
            Ok(interp.heap.alloc(ObjKind::DataFrame(remaining)))
        }
        "drop_inplace" => {
            arity(args, 1, method)?;
            let name = interp.expect_str(args[0])?.to_string();
            if !cols.iter().any(|(n, _)| *n == name) {
                return Err(RunError::new(RunErrorKind::KeyError, format!("column `{name}`")));
            }
            interp.heap.modify(recv, |k| {
                if let ObjKind::DataFrame(cols) = k {
                    cols.retain(|(n, _)| *n != name);
                }
            });
            Ok(none(interp))
        }
        "col" | "get" => {
            arity(args, 1, method)?;
            let name = interp.expect_str(args[0])?.to_string();
            cols.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, c)| *c)
                .ok_or_else(|| RunError::new(RunErrorKind::KeyError, format!("column `{name}`")))
        }
        "head" => {
            let n = if args.is_empty() { 5 } else { interp.expect_int(args[0])?.max(0) as usize };
            let mut new_cols = Vec::with_capacity(cols.len());
            for (name, c) in cols {
                let sliced = match interp.heap.kind(*c).clone() {
                    ObjKind::NdArray(vs) => {
                        interp.heap.alloc(ObjKind::NdArray(vs.into_iter().take(n).collect()))
                    }
                    ObjKind::List(items) => {
                        interp.heap.alloc(ObjKind::List(items.into_iter().take(n).collect()))
                    }
                    other => interp.heap.alloc(other),
                };
                new_cols.push((name.clone(), sliced));
            }
            Ok(interp.heap.alloc(ObjKind::DataFrame(new_cols)))
        }
        "copy" => {
            // Deep copy (pandas `df.copy()`): new column objects.
            let mut new_cols = Vec::with_capacity(cols.len());
            for (name, c) in cols {
                let copied = match interp.heap.kind(*c).clone() {
                    ObjKind::NdArray(vs) => interp.heap.alloc(ObjKind::NdArray(vs)),
                    ObjKind::List(items) => interp.heap.alloc(ObjKind::List(items)),
                    other => interp.heap.alloc(other),
                };
                new_cols.push((name.clone(), copied));
            }
            Ok(interp.heap.alloc(ObjKind::DataFrame(new_cols)))
        }
        "mean" => {
            let mut pairs = Vec::new();
            for (name, c) in cols {
                if let ObjKind::NdArray(vs) = interp.heap.kind(*c).clone() {
                    let m = if vs.is_empty() { f64::NAN } else { vs.iter().sum::<f64>() / vs.len() as f64 };
                    let k = interp.heap.alloc(ObjKind::Str(name.clone()));
                    let v = interp.heap.alloc(ObjKind::Float(m));
                    pairs.push((k, v));
                }
            }
            Ok(interp.heap.alloc(ObjKind::Dict(pairs)))
        }
        "describe" => {
            let desc = format!("DataFrame: {} columns", cols.len());
            Ok(interp.heap.alloc(ObjKind::Str(desc)))
        }
        _ => Err(no_method("DataFrame", method)),
    }
}

// ----------------------------------------------------------------------
// generator

fn generator_method(interp: &mut Interp, token: u64, method: &str) -> Result<ObjId, RunError> {
    match method {
        "next" => {
            // Opaque iteration: yields a token-derived value. The object's
            // internal cursor is invisible to traversal (that is the point —
            // Kishu must assume it updated on access).
            Ok(interp.heap.alloc(ObjKind::Int((token % 1000) as i64)))
        }
        _ => Err(no_method("generator", method)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{each_engine, Interp};

    fn run(interp: &mut Interp, src: &str) {
        let out = interp.run_cell(src).expect("parses");
        if let Some(e) = out.error {
            panic!("cell failed: {e}");
        }
    }

    fn repr_of(interp: &mut Interp, name: &str) -> String {
        let id = interp.globals.peek(name).expect("bound");
        repr::repr(&interp.heap, id)
    }

    #[test]
    fn list_mutators() {
        for mut i in each_engine() {
            run(&mut i, "ls = [3, 1, 2]\nls.append(5)\nls.sort()\nls.reverse()\n");
            assert_eq!(repr_of(&mut i, "ls"), "[5, 3, 2, 1]");
            run(&mut i, "x = ls.pop()\nls.remove(5)\n");
            assert_eq!(repr_of(&mut i, "ls"), "[3, 2]");
            assert_eq!(repr_of(&mut i, "x"), "1");
        }
    }

    #[test]
    fn dict_methods() {
        for mut i in each_engine() {
            run(&mut i, "d = {'a': 1}\nd.update({'b': 2})\nv = d.get('b')\nm = d.get('zz', 9)\n");
            assert_eq!(repr_of(&mut i, "v"), "2");
            assert_eq!(repr_of(&mut i, "m"), "9");
            run(&mut i, "ks = d.keys()\n");
            assert_eq!(repr_of(&mut i, "ks"), "['a', 'b']");
        }
    }

    #[test]
    fn str_methods() {
        for mut i in each_engine() {
            run(&mut i, "s = ' Hello World '.strip()\nparts = s.split()\nu = s.upper()\nj = '-'.join(parts)\n");
            assert_eq!(repr_of(&mut i, "parts"), "['Hello', 'World']");
            assert_eq!(repr_of(&mut i, "u"), "'HELLO WORLD'");
            assert_eq!(repr_of(&mut i, "j"), "'Hello-World'");
        }
    }

    #[test]
    fn ndarray_reductions_and_inplace() {
        for mut i in each_engine() {
            run(&mut i, "a = zeros(4)\na.fill(2.0)\ns = a.sum()\na[0] = 10.0\n");
            assert_eq!(repr_of(&mut i, "s"), "8.0");
            run(&mut i, "m = a.max()\n");
            assert_eq!(repr_of(&mut i, "m"), "10.0");
        }
    }

    #[test]
    fn series_replace_in_place_keeps_identity() {
        for mut i in each_engine() {
            run(&mut i, "ser = series('mood', ['a', 'b', 'c'])\nbefore = id(ser)\nser.replace('b', 'z')\nafter = id(ser)\n");
            assert_eq!(repr_of(&mut i, "before"), repr_of(&mut i, "after"));
            let ser = i.globals.peek("ser").expect("bound");
            if let ObjKind::Series { values, .. } = i.heap.kind(ser).clone() {
                let r = repr::repr(&i.heap, values);
                assert_eq!(r, "['a', 'z', 'c']");
            } else {
                panic!("not a series");
            }
        }
    }

    #[test]
    fn dataframe_drop_shares_columns() {
        for mut i in each_engine() {
            run(
                &mut i,
                "df = read_csv('t', 10, 3, 1)\nc0 = df['c0']\ndf2 = df.drop('c1')\nc0b = df2['c0']\nsame = id(c0) == id(c0b)\n",
            );
            assert_eq!(repr_of(&mut i, "same"), "True");
        }
    }

    #[test]
    fn dataframe_head_copies() {
        for mut i in each_engine() {
            run(&mut i, "df = read_csv('t', 100, 2, 7)\nh = df.head(3)\nn = h.shape\n");
            assert_eq!(repr_of(&mut i, "n"), "(3, 2)");
        }
    }
}
