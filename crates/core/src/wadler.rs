//! The **Extended Wadler Fragment** (paper §11.1): the large fragment of
//! XPath evaluable in linear space and quadratic time, and the bottom-up
//! backward evaluation of the location paths it permits.
//!
//! The fragment is defined by three restrictions:
//!
//! * **Restriction 1** — no document-data-selecting functions
//!   (`local-name`, `namespace-uri`, `name`, `string`, `number`,
//!   `string-length`, `normalize-space`), so scalar values have
//!   document-independent size;
//! * **Restriction 2** — no `nset RelOp nset`, no `count`/`sum`, and in
//!   `nset RelOp scalar` the scalar must not depend on any context;
//! * **Restriction 3** — in `id(id(…(c)…))` with scalar `c`, `c` must not
//!   depend on any context.
//!
//! Under these restrictions every inner location path occurs as
//! `boolean(π)` or `π RelOp c` and can be evaluated **backwards**: start
//! from the target set `Y` and propagate through the inverse axes
//! (`eval_bottomup_path` / `propagate_path_backwards`, Appendix A), storing
//! only node sets — linear space. Theorem 11.3: `O(|D|·|Q|²)` space,
//! `O(|D|²·|Q|²)` time.

use xpath_syntax::{static_type, BinaryOp, Expr, ExprType, LocationPath, PathStart, Step};
use xpath_xml::NodeId;

use crate::bottomup::CvTable;
use crate::compare::compare;
use crate::context::{Context, EvalError, EvalResult};
use crate::eval_common::{position_of, predicate_holds, step_candidates};
use crate::mincontext::MinContextEvaluator;
use crate::naive::NaiveEvaluator;
use crate::node_test::TypeTest;
use crate::nodeset::NodeSet;
use crate::relev::{relev, Relev};
use crate::value::Value;

/// Functions banned by Restriction 1.
pub const RESTRICTION1_FUNCTIONS: &[&str] = &[
    "local-name",
    "namespace-uri",
    "name",
    "string",
    "number",
    "string-length",
    "normalize-space",
];

/// Check membership in the Extended Wadler fragment; returns the list of
/// restriction violations (empty = inside the fragment).
pub fn violations(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.walk(&mut |x| check_node(x, &mut out));
    out
}

/// Is the expression inside the Extended Wadler fragment?
pub fn is_extended_wadler(e: &Expr) -> bool {
    violations(e).is_empty()
}

fn check_node(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Call { name, args } => {
            if RESTRICTION1_FUNCTIONS.contains(&name.as_str()) {
                out.push(format!("Restriction 1: {name}() selects document data"));
            }
            if name == "count" || name == "sum" {
                out.push(format!("Restriction 2: {name}() is not allowed"));
            }
            if name == "id" {
                if let Some(arg) = args.first() {
                    if static_type(arg) != ExprType::Nset && relev(arg) != Relev::NONE {
                        out.push(
                            "Restriction 3: id(c) requires a context-independent scalar".into(),
                        );
                    }
                }
            }
        }
        Expr::Binary { op, left, right } if op.is_relational() => {
            let lt = static_type(left);
            let rt = static_type(right);
            match (lt, rt) {
                (ExprType::Nset, ExprType::Nset) => {
                    out.push("Restriction 2: nset RelOp nset is not allowed".into());
                }
                (ExprType::Nset, _) if relev(right) != Relev::NONE => {
                    out.push(
                        "Restriction 2: nset RelOp scalar requires a context-independent scalar"
                            .into(),
                    );
                }
                (_, ExprType::Nset) if relev(left) != Relev::NONE => {
                    out.push(
                        "Restriction 2: scalar RelOp nset requires a context-independent scalar"
                            .into(),
                    );
                }
                _ => {}
            }
        }
        Expr::Binary { op, left, right }
            if op.is_arithmetic()
            // Arithmetic over node sets implies an implicit number(nset):
            // barred for the same reason as Restriction 1.
            && (static_type(left) == ExprType::Nset || static_type(right) == ExprType::Nset) =>
        {
            out.push("Restriction 1: implicit number(nset) in arithmetic".into());
        }
        Expr::Neg(inner) if static_type(inner) == ExprType::Nset => {
            out.push("Restriction 1: implicit number(nset) in negation".into());
        }
        _ => {}
    }
}

/// Is `e` a "bottom-up location path" occurrence: `boolean(π)` or
/// `π RelOp c` with a context-independent scalar `c` (§11.1)? Returns the
/// path, the comparison (if any) and whether the path is the left operand.
pub(crate) fn bottomup_candidate(e: &Expr) -> Option<BottomUpForm<'_>> {
    match e {
        Expr::Call { name, args } if name == "boolean" && args.len() == 1 => {
            if let Expr::Path(p) = &args[0] {
                if path_is_propagatable(p) {
                    return Some(BottomUpForm { path: p, cmp: None });
                }
            }
            None
        }
        Expr::Binary { op, left, right } if op.is_relational() => {
            let (p, c, path_left) = match (&**left, &**right) {
                (Expr::Path(p), c) => (p, c, true),
                (c, Expr::Path(p)) => (p, c, false),
                _ => return None,
            };
            if static_type(c) == ExprType::Nset
                && !matches!(c, Expr::Call { name, .. } if name == "id")
            {
                return None; // nset RelOp nset handled by the general engine
            }
            if relev(c) != Relev::NONE || !path_is_propagatable(p) {
                return None;
            }
            Some(BottomUpForm {
                path: p,
                cmp: Some(Comparison { op: *op, constant: c, path_left }),
            })
        }
        _ => None,
    }
}

/// A recognized `boolean(π)` / `π RelOp c` occurrence.
pub(crate) struct BottomUpForm<'e> {
    pub path: &'e LocationPath,
    pub cmp: Option<Comparison<'e>>,
}

/// The `RelOp c` part.
pub(crate) struct Comparison<'e> {
    pub op: BinaryOp,
    pub constant: &'e Expr,
    /// Whether the path is the left operand (`π RelOp c` vs `c RelOp π`).
    pub path_left: bool,
}

fn path_is_propagatable(p: &LocationPath) -> bool {
    match &p.start {
        PathStart::Root | PathStart::ContextNode => true,
        // Context-independent heads (e.g. id('c')) behave like '/'.
        PathStart::Expr(head) => relev(head) == Relev::NONE,
    }
}

impl<'d> MinContextEvaluator<'d> {
    /// Appendix A `eval_bottomup_path`: build the full `dom → bool` table
    /// for a `boolean(π)` / `π RelOp c` expression by backward propagation.
    pub(crate) fn eval_bottomup_expr(&self, e: &Expr) -> EvalResult<CvTable> {
        let doc = self.document();
        let form = bottomup_candidate(e).ok_or_else(|| {
            EvalError::UnsupportedFragment("not a bottom-up location path occurrence".into())
        })?;

        // Step 1: the initial node set Y.
        let (y0, bool_cmp): (NodeSet, Option<(BinaryOp, bool, bool)>) = match &form.cmp {
            None => (doc.all_nodes().collect(), None),
            Some(cmp) => {
                // c is context-independent: evaluate it once.
                let c_val =
                    NaiveEvaluator::new(doc).evaluate(cmp.constant, Context::of(doc.root()))?;
                if let Value::Boolean(b) = c_val {
                    // "π RelOp c with c of type bool is treated like
                    //  boolean(π) RelOp c."
                    (doc.all_nodes().collect(), Some((cmp.op, b, cmp.path_left)))
                } else {
                    // Y := {y | ⟨strval(y)⟩ RelOp c} — realized through the
                    // Table II comparison of the singleton node set, which
                    // also covers the constant-nset case of the appendix.
                    let mut y = Vec::new();
                    for n in doc.all_nodes() {
                        let lhs = Value::NodeSet(NodeSet::singleton(n));
                        let holds = if cmp.path_left {
                            compare(doc, cmp.op, &lhs, &c_val)
                        } else {
                            compare(doc, cmp.op, &c_val, &lhs)
                        };
                        if holds {
                            y.push(n);
                        }
                    }
                    (NodeSet::from_sorted(y), None)
                }
            }
        };

        // Step 2: propagate Y backwards through the path.
        let x = self.propagate_path_backwards(form.path, y0)?;

        // Fill table(N) ⊆ dom × {true, false}.
        let mut table = CvTable::new(Relev::CN);
        let mut xi = x.iter().peekable();
        for n in doc.all_nodes() {
            let inside = match xi.peek() {
                Some(&h) if h == n => {
                    xi.next();
                    true
                }
                _ => false,
            };
            let value = match bool_cmp {
                None => inside,
                Some((op, b, path_left)) => {
                    let l = Value::Boolean(inside);
                    let r = Value::Boolean(b);
                    if path_left {
                        compare(doc, op, &l, &r)
                    } else {
                        compare(doc, op, &r, &l)
                    }
                }
            };
            table.insert(Context::of(n), Value::Boolean(value));
        }
        Ok(table)
    }

    /// Appendix A `propagate_path_backwards`: `X := {x | ∃y ∈ Y reachable
    /// from x via π}`, processing location steps from last to first with
    /// inverse axes. Linear space; each step costs `O(|D|)` (cn-only
    /// predicates) or `O(|D|²)` (positional predicates).
    pub(crate) fn propagate_path_backwards(
        &self,
        p: &LocationPath,
        y: NodeSet,
    ) -> EvalResult<NodeSet> {
        let doc = self.document();
        let mut acc = y;
        for step in p.steps.iter().rev() {
            acc = self.propagate_step_backwards(step, acc)?;
        }
        match &p.start {
            PathStart::ContextNode => Ok(acc),
            // "this is the top of an absolute location path": every node
            // qualifies iff the root does.
            PathStart::Root => {
                if acc.contains(doc.root()) {
                    Ok(NodeSet::full(doc.len() as u32))
                } else {
                    Ok(NodeSet::new())
                }
            }
            PathStart::Expr(head) => {
                // Context-independent head: qualifies everywhere iff some
                // head node survives the propagation.
                let head_val = NaiveEvaluator::new(doc).evaluate(head, Context::of(doc.root()))?;
                let set = head_val.into_node_set().ok_or_else(|| {
                    EvalError::TypeMismatch("path start must evaluate to a node set".into())
                })?;
                if acc.intersect(&set).is_empty() {
                    Ok(NodeSet::new())
                } else {
                    Ok(NodeSet::full(doc.len() as u32))
                }
            }
        }
    }

    /// One backward step `χ::t[e1]…[eq]` against target set `acc`.
    fn propagate_step_backwards(&self, step: &Step, acc: NodeSet) -> EvalResult<NodeSet> {
        let doc = self.document();
        // Y' := {y ∈ Y | node test t holds}.
        let test = TypeTest::resolve(doc, step.axis, &step.test);
        let mut y1 = acc;
        test.filter(doc, &mut y1);
        for pred in &step.predicates {
            // Tables for predicate parts that only need the context node.
            // Candidates may include nodes outside Y' (they participate in
            // position counting), so cover the whole inverse image's
            // candidate space: all nodes matching the test.
            let cover = test.set(doc);
            self.eval_by_cnode_only(pred, &cover)?;
        }
        if step.predicates.iter().all(|p| !relev(p).has_pos_or_size()) {
            // Y'' := {y ∈ Y' | all predicates hold}; R := χ⁻¹(Y'').
            let mut y2 = Vec::with_capacity(y1.len());
            'outer: for node in &y1 {
                for pred in &step.predicates {
                    let v = self.eval_single_context(pred, Context::of(node))?;
                    if !predicate_holds(&v, 1) {
                        continue 'outer;
                    }
                }
                y2.push(node);
            }
            Ok(xpath_axes::bulk::inverse_axis_set_adaptive(
                doc,
                step.axis,
                &NodeSet::from_sorted(y2),
            ))
        } else {
            // Positional predicates: loop over candidate sources
            // X' = χ⁻¹(Y') and apply the predicates with full positional
            // semantics over each source's complete candidate set. (The
            // appendix intersects with Y' before counting positions; we
            // filter over the full candidate set, which is the semantics of
            // Figure 5 — positions are counted among all siblings, not only
            // those leading to Y.)
            let x1 = xpath_axes::bulk::inverse_axis_set_adaptive(doc, step.axis, &y1);
            let mut r: Vec<NodeId> = Vec::new();
            for src in &x1 {
                let mut z = step_candidates(doc, step.axis, &step.test, src);
                for pred in &step.predicates {
                    let m = z.len();
                    let mut kept = Vec::with_capacity(m);
                    for (j, &node) in z.iter().enumerate() {
                        let pos = position_of(step.axis, j, m);
                        let v = self
                            .eval_single_context(pred, Context::new(node, pos, m.max(1) as u32))?;
                        if predicate_holds(&v, pos) {
                            kept.push(node);
                        }
                    }
                    z = kept;
                }
                if z.iter().any(|&n| y1.contains(n)) {
                    r.push(src);
                }
            }
            Ok(NodeSet::from_unsorted(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_figure8, doc_flat};
    use xpath_xml::NodeId;

    #[test]
    fn fragment_membership() {
        let w = |q: &str| is_extended_wadler(&parse_normalized(q).unwrap());
        // Inside the fragment.
        assert!(w("//a[boolean(child::b)]"));
        assert!(w("//a[b = 'x']"));
        assert!(w("//a[position() != last()]"));
        assert!(w("//a[position() > last() * 0.5]"));
        assert!(w("//a[b = 3][preceding::c]"));
        assert!(w("//a[not(b) and c = 'y' or position() = 1]"));
        // Outside.
        assert!(!w("//a[count(b) > 1]"), "count violates R2");
        assert!(!w("sum(//a)"), "sum violates R2");
        assert!(!w("//a[b = c]"), "nset RelOp nset violates R2");
        assert!(!w("//a[string(b) = 'x']"), "string() violates R1");
        assert!(!w("//a[name() = 'a']"), "name() violates R1");
        assert!(!w("//a[b = position()]"), "scalar depends on context (R2)");
        assert!(!w("//a[b + 1 > 2]"), "implicit number(nset)");
        assert!(!w("//a[id(string(.)) = 'x']"), "string violates R1 inside id");
    }

    #[test]
    fn restriction3() {
        let e = parse_normalized("//a[boolean(id('c1'))]").unwrap();
        assert!(violations(&e).is_empty());
        // id over a path argument is fine (treated as a path, Lemma 10.6).
        let e = parse_normalized("//a[boolean(id(//b))]").unwrap();
        assert!(violations(&e).is_empty());
    }

    #[test]
    fn violations_are_descriptive() {
        let e = parse_normalized("count(//a[string(b) = c])").unwrap();
        let v = violations(&e);
        assert!(v.iter().any(|m| m.contains("Restriction 1")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("Restriction 2")), "{v:?}");
    }

    #[test]
    fn candidate_recognition() {
        let e = parse_normalized("//a[boolean(following::d)]").unwrap();
        // Find the boolean(...) predicate inside.
        let mut found = 0;
        e.walk(&mut |x| {
            if bottomup_candidate(x).is_some() {
                found += 1;
            }
        });
        assert_eq!(found, 1);

        let e = parse_normalized("//a[b = 'x' or 3 > c]").unwrap();
        let mut found = 0;
        e.walk(&mut |x| {
            if bottomup_candidate(x).is_some() {
                found += 1;
            }
        });
        assert_eq!(found, 2, "both orientations recognized");

        // position()-dependent constant is not a candidate.
        let e = parse_normalized("//a[b = position()]").unwrap();
        let mut found = 0;
        e.walk(&mut |x| {
            if bottomup_candidate(x).is_some() {
                found += 1;
            }
        });
        assert_eq!(found, 0);
    }

    #[test]
    fn backward_propagation_example_11_2_inner_path() {
        // From Example 11.2: E14 = preceding-sibling::*/preceding::* = 100
        // propagates Y = {x14, x24} backwards to {x23, x24}.
        let d = doc_figure8();
        let mc = MinContextEvaluator::new(&d);
        let e = parse_normalized("preceding-sibling::*/preceding::* = 100").unwrap();
        let table = mc.eval_bottomup_expr(&e).unwrap();
        let truthy: Vec<NodeId> = d
            .all_nodes()
            .filter(|&n| matches!(table.value_at(Context::of(n)), Some(Value::Boolean(true))))
            .collect();
        assert_eq!(truthy, vec![d.element_by_id("23").unwrap(), d.element_by_id("24").unwrap()]);
    }

    #[test]
    fn backward_propagation_boolean_form() {
        let d = doc_flat(4);
        let mc = MinContextEvaluator::new(&d);
        let e = parse_normalized("boolean(following-sibling::b)").unwrap();
        let table = mc.eval_bottomup_expr(&e).unwrap();
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        // All but the last b have a following sibling b.
        for (i, &b) in bs.iter().enumerate() {
            let v = table.value_at(Context::of(b)).unwrap();
            assert_eq!(v, &Value::Boolean(i + 1 < bs.len()), "b{i}");
        }
    }

    #[test]
    fn backward_propagation_absolute_path() {
        let d = doc_flat(3);
        let mc = MinContextEvaluator::new(&d);
        // /descendant::b exists → true for every context node.
        let e = parse_normalized("boolean(/descendant::b)").unwrap();
        let t = mc.eval_bottomup_expr(&e).unwrap();
        for n in d.all_nodes() {
            assert_eq!(t.value_at(Context::of(n)).unwrap(), &Value::Boolean(true));
        }
        let e = parse_normalized("boolean(/descendant::zzz)").unwrap();
        let mc2 = MinContextEvaluator::new(&d);
        let t = mc2.eval_bottomup_expr(&e).unwrap();
        for n in d.all_nodes() {
            assert_eq!(t.value_at(Context::of(n)).unwrap(), &Value::Boolean(false));
        }
    }
}
