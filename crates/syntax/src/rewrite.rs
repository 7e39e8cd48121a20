//! Sound, semantics-preserving query rewrites.
//!
//! The paper's algorithms take the normalized AST as-is; real engines
//! additionally simplify it first. This pass applies only rewrites that
//! are provably sound in the paper's semantics (the integration suite
//! checks preservation differentially on random documents):
//!
//! 1. `descendant-or-self::node()/child::t[preds]` → `descendant::t[preds]`
//!    — the classic `//` optimization — **only** when the `child` step's
//!    predicates do not depend on context position/size (a positional
//!    predicate counts siblings, which the merged step would not);
//! 2. elimination of bare `self::node()` steps, except directly after an
//!    `attribute`/`namespace` step (typed `self` removes those node kinds,
//!    so the step is *not* a no-op there);
//! 3. constant folding of arithmetic, relational operators, negation and
//!    boolean connectives over literals;
//! 4. `boolean(boolean(e))` → `boolean(e)` and `not(not(boolean-typed e))`
//!    → `boolean(e)`;
//! 5. folding of pure string functions over literals (`concat`,
//!    `starts-with`, `contains`, `string-length`, `normalize-space`) and of
//!    identity coercions (`number(num)`, `string(str)`, `boolean` of
//!    literals);
//! 6. removal of constant-`true()` predicates (a predicate that is `true`
//!    in every context filters nothing).
//!
//! Rule 1 is also its own pass, [`fuse_descendant_steps`], which the
//! engine applies unconditionally where it compiles Core XPath algebra
//! programs, so `//t` runs as one `descendant::t` step without `-O`.
//!
//! Separately from [`optimize`], [`forwardize`] eliminates reverse axes
//! from absolute descendant spines (the Olteanu et al. "looking forward"
//! rules); the static analyzer in `xpath-core` uses it to widen the
//! streamable fragment and to emit a differential-testable forward IR.

use crate::ast::{
    static_type, BinaryOp, Expr, ExprType, KindTest, LocationPath, NodeTest, PathStart, Step,
};
use crate::axis::Axis;

/// Whether an expression's value can depend on the context position or
/// size (conservative syntactic check: any `position()`/`last()` call
/// outside a nested location-step predicate makes it positional).
///
/// Public because the static analyzer reuses it: positional predicates
/// block both the `//`-merge below and the [`forwardize`] rewriting (the
/// merged/forwardized step would count different siblings).
pub fn is_positional(e: &Expr) -> bool {
    match e {
        Expr::Call { name, .. } if name == "position" || name == "last" => true,
        Expr::Call { args, .. } => args.iter().any(is_positional),
        Expr::Binary { left, right, .. } => is_positional(left) || is_positional(right),
        Expr::Neg(inner) => is_positional(inner),
        // A nested path resets the context for its own predicates.
        Expr::Path(p) => match &p.start {
            PathStart::Expr(head) => is_positional(head),
            _ => false,
        },
        Expr::Filter { primary, .. } => is_positional(primary),
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => false,
    }
}

/// Apply all rewrites bottom-up until a fixpoint (one pass suffices for
/// the current rule set, applied on the way up).
pub fn optimize(e: &Expr) -> Expr {
    match e {
        Expr::Path(p) => Expr::Path(optimize_path(p)),
        Expr::Filter { primary, predicates } => Expr::Filter {
            primary: Box::new(optimize(primary)),
            predicates: predicates.iter().map(optimize).collect(),
        },
        Expr::Binary { op, left, right } => {
            let l = optimize(left);
            let r = optimize(right);
            fold_binary(*op, l, r)
        }
        Expr::Neg(inner) => {
            let i = optimize(inner);
            if let Expr::Number(v) = i {
                Expr::Number(-v)
            } else {
                Expr::Neg(Box::new(i))
            }
        }
        Expr::Call { name, args } => {
            let args: Vec<Expr> = args.iter().map(optimize).collect();
            // boolean(boolean(e)) → boolean(e); boolean(bool-typed e) → e.
            if name == "boolean" && args.len() == 1 && static_type(&args[0]) == ExprType::Bool {
                return args.into_iter().next().expect("one arg");
            }
            // not(not(e)) → boolean(e) when e is boolean-typed.
            if name == "not" && args.len() == 1 {
                if let Expr::Call { name: inner, args: inner_args } = &args[0] {
                    if inner == "not"
                        && inner_args.len() == 1
                        && static_type(&inner_args[0]) == ExprType::Bool
                    {
                        return inner_args[0].clone();
                    }
                }
            }
            if let Some(folded) = fold_call(name, &args) {
                return folded;
            }
            Expr::Call { name: name.clone(), args }
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => e.clone(),
    }
}

/// Fold pure functions over literal arguments. These duplicate no tricky
/// semantics: each case is the verbatim definition from the Recommendation
/// with no context or document dependence.
fn fold_call(name: &str, args: &[Expr]) -> Option<Expr> {
    let lit = |e: &Expr| match e {
        Expr::Literal(s) => Some(s.clone()),
        _ => None,
    };
    match (name, args) {
        ("concat", _) if args.len() >= 2 => {
            let parts: Option<Vec<String>> = args.iter().map(lit).collect();
            parts.map(|p| Expr::Literal(p.concat()))
        }
        ("starts-with", [a, b]) => {
            Some(Expr::call(if lit(a)?.starts_with(&lit(b)?) { "true" } else { "false" }, vec![]))
        }
        ("contains", [a, b]) => {
            Some(Expr::call(if lit(a)?.contains(&lit(b)?) { "true" } else { "false" }, vec![]))
        }
        ("string-length", [a]) => Some(Expr::Number(lit(a)?.chars().count() as f64)),
        ("normalize-space", [a]) => {
            Some(Expr::Literal(lit(a)?.split_whitespace().collect::<Vec<_>>().join(" ")))
        }
        // Identity coercions over literals.
        ("number", [Expr::Number(v)]) => Some(Expr::Number(*v)),
        ("string", [Expr::Literal(s)]) => Some(Expr::Literal(s.clone())),
        ("boolean", [Expr::Literal(s)]) => {
            Some(Expr::call(if s.is_empty() { "false" } else { "true" }, vec![]))
        }
        ("boolean", [Expr::Number(v)]) => {
            Some(Expr::call(if *v != 0.0 && !v.is_nan() { "true" } else { "false" }, vec![]))
        }
        _ => None,
    }
}

fn fold_binary(op: BinaryOp, l: Expr, r: Expr) -> Expr {
    // Constant arithmetic and comparisons over number literals (IEEE 754,
    // exactly the evaluators' semantics).
    if let (Expr::Number(a), Expr::Number(b)) = (&l, &r) {
        let v = match op {
            BinaryOp::Add => Some(a + b),
            BinaryOp::Sub => Some(a - b),
            BinaryOp::Mul => Some(a * b),
            BinaryOp::Div => Some(a / b),
            BinaryOp::Mod => Some(a % b),
            _ => None,
        };
        if let Some(v) = v {
            return Expr::Number(v);
        }
        let b = match op {
            BinaryOp::Eq => Some(a == b),
            BinaryOp::Ne => Some(a != b),
            BinaryOp::Lt => Some(a < b),
            BinaryOp::Le => Some(a <= b),
            BinaryOp::Gt => Some(a > b),
            BinaryOp::Ge => Some(a >= b),
            _ => None,
        };
        if let Some(b) = b {
            return Expr::call(if b { "true" } else { "false" }, vec![]);
        }
    }
    // String equality over literals (EqOp: str × str, Table II).
    if let (Expr::Literal(a), Expr::Literal(b)) = (&l, &r) {
        match op {
            BinaryOp::Eq => return Expr::call(if a == b { "true" } else { "false" }, vec![]),
            BinaryOp::Ne => return Expr::call(if a != b { "true" } else { "false" }, vec![]),
            _ => {}
        }
    }
    // Boolean connectives with a constant true()/false() side. `and`/`or`
    // in XPath have no side effects, so dropping a side is sound.
    let truth = |e: &Expr| match e {
        Expr::Call { name, args } if args.is_empty() && name == "true" => Some(true),
        Expr::Call { name, args } if args.is_empty() && name == "false" => Some(false),
        _ => None,
    };
    match (op, truth(&l), truth(&r)) {
        (BinaryOp::And, Some(false), _) | (BinaryOp::And, _, Some(false)) => {
            return Expr::call("false", vec![])
        }
        (BinaryOp::Or, Some(true), _) | (BinaryOp::Or, _, Some(true)) => {
            return Expr::call("true", vec![])
        }
        (BinaryOp::And, Some(true), _) | (BinaryOp::Or, Some(false), _) => return as_boolean(r),
        (BinaryOp::And, _, Some(true)) | (BinaryOp::Or, _, Some(false)) => return as_boolean(l),
        _ => {}
    }
    Expr::binary(op, l, r)
}

/// The value of the expression under `boolean()` coercion, avoiding a
/// redundant wrapper for already-boolean expressions.
fn as_boolean(e: Expr) -> Expr {
    if static_type(&e) == ExprType::Bool {
        e
    } else {
        Expr::call("boolean", vec![e])
    }
}

/// Rule 1 of [`optimize`] on its own, applied to every location path in
/// `e` — predicates, filter expressions and function arguments included:
/// `descendant-or-self::node()/child::t[preds]` → `descendant::t[preds]`
/// when no predicate is positional ([`is_positional`]). The
/// redundancy-eliminating `//` rewrite: the merged step selects exactly
/// the non-special proper descendants the pair selects, in one axis pass
/// instead of two.
pub fn fuse_descendant_steps(e: &Expr) -> Expr {
    match e {
        Expr::Path(p) => {
            let start = match &p.start {
                PathStart::Expr(head) => PathStart::Expr(Box::new(fuse_descendant_steps(head))),
                other => other.clone(),
            };
            let mut steps: Vec<Step> = Vec::with_capacity(p.steps.len());
            for s in &p.steps {
                let predicates = s.predicates.iter().map(fuse_descendant_steps).collect();
                let s = Step { axis: s.axis, test: s.test.clone(), predicates };
                if let Some(s) = fuse_onto(&mut steps, s) {
                    steps.push(s);
                }
            }
            Expr::Path(LocationPath { start, steps })
        }
        Expr::Filter { primary, predicates } => Expr::Filter {
            primary: Box::new(fuse_descendant_steps(primary)),
            predicates: predicates.iter().map(fuse_descendant_steps).collect(),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(fuse_descendant_steps(left)),
            right: Box::new(fuse_descendant_steps(right)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(fuse_descendant_steps(inner))),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(fuse_descendant_steps).collect(),
        },
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => e.clone(),
    }
}

/// Rule 1 at one step boundary: when `steps` ends in a bare
/// `descendant-or-self::node()` and `s` is a `child` step without
/// positional predicates, replace the pair by `descendant::t[preds]` and
/// return `None`; otherwise hand `s` back unchanged.
fn fuse_onto(steps: &mut Vec<Step>, s: Step) -> Option<Step> {
    let merges = steps.last().is_some_and(|prev| {
        prev.axis == Axis::DescendantOrSelf
            && prev.test == NodeTest::Kind(KindTest::Node)
            && prev.predicates.is_empty()
    }) && s.axis == Axis::Child
        && !s.predicates.iter().any(is_positional);
    if !merges {
        return Some(s);
    }
    steps.pop();
    steps.push(Step { axis: Axis::Descendant, test: s.test, predicates: s.predicates });
    None
}

fn optimize_path(p: &LocationPath) -> LocationPath {
    let start = match &p.start {
        PathStart::Expr(head) => PathStart::Expr(Box::new(optimize(head))),
        other => other.clone(),
    };
    let mut steps: Vec<Step> = Vec::with_capacity(p.steps.len());
    for s in &p.steps {
        let mut predicates: Vec<Expr> = s.predicates.iter().map(optimize).collect();
        // Rule 6: a constant-true predicate filters nothing in any context
        // (and predicate removal cannot change later predicates' positions,
        // because it removes no node).
        predicates.retain(
            |p| !matches!(p, Expr::Call { name, args } if name == "true" && args.is_empty()),
        );
        let s = Step { axis: s.axis, test: s.test.clone(), predicates };
        // Rule 1: …/descendant-or-self::node() + child::t[nonpositional]
        //         → …/descendant::t.
        let Some(s) = fuse_onto(&mut steps, s) else { continue };
        // Rule 2: drop bare self::node() steps (not after attribute/ns).
        let droppable = s.axis == Axis::SelfAxis
            && s.test == NodeTest::Kind(KindTest::Node)
            && s.predicates.is_empty()
            && !steps.is_empty()
            && !matches!(steps.last().map(|x| x.axis), Some(Axis::Attribute | Axis::Namespace));
        if droppable {
            continue;
        }
        steps.push(s);
    }
    LocationPath { start, steps }
}

// ----- reverse-axis elimination (forwardization) -----

/// The reverse axes [`forwardize`] eliminates.
fn is_reverse(a: Axis) -> bool {
    matches!(
        a,
        Axis::Parent
            | Axis::Ancestor
            | Axis::AncestorOrSelf
            | Axis::Preceding
            | Axis::PrecedingSibling
    )
}

/// Rewrite reverse-axis steps at the head of **absolute** descendant
/// spines into equivalent forward forms, after Olteanu, Meuss, Furche &
/// Bry, *XPath: Looking Forward* (rule set RR):
///
/// ```text
/// /descendant-or-self::node()/child::tf[Pf]/χʳ::tr[Pr]/π
///   ≡ /descendant-or-self::tr[Pr][boolean(inv(χʳ)::tf[Pf])]/π
/// /descendant(-or-self)::tf[Pf]/χʳ::tr[Pr]/π  (same right-hand side)
/// ```
///
/// for every reverse axis `χʳ` ∈ {`parent`, `ancestor`,
/// `ancestor-or-self`, `preceding`, `preceding-sibling`} with
/// `inv(χʳ)` ∈ {`child`, `descendant`, `descendant-or-self`,
/// `following`, `following-sibling`} respectively ([`Axis::inverse`]).
///
/// The rewriting is sound because node sets are duplicate-free and in
/// document order (§3): the left-hand side collects, over every `tf`
/// node of the document, the `χʳ`-related `tr` nodes — exactly the `tr`
/// nodes with an `inv(χʳ)`-related `tf` witness, which the right-hand
/// side enumerates from the root directly. It requires
///
/// * an **absolute** path (a relative spine's `descendant` steps are not
///   universal: an ancestor can lie outside the context's subtree), and
/// * **non-positional** predicates `Pf`, `Pr` ([`is_positional`]): the
///   rewritten step enumerates a different candidate sequence, so
///   `position()`/`last()` would count different nodes.
///
/// The rule iterates left-to-right, so reverse-step *chains*
/// (`//b/ancestor::a/ancestor::c`) collapse into nested forward
/// predicates. Steps deeper in the path (after a non-universal prefix,
/// e.g. `//a/b/ancestor::c`) are left alone. Nested absolute paths
/// inside predicates are rewritten recursively.
///
/// Returns the rewritten expression, or `None` when no rule applied.
/// Operates on normalized ASTs and emits normalized ASTs (existence
/// predicates are `boolean(…)`-wrapped).
pub fn forwardize(e: &Expr) -> Option<Expr> {
    let mut changed = false;
    let out = fw_expr(e, &mut changed);
    changed.then_some(out)
}

fn fw_expr(e: &Expr, changed: &mut bool) -> Expr {
    match e {
        Expr::Path(p) => Expr::Path(fw_path(p, changed)),
        Expr::Filter { primary, predicates } => Expr::Filter {
            primary: Box::new(fw_expr(primary, changed)),
            predicates: predicates.iter().map(|p| fw_expr(p, changed)).collect(),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(fw_expr(left, changed)),
            right: Box::new(fw_expr(right, changed)),
        },
        Expr::Neg(inner) => Expr::Neg(Box::new(fw_expr(inner, changed))),
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| fw_expr(a, changed)).collect(),
        },
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => e.clone(),
    }
}

fn fw_path(p: &LocationPath, changed: &mut bool) -> LocationPath {
    let start = match &p.start {
        PathStart::Expr(head) => PathStart::Expr(Box::new(fw_expr(head, changed))),
        other => other.clone(),
    };
    let mut steps: Vec<Step> = p
        .steps
        .iter()
        .map(|s| Step {
            axis: s.axis,
            test: s.test.clone(),
            predicates: s.predicates.iter().map(|pr| fw_expr(pr, changed)).collect(),
        })
        .collect();
    if matches!(start, PathStart::Root) {
        while let Some((step, consumed)) = fw_head(&steps) {
            steps.splice(0..consumed, [step]);
            *changed = true;
        }
    }
    LocationPath { start, steps }
}

/// If `steps` begins with a universal descendant prefix followed by a
/// reverse step, return the merged forward step and how many input steps
/// it replaces.
fn fw_head(steps: &[Step]) -> Option<(Step, usize)> {
    // The universal prefix: every node the source step can select,
    // selected from the root. Two shapes — the normalizer's `//tf[Pf]`
    // pair, and a single descendant(-or-self) step.
    let (src, prefix_len) = if steps.len() >= 2
        && steps[0].axis == Axis::DescendantOrSelf
        && steps[0].test == NodeTest::Kind(KindTest::Node)
        && steps[0].predicates.is_empty()
        && steps[1].axis == Axis::Child
    {
        (&steps[1], 2)
    } else if steps
        .first()
        .is_some_and(|s| matches!(s.axis, Axis::Descendant | Axis::DescendantOrSelf))
    {
        (&steps[0], 1)
    } else {
        return None;
    };
    let rev = steps.get(prefix_len)?;
    if !is_reverse(rev.axis) {
        return None;
    }
    if src.predicates.iter().any(is_positional) || rev.predicates.iter().any(is_positional) {
        return None;
    }
    // x ∈ χʳ(y) ⟺ y ∈ inv(χʳ)(x): the source step becomes an existence
    // witness on the rewritten step's candidates.
    let witness = Expr::Path(LocationPath {
        start: PathStart::ContextNode,
        steps: vec![Step {
            axis: rev.axis.inverse(),
            test: src.test.clone(),
            predicates: src.predicates.clone(),
        }],
    });
    let mut predicates = rev.predicates.clone();
    predicates.push(Expr::call("boolean", vec![witness]));
    Some((
        Step { axis: Axis::DescendantOrSelf, test: rev.test.clone(), predicates },
        prefix_len + 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, parse_normalized};

    fn opt(q: &str) -> String {
        optimize(&parse_normalized(q).unwrap()).to_string()
    }

    #[test]
    fn double_slash_merges() {
        assert_eq!(opt("//a"), "/descendant::a");
        assert_eq!(opt("//a//b"), "/descendant::a/descendant::b");
        assert_eq!(opt("//a[b]"), "/descendant::a[boolean(child::b)]");
    }

    #[test]
    fn fusion_alone_merges_every_double_slash_and_nothing_else() {
        let fuse = |q: &str| fuse_descendant_steps(&parse_normalized(q).unwrap()).to_string();
        assert_eq!(fuse("//a"), "/descendant::a");
        assert_eq!(fuse("//a//b"), "/descendant::a/descendant::b");
        // Inside predicates, function arguments and relative paths.
        assert_eq!(fuse("//a[.//b]"), "/descendant::a[boolean(self::node()/descendant::b)]");
        assert_eq!(fuse("count(//d)"), "count(/descendant::d)");
        // Positional predicates block the merge, as in `optimize`.
        assert_eq!(fuse("//a[2]"), "/descendant-or-self::node()/child::a[position() = 2]");
        // No other rule runs: `self::node()` steps and constants stay.
        assert_eq!(fuse("a/self::node()"), "child::a/self::node()");
        assert_eq!(fuse("1 + 2"), "1 + 2");
        // `//@x` is not a child step.
        assert_eq!(fuse("//@x"), "/descendant-or-self::node()/attribute::x");
    }

    #[test]
    fn positional_predicates_block_merge() {
        // //a[2] means "second a among its siblings", NOT the second
        // descendant — merging would change the answer.
        assert_eq!(opt("//a[2]"), "/descendant-or-self::node()/child::a[position() = 2]");
        assert_eq!(opt("//a[last()]"), "/descendant-or-self::node()/child::a[position() = last()]");
        // Nested positional predicates inside a sub-path are fine.
        assert_eq!(opt("//a[b[2]]"), "/descendant::a[boolean(child::b[position() = 2])]");
    }

    #[test]
    fn self_node_dropped_where_sound() {
        assert_eq!(opt("child::a/."), "child::a");
        assert_eq!(opt("a/./b"), "child::a/child::b");
        // Not dropped right after an attribute step.
        assert_eq!(opt("@x/."), "attribute::x/self::node()");
        // Not dropped as the only step (context filtering matters).
        assert_eq!(opt("."), "self::node()");
    }

    #[test]
    fn constant_folding() {
        assert_eq!(opt("1 + 2 * 3"), "7");
        assert_eq!(opt("-(2 - 5)"), "3");
        assert_eq!(opt("10 div 4"), "2.5");
        assert_eq!(opt("7 mod 3"), "1");
        assert_eq!(opt("count(//a) + 1 * 2"), "count(/descendant::a) + 2");
    }

    #[test]
    fn boolean_simplification() {
        assert_eq!(opt("true() and false()"), "false()");
        assert_eq!(opt("false() or true()"), "true()");
        assert_eq!(opt("//a[true() and b]"), "/descendant::a[boolean(child::b)]");
        assert_eq!(opt("not(not(1 < 2))"), "true()", "folds through the double negation");
        assert_eq!(opt("not(not(count(//a) < 2))"), "count(/descendant::a) < 2");
        assert_eq!(opt("boolean(boolean(//a))"), "boolean(/descendant::a)");
    }

    #[test]
    fn relational_and_string_folding() {
        assert_eq!(opt("1 < 2"), "true()");
        assert_eq!(opt("2 >= 3"), "false()");
        assert_eq!(opt("0 div 0 = 0 div 0"), "false()", "NaN != NaN");
        assert_eq!(opt("'ab' = 'ab'"), "true()");
        assert_eq!(opt("'ab' != 'cd'"), "true()");
        assert_eq!(opt("concat('a', 'b', 'c')"), "'abc'");
        assert_eq!(opt("starts-with('pineapple', 'pine')"), "true()");
        assert_eq!(opt("contains('pineapple', 'zzz')"), "false()");
        assert_eq!(opt("string-length('abc')"), "3");
        assert_eq!(opt("normalize-space('  a  b ')"), "'a b'");
        assert_eq!(opt("boolean('x')"), "true()");
        assert_eq!(opt("boolean('')"), "false()");
        assert_eq!(opt("boolean(0)"), "false()");
        // Non-literal arguments are left alone.
        assert_eq!(opt("concat('a', string(//b))"), "concat('a', string(/descendant::b))");
    }

    #[test]
    fn true_predicates_dropped() {
        assert_eq!(opt("//a[true()]"), "/descendant::a");
        assert_eq!(opt("//a[1 < 2]"), "/descendant::a");
        assert_eq!(opt("//a[true()][b]"), "/descendant::a[boolean(child::b)]");
        // false() predicates are NOT rewritten (no empty-set form).
        assert_eq!(opt("//a[false()]"), "/descendant::a[false()]");
    }

    #[test]
    fn optimized_queries_reparse() {
        for q in ["//a//b[c]", "//a[2]/b", "1+2", ". = 'x'", "//a[. and true()]"] {
            let o = optimize(&parse_normalized(q).unwrap());
            let printed = o.to_string();
            assert_eq!(parse(&printed).unwrap(), o, "{q} → {printed}");
        }
    }

    #[test]
    fn idempotent() {
        for q in ["//a//b[c][2]", "1 + 2", "//a[./b]/."] {
            let once = optimize(&parse_normalized(q).unwrap());
            let twice = optimize(&once);
            assert_eq!(once, twice, "{q}");
        }
    }

    fn fwd(q: &str) -> Option<String> {
        forwardize(&parse_normalized(q).unwrap()).map(|e| e.to_string())
    }

    #[test]
    fn forwardize_eliminates_each_reverse_axis() {
        assert_eq!(
            fwd("//author/parent::book").as_deref(),
            Some("/descendant-or-self::book[boolean(child::author)]")
        );
        assert_eq!(
            fwd("//b/ancestor::a").as_deref(),
            Some("/descendant-or-self::a[boolean(descendant::b)]")
        );
        assert_eq!(
            fwd("//b/ancestor-or-self::a").as_deref(),
            Some("/descendant-or-self::a[boolean(descendant-or-self::b)]")
        );
        assert_eq!(
            fwd("//c/preceding::a").as_deref(),
            Some("/descendant-or-self::a[boolean(following::c)]")
        );
        assert_eq!(
            fwd("//c/preceding-sibling::a").as_deref(),
            Some("/descendant-or-self::a[boolean(following-sibling::c)]")
        );
    }

    #[test]
    fn forwardize_carries_predicates_and_trailing_steps() {
        assert_eq!(
            fwd("//b[c]/ancestor::a[d]/e").as_deref(),
            Some(
                "/descendant-or-self::a[boolean(child::d)]\
                 [boolean(descendant::b[boolean(child::c)])]/child::e"
            )
        );
        // Single-step descendant prefixes (the optimizer's merged form).
        assert_eq!(
            fwd("/descendant::b/ancestor::a").as_deref(),
            Some("/descendant-or-self::a[boolean(descendant::b)]")
        );
    }

    #[test]
    fn forwardize_collapses_chains() {
        assert_eq!(
            fwd("//b/ancestor::a/ancestor::c").as_deref(),
            Some(
                "/descendant-or-self::c\
                 [boolean(descendant::a[boolean(descendant::b)])]"
            )
        );
    }

    #[test]
    fn forwardize_rewrites_nested_absolute_paths() {
        assert_eq!(
            fwd("//x[//b/ancestor::a]").as_deref(),
            Some(
                "/descendant-or-self::node()/child::x\
                 [boolean(/descendant-or-self::a[boolean(descendant::b)])]"
            )
        );
    }

    #[test]
    fn forwardize_respects_its_preconditions() {
        // Positional predicates on either side block the rule.
        assert_eq!(fwd("//b[2]/ancestor::a"), None);
        assert_eq!(fwd("//b/ancestor::a[last()]"), None);
        // Relative spines are not universal.
        assert_eq!(fwd("b/ancestor::a"), None);
        // Non-universal prefixes (an intervening child step) block it.
        assert_eq!(fwd("//a/b/ancestor::c"), None);
        // Forward queries are untouched.
        assert_eq!(fwd("//a//b[c]"), None);
    }

    #[test]
    fn forwardized_queries_reparse() {
        for q in [
            "//author/parent::book",
            "//b[c]/ancestor::a/d",
            "//c/preceding::a",
            "//b/ancestor::a/ancestor::c",
        ] {
            let f = forwardize(&parse_normalized(q).unwrap()).unwrap();
            let printed = f.to_string();
            assert_eq!(parse(&printed).unwrap(), f, "{q} → {printed}");
        }
    }
}
