//! **OptMinContext** (paper §11.2, Algorithm 11.1): the combined query
//! processor.
//!
//! * Supports all of XPath with the MinContext bounds (Theorem 8.6);
//! * queries in the linear-time **Core XPath** fragment (and its
//!   XPatterns extension) take the `O(|D|·|Q|)` algebraic route
//!   (Corollary 11.5, Theorem 10.8);
//! * **Core XPath sub-paths** of any other query take the same route when
//!   they have a single source: an absolute path (`Relev = ∅`) at any
//!   depth, predicates included, or a relative path reached from the top
//!   level only through operators, function arguments, filter primaries
//!   and path heads, whose context set is just the evaluation's context
//!   node. Each is evaluated once by [`CoreXPathEvaluator`] and its
//!   one-row table seeded into MinContext — Algorithm 11.1's "not
//!   evaluated again" applied to the linear fragment — so `count(//d)`
//!   costs what `//d` costs instead of MinContext's per-node relation;
//! * subexpressions of the **Extended Wadler** shape — `boolean(π)` /
//!   `π RelOp c` — are evaluated bottom-up by backward propagation,
//!   innermost first, and their tables are seeded into MinContext so they
//!   are "not evaluated again" (Corollary 11.4: linear space, quadratic
//!   time for such subexpressions). A candidate whose path already took
//!   the algebra route is left to MinContext, which then only applies the
//!   `boolean` / comparison to the seeded node set.
//!
//! Plain [`Strategy::MinContext`](crate::plan::Strategy::MinContext)
//! never takes these routes: it stays the paper's Algorithm 8.5.

use xpath_syntax::{Expr, PathStart};
use xpath_xml::{Document, NodeId};

use crate::bottomup::CvTable;
use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::mincontext::MinContextEvaluator;
use crate::relev::{relev, Relev};
use crate::value::Value;
use crate::wadler::bottomup_candidate;

/// Execution report: which routes Algorithm 11.1 took (exposed so tests and
/// benches can assert the dispatch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// The whole query ran through the linear-time Core XPath algebra.
    pub used_core_xpath: bool,
    /// Number of subexpressions evaluated bottom-up (backward propagation).
    pub bottomup_paths: usize,
    /// Number of single-source Core XPath / XPatterns sub-paths evaluated
    /// once on the algebra and seeded into MinContext (the whole-query
    /// route counts under `used_core_xpath` instead).
    pub core_paths: usize,
}

/// The OptMinContext evaluator.
pub struct OptMinContextEvaluator<'d> {
    /// Shard budget handed to the Core XPath fast path and the seeded
    /// MinContext evaluator (`0` = auto; see [`crate::parallel`]).
    threads: u32,
    doc: &'d Document,
    /// Deadline/cancellation budget, forwarded to whichever route the
    /// dispatch takes (the Core XPath fast path or seeded MinContext).
    eval_budget: EvalBudget,
    /// Adaptive kernel decisions of every algebra evaluation run so far.
    kernels: xpath_axes::KernelCounters,
}

impl<'d> OptMinContextEvaluator<'d> {
    /// Create an evaluator over `doc` with the auto-resolved thread
    /// budget.
    pub fn new(doc: &'d Document) -> Self {
        OptMinContextEvaluator {
            doc,
            threads: 0,
            eval_budget: EvalBudget::unlimited(),
            kernels: xpath_axes::KernelCounters::new(),
        }
    }

    /// Pin the shard budget for the underlying engines: `0` (default)
    /// auto-resolves, `1` keeps every pass serial.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Attach a deadline/cancellation [`EvalBudget`]: both dispatch routes
    /// poll it at their pass boundaries.
    #[must_use]
    pub fn with_eval_budget(mut self, budget: EvalBudget) -> Self {
        self.eval_budget = budget;
        self
    }

    /// The adaptive kernel decisions recorded by the algebra routes (the
    /// whole-query route and every sub-path) across this evaluator's
    /// evaluations; MinContext itself records none.
    pub(crate) fn kernel_counts(&self) -> xpath_axes::KernelCounts {
        self.kernels.snapshot()
    }

    /// Evaluate `query` at `ctx` (Algorithm 11.1).
    pub fn evaluate(&self, query: &Expr, ctx: Context) -> EvalResult<Value> {
        self.evaluate_with_report(query, ctx).map(|(v, _)| v)
    }

    /// Evaluate and report the dispatch decisions.
    pub fn evaluate_with_report(
        &self,
        query: &Expr,
        ctx: Context,
    ) -> EvalResult<(Value, OptReport)> {
        let mut report = OptReport::default();

        let mut routes = Routes::default();
        collect_routes(query, true, &mut routes);
        let sets = self.run_algebra(&routes.core, ctx)?;
        if let [(whole, _)] = routes.core.as_slice() {
            if std::ptr::eq(*whole, query) {
                // Corollary 11.5: the whole query is Core XPath (or
                // XPatterns) and took the linear-time route.
                report.used_core_xpath = true;
                let out = sets.into_iter().next().expect("one program, one set");
                return Ok((Value::NodeSet(out), report));
            }
        }

        // Algorithm 11.1: seed the single-source sub-paths' results, then
        // evaluate all bottom-up location paths inside Q, innermost first,
        // seeding their tables into MinContext too.
        let mc = MinContextEvaluator::new(self.doc)
            .with_threads(self.threads)
            .with_eval_budget(self.eval_budget.clone());
        for ((e, _), set) in routes.core.iter().zip(sets) {
            // Relev ∅ projects every context onto the one row; {cn} keys
            // it by ctx.node, the only context a top-level path sees.
            let mut table = CvTable::new(relev(e));
            table.insert(ctx, Value::NodeSet(set));
            mc.seed_table(e, table);
            report.core_paths += 1;
        }
        for e in routes.bottomup {
            self.eval_budget.check()?;
            let table = mc.eval_bottomup_expr(e)?;
            mc.seed_table(e, table);
            report.bottomup_paths += 1;
        }
        let v = mc.evaluate_with_seeds(query, ctx)?;
        Ok((v, report))
    }

    /// Evaluate each compiled program once from `ctx.node` on one
    /// [`CoreXPathEvaluator`], under this evaluator's thread budget and
    /// [`EvalBudget`], and record its kernel decisions.
    fn run_algebra(
        &self,
        programs: &[(&Expr, CoreQuery)],
        ctx: Context,
    ) -> EvalResult<Vec<crate::nodeset::NodeSet>> {
        if programs.is_empty() {
            return Ok(Vec::new());
        }
        let ev = CoreXPathEvaluator::new(self.doc).with_threads(self.threads);
        let sets = programs
            .iter()
            .map(|(_, q)| ev.try_evaluate(q, &[ctx.node], &self.eval_budget))
            .collect::<EvalResult<Vec<_>>>();
        self.kernels.merge(ev.kernel_counts());
        sets
    }

    /// Evaluate over several context nodes at once (useful for XSLT-style
    /// batch matching); results are per node.
    pub fn evaluate_at_nodes(&self, query: &Expr, nodes: &[NodeId]) -> EvalResult<Vec<Value>> {
        nodes.iter().map(|&n| self.evaluate(query, Context::of(n))).collect()
    }
}

/// Algorithm 11.1's work list, both halves in post-order.
#[derive(Default)]
struct Routes<'e> {
    /// Single-source Core XPath / XPatterns sub-paths and their compiled
    /// algebra programs.
    core: Vec<(&'e Expr, CoreQuery)>,
    /// `boolean(π)` / `π RelOp c` occurrences for backward propagation,
    /// inner candidates before outer ones ("starting with the innermost
    /// ones in case of nesting").
    bottomup: Vec<&'e Expr>,
}

/// Walk `e` collecting its [`Routes`]. `top` holds while `e` is reached
/// from the query root only through operators, function arguments,
/// filter primaries and path heads: MinContext then evaluates `e` at the
/// context node alone, so a relative path there has a single source too.
fn collect_routes<'e>(e: &'e Expr, top: bool, out: &mut Routes<'e>) {
    if let Some(q) = single_source_program(e, top) {
        // The program covers the path's predicates; nothing inside it
        // needs a route of its own.
        out.core.push((e, q));
        return;
    }
    let routed_before = out.core.len();
    // Children first (post-order).
    match e {
        Expr::Path(p) => {
            if let PathStart::Expr(head) = &p.start {
                collect_routes(head, top, out);
            }
            for s in &p.steps {
                for pr in &s.predicates {
                    collect_routes(pr, false, out);
                }
            }
        }
        Expr::Filter { primary, predicates } => {
            collect_routes(primary, top, out);
            for pr in predicates {
                collect_routes(pr, false, out);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_routes(left, top, out);
            collect_routes(right, top, out);
        }
        Expr::Neg(inner) => collect_routes(inner, top, out),
        Expr::Call { args, .. } => {
            for a in args {
                collect_routes(a, top, out);
            }
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
    }
    if let Some(form) = bottomup_candidate(e) {
        let routed = out.core[routed_before..]
            .iter()
            .any(|(r, _)| matches!(r, Expr::Path(p) if std::ptr::eq(p, form.path)));
        if !routed {
            out.bottomup.push(e);
        }
    }
}

/// The algebra program for `e` if it is a location path in Core XPath or
/// XPatterns (a bare `id(…)` call is a step-less XPatterns path) with a
/// single source: context-independent anywhere, or relative at the top
/// level.
fn single_source_program(e: &Expr, top: bool) -> Option<CoreQuery> {
    let is_path = match e {
        Expr::Path(_) => true,
        Expr::Call { name, .. } => name == "id",
        _ => false,
    };
    if !is_path {
        return None;
    }
    let rel = relev(e);
    if rel != Relev::NONE && !(top && rel == Relev::CN) {
        return None;
    }
    corexpath::compile_dialect(e, CoreDialect::XPatterns).ok()
}

/// Convenience: evaluate a query string with OptMinContext.
pub fn evaluate_str(doc: &Document, query: &str, ctx: Context) -> EvalResult<Value> {
    let e = xpath_syntax::parse_normalized(query)
        .map_err(|err| crate::context::EvalError::Parse(err.to_string()))?;
    OptMinContextEvaluator::new(doc).evaluate(&e, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEvaluator;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::{doc_bookstore, doc_figure8, doc_flat, doc_flat_text};

    #[test]
    fn example_11_2_full_query() {
        // The §11 running example, evaluated end-to-end by OptMinContext.
        let d = doc_figure8();
        let q = "/child::a/descendant::*[boolean(following::d[(position() != last()) and \
                 (preceding-sibling::*/preceding::* = 100)]/following::d)]";
        let e = parse_normalized(q).unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        let expect: Vec<_> =
            ["11", "12", "13", "14", "22"].iter().map(|i| d.element_by_id(i).unwrap()).collect();
        assert_eq!(v, Value::NodeSet(expect.into()));
        assert!(!report.used_core_xpath);
        // Two bottom-up paths: the inner "=100" comparison and the outer
        // boolean(...).
        assert_eq!(report.bottomup_paths, 2);
        // Both paths are relative inside predicates: many sources.
        assert_eq!(report.core_paths, 0);
    }

    fn report_of(d: &Document, q: &str, ctx: NodeId) -> (Value, OptReport) {
        let e = parse_normalized(q).unwrap();
        OptMinContextEvaluator::new(d).evaluate_with_report(&e, Context::of(ctx)).unwrap()
    }

    #[test]
    fn single_source_sub_paths_run_on_the_algebra() {
        let d = doc_figure8();
        let root = d.root();
        // An absolute path under a function: one algebra evaluation.
        let (v, r) = report_of(&d, "count(//b)", root);
        assert_eq!((r.used_core_xpath, r.core_paths, r.bottomup_paths), (false, 1, 0));
        assert_eq!(
            v,
            NaiveEvaluator::new(&d)
                .evaluate(&parse_normalized("count(//b)").unwrap(), Context::of(root))
                .unwrap()
        );
        // The benchmark's count(//x) shapes, whatever the document holds.
        for q in ["count(//d)", "count(//a/c)", "count(//h/parent::g)"] {
            assert_eq!(report_of(&d, q, root).1.core_paths, 1, "{q}");
        }
        // A relative path inside a predicate has many sources: MinContext.
        let (_, r) = report_of(&d, "//a/b[count(b/c) > 1]", root);
        assert_eq!(r.core_paths, 0);
        // Absolute paths are single-source at any depth, XPatterns too.
        assert_eq!(report_of(&d, "//b[count(//c) > 1]", root).1.core_paths, 1);
        assert_eq!(report_of(&d, "count(id('12 24')/ancestor::*)", root).1.core_paths, 1);
        assert_eq!(
            report_of(&d, "count(//a//c) = count(/descendant::a/descendant::c)", root).1.core_paths,
            2
        );
        // A top-level relative path has the context node as its one source.
        let x = d.element_by_id("10").unwrap();
        let (v, r) = report_of(&d, "count(b/c)", x);
        assert_eq!(r.core_paths, 1);
        let naive = NaiveEvaluator::new(&d)
            .evaluate(&parse_normalized("count(b/c)").unwrap(), Context::of(x))
            .unwrap();
        assert_eq!(v, naive);
        // A Wadler candidate whose path took the algebra route is not
        // propagated backwards as well.
        let (_, r) = report_of(&d, "boolean(//d)", root);
        assert_eq!((r.core_paths, r.bottomup_paths), (1, 0));
    }

    #[test]
    fn sub_path_routes_honor_the_eval_budget() {
        let d = doc_figure8();
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let ev = OptMinContextEvaluator::new(&d)
            .with_eval_budget(EvalBudget::unlimited().with_cancel(cancel));
        let err = ev.evaluate(&parse_normalized("count(//d)").unwrap(), Context::of(d.root()));
        assert!(matches!(err, Err(crate::context::EvalError::Cancelled)), "{err:?}");
    }

    #[test]
    fn core_xpath_queries_take_fast_path() {
        let d = doc_bookstore();
        let e = parse_normalized("//book[author]/title").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 4);
    }

    #[test]
    fn positional_queries_fall_back_to_mincontext() {
        let d = doc_flat(5);
        let e = parse_normalized("//b[position() = last()]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(!report.used_core_xpath);
        assert_eq!(v.as_node_set().unwrap().len(), 1);
    }

    #[test]
    fn agrees_with_naive_on_corpus() {
        let docs = [doc_flat(4), doc_flat_text(3), doc_figure8(), doc_bookstore()];
        let queries = [
            "//a/b",
            "//b[2]",
            "//*[parent::a/child::* = 'c']",
            "//a/b[count(parent::a/b) > 1]",
            "count(//b/following::b)",
            "(//c | //d)[2]",
            "id('12 24')/parent::*",
            "//*[@id = '22']",
            "//section/book[2]/title",
            "//book[author/last = 'Koch']/@id",
            "//d/ancestor::b",
            "//b[c = '23 24']",
            "//*[d = 100 and position() != last()]",
            "//*[boolean(following::d) or @year > 2000]",
            "sum(//d) + count(//c)",
            "//d[not(following-sibling::*)]",
            "string(//book[1]/title)",
        ];
        for d in &docs {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                let naive = NaiveEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                let opt =
                    OptMinContextEvaluator::new(d).evaluate(&e, Context::of(d.root())).unwrap();
                assert!(naive.semantically_equal(&opt), "query {q} on {d:?}: {naive:?} vs {opt:?}");
            }
        }
    }

    #[test]
    fn sub_path_routes_agree_with_naive_at_every_context() {
        // Unlike the differential suites, which tolerate `Capacity`
        // errors from table lookups, every evaluation here must succeed:
        // a seeded one-row table must cover every context MinContext
        // reads it at.
        let queries = [
            "count(b/c)",
            "count(//b) + count(c)",
            "(c | //d)[last()]",
            "boolean(b) and string(c) = '100'",
            "//b[count(//c) > 1]",
            "count(child::*[count(//d) > count(c)])",
            "sum(//@id) - count(id('12 24')/ancestor::*)",
            "*[position() > count(//c[2]) div 2]",
            "(b/c)[1]/following::d",
        ];
        for d in [doc_figure8(), doc_bookstore(), doc_flat_text(3)] {
            for q in queries {
                let e = parse_normalized(q).unwrap();
                for n in d.all_nodes() {
                    let naive = NaiveEvaluator::new(&d).evaluate(&e, Context::of(n)).unwrap();
                    let opt = OptMinContextEvaluator::new(&d)
                        .evaluate(&e, Context::of(n))
                        .unwrap_or_else(|err| panic!("{q} at {n:?}: {err}"));
                    assert!(naive.semantically_equal(&opt), "{q} at {n:?}: {naive:?} vs {opt:?}");
                }
            }
        }
    }

    #[test]
    fn wadler_queries_use_bottomup_paths() {
        let d = doc_figure8();
        // [d = 100] is a π RelOp c occurrence → bottom-up.
        let e = parse_normalized("//*[d = 100 and position() = 1]").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let (v, report) = ev.evaluate_with_report(&e, Context::of(d.root())).unwrap();
        assert!(report.bottomup_paths >= 1, "{report:?}");
        let naive = NaiveEvaluator::new(&d)
            .evaluate(
                &parse_normalized("//*[d = 100 and position() = 1]").unwrap(),
                Context::of(d.root()),
            )
            .unwrap();
        assert!(naive.semantically_equal(&v));
    }

    #[test]
    fn batch_evaluation() {
        let d = doc_flat(3);
        let a = d.document_element().unwrap();
        let bs: Vec<NodeId> = d.children(a).collect();
        let e = parse_normalized("count(following-sibling::b)").unwrap();
        let ev = OptMinContextEvaluator::new(&d);
        let vs = ev.evaluate_at_nodes(&e, &bs).unwrap();
        assert_eq!(vs, vec![Value::Number(2.0), Value::Number(1.0), Value::Number(0.0)]);
    }
}
