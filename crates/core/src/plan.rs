//! Document-independent execution plans — the output of the static phase.
//!
//! The paper's central observation is that XPath processing splits into a
//! **static** phase (parse, normalize, Figure-1 fragment classification,
//! algorithm selection — all independent of any document) and a **runtime**
//! phase (the polynomial/linear evaluators over a concrete tree). A
//! [`Plan`] captures everything the static phase produces:
//!
//! * the normalized (and possibly rewritten) expression,
//! * its [`Classification`] in the Figure-1 lattice,
//! * the resolved [`Strategy`] (never [`Strategy::Auto`]),
//! * eagerly compiled artifacts — the Core XPath/XPatterns algebra
//!   program (§10, with `//` steps fused into `descendant` steps), the
//!   streaming automaton, and OptMinContext's work list of algebra
//!   sub-paths and bottom-up candidates (Algorithm 11.1) — so
//!   per-evaluation work is pure runtime.
//!
//! Because eager compilation happens here, a query outside an explicitly
//! requested fragment fails at *plan-build* time with
//! [`EvalError::UnsupportedFragment`](crate::EvalError::UnsupportedFragment),
//! not at first evaluation.

use xpath_syntax::Expr;
use xpath_xml::Document;

use crate::analyze::{self, QueryReport, Streamability};
use crate::bottomup::BottomUpEvaluator;
use crate::context::{Context, EvalBudget, EvalResult};
use crate::corexpath::{self, CoreDialect, CoreQuery, CoreXPathEvaluator};
use crate::fragment::{classify, Classification, Fragment};
use crate::mincontext::MinContextEvaluator;
use crate::naive::NaiveEvaluator;
use crate::optmincontext::{OptMinContextEvaluator, OptRoutes};
use crate::pool::PoolEvaluator;
use crate::streaming::{self, StreamQuery};
use crate::topdown::TopDownEvaluator;
use crate::value::Value;

/// Which of the paper's algorithms to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Strategy {
    /// §2 baseline: exponential recursive evaluation (models XALAN/XT/
    /// Saxon/IE6).
    Naive,
    /// §9: naive recursion + data pool (Algorithm 9.1).
    DataPool,
    /// §6: bottom-up context-value tables (Algorithm 6.3).
    BottomUp,
    /// §7: top-down vectorized evaluation (the paper's implementation).
    TopDown,
    /// §8: MinContext (Algorithm 8.5).
    MinContext,
    /// §11.2: OptMinContext (Algorithm 11.1).
    OptMinContext,
    /// §10.1: linear-time Core XPath algebra (rejects other queries).
    CoreXPath,
    /// §10.2: linear-time XPatterns (rejects other queries).
    XPatterns,
    /// Single-pass streaming matcher for the forward Core XPath fragment
    /// (§1–§2 related work; rejects non-streamable queries).
    Streaming,
    /// Classify via Figure 1 and pick the best algorithm.
    #[default]
    Auto,
}

/// The strategy [`Strategy::Auto`] resolves to for a classified query,
/// per the Figure 1 lattice.
pub fn resolve_auto(classification: &Classification) -> Strategy {
    match classification.fragment {
        Fragment::CoreXPath => Strategy::CoreXPath,
        Fragment::XPatterns => Strategy::XPatterns,
        // OptMinContext realizes both the Wadler bounds and the general
        // MinContext bounds (Algorithm 11.1).
        Fragment::ExtendedWadler | Fragment::FullXPath => Strategy::OptMinContext,
    }
}

/// A fully resolved, immutable, document-independent execution plan.
///
/// Build one with [`Plan::build`], then run it against any number of
/// documents with [`Plan::execute`]. Plans contain only owned plain data,
/// so they are `Send + Sync` and can be shared across threads (the public
/// wrapper is [`crate::query::CompiledQuery`]).
#[derive(Clone, Debug)]
pub struct Plan {
    /// The normalized (and possibly rewritten) expression.
    pub expr: Expr,
    /// The Figure-1 classification of `expr`.
    pub classification: Classification,
    /// The resolved strategy (never [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Eagerly compiled Core XPath / XPatterns algebra program, present
    /// iff `strategy` is [`Strategy::CoreXPath`] or [`Strategy::XPatterns`].
    algebra: Option<CoreQuery>,
    /// Eagerly compiled streaming automaton, present iff `strategy` is
    /// [`Strategy::Streaming`].
    automaton: Option<StreamQuery>,
    /// OptMinContext's compiled work list, present iff `strategy` is
    /// [`Strategy::OptMinContext`].
    routes: Option<OptRoutes>,
    /// The static-analysis report ([`crate::analyze`]): satisfiability,
    /// reverse-axis rewrite, streamability classification, diagnostics.
    report: QueryReport,
    /// Step budget for the exponential naive baseline, if bounded.
    naive_budget: Option<u64>,
    /// Shard budget for the parallel CVT layer (`0` = auto:
    /// `GKP_THREADS` / the machine's parallelism; `1` = always serial).
    threads: u32,
}

impl Plan {
    /// Resolve `requested` against the classification of `expr` and compile
    /// all fragment artifacts eagerly.
    ///
    /// With an explicit fragment strategy ([`Strategy::CoreXPath`],
    /// [`Strategy::XPatterns`], [`Strategy::Streaming`]) a query outside
    /// that fragment is rejected **here**, so callers see
    /// [`EvalError::UnsupportedFragment`](crate::EvalError::UnsupportedFragment)
    /// once at compile time rather than on every evaluation.
    ///
    /// The plan runs with the auto-resolved thread budget; use
    /// [`Plan::build_with_threads`] to pin it.
    pub fn build(expr: Expr, requested: Strategy, naive_budget: Option<u64>) -> EvalResult<Plan> {
        Plan::build_with_threads(expr, requested, naive_budget, 0)
    }

    /// [`Plan::build`] with an explicit shard budget for the parallel CVT
    /// layer: `0` resolves the process default (`GKP_THREADS` env, then
    /// the machine's parallelism), `1` keeps every pass serial. Sharding
    /// is still cost-gated per pass at runtime (see [`crate::parallel`]),
    /// so the budget is a cap, not a mandate.
    pub fn build_with_threads(
        expr: Expr,
        requested: Strategy,
        naive_budget: Option<u64>,
        threads: u32,
    ) -> EvalResult<Plan> {
        let classification = classify(&expr);
        let report = analyze::analyze(&expr);
        let auto = requested == Strategy::Auto;
        let mut strategy = if auto { resolve_auto(&classification) } else { requested };

        let mut algebra = None;
        let mut automaton = None;
        match strategy {
            Strategy::CoreXPath | Strategy::XPatterns => {
                let dialect = if strategy == Strategy::CoreXPath {
                    CoreDialect::CoreXPath
                } else {
                    CoreDialect::XPatterns
                };
                match compile_algebra(&expr, dialect) {
                    Ok(q) => algebra = Some(q),
                    // The classifier approves exactly what the algebra
                    // compiler accepts, so under Auto this is unreachable;
                    // fall back to the general engine defensively rather
                    // than failing a query the lattice admits.
                    Err(_) if auto => strategy = Strategy::OptMinContext,
                    Err(e) => return Err(e),
                }
            }
            // The streaming matcher is picked from the analyzer's
            // classification, not a fresh fragment probe: a query that
            // streams only in its reverse-axis-rewritten form compiles
            // the automaton from that rewrite.
            Strategy::Streaming => match &report.streamability {
                Streamability::InMemoryOnly(why) => {
                    return Err(crate::context::EvalError::UnsupportedFragment(why.clone()));
                }
                _ => {
                    let source = if report.streams_via_rewrite {
                        report.forward_expr.as_ref().expect("streams_via_rewrite implies a rewrite")
                    } else {
                        &expr
                    };
                    automaton = Some(streaming::compile_expr(source)?);
                }
            },
            _ => {}
        }
        let routes = (strategy == Strategy::OptMinContext).then(|| OptRoutes::compile(&expr));
        Ok(Plan {
            expr,
            classification,
            strategy,
            algebra,
            automaton,
            routes,
            report,
            naive_budget,
            threads,
        })
    }

    /// Run the plan against `doc` from context `ctx`.
    ///
    /// Pure runtime phase: no parsing, classification, or fragment
    /// compilation happens here.
    pub fn execute(&self, doc: &Document, ctx: Context) -> EvalResult<Value> {
        self.execute_with(doc, ctx, &EvalBudget::unlimited())
    }

    /// [`Plan::execute`] under an [`EvalBudget`]: every strategy polls the
    /// budget at its natural pass boundary (location steps, table passes,
    /// axis passes, stream-event blocks) and fails with
    /// [`EvalError::Cancelled`](crate::EvalError::Cancelled) /
    /// [`EvalError::DeadlineExceeded`](crate::EvalError::DeadlineExceeded)
    /// once it trips — never a poisoned evaluator or a partial result.
    pub fn execute_with(
        &self,
        doc: &Document,
        ctx: Context,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        // Constant-empty plan node: the analyzer proved the result is
        // document-independent, so no evaluator runs at all.
        if let Some(v) = &self.report.const_result {
            return Ok(v.clone());
        }
        run(
            &self.expr,
            self.strategy,
            self.algebra.as_ref(),
            self.automaton.as_ref(),
            self.routes.as_ref(),
            self.naive_budget,
            self.threads,
            doc,
            ctx,
            None,
            budget,
        )
    }

    /// [`Plan::execute`], additionally merging the adaptive axis planner's
    /// kernel decisions into `kernels` (the fragment strategies, and
    /// OptMinContext's algebra routes; the other general evaluators record
    /// nothing). This is how a
    /// [`CompiledQuery`](crate::query::CompiledQuery) accumulates its
    /// per-query planner statistics across evaluations.
    pub fn execute_recording(
        &self,
        doc: &Document,
        ctx: Context,
        kernels: &xpath_axes::KernelCounters,
    ) -> EvalResult<Value> {
        self.execute_recording_with(doc, ctx, kernels, &EvalBudget::unlimited())
    }

    /// [`Plan::execute_recording`] under an [`EvalBudget`] (see
    /// [`Plan::execute_with`]).
    pub fn execute_recording_with(
        &self,
        doc: &Document,
        ctx: Context,
        kernels: &xpath_axes::KernelCounters,
        budget: &EvalBudget,
    ) -> EvalResult<Value> {
        if let Some(v) = &self.report.const_result {
            return Ok(v.clone());
        }
        run(
            &self.expr,
            self.strategy,
            self.algebra.as_ref(),
            self.automaton.as_ref(),
            self.routes.as_ref(),
            self.naive_budget,
            self.threads,
            doc,
            ctx,
            Some(kernels),
            budget,
        )
    }

    /// The configured shard budget for the parallel CVT layer (`0` =
    /// auto-resolve at evaluation time).
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// The compiled Core XPath / XPatterns algebra program, if this plan
    /// uses a fragment engine.
    pub fn algebra(&self) -> Option<&CoreQuery> {
        self.algebra.as_ref()
    }

    /// The compiled streaming automaton, if this plan streams.
    pub fn automaton(&self) -> Option<&StreamQuery> {
        self.automaton.as_ref()
    }

    /// The naive-evaluator step budget, if one was configured.
    pub fn naive_budget(&self) -> Option<u64> {
        self.naive_budget
    }

    /// The static-analysis report produced at build time (satisfiability,
    /// reverse-axis rewrite, streamability classification, diagnostics).
    pub fn report(&self) -> &QueryReport {
        &self.report
    }
}

/// One-shot evaluation of an already-prepared expression without building
/// a persistent [`Plan`]: dispatches directly on `strategy` (classifying
/// only under [`Strategy::Auto`]) and borrows the expression, so a call
/// costs the same as pre-plan `Engine::evaluate_expr` did — no AST clone,
/// no classification for explicit strategies. Fragment artifacts are
/// compiled per call; keep a [`Plan`] (via
/// [`crate::query::Compiler::compile`]) to amortize them.
pub fn execute_adhoc(
    expr: &Expr,
    strategy: Strategy,
    naive_budget: Option<u64>,
    doc: &Document,
    ctx: Context,
) -> EvalResult<Value> {
    match strategy {
        Strategy::Auto => {
            let resolved = resolve_auto(&classify(expr));
            execute_adhoc(expr, resolved, naive_budget, doc, ctx)
        }
        Strategy::CoreXPath | Strategy::XPatterns => {
            let dialect = if strategy == Strategy::CoreXPath {
                CoreDialect::CoreXPath
            } else {
                CoreDialect::XPatterns
            };
            let q = compile_algebra(expr, dialect)?;
            run(
                expr,
                strategy,
                Some(&q),
                None,
                None,
                naive_budget,
                0,
                doc,
                ctx,
                None,
                &EvalBudget::unlimited(),
            )
        }
        Strategy::Streaming => {
            let sq = streaming::compile_expr(expr)?;
            run(
                expr,
                strategy,
                None,
                Some(&sq),
                None,
                naive_budget,
                0,
                doc,
                ctx,
                None,
                &EvalBudget::unlimited(),
            )
        }
        _ => run(
            expr,
            strategy,
            None,
            None,
            None,
            naive_budget,
            0,
            doc,
            ctx,
            None,
            &EvalBudget::unlimited(),
        ),
    }
}

/// The algebra program of a fragment strategy, with `//` steps fused
/// (`descendant-or-self::node()/child::t` → `descendant::t`, see
/// [`xpath_syntax::rewrite::fuse_descendant_steps`]): one axis pass per
/// `//t` instead of two. [`corexpath::compile_dialect`] itself stays
/// literal, so the Algorithm 3.2 oracle can still run the unfused steps.
fn compile_algebra(expr: &Expr, dialect: CoreDialect) -> EvalResult<CoreQuery> {
    corexpath::compile_dialect(&xpath_syntax::rewrite::fuse_descendant_steps(expr), dialect)
}

/// Shared runtime dispatch. `strategy` is resolved (never `Auto`) and any
/// artifacts it needs are supplied by the caller (OptMinContext compiles
/// its own routes when given none). When `kernels`
/// is given, the adaptive planner decisions of the fragment engines (and
/// of OptMinContext's algebra routes) are merged into it after the
/// evaluation. `threads` caps the parallel CVT layer
/// for the engines that have one (Core XPath / XPatterns axis passes, the
/// bottom-up row fills); `0` auto-resolves.
#[allow(clippy::too_many_arguments)]
fn run(
    expr: &Expr,
    strategy: Strategy,
    algebra: Option<&CoreQuery>,
    automaton: Option<&StreamQuery>,
    routes: Option<&OptRoutes>,
    naive_budget: Option<u64>,
    threads: u32,
    doc: &Document,
    ctx: Context,
    kernels: Option<&xpath_axes::KernelCounters>,
    budget: &EvalBudget,
) -> EvalResult<Value> {
    match strategy {
        Strategy::Naive => match naive_budget {
            Some(b) => NaiveEvaluator::with_budget(doc, b)
                .with_eval_budget(budget.clone())
                .evaluate(expr, ctx),
            None => NaiveEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx),
        },
        Strategy::DataPool => {
            PoolEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::BottomUp => BottomUpEvaluator::new(doc)
            .with_threads(threads)
            .with_eval_budget(budget.clone())
            .evaluate(expr, ctx),
        Strategy::TopDown => {
            TopDownEvaluator::new(doc).with_eval_budget(budget.clone()).evaluate(expr, ctx)
        }
        Strategy::MinContext => MinContextEvaluator::new(doc)
            .with_threads(threads)
            .with_eval_budget(budget.clone())
            .evaluate(expr, ctx),
        Strategy::OptMinContext => {
            let ev = OptMinContextEvaluator::new(doc)
                .with_threads(threads)
                .with_eval_budget(budget.clone());
            let (out, _) = match routes {
                Some(r) => ev.evaluate_routed(expr, r, ctx)?,
                None => ev.evaluate_with_report(expr, ctx)?,
            };
            if let Some(counters) = kernels {
                counters.merge(ev.kernel_counts());
            }
            Ok(out)
        }
        Strategy::CoreXPath | Strategy::XPatterns => {
            let q = algebra.expect("fragment dispatch requires a compiled algebra program");
            let ev = CoreXPathEvaluator::new(doc).with_threads(threads);
            let out = ev.try_evaluate(q, &[ctx.node], budget)?;
            if let Some(counters) = kernels {
                counters.merge(ev.kernel_counts());
            }
            Ok(Value::NodeSet(out))
        }
        Strategy::Streaming => {
            // Streamable queries are absolute, so the context node is
            // irrelevant to the result (P[[/π]] starts at the root).
            let sq = automaton.expect("streaming dispatch requires a compiled automaton");
            Ok(Value::NodeSet(streaming::try_evaluate_stream(sq, doc, budget)?))
        }
        Strategy::Auto => unreachable!("callers resolve Auto before run()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EvalError;
    use xpath_syntax::parse_normalized;
    use xpath_xml::generate::doc_bookstore;

    fn plan(q: &str, s: Strategy) -> EvalResult<Plan> {
        Plan::build(parse_normalized(q).unwrap(), s, None)
    }

    #[test]
    fn auto_resolves_per_figure_1() {
        assert_eq!(plan("//book[author]", Strategy::Auto).unwrap().strategy, Strategy::CoreXPath);
        assert_eq!(
            plan("//book[title = 'x']", Strategy::Auto).unwrap().strategy,
            Strategy::XPatterns
        );
        assert_eq!(
            plan("//book[position() = last()]", Strategy::Auto).unwrap().strategy,
            Strategy::OptMinContext
        );
    }

    #[test]
    fn fragment_artifacts_compile_eagerly() {
        let p = plan("//book[author]", Strategy::CoreXPath).unwrap();
        assert!(p.algebra().is_some());
        let p = plan("//book[author]", Strategy::Streaming).unwrap();
        assert!(p.automaton().is_some());
        // Outside the fragment: the error surfaces at build time.
        assert!(matches!(
            plan("count(//book)", Strategy::CoreXPath),
            Err(EvalError::UnsupportedFragment(_))
        ));
        // preceding:: forwardizes to following-inside-a-predicate, which
        // the matcher rejects even after the rewrite.
        assert!(matches!(
            plan("//c/preceding::a", Strategy::Streaming),
            Err(EvalError::UnsupportedFragment(_))
        ));
    }

    #[test]
    fn algebra_programs_fuse_double_slash_steps() {
        use xpath_syntax::Axis;
        // `//t` is one descendant step without `-O`, predicates included.
        let p = plan("//a//b[.//c]", Strategy::Auto).unwrap();
        let steps = &p.algebra().unwrap().path.steps;
        assert_eq!(steps.iter().map(|s| s.axis).collect::<Vec<_>>(), [Axis::Descendant; 2]);
        let corexpath::CorePred::Path(inner) = &steps[1].preds[0] else {
            panic!("expected a path predicate: {:?}", steps[1].preds)
        };
        assert_eq!(inner.steps.last().map(|s| s.axis), Some(Axis::Descendant));
        // The plan's own expression stays as written.
        assert_eq!(p.expr, parse_normalized("//a//b[.//c]").unwrap());
        // A positional predicate keeps the pair.
        let p = plan("//a[2]", Strategy::Auto).unwrap();
        assert!(p.algebra().is_none());
        // OptMinContext plans carry their compiled work list.
        assert!(plan("count(//a)", Strategy::Auto).unwrap().routes.is_some());
        assert!(plan("//a", Strategy::Auto).unwrap().routes.is_none());
    }

    #[test]
    fn streaming_plans_through_the_reverse_axis_rewrite() {
        // Unstreamable as written, streamable once forwardized: the plan
        // compiles the automaton from the rewritten IR and agrees with
        // the reference evaluator.
        let p = plan("//author/parent::book", Strategy::Streaming).unwrap();
        assert!(p.automaton().is_some());
        assert!(p.report().streams_via_rewrite);
        let d = doc_bookstore();
        let ctx = Context::of(d.root());
        let reference = plan("//author/parent::book", Strategy::TopDown).unwrap();
        assert!(p
            .execute(&d, ctx)
            .unwrap()
            .semantically_equal(&reference.execute(&d, ctx).unwrap()));
    }

    #[test]
    fn provably_empty_queries_short_circuit() {
        let p = plan("//text()/child::*", Strategy::Auto).unwrap();
        assert!(p.report().is_empty_query());
        let d = doc_bookstore();
        let out = p.execute(&d, Context::of(d.root())).unwrap();
        assert!(matches!(out, Value::NodeSet(ref s) if s.is_empty()));
        // Scalar wrappers fold too.
        let p = plan("count(//text()/child::*)", Strategy::Auto).unwrap();
        let out = p.execute(&d, Context::of(d.root())).unwrap();
        assert_eq!(out.to_string(), "0");
    }

    #[test]
    fn execute_matches_topdown() {
        let d = doc_bookstore();
        for q in ["//book[author]", "count(//book)", "//book[position() = last()]"] {
            let auto = plan(q, Strategy::Auto).unwrap();
            let reference = plan(q, Strategy::TopDown).unwrap();
            let ctx = Context::of(d.root());
            assert!(
                auto.execute(&d, ctx)
                    .unwrap()
                    .semantically_equal(&reference.execute(&d, ctx).unwrap()),
                "{q}"
            );
        }
    }

    #[test]
    fn plans_carry_a_thread_budget() {
        let p = plan("//book[author]", Strategy::Auto).unwrap();
        assert_eq!(p.threads(), 0, "default is auto-resolve");
        let e = parse_normalized("//book[author]").unwrap();
        let pinned = Plan::build_with_threads(e.clone(), Strategy::Auto, None, 4).unwrap();
        assert_eq!(pinned.threads(), 4);
        // Budgets change only the route, never the result.
        let serial = Plan::build_with_threads(e, Strategy::Auto, None, 1).unwrap();
        let d = doc_bookstore();
        let ctx = Context::of(d.root());
        assert!(pinned
            .execute(&d, ctx)
            .unwrap()
            .semantically_equal(&serial.execute(&d, ctx).unwrap()));
    }

    #[test]
    fn naive_budget_is_enforced() {
        let d = doc_bookstore();
        let p = Plan::build(
            parse_normalized("//book/ancestor::*/descendant::*/ancestor::*").unwrap(),
            Strategy::Naive,
            Some(10),
        )
        .unwrap();
        assert!(matches!(p.execute(&d, Context::of(d.root())), Err(EvalError::BudgetExhausted)));
    }
}
