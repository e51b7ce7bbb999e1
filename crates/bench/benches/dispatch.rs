//! Expression-dispatch microbenches: the boxed [`ValExpr`] tree walk vs the
//! postfix stack machine vs the shape-specialized direct-threaded
//! evaluator ([`CExpr::eval`]). All paths are bit-identical by
//! construction — these benches exist to keep the fast paths honest about
//! actually being fast.

use ccdp_ir::{ValExpr, VarEnv, VarId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use t3d_sim::compiled::CExpr;

/// The four-kernel staple: MXM's multiply-accumulate `c + a * b`.
fn mac_expr() -> ValExpr {
    use ValExpr::*;
    Add(
        Box::new(Read(0)),
        Box::new(Mul(Box::new(Read(1)), Box::new(Read(2)))),
    )
}

/// A shape with no specialization: forces the postfix fallback in `eval`.
fn general_expr() -> ValExpr {
    use ValExpr::*;
    Max(
        Box::new(Mul(
            Box::new(Abs(Box::new(Sub(Box::new(Read(0)), Box::new(Read(1)))))),
            Box::new(Add(Box::new(Read(2)), Box::new(Var(VarId(0))))),
        )),
        Box::new(Sqrt(Box::new(Read(3)))),
    )
}

fn bench_eval(c: &mut Criterion) {
    let mut env = VarEnv::new(1);
    env.set(VarId(0), 3);
    let reads = [1.25f64, -0.5, 3.75, 9.0];
    let mut g = c.benchmark_group("expr_eval");
    for (name, e) in [("mac", mac_expr()), ("general", general_expr())] {
        let ce = CExpr::compile(&e);
        g.bench_with_input(BenchmarkId::new("tree", name), &e, |b, e| {
            b.iter(|| black_box(e.eval(black_box(&reads), &env)));
        });
        g.bench_with_input(BenchmarkId::new("postfix", name), &ce, |b, ce| {
            b.iter(|| black_box(ce.eval_postfix(black_box(&reads), &env)));
        });
        g.bench_with_input(BenchmarkId::new("direct", name), &ce, |b, ce| {
            b.iter(|| black_box(ce.eval(black_box(&reads), &env)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
