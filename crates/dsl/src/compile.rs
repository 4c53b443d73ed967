//! Compiler: surface AST → `verdict-ts` IR.
//!
//! Responsibilities beyond structural translation:
//!
//! * name resolution — identifiers are variables or enum variants, with
//!   ambiguity and unknown-name errors at the right source position;
//! * numeric-literal typing — integer literals flow into `real` contexts
//!   as exact rationals; `3/4` and `0.45` fold to rational constants;
//! * linearity enforcement — `*` requires a constant factor and `/` a
//!   constant divisor, mirroring what the engines can decide.

use std::collections::HashMap;
use std::sync::Arc;

use verdict_logic::Rational;
use verdict_ts::{Ctl, EnumSort, Expr, Ltl, Sort, System, Value, VarId, VarKind};

use crate::ast::*;
use crate::lexer::line_col;
use crate::parser::ParseError;

/// A compiled property: `invariant name: p` compiles to
/// `Property::Invariant(p)` (check `G p`), `ltl`/`ctl` to the formula.
pub use verdict_ts::Property as CompiledProperty;

/// The result of compiling a source file.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    /// The transition system.
    pub system: System,
    /// Named properties in declaration order.
    pub properties: Vec<(String, CompiledProperty)>,
    /// Name-resolution state, kept so expressions can be compiled against
    /// the model after the fact (e.g. `--event` expressions on the CLI).
    symbols: Symbols,
}

#[derive(Clone, Debug, Default)]
struct Symbols {
    vars: HashMap<String, VarId>,
    variants: HashMap<String, Option<(Arc<EnumSort>, u32)>>,
    defines: HashMap<String, (Expr, Kind)>,
}

impl CompiledModel {
    /// Looks up a property by name.
    pub fn property(&self, name: &str) -> Option<&CompiledProperty> {
        self.properties
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p)
    }

    /// Parses and compiles a standalone boolean expression in this
    /// model's namespace (variables, enum variants, defines).
    pub fn compile_bool_expr(&self, source: &str) -> Result<Expr, ParseError> {
        let ast = crate::parser::parse_expr_str(source)?;
        let ctx = Ctx {
            system: self.system.clone(),
            vars: self.symbols.vars.clone(),
            variants: self.symbols.variants.clone(),
            defines: self.symbols.defines.clone(),
            source,
        };
        ctx.bool_expr(&ast)
    }

    /// Like [`CompiledModel::compile_bool_expr`] but for integer-sorted
    /// expressions (metrics).
    pub fn compile_int_expr(&self, source: &str) -> Result<Expr, ParseError> {
        let ast = crate::parser::parse_expr_str(source)?;
        let ctx = Ctx {
            system: self.system.clone(),
            vars: self.symbols.vars.clone(),
            variants: self.symbols.variants.clone(),
            defines: self.symbols.defines.clone(),
            source,
        };
        let (expr, kind) = ctx.expr(&ast)?;
        match kind {
            Kind::Int | Kind::IntLit(_) => Ok(expr),
            other => Err(ctx.error(
                ast.offset(),
                format!("expected an integer expression, found {other:?}"),
            )),
        }
    }
}

/// Compiles a parsed system.
pub fn compile(ast: &SystemAst, source: &str) -> Result<CompiledModel, ParseError> {
    let mut ctx = Ctx {
        system: System::new(&ast.name),
        vars: HashMap::new(),
        variants: HashMap::new(),
        defines: HashMap::new(),
        source,
    };

    for decl in &ast.decls {
        ctx.declare(decl)?;
    }
    for (name, e, offset) in &ast.defines {
        if ctx.vars.contains_key(name) || ctx.defines.contains_key(name) {
            return Err(ctx.error(*offset, format!("`{name}` is already defined")));
        }
        let compiled = ctx.expr(e)?;
        ctx.defines.insert(name.clone(), compiled);
    }
    for e in &ast.init {
        let compiled = ctx.bool_expr(e)?;
        ctx.system.add_init(compiled);
    }
    for e in &ast.invar {
        let compiled = ctx.bool_expr(e)?;
        ctx.system.add_invar(compiled);
    }
    for e in &ast.trans {
        let compiled = ctx.bool_expr(e)?;
        ctx.system.add_trans(compiled);
    }
    for e in &ast.fairness {
        let compiled = ctx.bool_expr(e)?;
        ctx.system.add_fairness(compiled);
    }

    let mut properties = Vec::new();
    for p in &ast.properties {
        let compiled = match &p.kind {
            PropertyKind::Invariant(e) => CompiledProperty::Invariant(ctx.bool_expr(e)?),
            PropertyKind::Ltl(f) => CompiledProperty::Ltl(ctx.ltl(f)?),
            PropertyKind::Ctl(f) => CompiledProperty::Ctl(ctx.ctl(f)?),
        };
        properties.push((p.name.clone(), compiled));
    }

    // Final semantic pass through the IR type checker.
    if let Err(te) = ctx.system.check() {
        return Err(ctx.error(0, format!("model does not type-check: {te}")));
    }
    Ok(CompiledModel {
        symbols: Symbols {
            vars: ctx.vars,
            variants: ctx.variants,
            defines: ctx.defines,
        },
        system: ctx.system,
        properties,
    })
}

/// Typing classes during compilation.
#[derive(Clone, Debug, PartialEq)]
enum Kind {
    Bool,
    Int,
    /// An integer literal, coercible to `Real` on demand.
    IntLit(i64),
    /// A rational constant.
    RatLit(Rational),
    Real,
    Enum(String),
}

struct Ctx<'a> {
    system: System,
    vars: HashMap<String, VarId>,
    /// `define` bodies, compiled once and shared (Arc DAG) at each use.
    defines: HashMap<String, (Expr, Kind)>,
    /// variant name -> (sort, index); duplicates across sorts are marked
    /// ambiguous with a sentinel.
    variants: HashMap<String, Option<(Arc<EnumSort>, u32)>>,
    source: &'a str,
}

impl Ctx<'_> {
    fn error(&self, offset: usize, message: impl Into<String>) -> ParseError {
        let (line, column) = line_col(self.source, offset);
        ParseError {
            offset,
            line,
            column,
            message: message.into(),
        }
    }

    fn declare(&mut self, decl: &DeclAst) -> Result<(), ParseError> {
        if self.vars.contains_key(&decl.name) {
            return Err(self.error(
                decl.offset,
                format!("duplicate declaration of `{}`", decl.name),
            ));
        }
        let sort = match &decl.ty {
            TypeAst::Bool => Sort::Bool,
            TypeAst::Real => Sort::Real,
            TypeAst::Range(lo, hi) => {
                if lo > hi {
                    return Err(self.error(decl.offset, format!("empty range {lo}..{hi}")));
                }
                Sort::int(*lo, *hi)
            }
            TypeAst::Enum(variants) => {
                // Identical variant lists unify to one structural sort so
                // equality across variables works.
                let sort_name = format!("{{{}}}", variants.join(","));
                let refs: Vec<&str> = variants.iter().map(String::as_str).collect();
                let sort = EnumSort::new(&sort_name, &refs);
                for (i, v) in variants.iter().enumerate() {
                    match self.variants.get_mut(v) {
                        None => {
                            self.variants
                                .insert(v.clone(), Some((sort.clone(), i as u32)));
                        }
                        Some(existing) => {
                            // Same sort (structural) re-registering is fine;
                            // different sorts make the name ambiguous.
                            let same = existing.as_ref().is_some_and(|(s, _)| s.name == sort.name);
                            if !same {
                                *existing = None;
                            }
                        }
                    }
                }
                Sort::Enum(sort)
            }
        };
        let kind = if decl.frozen {
            VarKind::Frozen
        } else {
            VarKind::State
        };
        let id = self.system.add_var(&decl.name, sort, kind);
        self.vars.insert(decl.name.clone(), id);
        Ok(())
    }

    /// Compiles an expression expected to be boolean.
    fn bool_expr(&self, e: &ExprAst) -> Result<Expr, ParseError> {
        let (expr, kind) = self.expr(e)?;
        match kind {
            Kind::Bool => Ok(expr),
            other => Err(self.error(
                e.offset(),
                format!("expected a boolean expression, found {other:?}"),
            )),
        }
    }

    fn expr(&self, e: &ExprAst) -> Result<(Expr, Kind), ParseError> {
        match e {
            ExprAst::Int(n, _) => Ok((Expr::int(*n), Kind::IntLit(*n))),
            ExprAst::Rational(num, den, o) => {
                if *den == 0 {
                    return Err(self.error(*o, "division by zero"));
                }
                let r = Rational::new(*num, *den);
                Ok((Expr::real(r), Kind::RatLit(r)))
            }
            ExprAst::Bool(b, _) => Ok((Expr::bool(*b), Kind::Bool)),
            ExprAst::Ident(name, o) => self.resolve(name, *o, false),
            ExprAst::Next(name, o) => self.resolve(name, *o, true),
            ExprAst::Not(inner) => {
                let (x, k) = self.expr(inner)?;
                if k != Kind::Bool {
                    return Err(self.error(inner.offset(), "`!` expects a boolean operand"));
                }
                Ok((x.not(), Kind::Bool))
            }
            ExprAst::Neg(inner) => {
                let (x, k) = self.expr(inner)?;
                match k {
                    Kind::IntLit(n) => Ok((Expr::int(-n), Kind::IntLit(-n))),
                    Kind::RatLit(r) => Ok((Expr::real(-r), Kind::RatLit(-r))),
                    Kind::Int => Ok((x.neg(), Kind::Int)),
                    Kind::Real => Ok((x.neg(), Kind::Real)),
                    other => Err(self.error(
                        inner.offset(),
                        format!("`-` expects a numeric operand, found {other:?}"),
                    )),
                }
            }
            ExprAst::Bin(op, a, b, o) => self.bin(*op, a, b, *o),
            ExprAst::Ite(c, t, f) => {
                let cond = self.bool_expr(c)?;
                let (te, tk) = self.expr(t)?;
                let (fe, fk) = self.expr(f)?;
                let (te, fe, k) = self.unify(te, tk, fe, fk, t.offset())?;
                // The result is NOT a constant even when both branches are
                // literals: degrade literal kinds so downstream `*`/`/`
                // cannot constant-fold the conditional away.
                let k = match k {
                    Kind::IntLit(_) => Kind::Int,
                    Kind::RatLit(_) => Kind::Real,
                    other => other,
                };
                Ok((Expr::ite(cond, te, fe), k))
            }
            ExprAst::Count(items) => {
                let mut exprs = Vec::with_capacity(items.len());
                for item in items {
                    exprs.push(self.bool_expr(item)?);
                }
                Ok((Expr::count_true(exprs), Kind::Int))
            }
        }
    }

    fn resolve(&self, name: &str, offset: usize, next: bool) -> Result<(Expr, Kind), ParseError> {
        if let Some(&v) = self.vars.get(name) {
            let kind = match self.system.sort_of(v) {
                Sort::Bool => Kind::Bool,
                Sort::Int { .. } => Kind::Int,
                Sort::Real => Kind::Real,
                Sort::Enum(s) => Kind::Enum(s.name.clone()),
            };
            let expr = if next { Expr::next(v) } else { Expr::var(v) };
            return Ok((expr, kind));
        }
        if next {
            return Err(self.error(offset, format!("unknown variable `{name}`")));
        }
        if let Some((e, k)) = self.defines.get(name) {
            return Ok((e.clone(), k.clone()));
        }
        match self.variants.get(name) {
            Some(Some((sort, idx))) => Ok((
                Expr::Const(Value::Enum(sort.clone(), *idx)),
                Kind::Enum(sort.name.clone()),
            )),
            Some(None) => Err(self.error(
                offset,
                format!("`{name}` is a variant of multiple enum types; rename"),
            )),
            None => Err(self.error(offset, format!("unknown name `{name}`"))),
        }
    }

    /// Unifies two operands for comparison/ite, coercing literals.
    fn unify(
        &self,
        a: Expr,
        ka: Kind,
        b: Expr,
        kb: Kind,
        offset: usize,
    ) -> Result<(Expr, Expr, Kind), ParseError> {
        use Kind::*;
        let (a, b, k) = match (ka, kb) {
            (Bool, Bool) => (a, b, Bool),
            (Int, Int) | (Int, IntLit(_)) | (IntLit(_), Int) => (a, b, Int),
            (IntLit(x), IntLit(_)) => (a, b, IntLit(x)),
            (Real, Real) | (Real, RatLit(_)) | (RatLit(_), Real) => (a, b, Real),
            (RatLit(x), RatLit(_)) => (a, b, RatLit(x)),
            // Integer literals coerce into real contexts.
            (Real, IntLit(n)) => (a, Expr::real(Rational::integer(n as i128)), Real),
            (IntLit(n), Real) => (Expr::real(Rational::integer(n as i128)), b, Real),
            (RatLit(r), IntLit(n)) => (a, Expr::real(Rational::integer(n as i128)), RatLit(r)),
            (IntLit(n), RatLit(_)) => (Expr::real(Rational::integer(n as i128)), b, Real),
            (Enum(x), Enum(y)) if x == y => (a, b, Enum(x)),
            (ka, kb) => {
                return Err(self.error(
                    offset,
                    format!("incompatible operand types {ka:?} and {kb:?}"),
                ))
            }
        };
        Ok((a, b, k))
    }

    fn bin(
        &self,
        op: BinOp,
        a: &ExprAst,
        b: &ExprAst,
        offset: usize,
    ) -> Result<(Expr, Kind), ParseError> {
        let (ea, ka) = self.expr(a)?;
        let (eb, kb) = self.expr(b)?;
        match op {
            BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff => {
                if ka != Kind::Bool || kb != Kind::Bool {
                    return Err(self.error(offset, "boolean connective expects boolean operands"));
                }
                let e = match op {
                    BinOp::And => ea.and(eb),
                    BinOp::Or => ea.or(eb),
                    BinOp::Implies => ea.implies(eb),
                    BinOp::Iff => ea.iff(eb),
                    _ => unreachable!(),
                };
                Ok((e, Kind::Bool))
            }
            BinOp::Eq | BinOp::Ne => {
                let (ea, eb, _) = self.unify(ea, ka, eb, kb, offset)?;
                let e = if op == BinOp::Eq {
                    ea.eq(eb)
                } else {
                    ea.ne(eb)
                };
                Ok((e, Kind::Bool))
            }
            BinOp::Le | BinOp::Lt | BinOp::Ge | BinOp::Gt => {
                let (ea, eb, k) = self.unify(ea, ka, eb, kb, offset)?;
                if matches!(k, Kind::Bool | Kind::Enum(_)) {
                    return Err(self.error(offset, "comparison expects numeric operands"));
                }
                let e = match op {
                    BinOp::Le => ea.le(eb),
                    BinOp::Lt => ea.lt(eb),
                    BinOp::Ge => ea.ge(eb),
                    BinOp::Gt => ea.gt(eb),
                    _ => unreachable!(),
                };
                Ok((e, Kind::Bool))
            }
            BinOp::Add | BinOp::Sub => {
                let (ea, eb, k) = self.unify(ea, ka, eb, kb, offset)?;
                if matches!(k, Kind::Bool | Kind::Enum(_)) {
                    return Err(self.error(offset, "arithmetic expects numbers"));
                }
                let e = if op == BinOp::Add {
                    ea.add(eb)
                } else {
                    ea.sub(eb)
                };
                // Literal folding is not needed; the kind degrades to the
                // general numeric kind.
                let k = match k {
                    Kind::IntLit(_) => Kind::Int,
                    Kind::RatLit(_) => Kind::Real,
                    other => other,
                };
                Ok((e, k))
            }
            BinOp::Mul => {
                // Linear arithmetic: at least one side constant.
                match (ka.clone(), kb.clone()) {
                    (Kind::IntLit(n), _) => {
                        self.scale(eb, kb, Rational::integer(n as i128), offset)
                    }
                    (_, Kind::IntLit(n)) => {
                        self.scale(ea, ka, Rational::integer(n as i128), offset)
                    }
                    (Kind::RatLit(r), _) => self.scale(eb, kb, r, offset),
                    (_, Kind::RatLit(r)) => self.scale(ea, ka, r, offset),
                    _ => Err(self.error(
                        offset,
                        "`*` needs a constant factor (linear arithmetic only)",
                    )),
                }
            }
            BinOp::Div => match kb {
                Kind::IntLit(n) if n != 0 => {
                    self.scale(ea, ka, Rational::new(1, n as i128), offset)
                }
                Kind::RatLit(r) if !r.is_zero() => self.scale(ea, ka, r.recip(), offset),
                Kind::IntLit(_) | Kind::RatLit(_) => Err(self.error(offset, "division by zero")),
                _ => Err(self.error(
                    offset,
                    "`/` needs a constant divisor (linear arithmetic only)",
                )),
            },
        }
    }

    fn scale(
        &self,
        e: Expr,
        k: Kind,
        factor: Rational,
        offset: usize,
    ) -> Result<(Expr, Kind), ParseError> {
        match k {
            Kind::IntLit(n) => {
                // Constant folding; stays integer only if exact.
                let r = Rational::integer(n as i128) * factor;
                if r.is_integer() {
                    Ok((Expr::int(r.numer() as i64), Kind::IntLit(r.numer() as i64)))
                } else {
                    Ok((Expr::real(r), Kind::RatLit(r)))
                }
            }
            Kind::RatLit(r) => {
                let r = r * factor;
                Ok((Expr::real(r), Kind::RatLit(r)))
            }
            Kind::Int => {
                if !factor.is_integer() {
                    return Err(self.error(
                        offset,
                        "integer expression scaled by a non-integer constant",
                    ));
                }
                Ok((e.scale(factor), Kind::Int))
            }
            Kind::Real => Ok((e.scale(factor), Kind::Real)),
            other => Err(self.error(
                offset,
                format!("`*`/`/` expects a numeric operand, found {other:?}"),
            )),
        }
    }

    // ---- properties ---------------------------------------------------

    fn ltl(&self, f: &LtlAst) -> Result<Ltl, ParseError> {
        Ok(match f {
            LtlAst::Atom(e) => Ltl::atom(self.bool_expr(e)?),
            LtlAst::Not(a) => self.ltl(a)?.not(),
            LtlAst::Bin(op, a, b) => {
                let (a, b) = (self.ltl(a)?, self.ltl(b)?);
                match op {
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Implies => a.implies(b),
                    BinOp::Iff => a.clone().implies(b.clone()).and(b.implies(a)),
                    _ => unreachable!("parser only builds connectives"),
                }
            }
            LtlAst::Globally(a) => self.ltl(a)?.always(),
            LtlAst::Finally(a) => self.ltl(a)?.eventually(),
            LtlAst::Next(a) => self.ltl(a)?.next(),
            LtlAst::Until(a, b) => self.ltl(a)?.until(self.ltl(b)?),
            LtlAst::Release(a, b) => self.ltl(a)?.release(self.ltl(b)?),
        })
    }

    fn ctl(&self, f: &CtlAst) -> Result<Ctl, ParseError> {
        Ok(match f {
            CtlAst::Atom(e) => Ctl::atom(self.bool_expr(e)?),
            CtlAst::Not(a) => self.ctl(a)?.not(),
            CtlAst::Bin(op, a, b) => {
                let (a, b) = (self.ctl(a)?, self.ctl(b)?);
                match op {
                    BinOp::And => a.and(b),
                    BinOp::Or => a.or(b),
                    BinOp::Implies => a.implies(b),
                    BinOp::Iff => a.clone().implies(b.clone()).and(b.implies(a)),
                    _ => unreachable!(),
                }
            }
            CtlAst::Unary(q, a) => {
                let a = self.ctl(a)?;
                match q {
                    CtlQuant::Ex => a.ex(),
                    CtlQuant::Ef => a.ef(),
                    CtlQuant::Eg => a.eg(),
                    CtlQuant::Ax => a.ax(),
                    CtlQuant::Af => a.af(),
                    CtlQuant::Ag => a.ag(),
                }
            }
            CtlAst::Until(exists, a, b) => {
                let (a, b) = (self.ctl(a)?, self.ctl(b)?);
                if *exists {
                    a.eu(b)
                } else {
                    a.au(b)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn counter_compiles_and_checks() {
        let m = parse(
            "system counter {
                var n : 0..7;
                param step : 1..2;
                init n = 0;
                trans next(n) = if n < 6 then n + step else n;
                invariant cap: n <= 7;
                ltl live: F (n >= 6);
            }",
        )
        .unwrap();
        assert_eq!(m.system.num_vars(), 2);
        assert_eq!(m.properties.len(), 2);
        assert!(m.property("cap").is_some());
        assert!(m.system.check().is_ok());
    }

    #[test]
    fn enums_resolve_and_unify() {
        let m = parse(
            "system phases {
                var a : {idle, busy};
                var b : {idle, busy};
                init a = idle & b = busy;
                trans next(a) = b;
            }",
        )
        .unwrap();
        assert!(m.system.check().is_ok());
    }

    #[test]
    fn ambiguous_variant_rejected() {
        let e = parse(
            "system bad {
                var a : {idle, busy};
                var b : {idle, done};
                init a = idle;
            }",
        )
        .unwrap_err();
        assert!(e.message.contains("multiple enum"), "{e}");
    }

    #[test]
    fn reals_with_literal_coercion() {
        let m = parse(
            "system lb {
                var load : real;
                param slope : real;
                init load = 0;
                init slope > 0.5;
                trans next(load) = load + 2 * slope;
            }",
        )
        .unwrap();
        assert!(m.system.has_real_vars());
    }

    #[test]
    fn linearity_enforced() {
        let e = parse("system nl { var x : real; var y : real; init x * y > 1; }").unwrap_err();
        assert!(e.message.contains("constant factor"), "{e}");
        let e = parse("system nl2 { var x : real; init 1 / x > 1; }").unwrap_err();
        assert!(e.message.contains("constant divisor"), "{e}");
        let e = parse("system dz { var x : real; init x / 0 > 1; }").unwrap_err();
        assert!(e.message.contains("division by zero"), "{e}");
    }

    #[test]
    fn sort_errors_reported_with_position() {
        let e = parse("system s { var x : bool; init x + 1 = 2; }").unwrap_err();
        assert!(e.line == 1 && e.column > 1, "{e}");
        let e = parse("system s { var n : 0..3; init n; }").unwrap_err();
        assert!(e.message.contains("boolean"), "{e}");
        let e = parse("system s { var n : 0..3; init next(zz) = 1; }").unwrap_err();
        assert!(e.message.contains("unknown variable"), "{e}");
    }

    #[test]
    fn count_and_div_fold() {
        let m = parse(
            "system c {
                var a : bool;
                var b : bool;
                var r : real;
                invar count(a, b) <= 1;
                init r = 3 / 4;
            }",
        )
        .unwrap();
        assert!(m.system.check().is_ok());
        // 3/4 folded to an exact rational constant.
        let shown = m.system.to_string();
        assert!(shown.contains("3/4"), "{shown}");
    }

    #[test]
    fn defines_expand_and_share() {
        let m = parse(
            "system d {
                var a : bool;
                var b : bool;
                var n : 0..7;
                define both = a & b;
                define spare = 7 - n;
                init !both & n = 0;
                trans next(n) = if both then n else n + 1;
                invariant headroom: spare >= 0;
            }",
        )
        .unwrap();
        assert!(m.system.check().is_ok());
        // `both` is not a variable.
        assert_eq!(m.system.num_vars(), 3);
        // Redefinition and define/var clashes are errors.
        assert!(parse("system d { var a : bool; define a = true; }").is_err());
        assert!(parse("system d { define x = true; define x = false; }").is_err());
        // Defines can reference earlier defines.
        let m = parse(
            "system d2 {
                var n : 0..7;
                define twice = n + n;
                define plus2 = twice + 2;
                invariant p: plus2 <= 16;
            }",
        )
        .unwrap();
        assert!(m.system.check().is_ok());
    }

    #[test]
    fn ite_of_literals_is_not_constant_folded() {
        // Regression: `2 * (if c then 0.5 else 1)` must keep the
        // conditional; the Ite's kind used to stay a literal kind, letting
        // `*` fold the whole conditional into a constant.
        let m = parse(
            "system kindbug {
                var c : bool;
                var x : real;
                init x = 0;
                trans next(x) = x + 2 * (if c then 0.5 else 1);
                trans next(c) = c;
            }",
        )
        .unwrap();
        let shown = m.system.to_string();
        assert!(shown.contains("if"), "conditional must survive: {shown}");
        // And mixed int branches in an int context degrade to Int (usable
        // in comparisons, rejected as a `*` factor).
        assert!(parse(
            "system k2 { var c : bool; var n : 0..7; \
             invar (if c then 2 else 3) + n <= 10; }"
        )
        .is_ok());
        assert!(
            parse(
                "system k3 { var c : bool; var n : 0..7; \
             invar n * (if c then 2 else 3) <= 10; }"
            )
            .is_err(),
            "non-constant factor must be rejected"
        );
    }

    #[test]
    fn post_compile_expressions_share_the_namespace() {
        let m = parse(
            "system ns {
                var n : 0..7;
                var phase : {idle, busy};
                define spare = 7 - n;
                init n = 0 & phase = idle;
            }",
        )
        .unwrap();
        // Booleans resolve vars, variants, and defines.
        let e = m.compile_bool_expr("phase = busy & spare >= 2").unwrap();
        assert!(e.sort(&m.system).unwrap() == verdict_ts::Sort::Bool);
        // Integer metrics.
        let e = m.compile_int_expr("spare + n").unwrap();
        assert!(matches!(
            e.sort(&m.system).unwrap(),
            verdict_ts::Sort::Int { .. }
        ));
        // Errors: wrong sort, unknown names, trailing input.
        assert!(m.compile_int_expr("phase = busy").is_err());
        assert!(m.compile_bool_expr("nope = 1").is_err());
        assert!(m.compile_bool_expr("n = 1 extra").is_err());
    }

    #[test]
    fn properties_compile_to_ir() {
        let m = parse(
            "system p {
                var n : 0..3;
                init n = 0;
                trans next(n) = if n < 3 then n + 1 else 0;
                ltl untilprop: (n <= 1) U (n = 2);
                ctl eu: E [ n <= 1 U n = 2 ];
                ctl ag: AG (n <= 3);
            }",
        )
        .unwrap();
        assert!(matches!(
            m.property("untilprop"),
            Some(CompiledProperty::Ltl(Ltl::U(_, _)))
        ));
        assert!(matches!(
            m.property("eu"),
            Some(CompiledProperty::Ctl(Ctl::EU(_, _)))
        ));
    }
}
