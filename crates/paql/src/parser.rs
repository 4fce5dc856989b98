//! Recursive-descent parser for PaQL (grammar of Appendix A.4).

use paq_relational::expr::CmpOp;
use paq_relational::{Expr, Value};

use crate::ast::{AggExpr, AggTerm, GlobalPredicate, Objective, ObjectiveSense, PackageQuery};
use crate::error::{PaqlError, PaqlResult};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a PaQL query string into a [`PackageQuery`].
pub fn parse_paql(input: &str) -> PaqlResult<PackageQuery> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let i = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn position(&self) -> usize {
        self.tokens[self.pos].position
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> PaqlResult<T> {
        Err(PaqlError::Parse {
            position: self.position(),
            message: message.into(),
        })
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PaqlResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.error(format!("expected keyword {kw}, found {:?}", self.peek()))
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> PaqlResult<()> {
        if *self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            self.error(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn expect_eof(&mut self) -> PaqlResult<()> {
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            self.error(format!("unexpected trailing input: {:?}", self.peek()))
        }
    }

    fn ident(&mut self, what: &str) -> PaqlResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => self.error(format!("expected {what}, found {other:?}")),
        }
    }

    fn number(&mut self, what: &str) -> PaqlResult<f64> {
        let negative = *self.peek() == TokenKind::Minus;
        if negative {
            self.advance();
        }
        match *self.peek() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(if negative { -n } else { n })
            }
            ref other => self.error(format!("expected {what}, found {other:?}")),
        }
    }

    // ------------------------------------------------------------------
    // query := SELECT PACKAGE '(' alias ')' [AS] name
    //          FROM rel [AS] alias [REPEAT k]
    //          [WHERE expr] [SUCH THAT preds] [(MINIMIZE|MAXIMIZE) agg]
    // ------------------------------------------------------------------
    fn query(&mut self) -> PaqlResult<PackageQuery> {
        self.expect_kw("SELECT")?;
        self.expect_kw("PACKAGE")?;
        self.expect(TokenKind::LParen, "'('")?;
        let pkg_alias = self.ident("relation alias inside PACKAGE(..)")?;
        self.expect(TokenKind::RParen, "')'")?;
        let package_name = if self.eat_kw("AS") {
            self.ident("package name after AS")?
        } else if matches!(self.peek(), TokenKind::Ident(s) if !s.eq_ignore_ascii_case("FROM")) {
            self.ident("package name")?
        } else {
            "P".to_owned()
        };

        self.expect_kw("FROM")?;
        let relation = self.ident("relation name")?;
        let mut relation_alias = relation.clone();
        if self.eat_kw("AS") {
            relation_alias = self.ident("relation alias after AS")?;
        } else if matches!(self.peek(), TokenKind::Ident(s)
            if !is_clause_keyword(s))
        {
            relation_alias = self.ident("relation alias")?;
        }
        if relation_alias != pkg_alias && relation != pkg_alias {
            return self.error(format!(
                "PACKAGE({pkg_alias}) does not match the FROM relation {relation} (alias {relation_alias})"
            ));
        }

        let mut repeat = None;
        if self.eat_kw("REPEAT") {
            let k = self.number("repeat count")?;
            if k < 0.0 || k.fract() != 0.0 {
                return self.error("REPEAT count must be a non-negative integer");
            }
            repeat = Some(k as u32);
        }

        let mut where_clause = None;
        if self.eat_kw("WHERE") {
            let quals = vec![relation_alias.clone(), relation.clone()];
            where_clause = Some(self.expr(&quals)?);
        }

        let mut such_that = Vec::new();
        if self.eat_kw("SUCH") {
            self.expect_kw("THAT")?;
            let quals = vec![
                package_name.clone(),
                relation_alias.clone(),
                relation.clone(),
            ];
            loop {
                such_that.push(self.global_predicate(&package_name, &quals)?);
                if !self.eat_kw("AND") {
                    break;
                }
            }
        }

        let mut objective = None;
        let sense = if self.eat_kw("MINIMIZE") {
            Some(ObjectiveSense::Minimize)
        } else if self.eat_kw("MAXIMIZE") {
            Some(ObjectiveSense::Maximize)
        } else {
            None
        };
        if let Some(sense) = sense {
            let quals = vec![
                package_name.clone(),
                relation_alias.clone(),
                relation.clone(),
            ];
            let agg = self.agg_expr(&package_name, &quals)?;
            objective = Some(Objective { sense, agg });
        }

        Ok(PackageQuery {
            package_name,
            relation,
            relation_alias,
            repeat,
            where_clause,
            such_that,
            objective,
        })
    }

    // ------------------------------------------------------------------
    // Global predicates
    // ------------------------------------------------------------------
    fn global_predicate(&mut self, pkg: &str, quals: &[String]) -> PaqlResult<GlobalPredicate> {
        let lhs = self.agg_term(pkg, quals)?;
        if self.eat_kw("BETWEEN") {
            let agg = match lhs {
                AggTerm::Agg(a) => a,
                AggTerm::Const(_) => {
                    return self.error("BETWEEN requires an aggregate on its left side")
                }
            };
            let lo = self.number("BETWEEN lower bound")?;
            self.expect_kw("AND")?;
            let hi = self.number("BETWEEN upper bound")?;
            if lo > hi {
                return self.error(format!("empty BETWEEN range [{lo}, {hi}]"));
            }
            return Ok(GlobalPredicate::Between { agg, lo, hi });
        }
        let op = self.cmp_op()?;
        let rhs = self.agg_term(pkg, quals)?;
        Ok(GlobalPredicate::Cmp { lhs, op, rhs })
    }

    fn cmp_op(&mut self) -> PaqlResult<CmpOp> {
        let op = match self.peek() {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            other => return self.error(format!("expected comparison operator, found {other:?}")),
        };
        self.advance();
        Ok(op)
    }

    fn agg_term(&mut self, pkg: &str, quals: &[String]) -> PaqlResult<AggTerm> {
        match self.peek().clone() {
            TokenKind::Number(_) | TokenKind::Minus => {
                Ok(AggTerm::Const(self.number("numeric constant")?))
            }
            TokenKind::LParen => {
                // Subquery form: ( SELECT ... FROM pkg [WHERE ...] )
                Ok(AggTerm::Agg(self.subquery_agg(pkg, quals)?))
            }
            TokenKind::Ident(_) => Ok(AggTerm::Agg(self.agg_expr(pkg, quals)?)),
            other => self.error(format!(
                "expected aggregate, subquery, or constant, found {other:?}"
            )),
        }
    }

    /// `FUNC(P.attr)`, `FUNC(P.*)`, `FUNC(attr)`, `FUNC(*)` or a
    /// parenthesized subquery.
    fn agg_expr(&mut self, pkg: &str, quals: &[String]) -> PaqlResult<AggExpr> {
        if *self.peek() == TokenKind::LParen {
            return self.subquery_agg(pkg, quals);
        }
        let func = self.ident("aggregate function")?;
        let func_up = func.to_ascii_uppercase();
        self.expect(TokenKind::LParen, "'(' after aggregate function")?;
        let target = self.agg_target(quals)?;
        self.expect(TokenKind::RParen, "')' closing aggregate")?;
        match (func_up.as_str(), target) {
            ("COUNT", _) => Ok(AggExpr::Count),
            ("SUM", Some(attr)) => Ok(AggExpr::Sum(attr)),
            ("AVG", Some(attr)) => Ok(AggExpr::Avg(attr)),
            ("SUM" | "AVG", None) => self.error(format!("{func_up}(*) is not meaningful")),
            ("MIN" | "MAX", _) => self.error(
                "MIN/MAX package aggregates are non-linear and unsupported \
                 (the paper restricts PaQL evaluation to linear functions)",
            ),
            _ => self.error(format!("unknown aggregate function {func}")),
        }
    }

    /// The inside of `FUNC( ... )`: `*`, `attr`, `P.*`, or `P.attr`.
    /// Returns `None` for `*`.
    fn agg_target(&mut self, quals: &[String]) -> PaqlResult<Option<String>> {
        if *self.peek() == TokenKind::Star {
            self.advance();
            return Ok(None);
        }
        let first = self.ident("attribute")?;
        if *self.peek() == TokenKind::Dot {
            self.advance();
            if !quals.iter().any(|q| q == &first) {
                return self.error(format!("unknown qualifier {first:?}"));
            }
            if *self.peek() == TokenKind::Star {
                self.advance();
                return Ok(None);
            }
            return Ok(Some(self.ident("attribute after '.'")?));
        }
        Ok(Some(first))
    }

    /// `( SELECT COUNT(*) | SUM(attr) FROM <pkg> [WHERE expr] )`
    fn subquery_agg(&mut self, pkg: &str, quals: &[String]) -> PaqlResult<AggExpr> {
        self.expect(TokenKind::LParen, "'('")?;
        self.expect_kw("SELECT")?;
        let func = self.ident("aggregate function in subquery")?;
        let func_up = func.to_ascii_uppercase();
        self.expect(TokenKind::LParen, "'(' after aggregate function")?;
        let target = self.agg_target(quals)?;
        self.expect(TokenKind::RParen, "')' closing aggregate")?;
        self.expect_kw("FROM")?;
        let from = self.ident("package name in subquery FROM")?;
        if from != pkg {
            return self.error(format!(
                "subquery must range over the package {pkg:?}, found {from:?}"
            ));
        }
        let mut filter = None;
        if self.eat_kw("WHERE") {
            filter = Some(self.expr(quals)?);
        }
        self.expect(TokenKind::RParen, "')' closing subquery")?;
        match (func_up.as_str(), target, filter) {
            ("COUNT", _, Some(f)) => Ok(AggExpr::CountWhere(f)),
            ("COUNT", _, None) => Ok(AggExpr::Count),
            ("SUM", Some(attr), Some(f)) => Ok(AggExpr::SumWhere(attr, f)),
            ("SUM", Some(attr), None) => Ok(AggExpr::Sum(attr)),
            ("AVG", Some(attr), None) => Ok(AggExpr::Avg(attr)),
            ("SUM" | "AVG", None, _) => self.error(format!("{func_up}(*) is not meaningful")),
            ("AVG", _, Some(_)) => {
                self.error("AVG with a WHERE filter is not supported (non-linear)")
            }
            ("MIN" | "MAX", ..) => {
                self.error("MIN/MAX package aggregates are non-linear and unsupported")
            }
            _ => self.error(format!("unknown aggregate function {func}")),
        }
    }

    // ------------------------------------------------------------------
    // Scalar (tuple-level) expressions, used in WHERE clauses
    // ------------------------------------------------------------------
    fn expr(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        self.or_expr(quals)
    }

    fn or_expr(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        let mut lhs = self.and_expr(quals)?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr(quals)?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        let mut lhs = self.not_expr(quals)?;
        // Inside SUCH THAT, a top-level AND separates global predicates;
        // here (scalar context) AND binds predicates *within* the same
        // WHERE. The subquery parser closes the scope with ')', so no
        // ambiguity arises: scalar AND is always consumed here first
        // only when a comparison follows.
        while self.peek().is_keyword("AND") && self.starts_predicate(1) {
            self.advance();
            let rhs = self.not_expr(quals)?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    /// Heuristic lookahead: does the token at `offset` begin a scalar
    /// predicate (rather than a global predicate after a separating
    /// AND)? Inside scalar context this is always true except when the
    /// next tokens look like an aggregate call or subquery — which only
    /// occur at the SUCH THAT level.
    fn starts_predicate(&self, offset: usize) -> bool {
        match self.peek_at(offset) {
            TokenKind::Ident(s) => {
                let up = s.to_ascii_uppercase();
                if matches!(up.as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX") {
                    // Aggregate call ⇒ a new global predicate.
                    !matches!(self.peek_at(offset + 1), TokenKind::LParen)
                } else {
                    true
                }
            }
            TokenKind::LParen => {
                // A '(' after AND could be a parenthesized scalar
                // expression or a subquery; `( SELECT` means subquery.
                !matches!(self.peek_at(offset + 1), TokenKind::Ident(s) if s.eq_ignore_ascii_case("SELECT"))
            }
            TokenKind::Number(_) | TokenKind::Str(_) | TokenKind::Minus => true,
            _ => true,
        }
    }

    fn not_expr(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        if self.eat_kw("NOT") {
            return Ok(self.not_expr(quals)?.not());
        }
        self.predicate(quals)
    }

    fn predicate(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        let lhs = self.arith(quals)?;
        if self.eat_kw("BETWEEN") {
            let lo = self.arith(quals)?;
            self.expect_kw("AND")?;
            let hi = self.arith(quals)?;
            return Ok(lhs.between(lo, hi));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(if negated {
                lhs.is_not_null()
            } else {
                lhs.is_null()
            });
        }
        let op = match self.peek() {
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.arith(quals)?;
            return Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn arith(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        let mut lhs = self.term(quals)?;
        loop {
            if *self.peek() == TokenKind::Plus {
                self.advance();
                lhs = lhs.add(self.term(quals)?);
            } else if *self.peek() == TokenKind::Minus {
                self.advance();
                lhs = lhs.sub(self.term(quals)?);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn term(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        let mut lhs = self.factor(quals)?;
        loop {
            if *self.peek() == TokenKind::Star {
                self.advance();
                lhs = lhs.mul(self.factor(quals)?);
            } else if *self.peek() == TokenKind::Slash {
                self.advance();
                lhs = lhs.div(self.factor(quals)?);
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn factor(&mut self, quals: &[String]) -> PaqlResult<Expr> {
        match self.peek().clone() {
            TokenKind::Number(n) => {
                self.advance();
                Ok(Expr::lit(n))
            }
            TokenKind::Minus => {
                self.advance();
                Ok(Expr::lit(0.0).sub(self.factor(quals)?))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Lit(Value::Str(s)))
            }
            TokenKind::LParen => {
                self.advance();
                let inner = self.or_expr(quals)?;
                self.expect(TokenKind::RParen, "')'")?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Lit(Value::Null));
                }
                if name.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::lit(true));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::lit(false));
                }
                self.advance();
                if *self.peek() == TokenKind::Dot {
                    self.advance();
                    if !quals.iter().any(|q| q == &name) {
                        return self.error(format!("unknown qualifier {name:?}"));
                    }
                    let attr = self.ident("attribute after '.'")?;
                    return Ok(Expr::col(attr));
                }
                Ok(Expr::col(name))
            }
            other => self.error(format!("unexpected token {other:?} in expression")),
        }
    }
}

/// Keywords that terminate the FROM clause (so a bare alias is not
/// confused with a following clause keyword).
fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s.to_ascii_uppercase().as_str(),
        "REPEAT" | "WHERE" | "SUCH" | "MINIMIZE" | "MAXIMIZE"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNNING_EXAMPLE: &str = "SELECT PACKAGE(R) AS P \
        FROM Recipes R REPEAT 0 \
        WHERE R.gluten = 'free' \
        SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 \
        MINIMIZE SUM(P.saturated_fat)";

    #[test]
    fn parses_running_example() {
        let q = parse_paql(RUNNING_EXAMPLE).unwrap();
        assert_eq!(q.package_name, "P");
        assert_eq!(q.relation, "Recipes");
        assert_eq!(q.relation_alias, "R");
        assert_eq!(q.repeat, Some(0));
        assert_eq!(
            q.where_clause.as_ref().unwrap().to_string(),
            "gluten = 'free'"
        );
        assert_eq!(q.such_that.len(), 2);
        assert_eq!(
            q.such_that[0],
            GlobalPredicate::Cmp {
                lhs: AggTerm::Agg(AggExpr::Count),
                op: CmpOp::Eq,
                rhs: AggTerm::Const(3.0),
            }
        );
        assert_eq!(
            q.such_that[1],
            GlobalPredicate::Between {
                agg: AggExpr::Sum("kcal".into()),
                lo: 2.0,
                hi: 2.5
            }
        );
        let obj = q.objective.unwrap();
        assert_eq!(obj.sense, ObjectiveSense::Minimize);
        assert_eq!(obj.agg, AggExpr::Sum("saturated_fat".into()));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let q = parse_paql(RUNNING_EXAMPLE).unwrap();
        let q2 = parse_paql(&q.to_string()).unwrap();
        assert_eq!(q, q2);
        // A quote inside a string literal prints escaped as `''`.
        let quoted = parse_paql(
            "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.name = 'it''s' \
             SUCH THAT COUNT(P.*) = 1",
        )
        .unwrap();
        assert_eq!(parse_paql(&quoted.to_string()).unwrap(), quoted);
    }

    #[test]
    fn minimal_query_q2_from_paper() {
        // Q2: SELECT PACKAGE(R) AS P FROM Recipes R — infinitely many
        // packages; no repeat bound, no predicates.
        let q = parse_paql("SELECT PACKAGE(R) AS P FROM Recipes R").unwrap();
        assert_eq!(q.repeat, None);
        assert!(q.where_clause.is_none());
        assert!(q.such_that.is_empty());
        assert!(q.objective.is_none());
    }

    #[test]
    fn alias_defaults_to_relation_name() {
        let q = parse_paql("SELECT PACKAGE(Recipes) AS P FROM Recipes").unwrap();
        assert_eq!(q.relation_alias, "Recipes");
    }

    #[test]
    fn as_keywords_are_optional() {
        let q = parse_paql("SELECT PACKAGE(R) P FROM Recipes AS R").unwrap();
        assert_eq!(q.package_name, "P");
        assert_eq!(q.relation_alias, "R");
        let q = parse_paql("SELECT PACKAGE(R) FROM Recipes R").unwrap();
        assert_eq!(q.package_name, "P", "default package name");
    }

    #[test]
    fn package_alias_must_match_from() {
        let err = parse_paql("SELECT PACKAGE(X) AS P FROM Recipes R").unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn subquery_count_comparison() {
        // The paper's §3.1 example: carbs vs protein tuple counts.
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT \
             (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >= \
             (SELECT COUNT(*) FROM P WHERE P.protein <= 5)",
        )
        .unwrap();
        match &q.such_that[0] {
            GlobalPredicate::Cmp { lhs, op, rhs } => {
                assert_eq!(*op, CmpOp::Ge);
                assert!(matches!(lhs, AggTerm::Agg(AggExpr::CountWhere(_))));
                assert!(matches!(rhs, AggTerm::Agg(AggExpr::CountWhere(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_subquery_with_filter() {
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM Recipes R SUCH THAT \
             (SELECT SUM(kcal) FROM P WHERE fat < 1.0) <= 10",
        )
        .unwrap();
        match &q.such_that[0] {
            GlobalPredicate::Cmp {
                lhs: AggTerm::Agg(AggExpr::SumWhere(attr, f)),
                ..
            } => {
                assert_eq!(attr, "kcal");
                assert_eq!(f.to_string(), "fat < 1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn avg_constraint_parses() {
        let q = parse_paql("SELECT PACKAGE(R) AS P FROM R SUCH THAT AVG(P.kcal) <= 0.8").unwrap();
        assert!(matches!(
            q.such_that[0],
            GlobalPredicate::Cmp {
                lhs: AggTerm::Agg(AggExpr::Avg(_)),
                op: CmpOp::Le,
                ..
            }
        ));
    }

    #[test]
    fn min_max_rejected_as_nonlinear() {
        let err =
            parse_paql("SELECT PACKAGE(R) AS P FROM R SUCH THAT MIN(P.kcal) >= 1").unwrap_err();
        assert!(err.to_string().contains("non-linear"));
    }

    #[test]
    fn multiple_and_separated_global_predicates() {
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R REPEAT 2 SUCH THAT \
             COUNT(P.*) >= 2 AND COUNT(P.*) <= 5 AND SUM(P.x) = 10 \
             MAXIMIZE SUM(P.y)",
        )
        .unwrap();
        assert_eq!(q.such_that.len(), 3);
        assert_eq!(q.repeat, Some(2));
        assert_eq!(q.objective.unwrap().sense, ObjectiveSense::Maximize);
    }

    #[test]
    fn where_with_boolean_structure() {
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM Recipes R \
             WHERE (R.kcal > 0.2 AND R.kcal < 1.0) OR NOT R.gluten = 'full'",
        )
        .unwrap();
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("OR"), "{w}");
        assert!(w.contains("NOT"), "{w}");
    }

    #[test]
    fn where_between_and_such_that_between_coexist() {
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R \
             WHERE R.kcal BETWEEN 0.1 AND 0.9 AND R.fat > 0 \
             SUCH THAT SUM(P.kcal) BETWEEN 1 AND 2",
        )
        .unwrap();
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("BETWEEN 0.1 AND 0.9"), "{w}");
        assert!(w.contains("fat > 0"), "{w}");
        assert_eq!(q.such_that.len(), 1);
    }

    #[test]
    fn arithmetic_in_where() {
        let q =
            parse_paql("SELECT PACKAGE(R) AS P FROM R WHERE R.a * 2 + 1 >= R.b / 4 - 3").unwrap();
        let w = q.where_clause.unwrap();
        assert_eq!(w.to_string(), "((a * 2) + 1) >= ((b / 4) - 3)");
    }

    #[test]
    fn unknown_qualifier_rejected() {
        let err = parse_paql("SELECT PACKAGE(R) AS P FROM Recipes R WHERE X.kcal > 1").unwrap_err();
        assert!(err.to_string().contains("unknown qualifier"));
    }

    #[test]
    fn subquery_over_wrong_name_rejected() {
        let err = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R SUCH THAT \
             (SELECT COUNT(*) FROM Q WHERE x > 0) >= 1",
        )
        .unwrap_err();
        assert!(err.to_string().contains("must range over the package"));
    }

    #[test]
    fn negative_repeat_rejected() {
        assert!(parse_paql("SELECT PACKAGE(R) AS P FROM R REPEAT -1").is_err());
    }

    #[test]
    fn empty_between_range_rejected() {
        assert!(
            parse_paql("SELECT PACKAGE(R) AS P FROM R SUCH THAT SUM(P.x) BETWEEN 5 AND 2").is_err()
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_paql("SELECT PACKAGE(R) AS P FROM R banana banana").is_err());
    }

    #[test]
    fn constants_allowed_on_either_side() {
        let q = parse_paql(
            "SELECT PACKAGE(R) AS P FROM R SUCH THAT 3 <= COUNT(P.*) AND SUM(P.x) >= -2.5",
        )
        .unwrap();
        assert!(matches!(
            q.such_that[0],
            GlobalPredicate::Cmp { lhs: AggTerm::Const(c), .. } if c == 3.0
        ));
        assert!(matches!(
            q.such_that[1],
            GlobalPredicate::Cmp { rhs: AggTerm::Const(c), .. } if c == -2.5
        ));
    }

    #[test]
    fn null_and_boolean_literals_in_where() {
        let q = parse_paql("SELECT PACKAGE(R) AS P FROM R WHERE R.x IS NOT NULL AND R.ok = TRUE")
            .unwrap();
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("IS NOT NULL"), "{w}");
        assert!(w.contains("ok = true"), "{w}");
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse_paql(
            "select package(r) as p from Recipes r repeat 1 \
             where r.x > 0 such that count(p.*) = 2 maximize sum(p.x)",
        )
        .unwrap();
        assert_eq!(q.repeat, Some(1));
        assert_eq!(q.such_that.len(), 1);
    }
}
