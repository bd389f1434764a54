//! Recursive-descent parser for the supported SQL subset.

use crate::ast::*;
use crate::error::{SqlError, SqlResult};
use crate::schema::DataType;
use crate::token::{tokenize, Symbol, Token};
use crate::value::{ArithOp, Value};

/// How deeply a statement may nest. Every parenthesis (grouping,
/// subquery, function or `CAST` arguments, `IN` list), `CASE`, `NOT` and
/// unary sign opens one level, and every link of a left-deep operator chain
/// (`1 + 1 + …`, `… OR … OR …`) sinks the operands before it one level
/// deeper. A statement past the limit is a parse error, so planning,
/// evaluation and `Drop`, which recurse along the tree, stay within a
/// 2 MiB worker stack on any input.
pub const MAX_NESTING: usize = 64;

/// Parses a single SQL statement.
pub fn parse_statement(sql: &str) -> SqlResult<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, depth: 0, peak: 0, next_query: 0 };
    let stmt = p.parse_statement()?;
    p.skip_symbol(Symbol::Semicolon);
    if !p.at_end() {
        return Err(SqlError::Parse(format!(
            "trailing tokens after statement near {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

/// Parses a SQL `SELECT` statement (convenience wrapper used by most callers).
pub fn parse_select(sql: &str) -> SqlResult<SelectStatement> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(SqlError::Parse(format!("expected SELECT, parsed {other:?}"))),
    }
}

/// Builds the node for one link of an operator chain from its operands.
type Link = fn(Box<Expr>, Box<Expr>) -> Expr;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the construct being parsed (see [`MAX_NESTING`]).
    depth: usize,
    /// Deepest level reached since the innermost [`Parser::measured`]
    /// operand began.
    peak: usize,
    /// The [`QueryId`] the next `SELECT` gets.
    next_query: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn check_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.check_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> SqlResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn check_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), Some(Token::Symbol(x)) if *x == s)
    }

    fn skip_symbol(&mut self, s: Symbol) -> bool {
        if self.check_symbol(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> SqlResult<()> {
        if self.skip_symbol(s) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!("expected {s:?}, found {:?}", self.peek())))
        }
    }

    /// Records that parsing reached nesting `level`, failing past
    /// [`MAX_NESTING`].
    fn reach(&mut self, level: usize) -> SqlResult<()> {
        self.peak = self.peak.max(level);
        if level > MAX_NESTING {
            return Err(SqlError::Parse(format!(
                "statement nested deeper than {MAX_NESTING} levels"
            )));
        }
        Ok(())
    }

    /// Parses `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> SqlResult<T>) -> SqlResult<T> {
        self.depth += 1;
        let result = self.reach(self.depth).and_then(|()| f(self));
        self.depth -= 1;
        result
    }

    /// Parses one chain operand, returning it with the number of levels it
    /// reaches below the current one.
    fn measured(&mut self, operand: fn(&mut Self) -> SqlResult<Expr>) -> SqlResult<(Expr, usize)> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let result = operand(self);
        let height = self.peak - self.depth;
        self.peak = self.peak.max(outer);
        Ok((result?, height))
    }

    /// Parses `operand (op operand)*` into a left-deep tree; `link` consumes
    /// an operator and returns its node constructor. Each link puts every
    /// operand before it one level deeper, so the chain's height is
    /// tracked exactly and checked against [`MAX_NESTING`] link by link.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> SqlResult<Expr>,
        link: fn(&mut Self) -> Option<Link>,
    ) -> SqlResult<Expr> {
        let (mut left, mut height) = self.measured(operand)?;
        while let Some(combine) = link(self) {
            let (right, right_height) = self.measured(operand)?;
            height = height.max(right_height) + 1;
            self.reach(self.depth + height)?;
            left = combine(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn expect_identifier(&mut self) -> SqlResult<String> {
        match self.advance() {
            Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(SqlError::Parse(format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_statement(&mut self) -> SqlResult<Statement> {
        if self.check_keyword("SELECT") {
            Ok(Statement::Select(self.parse_select()?))
        } else if self.check_keyword("CREATE") {
            Ok(Statement::CreateTable(self.parse_create_table()?))
        } else if self.check_keyword("INSERT") {
            Ok(Statement::Insert(self.parse_insert()?))
        } else if self.check_keyword("UPDATE") {
            Ok(Statement::Update(self.parse_update()?))
        } else if self.check_keyword("DELETE") {
            Ok(Statement::Delete(self.parse_delete()?))
        } else if self.check_keyword("EXPLAIN") {
            self.advance();
            let analyze = self.eat_keyword("ANALYZE");
            Ok(Statement::Explain(ExplainStatement { analyze, query: self.parse_select()? }))
        } else {
            Err(SqlError::Parse(format!("unsupported statement start: {:?}", self.peek())))
        }
    }

    fn parse_create_table(&mut self) -> SqlResult<CreateTableStatement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        // optional IF NOT EXISTS
        if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
        }
        let name = self.expect_identifier()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut foreign_keys = Vec::new();
        loop {
            if self.check_keyword("PRIMARY") {
                // table-level PRIMARY KEY (col, ...)
                self.advance();
                self.expect_keyword("KEY")?;
                self.expect_symbol(Symbol::LParen)?;
                let pk_cols = self.parse_identifier_list()?;
                self.expect_symbol(Symbol::RParen)?;
                for (c, _t, pk) in columns.iter_mut() {
                    let c: &String = c;
                    if pk_cols.iter().any(|p| p.eq_ignore_ascii_case(c)) {
                        *pk = true;
                    }
                }
            } else if self.check_keyword("FOREIGN") {
                self.advance();
                self.expect_keyword("KEY")?;
                self.expect_symbol(Symbol::LParen)?;
                let from_col = self.expect_identifier()?;
                self.expect_symbol(Symbol::RParen)?;
                self.expect_keyword("REFERENCES")?;
                let to_table = self.expect_identifier()?;
                self.expect_symbol(Symbol::LParen)?;
                let to_col = self.expect_identifier()?;
                self.expect_symbol(Symbol::RParen)?;
                foreign_keys.push((from_col, to_table, to_col));
            } else {
                let col_name = self.expect_identifier()?;
                // type name may be multiple idents, e.g. "double precision"
                let mut ty = String::new();
                while let Some(Token::Ident(w)) = self.peek() {
                    let upper = w.to_ascii_uppercase();
                    if ["PRIMARY", "NOT", "NULL", "UNIQUE", "DEFAULT", "REFERENCES"]
                        .contains(&upper.as_str())
                    {
                        break;
                    }
                    ty.push_str(w);
                    ty.push(' ');
                    self.advance();
                    // tolerate a parenthesised length, e.g. varchar(20)
                    if self.skip_symbol(Symbol::LParen) {
                        while !self.skip_symbol(Symbol::RParen) {
                            if self.advance().is_none() {
                                return Err(SqlError::Parse("unterminated type".into()));
                            }
                        }
                    }
                }
                let mut primary = false;
                loop {
                    if self.eat_keyword("PRIMARY") {
                        self.expect_keyword("KEY")?;
                        primary = true;
                    } else if self.eat_keyword("NOT") {
                        self.expect_keyword("NULL")?;
                    } else if self.eat_keyword("NULL") || self.eat_keyword("UNIQUE") {
                        // ignore
                    } else if self.eat_keyword("DEFAULT") {
                        self.advance();
                    } else {
                        break;
                    }
                }
                columns.push((col_name, DataType::parse(ty.trim()), primary));
            }
            if !self.skip_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(CreateTableStatement { name, columns, foreign_keys })
    }

    fn parse_insert(&mut self) -> SqlResult<InsertStatement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_identifier()?;
        let mut columns = Vec::new();
        if self.skip_symbol(Symbol::LParen) {
            columns = self.parse_identifier_list()?;
            self.expect_symbol(Symbol::RParen)?;
        }
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Symbol::LParen)?;
            rows.push(self.parse_expr_list()?);
            self.expect_symbol(Symbol::RParen)?;
            if !self.skip_symbol(Symbol::Comma) {
                break;
            }
        }
        Ok(InsertStatement { table, columns, rows })
    }

    fn parse_update(&mut self) -> SqlResult<UpdateStatement> {
        self.expect_keyword("UPDATE")?;
        let table = self.expect_identifier()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let column = self.expect_identifier()?;
            self.expect_symbol(Symbol::Eq)?;
            assignments.push((column, self.parse_expr()?));
            if !self.skip_symbol(Symbol::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(UpdateStatement { table, assignments, where_clause })
    }

    fn parse_delete(&mut self) -> SqlResult<DeleteStatement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.expect_identifier()?;
        let where_clause = if self.eat_keyword("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(DeleteStatement { table, where_clause })
    }

    fn parse_identifier_list(&mut self) -> SqlResult<Vec<String>> {
        let mut out = vec![self.expect_identifier()?];
        while self.skip_symbol(Symbol::Comma) {
            out.push(self.expect_identifier()?);
        }
        Ok(out)
    }

    fn parse_select(&mut self) -> SqlResult<SelectStatement> {
        self.expect_keyword("SELECT")?;
        let mut stmt = SelectStatement::empty();
        stmt.id = QueryId(self.next_query);
        self.next_query += 1;
        stmt.distinct = self.eat_keyword("DISTINCT");
        if self.eat_keyword("ALL") {
            stmt.distinct = false;
        }

        loop {
            stmt.projections.push(self.parse_projection()?);
            if !self.skip_symbol(Symbol::Comma) {
                break;
            }
        }

        if self.eat_keyword("FROM") {
            stmt.from = Some(self.parse_table_ref()?);
            loop {
                let kind = if self.check_keyword("INNER") || self.check_keyword("JOIN") {
                    self.eat_keyword("INNER");
                    if !self.eat_keyword("JOIN") {
                        break;
                    }
                    JoinKind::Inner
                } else if self.check_keyword("LEFT") {
                    self.advance();
                    self.eat_keyword("OUTER");
                    self.expect_keyword("JOIN")?;
                    JoinKind::Left
                } else if self.check_symbol(Symbol::Comma) {
                    // comma join == inner join with ON in WHERE
                    self.advance();
                    let table = self.parse_table_ref()?;
                    stmt.joins.push(Join { kind: JoinKind::Inner, table, on: None });
                    continue;
                } else {
                    break;
                };
                let table = self.parse_table_ref()?;
                let on = if self.eat_keyword("ON") { Some(self.parse_expr()?) } else { None };
                stmt.joins.push(Join { kind, table, on });
            }
        }

        if self.eat_keyword("WHERE") {
            stmt.where_clause = Some(self.parse_expr()?);
        }

        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if !self.skip_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        if self.eat_keyword("HAVING") {
            stmt.having = Some(self.parse_expr()?);
        }

        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                stmt.order_by.push(OrderItem { expr, descending });
                if !self.skip_symbol(Symbol::Comma) {
                    break;
                }
            }
        }

        if self.eat_keyword("LIMIT") {
            let n = self.parse_unsigned()?;
            if self.eat_keyword("OFFSET") {
                stmt.offset = Some(self.parse_unsigned()?);
            } else if self.skip_symbol(Symbol::Comma) {
                // LIMIT offset, count (MySQL style, appears in some gold SQL)
                let count = self.parse_unsigned()?;
                stmt.offset = Some(n);
                stmt.limit = Some(count);
                return Ok(stmt);
            }
            stmt.limit = Some(n);
        }

        Ok(stmt)
    }

    fn parse_unsigned(&mut self) -> SqlResult<u64> {
        match self.advance() {
            Some(Token::Integer(i)) if i >= 0 => Ok(i as u64),
            other => {
                Err(SqlError::Parse(format!("expected non-negative integer, found {other:?}")))
            }
        }
    }

    fn parse_projection(&mut self) -> SqlResult<Projection> {
        if self.check_symbol(Symbol::Star) {
            self.advance();
            return Ok(Projection::Wildcard);
        }
        // table.* ?
        if let (
            Some(Token::Ident(t)),
            Some(Token::Symbol(Symbol::Dot)),
            Some(Token::Symbol(Symbol::Star)),
        ) = (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let table = t.clone();
            self.pos += 3;
            return Ok(Projection::TableWildcard(table));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_identifier()?)
        } else {
            // bare alias: identifier not followed by '.' and not a clause keyword
            match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => {
                    let a = s.clone();
                    self.advance();
                    Some(a)
                }
                Some(Token::QuotedIdent(s)) => {
                    let a = s.clone();
                    self.advance();
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> SqlResult<TableRef> {
        if self.skip_symbol(Symbol::LParen) {
            let query = self.nested(Self::parse_select)?;
            self.expect_symbol(Symbol::RParen)?;
            self.eat_keyword("AS");
            let alias = self.expect_identifier()?;
            return Ok(TableRef::Derived { query: Box::new(query), alias });
        }
        let table = self.expect_identifier()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_identifier()?)
        } else {
            match self.peek() {
                Some(Token::Ident(s)) if !is_clause_keyword(s) => {
                    let a = s.clone();
                    self.advance();
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(TableRef::Named { table, alias })
    }

    // ---- expression parsing (precedence climbing) ----

    fn parse_expr(&mut self) -> SqlResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> SqlResult<Expr> {
        self.chain(Self::parse_and, |p| p.eat_keyword("OR").then_some(Expr::Or))
    }

    fn parse_and(&mut self) -> SqlResult<Expr> {
        self.chain(Self::parse_not, |p| p.eat_keyword("AND").then_some(Expr::And))
    }

    fn parse_not(&mut self) -> SqlResult<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> SqlResult<Expr> {
        let left = self.parse_additive()?;

        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { negated, expr: Box::new(left) });
        }

        let negated = if self.check_keyword("NOT")
            && self.peek_at(1).is_some_and(|t| {
                t.is_keyword("LIKE") || t.is_keyword("IN") || t.is_keyword("BETWEEN")
            }) {
            self.advance();
            true
        } else {
            false
        };

        if self.eat_keyword("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like { negated, expr: Box::new(left), pattern: Box::new(pattern) });
        }
        if self.eat_keyword("IN") {
            self.expect_symbol(Symbol::LParen)?;
            if self.check_keyword("SELECT") {
                let query = self.nested(Self::parse_select)?;
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::InSubquery {
                    negated,
                    expr: Box::new(left),
                    query: Box::new(query),
                });
            }
            let list = self.nested(Self::parse_expr_list)?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { negated, expr: Box::new(left), list });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                negated,
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
            });
        }
        if negated {
            return Err(SqlError::Parse("dangling NOT before comparison".into()));
        }

        let op = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(CompareOp::Eq),
            Some(Token::Symbol(Symbol::NotEq)) => Some(CompareOp::NotEq),
            Some(Token::Symbol(Symbol::Lt)) => Some(CompareOp::Lt),
            Some(Token::Symbol(Symbol::LtEq)) => Some(CompareOp::LtEq),
            Some(Token::Symbol(Symbol::Gt)) => Some(CompareOp::Gt),
            Some(Token::Symbol(Symbol::GtEq)) => Some(CompareOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::Compare { op, left: Box::new(left), right: Box::new(right) });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> SqlResult<Expr> {
        self.chain(Self::parse_multiplicative, |p| {
            if p.skip_symbol(Symbol::Plus) {
                Some(|left, right| Expr::Arith { op: ArithOp::Add, left, right })
            } else if p.skip_symbol(Symbol::Minus) {
                Some(|left, right| Expr::Arith { op: ArithOp::Sub, left, right })
            } else if p.skip_symbol(Symbol::Concat) {
                Some(|left, right| Expr::Concat { left, right })
            } else {
                None
            }
        })
    }

    fn parse_multiplicative(&mut self) -> SqlResult<Expr> {
        self.chain(Self::parse_unary, |p| {
            if p.skip_symbol(Symbol::Star) {
                Some(|left, right| Expr::Arith { op: ArithOp::Mul, left, right })
            } else if p.skip_symbol(Symbol::Slash) {
                Some(|left, right| Expr::Arith { op: ArithOp::Div, left, right })
            } else if p.skip_symbol(Symbol::Percent) {
                Some(|left, right| Expr::Arith { op: ArithOp::Mod, left, right })
            } else {
                None
            }
        })
    }

    fn parse_unary(&mut self) -> SqlResult<Expr> {
        if self.skip_symbol(Symbol::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        if self.skip_symbol(Symbol::Plus) {
            return self.nested(Self::parse_unary);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> SqlResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Integer(i)) => {
                self.advance();
                Ok(Expr::Literal(Value::Integer(i)))
            }
            Some(Token::Float(f)) => {
                self.advance();
                Ok(Expr::Literal(Value::Real(f)))
            }
            Some(Token::String(s)) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::Symbol(Symbol::Star)) => {
                // bare * only valid inside COUNT(*), handled by function parsing;
                // reaching here means COUNT(*) path
                self.advance();
                Ok(Expr::Literal(Value::Integer(1)))
            }
            Some(Token::Symbol(Symbol::LParen)) => {
                self.advance();
                let e = self.nested(|p| {
                    if p.check_keyword("SELECT") {
                        Ok(Expr::ScalarSubquery(Box::new(p.parse_select()?)))
                    } else {
                        p.parse_expr()
                    }
                })?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => self.parse_ident_expr(name),
            Some(Token::QuotedIdent(name)) => {
                self.advance();
                // quoted identifiers can still be table.column
                if self.check_symbol(Symbol::Dot) {
                    self.advance();
                    let col = self.expect_identifier()?;
                    return Ok(Expr::Column { table: Some(name), column: col });
                }
                Ok(Expr::Column { table: None, column: name })
            }
            other => Err(SqlError::Parse(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn parse_ident_expr(&mut self, name: String) -> SqlResult<Expr> {
        let upper = name.to_ascii_uppercase();

        // NULL literal
        if upper == "NULL" {
            self.advance();
            return Ok(Expr::Literal(Value::Null));
        }
        if upper == "TRUE" {
            self.advance();
            return Ok(Expr::Literal(Value::Integer(1)));
        }
        if upper == "FALSE" {
            self.advance();
            return Ok(Expr::Literal(Value::Integer(0)));
        }

        // EXISTS (subquery)
        if upper == "EXISTS" {
            self.advance();
            self.expect_symbol(Symbol::LParen)?;
            let q = self.nested(Self::parse_select)?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Exists { negated: false, query: Box::new(q) });
        }

        // CASE expression
        if upper == "CASE" {
            self.advance();
            return self.nested(Self::parse_case);
        }

        // CAST(expr AS type)
        if upper == "CAST" && matches!(self.peek_at(1), Some(Token::Symbol(Symbol::LParen))) {
            self.advance();
            self.advance();
            let inner = self.nested(Self::parse_expr)?;
            self.expect_keyword("AS")?;
            let ty = self.expect_identifier()?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Cast { expr: Box::new(inner), target: DataType::parse(&ty) });
        }

        // Function call or aggregate
        if matches!(self.peek_at(1), Some(Token::Symbol(Symbol::LParen))) {
            self.advance(); // name
            self.advance(); // (
            if let Some(kind) = AggregateKind::parse(&name) {
                // COUNT(*) special case
                if self.check_symbol(Symbol::Star) {
                    self.advance();
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::Aggregate { kind, distinct: false, arg: None });
                }
                let distinct = self.eat_keyword("DISTINCT");
                if self.check_symbol(Symbol::RParen) {
                    self.advance();
                    return Ok(Expr::Aggregate { kind, distinct, arg: None });
                }
                let arg = self.nested(Self::parse_expr)?;
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::Aggregate { kind, distinct, arg: Some(Box::new(arg)) });
            }
            let args = if self.check_symbol(Symbol::RParen) {
                Vec::new()
            } else {
                self.nested(Self::parse_expr_list)?
            };
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Function { name: name.to_ascii_uppercase(), args });
        }

        // Reserved clause keywords cannot start a bare column reference; this
        // catches malformed statements like `SELECT FROM t`.
        if is_clause_keyword(&name) {
            return Err(SqlError::Parse(format!("unexpected keyword {name} in expression")));
        }

        // Column reference, possibly qualified.
        self.advance();
        if self.check_symbol(Symbol::Dot) {
            self.advance();
            let col = self.expect_identifier()?;
            return Ok(Expr::Column { table: Some(name), column: col });
        }
        Ok(Expr::Column { table: None, column: name })
    }

    /// Parses `expr (, expr)*`.
    fn parse_expr_list(&mut self) -> SqlResult<Vec<Expr>> {
        let mut list = vec![self.parse_expr()?];
        while self.skip_symbol(Symbol::Comma) {
            list.push(self.parse_expr()?);
        }
        Ok(list)
    }

    fn parse_case(&mut self) -> SqlResult<Expr> {
        let operand =
            if self.check_keyword("WHEN") { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let when = self.parse_expr()?;
            self.expect_keyword("THEN")?;
            let then = self.parse_expr()?;
            branches.push((when, then));
        }
        let else_branch =
            if self.eat_keyword("ELSE") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_keyword("END")?;
        Ok(Expr::Case { operand, branches, else_branch })
    }
}

/// Keywords that terminate an implicit alias.
fn is_clause_keyword(word: &str) -> bool {
    matches!(
        word.to_ascii_uppercase().as_str(),
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "JOIN"
            | "INNER"
            | "LEFT"
            | "RIGHT"
            | "OUTER"
            | "ON"
            | "AS"
            | "AND"
            | "OR"
            | "NOT"
            | "UNION"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "ASC"
            | "DESC"
            | "IN"
            | "IS"
            | "LIKE"
            | "BETWEEN"
            | "EXISTS"
            | "SELECT"
            | "DISTINCT"
            | "CASE"
            | "SET"
            | "VALUES"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_select("SELECT name FROM client WHERE gender = 'F'").unwrap();
        assert_eq!(s.projections.len(), 1);
        assert!(s.where_clause.is_some());
        assert_eq!(s.referenced_tables(), vec!["client".to_string()]);
    }

    #[test]
    fn parses_join_with_aliases() {
        let s = parse_select(
            "SELECT T1.`School Name` FROM frpm AS T1 INNER JOIN satscores AS T2 \
             ON T1.CDSCode = T2.cds WHERE T2.NumTstTakr > 500",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert!(matches!(s.joins[0].kind, JoinKind::Inner));
        assert!(s.joins[0].on.is_some());
    }

    #[test]
    fn parses_left_join() {
        let s = parse_select("SELECT a.x FROM a LEFT OUTER JOIN b ON a.id = b.id").unwrap();
        assert!(matches!(s.joins[0].kind, JoinKind::Left));
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let s = parse_select(
            "SELECT district_id, COUNT(*) AS n FROM account GROUP BY district_id \
             HAVING COUNT(*) > 5 ORDER BY n DESC, district_id ASC LIMIT 10 OFFSET 2",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn parses_aggregates_and_distinct() {
        let s = parse_select(
            "SELECT COUNT(DISTINCT client_id), SUM(amount), AVG(T1.amount) FROM loan AS T1",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        if let Projection::Expr { expr: Expr::Aggregate { kind, distinct, .. }, .. } =
            &s.projections[0]
        {
            assert_eq!(*kind, AggregateKind::Count);
            assert!(*distinct);
        } else {
            panic!("expected aggregate");
        }
    }

    #[test]
    fn parses_in_between_like_null() {
        let s = parse_select(
            "SELECT * FROM molecule WHERE element IN ('cl','c') AND bond_type LIKE '%=%' \
             AND molecule_id BETWEEN 1 AND 10 AND label IS NOT NULL",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        let mut cols = Vec::new();
        w.referenced_columns(&mut cols);
        assert!(cols.iter().any(|(_, c)| c == "element"));
        assert!(cols.iter().any(|(_, c)| c == "molecule_id"));
    }

    #[test]
    fn parses_nested_subqueries() {
        let s = parse_select(
            "SELECT name FROM superhero WHERE eye_colour_id IN \
             (SELECT id FROM colour WHERE colour = 'Blue') AND id > (SELECT AVG(id) FROM superhero)",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        match w {
            Expr::And(a, b) => {
                assert!(matches!(*a, Expr::InSubquery { .. }));
                assert!(matches!(*b, Expr::Compare { .. }));
            }
            _ => panic!("expected AND"),
        }
    }

    #[test]
    fn parses_exists() {
        let s = parse_select("SELECT 1 FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.id = a.id)")
            .unwrap();
        assert!(matches!(s.where_clause.unwrap(), Expr::Exists { .. }));
    }

    #[test]
    fn parses_case_and_cast_and_iif() {
        let s = parse_select(
            "SELECT CASE WHEN Magnet = 1 THEN 'yes' ELSE 'no' END, \
             CAST(NumGE1500 AS REAL) / NumTstTakr, IIF(x > 0, 1, 0) FROM satscores",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        if let Projection::Expr { expr: Expr::Function { name, args }, .. } = &s.projections[2] {
            assert_eq!(name, "IIF");
            assert_eq!(args.len(), 3);
        } else {
            panic!("expected IIF function");
        }
    }

    #[test]
    fn parses_derived_table() {
        let s = parse_select("SELECT t.n FROM (SELECT COUNT(*) AS n FROM loan) AS t").unwrap();
        assert!(matches!(s.from, Some(TableRef::Derived { .. })));
    }

    #[test]
    fn parses_create_table_and_insert() {
        let c = parse_statement(
            "CREATE TABLE loan (loan_id INTEGER PRIMARY KEY, account_id INT, amount REAL, \
             FOREIGN KEY (account_id) REFERENCES account(account_id))",
        )
        .unwrap();
        match c {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].2);
                assert_eq!(ct.foreign_keys.len(), 1);
            }
            _ => panic!("expected create table"),
        }
        let i = parse_statement(
            "INSERT INTO loan (loan_id, account_id, amount) VALUES (1, 2, 3.5), (2, 3, 100)",
        )
        .unwrap();
        match i {
            Statement::Insert(ins) => assert_eq!(ins.rows.len(), 2),
            _ => panic!("expected insert"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_select("SELEC x FROM y").is_err());
        assert!(parse_select("SELECT FROM").is_err());
        assert!(parse_select("SELECT x FROM y WHERE").is_err());
        assert!(parse_select("SELECT x FROM y extra garbage !!").is_err());
    }

    #[test]
    fn parses_mysql_style_limit() {
        let s = parse_select("SELECT x FROM t LIMIT 5, 10").unwrap();
        assert_eq!(s.offset, Some(5));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn parses_not_variants() {
        let s = parse_select(
            "SELECT x FROM t WHERE a NOT LIKE '%z%' AND b NOT IN (1,2) AND c NOT BETWEEN 1 AND 2 AND NOT d = 1",
        )
        .unwrap();
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn parses_comma_join() {
        let s = parse_select("SELECT a.x, b.y FROM a, b WHERE a.id = b.id").unwrap();
        assert_eq!(s.joins.len(), 1);
        assert!(s.joins[0].on.is_none());
    }
}
